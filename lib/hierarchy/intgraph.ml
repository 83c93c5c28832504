type t = int array array

let of_edges n edges =
  let rows = Array.make n [] in
  let compare (a, b) (c, d) = if a = c then Int.compare b d else Int.compare a c in
  List.iter (fun (u, v) -> rows.(u) <- v :: rows.(u)) (List.rev (List.sort_uniq compare edges));
  Array.map Array.of_list rows

let scc g =
  (* Tarjan's algorithm. *)
  let n = Array.length g in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and stack = Array.make n 0 in
  let depth = ref 0 and next = ref 0 and components = ref [] in
  let rec connect v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack.(!depth) <- v;
    incr depth;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if index.(w) < 0 then begin
          connect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      g.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        decr depth;
        let w = stack.(!depth) in
        on_stack.(w) <- false;
        if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done;
  List.rev !components

(* Kahn's algorithm: the queue holds the order; it is complete iff the
   graph is acyclic. *)
let kahn g =
  let n = Array.length g in
  let in_degree = Array.make n 0 in
  Array.iter (Array.iter (fun w -> in_degree.(w) <- in_degree.(w) + 1)) g;
  let queue = Array.make n 0 and tail = ref 0 in
  let push v =
    queue.(!tail) <- v;
    incr tail
  in
  Array.iteri (fun v d -> if d = 0 then push v) in_degree;
  let head = ref 0 in
  while !head < !tail do
    Array.iter
      (fun w ->
        in_degree.(w) <- in_degree.(w) - 1;
        if in_degree.(w) = 0 then push w)
      g.(queue.(!head));
    incr head
  done;
  (queue, !tail = n)

let topological_order g =
  match kahn g with queue, true -> Some (Array.to_list queue) | _, false -> None

let is_acyclic g = snd (kahn g)

let transitive_reduction g =
  if not (is_acyclic g) then None
  else begin
    let n = Array.length g in
    (* [stamp.(v) = u] once [v] is known to be reachable from a successor
       of [u] by a path of length >= 1; such an edge [u -> v] is
       redundant. *)
    let stamp = Array.make n (-1) and stack = Array.make n 0 in
    Some
      (Array.mapi
         (fun u successors ->
           let depth = ref 0 in
           let mark v =
             if stamp.(v) <> u then begin
               stamp.(v) <- u;
               stack.(!depth) <- v;
               incr depth
             end
           in
           Array.iter
             (fun w ->
               Array.iter mark g.(w);
               while !depth > 0 do
                 decr depth;
                 Array.iter mark g.(stack.(!depth))
               done)
             successors;
           Array.of_list (List.filter (fun v -> stamp.(v) <> u) (Array.to_list successors)))
         g)
  end
