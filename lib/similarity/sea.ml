module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module G = Hierarchy.G
module Intgraph = Toss_hierarchy.Intgraph

type lift = Existential | Universal

type t = {
  hierarchy : Hierarchy.t;
  mu : (Node.t * Node.t list) list;
  eps : float;
  metric : Metric.t;
}

(* The enhanced node induced by a clique of original nodes. *)
let cluster_of original_nodes clique =
  List.fold_left
    (fun acc i -> Node.union acc original_nodes.(i))
    original_nodes.(List.hd clique) (List.tl clique)

let check_threshold eps = if eps < 0. then invalid_arg "Sea.enhance: negative threshold"

(* The strings of every node, prepared once: node [i]'s occupy
   [start.(i) .. start.(i + 1) - 1] of [prepared]. *)
let prepare_nodes prepare h =
  let strings = Array.of_list (List.map Node.strings (Hierarchy.nodes h)) in
  let n = Array.length strings in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i ss -> start.(i + 1) <- start.(i) + List.length ss) strings;
  (Array.of_list (List.concat_map (List.map prepare) (Array.to_list strings)), start)

(* Calls [visit i js] for every node [i], from the last to the first,
   with [js] the later nodes that share a key with [i], each once. A pair
   of strings within [eps] shares a key (the key law of [Metric.staged]),
   so no other node can be adjacent to [i]. The index is flat arrays: an
   open-addressing table from each key to the last of its occurrences,
   and the occurrences of node [i], [key_start.(i) .. key_start.(i + 1) - 1],
   each linked through [next] to the key's occurrence in the next node
   that has it. A node's candidates are the nodes down its keys' chains,
   collected once each with a stamp. *)
let iter_candidates keys prepared start visit =
  let n = Array.length start - 1 in
  (* Keys are computed twice, once to size the arrays and once to fill
     them, so that no list of them outlives a string. *)
  let m = Array.fold_left (fun m p -> m + List.length (keys p)) 0 prepared in
  let size =
    let rec grow size = if 2 * size >= 3 * m then size else grow (2 * size) in
    grow 16
  in
  let slot_key = Array.make size 0 and last = Array.make size (-1) in
  let rec slot key s =
    let s = s land (size - 1) in
    if last.(s) < 0 || slot_key.(s) = key then s else slot key (s + 1)
  in
  let node = Array.make m 0 and next = Array.make m (-1) and key_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let t = ref key_start.(i) in
    for x = start.(i) to start.(i + 1) - 1 do
      List.iter
        (fun key ->
          let s = slot key ((key * 0x1e3779b97f4a7c15) lsr 17) in
          let previous = last.(s) in
          if previous < 0 || node.(previous) <> i then begin
            if previous < 0 then slot_key.(s) <- key else next.(previous) <- !t;
            last.(s) <- !t;
            node.(!t) <- i;
            incr t
          end)
        (keys prepared.(x))
    done;
    key_start.(i + 1) <- !t
  done;
  let stamp = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let candidates = ref [] in
    for t = key_start.(i) to key_start.(i + 1) - 1 do
      let u = ref next.(t) in
      while !u >= 0 do
        let j = node.(!u) in
        if stamp.(j) <> i then begin
          stamp.(j) <- i;
          candidates := j :: !candidates
        end;
        u := next.(!u)
      done
    done;
    visit i !candidates
  done

(* Candidate pairs are tested string pair by string pair, in the argument
   order [Node_dist.within] uses, stopping at the first pair within
   [eps]. *)
let epsilon_edges ~metric ~eps h =
  check_threshold eps;
  let (Metric.Staged s) = Metric.stage metric ~eps in
  let prepared, start = prepare_nodes s.prepare h in
  let adjacent i j =
    let found = ref false and x = ref start.(i) in
    while (not !found) && !x < start.(i + 1) do
      let px = prepared.(!x) and y = ref start.(j) in
      while (not !found) && !y < start.(j + 1) do
        if s.test px prepared.(!y) then found := true;
        incr y
      done;
      incr x
    done;
    !found
  in
  let edges = ref [] in
  iter_candidates s.keys prepared start (fun i candidates ->
      let adjacent_to_i = List.sort Int.compare (List.filter (adjacent i) candidates) in
      edges := List.rev_append (List.rev_map (fun j -> (i, j)) adjacent_to_i) !edges);
  !edges

let candidate_pairs ~metric ~eps h =
  check_threshold eps;
  let (Metric.Staged s) = Metric.stage metric ~eps in
  let prepared, start = prepare_nodes s.prepare h in
  let count = ref 0 in
  iter_candidates s.keys prepared start (fun _ candidates ->
      count := !count + List.length candidates);
  !count

(* The enhanced nodes, μ, and the lifted ordering over the enhanced
   nodes' positions. Cliques whose clusters coincide as nodes are one
   enhanced node. *)
let build ~lift ~eps h edges =
  check_threshold eps;
  let original, hasse = G.dense (Hierarchy.graph h) in
  let n = Array.length original in
  let cliques = Array.of_list (Clique.maximal_cliques_of_edges ~n edges) in
  let cluster = Array.map (cluster_of original) cliques in
  (* [id.(c)]: clique [c]'s position in [nodes], the distinct clusters in
     ascending order. *)
  let nodes, id = Node.distinct cluster in
  (* μ: original node position -> the cliques containing it. *)
  let images = Array.make n [] in
  Array.iteri (fun c clique -> List.iter (fun i -> images.(i) <- c :: images.(i)) clique) cliques;
  let mu =
    List.init n (fun i ->
        (original.(i), List.sort_uniq Node.compare (List.map (fun c -> cluster.(c)) images.(i))))
  in
  (* Lift the ordering of H onto the enhanced nodes. *)
  let lifted =
    match lift with
    | Existential ->
        (* An enhanced edge for every Hasse edge of H between any images. *)
        let lifted = ref [] in
        Array.iteri
          (fun i row ->
            Array.iter
              (fun j ->
                List.iter
                  (fun a ->
                    List.iter
                      (fun b -> if id.(a) <> id.(b) then lifted := (id.(a), id.(b)) :: !lifted)
                      images.(j))
                  images.(i))
              row)
          hasse;
        !lifted
    | Universal ->
        (* Edge V -> W iff every member pair is ordered in H. Candidates
           are restricted to pairs connected by at least one Hasse edge. *)
        let hg = Hierarchy.graph h in
        let lifted = ref [] in
        Array.iteri
          (fun a ms ->
            Array.iteri
              (fun b ns ->
                if
                  id.(a) <> id.(b)
                  && List.exists (fun i -> List.exists (fun j -> Array.mem j hasse.(i)) ns) ms
                  && List.for_all
                       (fun i -> List.for_all (fun j -> G.has_path original.(i) original.(j) hg) ns)
                       ms
                then lifted := (id.(a), id.(b)) :: !lifted)
              cliques)
          cliques;
        !lifted
  in
  (mu, nodes, Intgraph.of_edges (Array.length nodes) lifted)

let of_edges ?(lift = Existential) ~metric ~eps h edges =
  let mu, nodes, lifted = build ~lift ~eps h edges in
  match Intgraph.transitive_reduction lifted with
  | None -> None
  | Some hasse ->
      Some { hierarchy = Hierarchy.of_graph (G.of_dense nodes hasse); mu; eps; metric }

let enhance ?lift ~metric ~eps h =
  of_edges ?lift ~metric ~eps h (epsilon_edges ~metric ~eps h)

let enhance_exn ?lift ~metric ~eps h =
  match enhance ?lift ~metric ~eps h with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf "Sea.enhance_exn: (H, %s, %g) is similarity inconsistent"
           metric.Metric.name eps)

let is_consistent ?lift ~metric ~eps h = Option.is_some (enhance ?lift ~metric ~eps h)

let mu_of t node =
  match List.find_opt (fun (o, _) -> Node.equal o node) t.mu with
  | Some (_, images) -> images
  | None -> []

let clusters t = Hierarchy.nodes t.hierarchy

(* The enhanced hierarchy's term index gives the clusters containing a
   term directly, so co-residence costs O(clusters containing x) rather
   than a scan of every cluster. *)
let similar t x y =
  List.exists (Node.mem y) (Hierarchy.nodes_of x t.hierarchy)

let similar_terms t x =
  List.concat_map Node.strings (Hierarchy.nodes_of x t.hierarchy)
  |> List.sort_uniq String.compare

let check ~original t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let enhanced = clusters t in
  let originals = Hierarchy.nodes original in
  (* Condition 2: pairwise similarity inside each enhanced node, at the
     granularity of the original nodes it merges. *)
  List.iter
    (fun v ->
      let members = List.filter (fun o -> Node.subset o v) originals in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (Node_dist.within t.metric ~eps:t.eps a b) then
                err "condition 2: %a and %a share %a but d > %g" Node.pp a Node.pp b
                  Node.pp v t.eps)
            members)
        members)
    enhanced;
  (* Condition 3: every similar pair shares an enhanced node. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Node_dist.within t.metric ~eps:t.eps a b then begin
            let ia = mu_of t a and ib = mu_of t b in
            let shares =
              List.exists (fun x -> List.exists (Node.equal x) ib) ia
            in
            if not shares then
              err "condition 3: d(%a, %a) <= %g but no shared image" Node.pp a Node.pp
                b t.eps
          end)
        originals)
    originals;
  (* Condition 4: no enhanced node strictly contains another. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if (not (Node.equal a b)) && Node.subset a b then
            err "condition 4: %a subset of %a" Node.pp a Node.pp b)
        enhanced)
    enhanced;
  if not (Hierarchy.is_consistent t.hierarchy) then err "acyclicity violated";
  match !errors with [] -> Ok () | es -> Error (List.rev es)
