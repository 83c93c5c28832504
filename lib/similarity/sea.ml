module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module G = Hierarchy.G
module Nmap = Map.Make (Node)

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

(* Each string is prepared once; node pairs are then tested string pair by
   string pair, in the argument order [Node_dist.within] uses, stopping at
   the first pair within [eps]. The strings of node [i] occupy
   [start.(i) .. start.(i + 1) - 1] of [prepared]. *)
let epsilon_edges ~metric ~eps h =
  check_threshold eps;
  let (Metric.Staged s) = Metric.stage metric ~eps in
  let nodes = Array.of_list (Hierarchy.nodes h) in
  let n = Array.length nodes in
  let strings = Array.map Node.strings nodes in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i ss -> start.(i + 1) <- start.(i) + List.length ss) strings;
  let prepared = Array.of_list (List.concat_map (List.map s.prepare) (Array.to_list strings)) in
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
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if adjacent i j then edges := (i, j) :: !edges
    done
  done;
  !edges

let build ~lift ~eps h edges =
  check_threshold eps;
  let original = Array.of_list (Hierarchy.nodes h) in
  let n = Array.length original in
  let cliques = Clique.maximal_cliques_of_edges ~n edges in
  let clusters = List.map (fun c -> (c, cluster_of original c)) cliques in
  (* μ: original node index -> enhanced nodes containing it. *)
  let mu_tbl = Array.make (max n 1) [] in
  List.iter
    (fun (clique, node) -> List.iter (fun i -> mu_tbl.(i) <- node :: mu_tbl.(i)) clique)
    clusters;
  let mu =
    List.init n (fun i -> (original.(i), List.sort_uniq Node.compare mu_tbl.(i)))
  in
  (* Lift the ordering of H onto the enhanced nodes. *)
  let base = List.fold_left (fun g (_, node) -> G.add_vertex node g) G.empty clusters in
  let graph =
    match lift with
    | Existential ->
        (* An enhanced edge for every Hasse edge of H between any images. *)
        let images_of =
          let index = ref Nmap.empty in
          Array.iteri (fun i o -> index := Nmap.add o mu_tbl.(i) !index) original;
          fun node -> Option.value ~default:[] (Nmap.find_opt node !index)
        in
        List.fold_left
          (fun g (a, b) ->
            List.fold_left
              (fun g a' ->
                List.fold_left
                  (fun g b' -> if Node.equal a' b' then g else G.add_edge a' b' g)
                  g (images_of b))
              g (images_of a))
          base (Hierarchy.edges h)
    | Universal ->
        (* Edge V -> W iff every member pair is ordered in H. Candidates
           are restricted to pairs connected by at least one Hasse edge. *)
        let member_sets =
          List.map (fun (clique, node) -> (node, List.map (fun i -> original.(i)) clique)) clusters
        in
        let hg = Hierarchy.graph h in
        let all_ordered ms ns =
          List.for_all (fun a -> List.for_all (fun b -> G.has_path a b hg) ns) ms
        in
        List.fold_left
          (fun g (v, ms) ->
            List.fold_left
              (fun g (w, ns) ->
                if Node.equal v w then g
                else if
                  List.exists
                    (fun a -> List.exists (fun b -> G.mem_edge a b hg) ns)
                    ms
                  && all_ordered ms ns
                then G.add_edge v w g
                else g)
              g member_sets)
          base member_sets
  in
  (mu, graph)

let of_edges ?(lift = Existential) ~metric ~eps h edges =
  let mu, graph = build ~lift ~eps h edges in
  if not (G.is_acyclic graph) then None
  else
    let hierarchy = Hierarchy.normalize (Hierarchy.of_graph graph) in
    Some { hierarchy; mu; eps; metric }

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
