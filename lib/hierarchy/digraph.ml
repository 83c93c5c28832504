module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type vertex
  type t

  module Vset : Set.S with type elt = vertex
  module Vmap : Map.S with type key = vertex

  val empty : t
  val is_empty : t -> bool
  val add_vertex : vertex -> t -> t
  val add_edge : vertex -> vertex -> t -> t
  val remove_edge : vertex -> vertex -> t -> t
  val remove_vertex : vertex -> t -> t
  val mem_vertex : vertex -> t -> bool
  val mem_edge : vertex -> vertex -> t -> bool
  val vertices : t -> vertex list
  val edges : t -> (vertex * vertex) list
  val succs : vertex -> t -> Vset.t
  val preds : vertex -> t -> Vset.t
  val out_degree : vertex -> t -> int
  val in_degree : vertex -> t -> int
  val n_vertices : t -> int
  val n_edges : t -> int
  val of_edges : (vertex * vertex) list -> t
  val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val fold_edges : (vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val map_vertices : (vertex -> vertex) -> t -> t
  val dense : t -> vertex array * Intgraph.t
  val of_dense : vertex array -> Intgraph.t -> t
  val reachable : vertex -> t -> Vset.t
  val has_path : vertex -> vertex -> t -> bool
  val is_acyclic : t -> bool
  val topological_sort : t -> vertex list option
  val scc : t -> vertex list list
  val condensation : t -> vertex list list * (vertex * vertex) list
  val transitive_closure : t -> t
  val transitive_reduction : t -> t
  val pp : Format.formatter -> t -> unit
end

module Make (V : VERTEX) : S with type vertex = V.t = struct
  type vertex = V.t

  module Vset = Set.Make (V)
  module Vmap = Map.Make (V)

  (* Invariant: every vertex appearing in an adjacency set of [succ] or
     [pred] is also a key of both maps; [pred] mirrors [succ] exactly. *)
  type t = { succ : Vset.t Vmap.t; pred : Vset.t Vmap.t }

  let empty = { succ = Vmap.empty; pred = Vmap.empty }
  let is_empty g = Vmap.is_empty g.succ

  let adjacency v m = match Vmap.find_opt v m with Some s -> s | None -> Vset.empty

  let add_vertex v g =
    if Vmap.mem v g.succ then g
    else { succ = Vmap.add v Vset.empty g.succ; pred = Vmap.add v Vset.empty g.pred }

  let add_edge u v g =
    let g = add_vertex u (add_vertex v g) in
    {
      succ = Vmap.add u (Vset.add v (adjacency u g.succ)) g.succ;
      pred = Vmap.add v (Vset.add u (adjacency v g.pred)) g.pred;
    }

  let remove_edge u v g =
    {
      succ = Vmap.update u (Option.map (Vset.remove v)) g.succ;
      pred = Vmap.update v (Option.map (Vset.remove u)) g.pred;
    }

  let remove_vertex v g =
    let drop m = Vmap.map (Vset.remove v) (Vmap.remove v m) in
    { succ = drop g.succ; pred = drop g.pred }

  let mem_vertex v g = Vmap.mem v g.succ
  let mem_edge u v g = Vset.mem v (adjacency u g.succ)
  let vertices g = List.map fst (Vmap.bindings g.succ)

  let edges g =
    Vmap.fold (fun u vs acc -> Vset.fold (fun v acc -> (u, v) :: acc) vs acc) g.succ []
    |> List.rev

  let succs v g = adjacency v g.succ
  let preds v g = adjacency v g.pred
  let out_degree v g = Vset.cardinal (succs v g)
  let in_degree v g = Vset.cardinal (preds v g)
  let n_vertices g = Vmap.cardinal g.succ
  let n_edges g = Vmap.fold (fun _ vs n -> n + Vset.cardinal vs) g.succ 0
  let of_edges pairs = List.fold_left (fun g (u, v) -> add_edge u v g) empty pairs
  let fold_vertices f g acc = Vmap.fold (fun v _ acc -> f v acc) g.succ acc
  let fold_edges f g acc = List.fold_left (fun acc (u, v) -> f u v acc) acc (edges g)

  let map_vertices f g =
    let g' = fold_vertices (fun v acc -> add_vertex (f v) acc) g empty in
    fold_edges (fun u v acc -> add_edge (f u) (f v) acc) g g'

  let dense g =
    let next = ref (-1) in
    (* [Vmap.map] visits the keys in ascending order. *)
    let id =
      Vmap.map
        (fun _ ->
          incr next;
          !next)
        g.succ
    in
    let row ws = Array.of_list (Vset.fold (fun w acc -> Vmap.find w id :: acc) ws [] |> List.rev) in
    ( Array.of_list (vertices g),
      Array.of_list (Vmap.fold (fun _ ws acc -> row ws :: acc) g.succ [] |> List.rev) )

  let of_dense vs rows =
    let preds = Array.make (Array.length vs) [] in
    Array.iteri (fun u row -> Array.iter (fun v -> preds.(v) <- vs.(u) :: preds.(v)) row) rows;
    let map f = Vmap.of_seq (Seq.mapi (fun i v -> (v, f i)) (Array.to_seq vs)) in
    {
      succ = map (fun u -> Vset.of_list (List.map (fun v -> vs.(v)) (Array.to_list rows.(u))));
      pred = map (fun v -> Vset.of_list preds.(v));
    }

  let reachable start g =
    if not (mem_vertex start g) then Vset.empty
    else
      let rec visit seen v =
        if Vset.mem v seen then seen
        else Vset.fold (fun w seen -> visit seen w) (succs v g) (Vset.add v seen)
      in
      visit Vset.empty start

  let has_path u v g =
    let exception Found in
    let rec visit seen w =
      if V.compare w v = 0 then raise Found
      else if Vset.mem w seen then seen
      else Vset.fold (fun x seen -> visit seen x) (succs w g) (Vset.add w seen)
    in
    mem_vertex u g && match visit Vset.empty u with _ -> false | exception Found -> true

  let topological_sort g =
    let vs, rows = dense g in
    Option.map (List.map (fun i -> vs.(i))) (Intgraph.topological_order rows)

  let is_acyclic g = Intgraph.is_acyclic (snd (dense g))

  let scc g =
    let vs, rows = dense g in
    List.map (List.map (fun i -> vs.(i))) (Intgraph.scc rows)

  let condensation g =
    let vs, rows = dense g in
    let comps = Intgraph.scc rows in
    let comp_of = Array.make (Array.length vs) 0 in
    List.iteri (fun c comp -> List.iter (fun v -> comp_of.(v) <- c) comp) comps;
    let head = Array.of_list (List.map (fun comp -> vs.(List.hd comp)) comps) in
    let seen = Hashtbl.create 97 and inter_edges = ref [] in
    Array.iteri
      (fun u row ->
        Array.iter
          (fun v ->
            let cu = comp_of.(u) and cv = comp_of.(v) in
            if cu <> cv && not (Hashtbl.mem seen (cu, cv)) then begin
              Hashtbl.add seen (cu, cv) ();
              inter_edges := (head.(cu), head.(cv)) :: !inter_edges
            end)
          row)
      rows;
    (List.map (List.map (fun i -> vs.(i))) comps, !inter_edges)

  let transitive_closure g =
    fold_vertices
      (fun v acc ->
        Vset.fold
          (fun w acc -> if V.compare v w = 0 then acc else add_edge v w acc)
          (reachable v g) acc)
      g g

  let transitive_reduction g =
    let vs, rows = dense g in
    match Intgraph.transitive_reduction rows with
    | None -> invalid_arg "Digraph.transitive_reduction: graph has a cycle"
    | Some hasse -> of_dense vs hasse

  let pp ppf g =
    Format.fprintf ppf "@[<v>";
    Vmap.iter
      (fun u vs ->
        Format.fprintf ppf "@[%a ->" V.pp u;
        Vset.iter (fun v -> Format.fprintf ppf " %a" V.pp v) vs;
        Format.fprintf ppf "@]@,")
      g.succ;
    Format.fprintf ppf "@]"
end
