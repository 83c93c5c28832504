module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module Intgraph = Toss_hierarchy.Intgraph

(* Source-qualified hierarchy nodes: the keys of the witness. *)
module Q = struct
  type t = { source : int; node : Node.t }

  let compare a b =
    match Int.compare a.source b.source with
    | 0 -> Node.compare a.node b.node
    | c -> c
end

module Qmap = Map.Make (Q)

type witness = Node.t Qmap.t

type error = Neq_violated of Interop.t | Unknown_source of Interop.t

type result = { fused : Hierarchy.t; witness : witness }

let pp_error ppf = function
  | Neq_violated c -> Format.fprintf ppf "constraint violated by fusion: %a" Interop.pp c
  | Unknown_source c -> Format.fprintf ppf "constraint references unknown source: %a" Interop.pp c

(* The position of [x] in the ascending array [a]. *)
let position a x =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    match Node.compare x a.(mid) with
    | 0 -> mid
    | c when c < 0 -> search lo (mid - 1)
    | _ -> search (mid + 1) hi
  in
  search 0 (Array.length a - 1)

(* A fusion on dense vertex ids. Vertex [v] is source [source.(v)]'s
   node [node.(v)]: each source's own nodes, numbered source by source in
   node order, then one singleton per (source, term) that a [Leq] names
   and the source does not know. [fused_of.(v)] is the position of the
   fused node absorbing [v] in [fused_nodes], ascending. *)
type dense = {
  source : int array;
  node : Node.t array;
  fused_nodes : Node.t array;
  fused_of : int array;
  hierarchy : Hierarchy.t;
}

let dense_fuse ~auto_equate hs constraints =
  let sources = Array.of_list hs in
  let n = Array.length sources in
  let constraints = Interop.expand constraints in
  let bad_source =
    List.find_opt
      (fun c ->
        let out { Interop.source; _ } = source < 0 || source >= n in
        match c with
        | Interop.Leq (a, b) | Interop.Eq (a, b) | Interop.Neq (a, b) -> out a || out b)
      constraints
  in
  match bad_source with
  | Some c -> Error (Unknown_source c)
  | None ->
      (* 1. Vertices: each source's nodes in node order (its Hasse edges
         as rows over them), then the unknown terms of [Leq] constraints. *)
      let numbered = Array.map (fun h -> Hierarchy.G.dense (Hierarchy.graph h)) sources in
      let offset = Array.make (n + 1) 0 in
      Array.iteri (fun i (nodes, _) -> offset.(i + 1) <- offset.(i) + Array.length nodes) numbered;
      let unknown = Hashtbl.create 16 and unknowns = ref [] in
      let find i term =
        match Hierarchy.nodes_of term sources.(i) with
        | node :: _ -> Some (offset.(i) + position (fst numbered.(i)) node)
        | [] -> Hashtbl.find_opt unknown (i, term)
      in
      let vertex { Interop.source = i; term } =
        match find i term with
        | Some v -> v
        | None ->
            let v = offset.(n) + Hashtbl.length unknown in
            Hashtbl.add unknown (i, term) v;
            unknowns := (i, term) :: !unknowns;
            v
      in
      let leq =
        List.filter_map
          (function
            | Interop.Leq (a, b) ->
                let a = vertex a in
                Some (a, vertex b)
            | Interop.Eq _ -> assert false (* removed by expand *)
            | Interop.Neq _ -> None)
          constraints
      in
      let unknowns = Array.of_list (List.rev !unknowns) in
      let source =
        Array.concat
          (Array.to_list (Array.mapi (fun i (nodes, _) -> Array.make (Array.length nodes) i) numbered)
          @ [ Array.map fst unknowns ])
      and node =
        Array.concat
          (Array.to_list (Array.map fst numbered)
          @ [ Array.map (fun (_, term) -> Node.singleton term) unknowns ])
      in
      let n_vertices = Array.length node in
      (* 2. Equal spellings are one class (union-find, the smaller root
         kept). *)
      let parent = Array.init n_vertices Fun.id in
      let rec root v =
        let p = parent.(v) in
        if p = v then v
        else begin
          let r = root p in
          parent.(v) <- r;
          r
        end
      in
      if auto_equate then begin
        let first = Hashtbl.create 256 in
        Array.iteri
          (fun v x ->
            List.iter
              (fun s ->
                match Hashtbl.find_opt first s with
                | None -> Hashtbl.add first s v
                | Some w ->
                    let a = root v and b = root w in
                    if a <> b then parent.(max a b) <- min a b)
              (Node.strings x))
          node
      end;
      let n_classes = ref 0 and class_of = Array.make n_vertices 0 in
      for v = 0 to n_vertices - 1 do
        let r = root v in
        if r = v then begin
          class_of.(v) <- !n_classes;
          incr n_classes
        end
        else class_of.(v) <- class_of.(r)
      done;
      (* 3. Hasse and [Leq] edges between classes; their strongly
         connected components are the fused nodes. *)
      let edges = ref [] in
      let add u v =
        let a = class_of.(u) and b = class_of.(v) in
        if a <> b then edges := (a, b) :: !edges
      in
      List.iter (fun (u, v) -> add u v) leq;
      Array.iteri
        (fun i (_, rows) ->
          Array.iteri (fun u row -> Array.iter (fun v -> add (offset.(i) + u) (offset.(i) + v)) row) rows)
        numbered;
      let edges = !edges in
      let classes = Intgraph.of_edges !n_classes edges in
      let components = Array.of_list (Intgraph.scc classes) in
      let component_of = Array.make !n_classes 0 in
      Array.iteri (fun c members -> List.iter (fun k -> component_of.(k) <- c) members) components;
      let strings = Array.make (Array.length components) [] in
      Array.iteri
        (fun v x ->
          let c = component_of.(class_of.(v)) in
          strings.(c) <- List.rev_append (Node.strings x) strings.(c))
        node;
      (* 4. Components whose fused nodes coincide (possible only without
         [auto_equate]) are one node; the fused nodes are numbered in
         ascending order. *)
      let fused_nodes, fused_id = Node.distinct (Array.map Node.of_list strings) in
      (* 5. The order between fused nodes, and its Hasse diagram. Two
         coinciding components joined by an edge make a self-loop, which
         is a cycle. *)
      let fused_edges =
        List.filter_map
          (fun (u, v) ->
            let cu = component_of.(u) and cv = component_of.(v) in
            if cu = cv then None else Some (fused_id.(cu), fused_id.(cv)))
          edges
      in
      let hierarchy =
        match
          Intgraph.transitive_reduction
            (Intgraph.of_edges (Array.length fused_nodes) fused_edges)
        with
        | Some hasse -> Hierarchy.of_graph (Hierarchy.G.of_dense fused_nodes hasse)
        | None ->
            (* What normalizing the cyclic fused diagram raised. *)
            invalid_arg "Hierarchy.normalize: cyclic diagram"
      in
      let fused_of = Array.map (fun k -> fused_id.(component_of.(k))) class_of in
      (* 6. Neq constraints. *)
      let violated =
        List.find_opt
          (function
            | Interop.Neq (a, b) -> (
                match (find a.Interop.source a.Interop.term, find b.Interop.source b.Interop.term) with
                | Some u, Some v -> fused_of.(u) = fused_of.(v)
                | _ -> false)
            | Interop.Leq _ | Interop.Eq _ -> false)
          constraints
      in
      (match violated with
      | Some c -> Error (Neq_violated c)
      | None -> Ok { source; node; fused_nodes; fused_of; hierarchy })

let fuse ?(auto_equate = true) hs constraints =
  Result.map
    (fun d ->
      let witness = ref Qmap.empty in
      Array.iteri
        (fun v source ->
          witness :=
            Qmap.add { Q.source; node = d.node.(v) } d.fused_nodes.(d.fused_of.(v)) !witness)
        d.source;
      { fused = d.hierarchy; witness = !witness })
    (dense_fuse ~auto_equate hs constraints)

let fuse_exn ?auto_equate hs constraints =
  match fuse ?auto_equate hs constraints with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "Fusion.fuse_exn: %a" pp_error e)

let psi witness ~source node = Qmap.find_opt { Q.source = source; node } witness

let psi_term witness ~source term =
  (* The witness is keyed by original nodes; scan for one containing the
     term within the given source. *)
  Qmap.fold
    (fun q fused acc ->
      match acc with
      | Some _ -> acc
      | None -> if q.Q.source = source && Node.mem term q.Q.node then Some fused else None)
    witness None

let fuse_ontologies ?(auto_equate = true) ontologies constraints_by_relation =
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.fold_left
    (fun acc rel ->
      match acc with
      | Error _ -> acc
      | Ok fused_ontology -> (
          let hs = List.map (Ontology.get rel) ontologies in
          let cs = Option.value ~default:[] (List.assoc_opt rel constraints_by_relation) in
          match dense_fuse ~auto_equate hs cs with
          | Ok { hierarchy; _ } -> Ok (Ontology.add rel hierarchy fused_ontology)
          | Error e -> Error (rel, e)))
    (Ok Ontology.empty) relations

let check_integration hs constraints { fused; witness } =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Axiom 1: input orderings are preserved. *)
  List.iteri
    (fun i h ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              if Hierarchy.node_leq h x y then begin
                match (psi witness ~source:i x, psi witness ~source:i y) with
                | Some fx, Some fy ->
                    if not (Hierarchy.node_leq fused fx fy) then
                      err "axiom 1: %a <= %a in source %d not preserved" Node.pp x
                        Node.pp y i
                | _ -> err "axiom 1: source %d node unmapped" i
              end)
            (Hierarchy.nodes h))
        (Hierarchy.nodes h))
    hs;
  (* Axiom 2: Leq constraints hold in the fusion. *)
  List.iter
    (fun c ->
      match c with
      | Interop.Leq (a, b) -> (
          match
            ( psi_term witness ~source:a.Interop.source a.Interop.term,
              psi_term witness ~source:b.Interop.source b.Interop.term )
          with
          | Some fa, Some fb ->
              if not (Hierarchy.node_leq fused fa fb) then
                err "axiom 2: %a not honoured" Interop.pp c
          | _ -> err "axiom 2: %a references unmapped term" Interop.pp c)
      | Interop.Eq _ | Interop.Neq _ -> ())
    (Interop.expand constraints);
  match !errors with [] -> Ok () | es -> Error (List.rev es)
