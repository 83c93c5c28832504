module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy
module Digraph = Toss_hierarchy.Digraph

(* Source-qualified hierarchy nodes: the vertices of the hierarchy graph. *)
module Q = struct
  type t = { source : int; node : Node.t }

  let compare a b =
    match Int.compare a.source b.source with
    | 0 -> Node.compare a.node b.node
    | c -> c

  let pp ppf { source; node } = Format.fprintf ppf "%a:%d" Node.pp node source
end

module QG = Digraph.Make (Q)
module Qmap = Map.Make (Q)

type witness = Node.t Qmap.t

type error = Neq_violated of Interop.t | Unknown_source of Interop.t

type result = { fused : Hierarchy.t; witness : witness }

let pp_error ppf = function
  | Neq_violated c -> Format.fprintf ppf "constraint violated by fusion: %a" Interop.pp c
  | Unknown_source c -> Format.fprintf ppf "constraint references unknown source: %a" Interop.pp c

(* The vertex of source [i] whose node contains [term]; a fresh singleton
   vertex if the term is unknown to that hierarchy. *)
let vertex_of hs i term =
  match Hierarchy.nodes_of term hs.(i) with
  | node :: _ -> { Q.source = i; node }
  | [] -> { Q.source = i; node = Node.singleton term }

let fuse ?(auto_equate = true) hs constraints =
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
      (* 1. Hierarchy graph: per-source vertices and Hasse edges. *)
      let g =
        List.fold_left
          (fun g (i, h) ->
            let g =
              List.fold_left
                (fun g node -> QG.add_vertex { Q.source = i; node } g)
                g (Hierarchy.nodes h)
            in
            List.fold_left
              (fun g (u, v) ->
                QG.add_edge { Q.source = i; node = u } { Q.source = i; node = v } g)
              g (Hierarchy.edges h))
          QG.empty
          (List.mapi (fun i h -> (i, h)) hs)
      in
      (* 2. Constraint edges. *)
      let g =
        List.fold_left
          (fun g c ->
            match c with
            | Interop.Leq (a, b) ->
                QG.add_edge
                  (vertex_of sources a.Interop.source a.Interop.term)
                  (vertex_of sources b.Interop.source b.Interop.term)
                  g
            | Interop.Eq _ -> assert false (* removed by expand *)
            | Interop.Neq _ -> g)
          g constraints
      in
      (* 3. Implicit equalities between identically-spelled terms. *)
      let g =
        if not auto_equate then g
        else begin
          let by_term = Hashtbl.create 97 in
          QG.fold_vertices
            (fun v () ->
              List.iter
                (fun s ->
                  Hashtbl.replace by_term s
                    (v :: Option.value ~default:[] (Hashtbl.find_opt by_term s)))
                (Node.strings v.Q.node))
            g ();
          Hashtbl.fold
            (fun _term vs g ->
              match vs with
              | [] | [ _ ] -> g
              | first :: rest ->
                  List.fold_left
                    (fun g v -> QG.add_edge first v (QG.add_edge v first g))
                    g rest)
            by_term g
        end
      in
      (* 4. Condense: each SCC becomes one fused node. *)
      let components, inter_edges = QG.condensation g in
      let fused_node_of_component comp =
        Node.of_list (List.concat_map (fun v -> Node.strings v.Q.node) comp)
      in
      let witness =
        List.fold_left
          (fun w comp ->
            let fused = fused_node_of_component comp in
            List.fold_left (fun w v -> Qmap.add v fused w) w comp)
          Qmap.empty components
      in
      let fg =
        List.fold_left
          (fun fg comp -> Hierarchy.G.add_vertex (fused_node_of_component comp) fg)
          Hierarchy.G.empty components
      in
      let fg =
        List.fold_left
          (fun fg (u, v) ->
            Hierarchy.G.add_edge (Qmap.find u witness) (Qmap.find v witness) fg)
          fg inter_edges
      in
      let fused = Hierarchy.normalize (Hierarchy.of_graph fg) in
      (* 5. Neq constraints. *)
      let violated =
        List.find_opt
          (fun c ->
            match c with
            | Interop.Neq (a, b) ->
                let na = Qmap.find_opt (vertex_of sources a.Interop.source a.Interop.term) witness in
                let nb = Qmap.find_opt (vertex_of sources b.Interop.source b.Interop.term) witness in
                (match (na, nb) with
                | Some na, Some nb -> Node.equal na nb
                | _ -> false)
            | Interop.Leq _ | Interop.Eq _ -> false)
          constraints
      in
      (match violated with
      | Some c -> Error (Neq_violated c)
      | None -> Ok { fused; witness })

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

let fuse_ontologies ?auto_equate ontologies constraints_by_relation =
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
          match fuse ?auto_equate hs cs with
          | Ok { fused; _ } -> Ok (Ontology.add rel fused fused_ontology)
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
