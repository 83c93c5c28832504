module Hierarchy = Toss_hierarchy.Hierarchy
module Metric = Toss_similarity.Metric
module Node = Toss_hierarchy.Node
module Sea = Toss_similarity.Sea
module Ontology = Toss_ontology.Ontology
module Interop = Toss_ontology.Interop
module Lexicon = Toss_ontology.Lexicon
module Maker = Toss_ontology.Maker
module Fusion = Toss_ontology.Fusion
module Seo = Toss_core.Seo

let epsilon_edges ~metric ~eps h =
  let (Metric.Staged s) = Metric.stage metric ~eps in
  let nodes =
    Array.of_list (List.map (fun n -> List.map s.prepare (Node.strings n)) (Hierarchy.nodes h))
  in
  let within a b = List.exists (fun x -> List.exists (s.test x) b) a in
  let edges = ref [] in
  for i = Array.length nodes - 1 downto 0 do
    for j = Array.length nodes - 1 downto i + 1 do
      if within nodes.(i) nodes.(j) then edges := (i, j) :: !edges
    done
  done;
  !edges

let auto_constraints ?(lexicon = Lexicon.seeded) ontologies =
  let indexed = List.mapi (fun i o -> (i, o)) ontologies in
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.map
    (fun rel ->
      let term_sources =
        List.concat_map
          (fun (i, o) ->
            List.map (fun t -> (t, i)) (Hierarchy.terms (Ontology.get rel o)))
          indexed
      in
      let constraints =
        List.concat_map
          (fun (t1, i) ->
            let syns = Lexicon.synonyms lexicon t1 in
            List.filter_map
              (fun (t2, j) ->
                if i < j && t1 <> t2 && List.mem t2 syns then
                  Some (Interop.eq (t1, i) (t2, j))
                else None)
              term_sources)
          term_sources
      in
      (rel, constraints))
    relations

(* Source-qualified hierarchy nodes: the vertices of the hierarchy graph. *)
module Q = struct
  type t = { source : int; node : Node.t }

  let compare a b =
    match Int.compare a.source b.source with
    | 0 -> Node.compare a.node b.node
    | c -> c

  let pp ppf { source; node } = Format.fprintf ppf "%a:%d" Node.pp node source
end

module QG = Toss_hierarchy.Digraph.Make (Q)
module Qmap = Map.Make (Q)

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
  | Some c -> Error (Fusion.Unknown_source c)
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
      (* 3. Implicit equalities between identically-spelled terms: a
         two-cycle between every vertex containing a term and the first
         one found. *)
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
      | Some c -> Error (Fusion.Neq_violated c)
      | None -> Ok fused)

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
          | Ok fused -> Ok (Ontology.add rel fused fused_ontology)
          | Error e -> Error (rel, e)))
    (Ok Ontology.empty) relations

type built = { fused : Ontology.t; edges : (int * int) list; enhanced : Hierarchy.t }

let fused_or_fail = function
  | Ok fused -> fused
  | Error (rel, e) ->
      failwith (Format.asprintf "fusion failed on relation %s: %a" rel Fusion.pp_error e)

let build ?lexicon ?auto_equate ~metric ~eps docs =
  let ontologies = Maker.make_all ?lexicon docs in
  let fused =
    fused_or_fail (fuse_ontologies ?auto_equate ontologies (auto_constraints ?lexicon ontologies))
  in
  let isa = Ontology.get Ontology.isa fused in
  let edges = epsilon_edges ~metric ~eps isa in
  let enhanced =
    if eps = 0. then isa
    else
      match Sea.of_edges ~metric ~eps isa edges with
      | Some e -> e.Sea.hierarchy
      | None -> (
          match Sea.of_edges ~lift:Sea.Universal ~metric ~eps isa edges with
          | Some e -> e.Sea.hierarchy
          | None -> isa)
  in
  { fused; edges; enhanced }

let differential ?lexicon ?auto_equate ~metric ~eps docs =
  let production () =
    let ontologies = Maker.make_all ?lexicon docs in
    let fused =
      fused_or_fail
        (Fusion.fuse_ontologies ?auto_equate ontologies (Maker.auto_constraints ?lexicon ontologies))
    in
    (fused, Seo.create_exn ~metric ~eps fused)
  in
  let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  (* A document set whose fusion is cyclic (a tag nested both ways across
     sources) fails on both paths; that is agreement. *)
  match (attempt (fun () -> build ?lexicon ?auto_equate ~metric ~eps docs), attempt production) with
  | Error _, Error _ -> Ok ()
  | Error m, Ok _ -> Error [ "only the reference failed: " ^ m ]
  | Ok _, Error m -> Error [ "only production failed: " ^ m ]
  | Ok reference, Ok (fused, seo) -> (
      let errors = ref [] in
      let expect what ok = if not ok then errors := what :: !errors in
      let relation r = Ontology.get r fused
      and ref_relation r = Ontology.get r reference.fused in
      expect "fused isa hierarchy"
        (Hierarchy.equal (relation Ontology.isa) (ref_relation Ontology.isa));
      expect "fused part-of hierarchy"
        (Hierarchy.equal (relation Ontology.part_of) (ref_relation Ontology.part_of));
      let edges = Sea.epsilon_edges ~metric ~eps (relation Ontology.isa) in
      expect
        (Printf.sprintf "epsilon graph (%d edges, reference %d)" (List.length edges)
           (List.length reference.edges))
        (edges = reference.edges);
      expect "enhanced isa hierarchy"
        (Hierarchy.equal (Seo.isa_hierarchy seo) reference.enhanced);
      match !errors with [] -> Ok () | es -> Error (List.rev es))
