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

type built = { fused : Ontology.t; edges : (int * int) list; enhanced : Hierarchy.t }

let fuse ?auto_equate ontologies constraints =
  match Fusion.fuse_ontologies ?auto_equate ontologies constraints with
  | Ok fused -> fused
  | Error (rel, e) ->
      failwith (Format.asprintf "fusion failed on relation %s: %a" rel Fusion.pp_error e)

let build ?lexicon ?auto_equate ~metric ~eps docs =
  let ontologies = Maker.make_all ?lexicon docs in
  let fused = fuse ?auto_equate ontologies (auto_constraints ?lexicon ontologies) in
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
    let fused = fuse ?auto_equate ontologies (Maker.auto_constraints ?lexicon ontologies) in
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
