(* The SEO build's two shortcuts against their definitions: the banded
   Levenshtein threshold test, the staged ε-predicate of every shipped
   measure and combinator, the linear synonym constraints, and the whole
   SEO (fused isa, fused part-of, ε-graph, enhanced isa) against the
   all-pairs reference of Toss_check.Seo_reference on the benchmark's
   corpus shapes and on generated cases. *)

module Metric = Toss_similarity.Metric
module Levenshtein = Toss_similarity.Levenshtein
module Hierarchy = Toss_hierarchy.Hierarchy
module Ontology = Toss_ontology.Ontology
module Lexicon = Toss_ontology.Lexicon
module Maker = Toss_ontology.Maker
module Fusion = Toss_ontology.Fusion
module Interop = Toss_ontology.Interop
module Doc = Toss_xml.Tree.Doc
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Workload = Toss_data.Workload
module Seo_reference = Toss_check.Seo_reference
module Gen = Toss_check.Gen

(* Every gate of the rule measures has a boundary in here: half and whole
   edit budgets, the typo unit (1.1) and its double, the dropped-token
   cost (3.5), the text mismatch (5) and the name mismatch (6.5). *)
let epsilons = [ 0.; 0.5; 1.; 1.1; 2.; 2.2; 3.5; 5.; 6.5; 7. ]

(* ------------------------- banded Levenshtein ------------------------ *)

let bounded k d = if d <= k then Some d else None

let abcd_string =
  QCheck.(string_gen_of_size Gen.(0 -- 9) Gen.(oneofl [ 'a'; 'b'; 'c'; 'd' ]))

let levenshtein_band =
  QCheck.Test.make ~count:2000 ~name:"distance_within k = distance bounded by k"
    (QCheck.pair abcd_string abcd_string)
    (fun (a, b) ->
      let d = Levenshtein.distance a b in
      List.for_all
        (fun k -> Levenshtein.distance_within k a b = bounded k d)
        [ 0; 1; 2; 3; 4 ])

let test_levenshtein_edges () =
  List.iter
    (fun (a, b) ->
      let d = Levenshtein.distance a b in
      for k = -1 to 4 do
        Alcotest.(check (option int))
          (Printf.sprintf "k=%d %S %S" k a b)
          (if k < 0 then None else bounded k d)
          (Levenshtein.distance_within k a b)
      done)
    [ ("", ""); ("", "a"); ("abcd", ""); ("a", "abcde"); ("kitten", "sitting");
      ("abcdefgh", "bcdefgha"); ("database", "databse"); ("xyz", "xyzxyz");
      ("aaaaaaaaaa", "aaaaaaaaab"); ("ab", "ba") ]

(* --------------------------- staged measures ------------------------- *)

let dblp_strings =
  let r = Dblp_gen.render ~seed:91 (Corpus.generate ~seed:91 ~n_papers:5 ()) in
  let authors = List.map (fun (_, _, s) -> s) r.Dblp_gen.author_strings in
  let venues = List.map snd r.Dblp_gen.venue_strings in
  let titles =
    let rec collect acc = function
      | Toss_xml.Tree.Text _ -> acc
      | Toss_xml.Tree.Element { tag; children; _ } ->
          let acc =
            match (tag, children) with
            | "title", [ Toss_xml.Tree.Text t ] -> t :: acc
            | _ -> acc
          in
          List.fold_left collect acc children
    in
    collect [] r.Dblp_gen.tree
  in
  List.sort_uniq String.compare (authors @ venues @ titles)

let random_ascii =
  let st = Random.State.make [| 12 |] in
  List.init 16 (fun _ ->
      String.init (Random.State.int st 12) (fun _ ->
          Char.chr (32 + Random.State.int st 95)))

let pool =
  List.sort_uniq String.compare
    (dblp_strings @ Gen.near_miss_pool @ Gen.constant_pool @ random_ascii
    @ [ ""; "J. D. Ullman"; "Jeffrey David Ullman"; "Jeffrey Ullman";
        "GianLuigi Ferrari"; "Gian Luigi Ferrari"; "Eff. Query Proc.";
        "Efficient Query Processing" ])

(* [exact]: the measure's within is also [dist <= eps] exactly (scaling by
   a non-power of two would round [eps /. factor]). *)
let measures =
  let lev = Levenshtein.metric in
  [
    (lev, true);
    (Levenshtein.damerau_metric, true);
    (Levenshtein.normalized_metric, true);
    (Toss_similarity.Jaro.metric, true);
    (Toss_similarity.Jaro.winkler_metric, true);
    (Toss_similarity.Monge_elkan.metric, true);
    (Toss_similarity.Name_rules.metric, true);
    (Toss_similarity.Text_rules.metric, true);
    (Toss_similarity.Token.jaccard_metric, true);
    (Toss_similarity.Token.qgram_metric 2, true);
    (Workload.experiment_metric, true);
    (Metric.scale 2.0 lev, true);
    (Metric.scale 0.5 Toss_similarity.Text_rules.metric, true);
    (Metric.cap 2.0 Workload.experiment_metric, true);
    ( Metric.min_of ~name:"min"
        [ Toss_similarity.Name_rules.metric; Toss_similarity.Text_rules.metric; lev ],
      true );
    (Metric.max_of ~name:"max" [ lev; Levenshtein.damerau_metric ], true);
  ]

let test_prepared_equals_within () =
  let strings = Array.of_list pool in
  List.iter
    (fun ((m : Metric.t), exact) ->
      List.iter
        (fun eps ->
          let (Metric.Staged s) = Metric.stage m ~eps in
          let prepared = Array.map s.prepare strings in
          Array.iteri
            (fun i x ->
              Array.iteri
                (fun j y ->
                  let staged = s.test prepared.(i) prepared.(j) in
                  let within = Metric.within m ~eps x y in
                  if staged <> within then
                    Alcotest.failf "%s eps=%g %S %S: prepared %b, within %b" m.Metric.name
                      eps x y staged within;
                  if exact && x <> y && within <> (Metric.dist m x y <= eps) then
                    Alcotest.failf "%s eps=%g %S %S: within %b, dist %g" m.Metric.name eps
                      x y within (Metric.dist m x y))
                strings)
            strings)
        epsilons)
    measures

(* The gates sit inside the rule measures, so [dist] and the staged test
   share them; these distances pin each gate's boundary to the cost
   model the measures document. *)
let test_gate_boundaries () =
  let check name expected d = Alcotest.(check (float 1e-9)) name expected d in
  let name = Toss_similarity.Name_rules.distance in
  let text = Toss_similarity.Text_rules.distance in
  check "surname one letter shorter" 1.1 (name "Jeffrey Ullman" "Jeffrey Ulman");
  check "surname one letter longer" 1.1 (name "Jeffrey Ullman" "Jeffrey Ullmann");
  check "surname substitution" 1.1 (name "Jeffrey Ullman" "Jeffrey Ullmen");
  check "surname two letters longer" 6.5 (name "Jeffrey Ullman" "Jeffrey Ullmanxy");
  check "short surname typo" 6.5 (name "Wei Li" "Wei Lu");
  check "glued surname" 0.1 (name "Gian Luigi Ferrari" "Gian LuigiFerrari");
  check "dropped token" 3.5 (text "web conference" "conference");
  check "abbreviation" 0.5 (text "Eff. Query Processing" "Efficient Query Processing");
  check "typo within two" 2.2 (text "query processing" "quary procesing");
  check "typo beyond two" 5.0 (text "query processing" "qxxxy processing");
  check "split compound" 4.0 (text "data base systems" "database systems")

(* ------------------------ synonym constraints ------------------------ *)

(* Sources holding random subsets of three synsets' terms (plus a term
   the lexicon does not know), as unrelated singleton nodes: with
   [auto_equate:false] the fusion's nodes are exactly the equivalence
   classes the constraints induce, so every grid shape of occurrences
   (isolated cells, the 2 x 2 grid, stars) is compared with the
   quadratic definition. *)
let lexicon =
  Lexicon.empty
  |> Lexicon.add_synset [ "a"; "b" ]
  |> Lexicon.add_synset [ "c"; "d"; "e" ]
  |> Lexicon.add_synset [ "f"; "g"; "h"; "i" ]

let test_synonym_closure () =
  let st = Random.State.make [| 5 |] in
  let terms = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "z" ] in
  for _ = 1 to 400 do
    let n_sources = 1 + Random.State.int st 4 in
    let ontologies =
      List.init n_sources (fun _ ->
          let h =
            List.fold_left
              (fun h t -> if Random.State.int st 3 = 0 then Hierarchy.add_term t h else h)
              Hierarchy.empty terms
          in
          Ontology.of_list [ (Ontology.isa, h) ])
    in
    List.iter
      (fun auto_equate ->
        let fused cs =
          match Fusion.fuse_ontologies ~auto_equate ontologies cs with
          | Ok o -> Ontology.get Ontology.isa o
          | Error _ -> Alcotest.fail "fusion failed"
        in
        let linear = Maker.auto_constraints ~lexicon ontologies in
        let quadratic = Seo_reference.auto_constraints ~lexicon ontologies in
        let size cs = List.fold_left (fun n (_, l) -> n + List.length l) 0 cs in
        let occurrences =
          List.fold_left
            (fun n o -> n + List.length (Hierarchy.terms (Ontology.get Ontology.isa o)))
            0 ontologies
        in
        if size linear > occurrences then
          Alcotest.failf "%d constraints for %d occurrences" (size linear) occurrences;
        let pairs cs =
          List.concat_map snd cs
          |> List.map (function
               | Interop.Eq (x, y) -> if compare x y <= 0 then (x, y) else (y, x)
               | _ -> Alcotest.fail "not an equality")
        in
        let reference_pairs = pairs quadratic in
        List.iter
          (fun p ->
            if not (List.mem p reference_pairs) then
              Alcotest.fail "an emitted equality is not a cross-source synonym pair")
          (pairs linear);
        if not (Hierarchy.equal (fused linear) (fused quadratic)) then
          Alcotest.failf "auto_equate:%b: fused hierarchies differ:@ %a@ vs@ %a"
            auto_equate Hierarchy.pp (fused linear) Hierarchy.pp (fused quadratic))
      [ true; false ]
  done

(* ------------------------- SEO differential -------------------------- *)

let render ~seed ~n_papers = Dblp_gen.render ~seed (Corpus.generate ~seed ~n_papers ())

let papers (r : Dblp_gen.t) =
  match r.Dblp_gen.tree with
  | Toss_xml.Tree.Element { children; _ } ->
      List.filter_map
        (fun c ->
          match c with
          | Toss_xml.Tree.Element { tag = "inproceedings"; _ } -> Some (Doc.of_tree c)
          | _ -> None)
        children
  | Toss_xml.Tree.Text _ -> []

let check_differential ?lexicon ~metric ~eps docs =
  List.iter
    (fun auto_equate ->
      match Seo_reference.differential ?lexicon ~auto_equate ~metric ~eps docs with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "auto_equate:%b differs from the reference: %s" auto_equate
            (String.concat "; " es))
    [ true; false ]

let metric = Workload.experiment_metric

(* The serving benchmark's corpora, built as its servers hold them. *)
let test_read_hot () =
  check_differential ~metric ~eps:2.0 (papers (render ~seed:91 ~n_papers:100))

let test_read_wide () =
  check_differential ~metric ~eps:2.0
    [ Doc.of_tree (render ~seed:92 ~n_papers:400).Dblp_gen.tree ]

let test_write_mix () =
  let base = Doc.of_tree (render ~seed:93 ~n_papers:100).Dblp_gen.tree in
  let inserted = papers (render ~seed:(93 + 0x5eed) ~n_papers:3) in
  check_differential ~metric ~eps:2.0 (base :: inserted)

let test_generated_cases () =
  for seed = 1 to 150 do
    let case = Gen.case seed in
    let docs = List.map Doc.of_tree (case.Gen.docs @ case.Gen.right_docs) in
    check_differential ~metric:Levenshtein.metric ~eps:case.Gen.eps docs;
    check_differential ~metric ~eps:case.Gen.eps docs;
    (* The case's own ontology, as the harness's engines see it. *)
    let isa = Ontology.get Ontology.isa (Toss_core.Seo.ontology (Gen.seo_of case)) in
    List.iter
      (fun eps ->
        if
          Toss_similarity.Sea.epsilon_edges ~metric ~eps isa
          <> Seo_reference.epsilon_edges ~metric ~eps isa
        then Alcotest.failf "seed %d eps %g: epsilon graphs differ" seed eps)
      epsilons
  done

let () =
  Alcotest.run "seo_build"
    [
      ( "levenshtein",
        [
          QCheck_alcotest.to_alcotest levenshtein_band;
          Alcotest.test_case "empty and unequal lengths" `Quick test_levenshtein_edges;
        ] );
      ( "staged measures",
        [
          Alcotest.test_case "prepared = within, every measure and combinator" `Quick
            test_prepared_equals_within;
          Alcotest.test_case "rule measures at their gates" `Quick test_gate_boundaries;
        ] );
      ( "synonym constraints",
        [
          Alcotest.test_case "linear set, same fusion as every pair" `Quick
            test_synonym_closure;
        ] );
      ( "seo differential",
        [
          Alcotest.test_case "read-hot corpus (100 documents)" `Quick test_read_hot;
          Alcotest.test_case "read-wide corpus (400 papers)" `Quick test_read_wide;
          Alcotest.test_case "write-mix corpus with inserts" `Quick test_write_mix;
          Alcotest.test_case "generated cases" `Quick test_generated_cases;
        ] );
    ]
