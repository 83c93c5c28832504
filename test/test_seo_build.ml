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
    (Toss_similarity.Token.cosine_metric, true);
    (Toss_similarity.Tfidf.metric (Toss_similarity.Tfidf.corpus_of pool), true);
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

(* The key law of Metric.staged: a pair the staged test accepts shares a
   key. Checked for every measure and combinator above, at every ε, on
   random abcd strings (short, dense in near pairs) and on DBLP strings
   paired with a few random edits of themselves (typos, dropped or
   abbreviated tokens) or with another string of the pool. *)
let shares_key xs ys = List.exists (fun k -> List.mem k ys) xs

let key_law (x, y) =
  List.for_all
    (fun ((m : Metric.t), _) ->
      List.for_all
        (fun eps ->
          let (Metric.Staged s) = Metric.stage m ~eps in
          let px = s.prepare x and py = s.prepare y in
          (not (s.test px py))
          || shares_key (s.keys px) (s.keys py)
          || QCheck.Test.fail_reportf "%s eps=%g %S %S: accepted without a shared key"
               m.Metric.name eps x y)
        epsilons)
    measures

let edited =
  let open QCheck.Gen in
  let letter = oneofl [ 'a'; 'e'; 'n'; 'r'; 's'; 'x'; ' '; '.' ] in
  let edit s =
    let n = String.length s in
    if n = 0 then map (String.make 1) letter
    else
      int_bound (n - 1) >>= fun i ->
      letter >>= fun c ->
      oneofl
        [
          String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1);
          String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
          String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1);
          (* cut a token short: an abbreviation, or a dropped word *)
          (match String.index_from_opt s i ' ' with
          | Some j -> String.sub s 0 i ^ "." ^ String.sub s j (n - j)
          | None -> String.sub s 0 i);
        ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  oneofl pool >>= fun x ->
  frequency [ (1, oneofl pool); (4, int_bound 3 >>= fun k -> edits k x) ] >>= fun y ->
  return (x, y)

let key_law_abcd =
  QCheck.Test.make ~count:500 ~name:"test => shared key, abcd strings"
    (QCheck.pair abcd_string abcd_string) key_law

let key_law_dblp =
  QCheck.Test.make ~count:500 ~name:"test => shared key, DBLP strings"
    (QCheck.make ~print:QCheck.Print.(pair string string) edited) key_law

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

(* ------------------------------ fusion ------------------------------- *)

(* Random fusion inputs: 1-5 sources whose nodes are disjoint clusters of
   1-3 letters of a small alphabet (so spellings recur across sources),
   ordered by random DAG edges, and Leq/Eq/Neq constraints that name
   letters a source may lack, terms no source has ("x", "y") and, rarely,
   a source out of range. Random Leq and Eq edges between sources make
   cross-source cycles. *)
let alphabet = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

let fusion_case =
  let open QCheck.Gen in
  let source =
    let* letters = map Array.of_list (shuffle_l (Array.to_list alphabet)) in
    let* used = int_range 1 (Array.length alphabet) in
    let* sizes = list_repeat used (int_range 1 3) in
    let rec chunk i = function
      | [] -> []
      | k :: rest when i < used ->
          let k = min k (used - i) in
          Array.to_list (Array.sub letters i k) :: chunk (i + k) rest
      | _ -> []
    in
    let nodes = Array.of_list (List.map Toss_hierarchy.Node.of_list (chunk 0 sizes)) in
    let n = Array.length nodes in
    let+ edges =
      list_size (int_range 0 (2 * n))
        (let* i = int_range 0 (n - 1) in
         let+ j = int_range 0 (n - 1) in
         (min i j, max i j))
    in
    let h = Array.fold_left (fun h x -> Hierarchy.add_node x h) Hierarchy.empty nodes in
    List.fold_left
      (fun h (i, j) -> if i = j then h else Hierarchy.add_edge nodes.(i) nodes.(j) h)
      h edges
    |> Hierarchy.normalize
  in
  let* n = int_range 1 5 in
  let* sources = list_repeat n source in
  let term = oneof [ oneofa alphabet; oneofl [ "x"; "y" ] ] in
  let qualified =
    let* t = term in
    let+ i = frequency [ (60, int_range 0 (n - 1)); (1, return n) ] in
    (t, i)
  in
  let+ constraints =
    list_size (int_range 0 8)
      (let* kind = frequency [ (4, return `Leq); (2, return `Eq); (1, return `Neq) ] in
       let* a = qualified in
       let+ b = qualified in
       match kind with
       | `Leq -> Interop.leq a b
       | `Eq -> Interop.eq a b
       | `Neq -> Interop.neq a b)
  in
  (sources, constraints)

let print_fusion_case (sources, constraints) =
  Format.asprintf "@[<v>%a@,constraints: %a@]"
    (Format.pp_print_list Hierarchy.pp)
    sources
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Interop.pp)
    constraints

let outcome f =
  match f () with
  | Ok h -> `Fused h
  | Error e -> `Error e
  | exception Invalid_argument _ -> `Cyclic

let fusion_matches_reference =
  QCheck.Test.make ~count:3000 ~name:"dense fusion = reference fusion, both auto_equate"
    (QCheck.make ~print:print_fusion_case fusion_case)
    (fun (sources, constraints) ->
      List.for_all
        (fun auto_equate ->
          let fused () =
            Result.map
              (fun r -> r.Fusion.fused)
              (Fusion.fuse ~auto_equate sources constraints)
          in
          match
            (outcome fused, outcome (fun () -> Seo_reference.fuse ~auto_equate sources constraints))
          with
          | `Fused h, `Fused r -> Hierarchy.equal h r
          | `Error e, `Error r -> e = r
          | `Cyclic, `Cyclic -> true
          | _ -> false)
        [ true; false ])

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

(* The ε-graph against every pair at every ε: the serving benchmark's
   corpora and a 1000-paper document, as their fused isa hierarchies. *)
let fused_isa docs =
  let ontologies = Maker.make_all docs in
  match Fusion.fuse_ontologies ontologies (Maker.auto_constraints ontologies) with
  | Ok fused -> Ontology.get Ontology.isa fused
  | Error _ -> Alcotest.fail "fusion failed"

(* From ε = 3.5 on every pair is a candidate, and both sides test all
   6.4 M pairs of the 1000-paper document: the ε values are split over
   two domains. *)
let check_edges ~metric what isa =
  let check parity =
    List.iteri
      (fun i eps ->
        if
          i mod 2 = parity
          && Toss_similarity.Sea.epsilon_edges ~metric ~eps isa
             <> Seo_reference.epsilon_edges ~metric ~eps isa
        then Alcotest.failf "%s eps %g: epsilon graphs differ" what eps)
      epsilons
  in
  let other = Domain.spawn (fun () -> check 1) in
  check 0;
  Domain.join other

let test_edges_serving () =
  check_edges ~metric "read-hot" (fused_isa (papers (render ~seed:91 ~n_papers:100)));
  check_edges ~metric "read-wide"
    (fused_isa [ Doc.of_tree (render ~seed:92 ~n_papers:400).Dblp_gen.tree ]);
  check_edges ~metric "write-mix"
    (fused_isa
       (Doc.of_tree (render ~seed:93 ~n_papers:100).Dblp_gen.tree
       :: papers (render ~seed:(93 + 0x5eed) ~n_papers:3)))

let test_edges_1000 () =
  check_edges ~metric "1000 papers"
    (fused_isa [ Doc.of_tree (render ~seed:7 ~n_papers:1000).Dblp_gen.tree ])

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

(* The gate's sensitivity: a measure whose keys leave out one component
   of a union breaks the key law, and the ε-graph differential must say
   so on the generated cases. *)
let unkeyed (m : Metric.t) =
  Metric.staged ~name:(m.Metric.name ^ " (unkeyed)") ~strong:m.Metric.strong
    ~stage:(fun ~eps ->
      let (Metric.Staged s) = Metric.stage m ~eps in
      Metric.Staged { prepare = s.prepare; test = s.test; keys = (fun _ -> []) })
    m.Metric.dist

let test_gate_sensitivity () =
  let components =
    [ Toss_similarity.Name_rules.metric; Toss_similarity.Text_rules.metric; Levenshtein.metric ]
  in
  List.iteri
    (fun dropped (m : Metric.t) ->
      let faulty =
        Metric.min_of ~name:("min, " ^ m.Metric.name ^ " unkeyed")
          (List.mapi (fun i c -> if i = dropped then unkeyed c else c) components)
      in
      let caught = ref false and seed = ref 1 in
      while (not !caught) && !seed <= 150 do
        let case = Gen.case !seed in
        let docs = List.map Doc.of_tree (case.Gen.docs @ case.Gen.right_docs) in
        List.iter
          (fun eps ->
            if not !caught then
              match Seo_reference.differential ~metric:faulty ~eps docs with
              | Ok () -> ()
              | Error es ->
                  if
                    not
                      (List.exists (fun e -> String.starts_with ~prefix:"epsilon graph" e) es)
                  then Alcotest.failf "seed %d eps %g: %s" !seed eps (String.concat "; " es);
                  caught := true)
          epsilons;
        incr seed
      done;
      if not !caught then
        Alcotest.failf "%s: no generated case shows the dropped keys" faulty.Metric.name)
    components

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
          QCheck_alcotest.to_alcotest key_law_abcd;
          QCheck_alcotest.to_alcotest key_law_dblp;
        ] );
      ( "synonym constraints",
        [
          Alcotest.test_case "linear set, same fusion as every pair" `Quick
            test_synonym_closure;
        ] );
      ("fusion", [ QCheck_alcotest.to_alcotest fusion_matches_reference ]);
      ( "seo differential",
        [
          Alcotest.test_case "read-hot corpus (100 documents)" `Quick test_read_hot;
          Alcotest.test_case "read-wide corpus (400 papers)" `Quick test_read_wide;
          Alcotest.test_case "write-mix corpus with inserts" `Quick test_write_mix;
          Alcotest.test_case "generated cases" `Quick test_generated_cases;
          Alcotest.test_case "unkeyed component is caught" `Quick test_gate_sensitivity;
        ] );
      ( "epsilon graph",
        [
          Alcotest.test_case "serving corpora, every eps" `Quick test_edges_serving;
          Alcotest.test_case "1000-paper document, every eps" `Quick test_edges_1000;
        ] );
    ]
