(* Planner equivalence and unit tests.

   The engine must never change answers, only the work done to produce
   them. The equivalence suite runs a generated workload (50
   query/mode combinations over the Section 6 corpus) and requires the
   compiled matcher's witness trees (same list, same order) and
   embedding counts to equal the in-memory algebra's — per-document
   embedding enumeration, which shares no code with the plan operators.
   Joins run under every planner x sim-pair setting and must each equal
   the algebra's join. Unit tests pin the hash/sim-pair/nested-loop
   pairing choice (including the tiny-build-side fallback) and the
   memoized SEO expansions the compiled predicates are built from. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Collection = Toss_store.Collection
module Span = Toss_obs.Span
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan
module Rewrite = Toss_core.Rewrite
module Compile = Toss_core.Compile
module Toss_condition = Toss_core.Toss_condition
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let corpus = Corpus.generate ~seed:11 ~n_papers:80 ()
let dblp = Dblp_gen.render ~seed:11 corpus
let sigmod = Sigmod_gen.render ~seed:11 corpus

(* One big document (the DBLP rendering) and one genuinely multi-document
   collection (one SIGMOD proceedings page per document). *)
let dblp_coll =
  let c = Collection.create "dblp" in
  ignore (Collection.add_document c dblp.Dblp_gen.tree);
  Collection.snapshot c

let sigmod_coll =
  let c = Collection.create "sigmod" in
  List.iter (fun t -> ignore (Collection.add_document c t)) sigmod.Sigmod_gen.trees;
  Collection.snapshot c

let seo =
  let docs =
    Doc.of_tree dblp.Dblp_gen.tree
    :: List.map Doc.of_tree sigmod.Sigmod_gen.trees
  in
  match Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0 docs with
  | Ok seo -> seo
  | Error msg -> failwith msg

let eval_of mode =
  match mode with
  | Executor.Tax -> Condition.eval_tax
  | Executor.Toss -> Toss_condition.evaluator seo

(* The reference answer: TAX selection (Definition 3) per document, under
   the mode's evaluator, and the number of embeddings it found. *)
let algebra_select mode trees ~pattern ~sl =
  let eval = eval_of mode in
  ( Toss_tax.Algebra.select ~eval ~pattern ~sl trees,
    List.fold_left
      (fun n t -> n + List.length (Toss_tax.Algebra.embeddings_of_tree ~eval ~pattern t))
      0 trees )

let check_select_equivalent ~what coll trees mode ~pattern ~sl =
  let results, stats = Executor.select ~mode seo coll ~pattern ~sl in
  let reference, n_embeddings = algebra_select mode trees ~pattern ~sl in
  checkb (what ^ ": same results as the algebra") true
    (List.equal Tree.equal results reference);
  checki (what ^ ": same embeddings as the algebra") n_embeddings
    stats.Executor.n_embeddings

(* The algebra dedups per document pair, the executor across the whole
   answer, so joins compare as sets. *)
let as_set trees = List.sort_uniq Tree.compare trees

(* Every (planner, simjoin) combination must return the algebra's join,
   and all four must agree exactly with one another — same list, same
   order, same [n_embeddings] — so the signature-indexed and hash
   pairings reproduce the nested loop they replace, duplicates and
   order included. *)
let check_join_equivalent ~what ~pattern ~sl =
  let reference =
    as_set
      (Toss_core.Toss_algebra.join seo ~pattern ~sl [ dblp.Dblp_gen.tree ]
         sigmod.Sigmod_gen.trees)
  in
  let runs =
    List.map
      (fun (planner, simjoin) ->
        let results, stats =
          Executor.join ~planner ~simjoin seo dblp_coll sigmod_coll ~pattern ~sl
        in
        let tag = Printf.sprintf "%s planner=%b simjoin=%b" what planner simjoin in
        checkb (tag ^ ": same results as the algebra") true
          (List.equal Tree.equal (as_set results) reference);
        (tag, results, stats.Executor.n_embeddings))
      [ (true, true); (true, false); (false, true); (false, false) ]
  in
  match runs with
  | [] -> ()
  | (_, r0, e0) :: others ->
      List.iter
        (fun (tag, results, n_embeddings) ->
          checkb (tag ^ ": same results as the first setting") true
            (List.equal Tree.equal results r0);
          checki (tag ^ ": same embeddings as the first setting") e0 n_embeddings)
        others

(* ------------------- equivalence: selections ---------------------- *)

(* 25 workload queries x 2 modes = 50 query/mode combinations. *)
let test_selection_equivalence () =
  let queries = Workload.selection_queries ~n:25 corpus in
  checki "workload size" 25 (List.length queries);
  List.iter
    (fun (q : Workload.query) ->
      List.iter
        (fun mode ->
          check_select_equivalent
            ~what:(Printf.sprintf "q%d" q.Workload.query_id)
            dblp_coll [ dblp.Dblp_gen.tree ] mode ~pattern:q.Workload.pattern
            ~sl:q.Workload.sl)
        [ Executor.Tax; Executor.Toss ])
    queries

(* The same workload against the multi-document SIGMOD collection: the
   patterns mostly miss there, so most documents contribute nothing. *)
let test_selection_equivalence_multidoc () =
  let queries = Workload.selection_queries ~n:8 corpus in
  List.iter
    (fun (q : Workload.query) ->
      check_select_equivalent
        ~what:(Printf.sprintf "sigmod q%d" q.Workload.query_id)
        sigmod_coll sigmod.Sigmod_gen.trees Executor.Toss
        ~pattern:q.Workload.pattern ~sl:q.Workload.sl)
    queries;
  let pattern, sl = Workload.scalability_selection () in
  List.iter
    (fun (coll, trees) ->
      check_select_equivalent ~what:"scalability" coll trees Executor.Toss ~pattern
        ~sl)
    [ (dblp_coll, [ dblp.Dblp_gen.tree ]); (sigmod_coll, sigmod.Sigmod_gen.trees) ]

(* A query with actual SIGMOD matches, so the multi-document answer is
   a non-trivial subset of the documents. *)
let test_sigmod_hits_equivalence () =
  let open Pattern in
  let pattern =
    v
      (node 1 [ pc (leaf 2) ])
      (Condition.conj
         [
           Condition.tag_eq 1 "article";
           Condition.tag_eq 2 "initPage";
           Condition.Cmp (Condition.Content 2, Condition.Le, Condition.Str "60");
         ])
  in
  check_select_equivalent ~what:"articles by page" sigmod_coll
    sigmod.Sigmod_gen.trees Executor.Toss ~pattern ~sl:[];
  let results, stats = Executor.select seo sigmod_coll ~pattern ~sl:[] in
  checkb "some articles match" true (results <> []);
  checkb "compiled trace has a match span" true
    (Span.find stats.Executor.trace "match" <> None)

(* ---------------------- equivalence: joins ------------------------ *)

let equi_join_pattern () =
  let open Pattern in
  let left = node 1 [ pc (leaf 2) ] in
  let right = node 3 [ pc (leaf 4) ] in
  let root = node 0 [ ad left; ad right ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
        Condition.tag_eq 1 "inproceedings";
        Condition.tag_eq 2 "year";
        Condition.tag_eq 3 "proceedings";
        Condition.tag_eq 4 "confYear";
        Condition.Cmp (Condition.Content 2, Condition.Eq, Condition.Content 4);
      ]
  in
  (v root condition, [ 1; 3 ])

let test_join_equivalence_similarity () =
  (* Figure 16(b): a ~ cross-condition — under the planner this lowers
     to the signature-indexed sim-pair operator, whose answers must
     match the nested-loop reference (the simjoin=false axis) exactly. *)
  let pattern, sl = Workload.join_query () in
  check_join_equivalent ~what:"sim join" ~pattern ~sl

let test_join_equivalence_hash () =
  let pattern, sl = equi_join_pattern () in
  (* The hash path must agree with the nested loop on a join that really
     produces pairs — an empty answer would make this vacuous. *)
  let results, _ = Executor.join seo dblp_coll sigmod_coll ~pattern ~sl in
  checkb "equi-join has matches" true (Workload.result_key_pairs results <> []);
  check_join_equivalent ~what:"equi join" ~pattern ~sl

(* ------------------- unit: pairing strategy ----------------------- *)

let is_hash plan =
  match plan.Plan.root with
  | Plan.Dedup (Plan.Hash_pair _) -> true
  | _ -> false

let is_nested plan =
  match plan.Plan.root with
  | Plan.Dedup (Plan.Nested_loop_pair _) -> true
  | _ -> false

let is_sim plan =
  match plan.Plan.root with
  | Plan.Dedup (Plan.Sim_pair _) -> true
  | _ -> false

let test_pairing_choice () =
  let eq_pattern, eq_sl = equi_join_pattern () in
  let sim_pattern, sim_sl = Workload.join_query () in
  let plan_of ?optimize ?simjoin pattern sl =
    Planner.plan_join ?optimize ?simjoin seo dblp_coll sigmod_coll ~pattern ~sl
  in
  checkb "equality lowers to hash" true (is_hash (plan_of eq_pattern eq_sl));
  checkb "similarity lowers to sim-pair" true
    (is_sim (plan_of sim_pattern sim_sl));
  checkb "no sim-pair with --no-simjoin" true
    (is_nested (plan_of ~simjoin:false sim_pattern sim_sl));
  checkb "no hash without the planner" true
    (is_nested (plan_of ~optimize:false eq_pattern eq_sl));
  checkb "no sim-pair without the planner" true
    (is_nested (plan_of ~optimize:false sim_pattern sim_sl));
  (* A 1-document build side is below the planner's threshold: the
     quadratic term is already gone, so signature construction would be
     pure overhead. *)
  let tiny_coll =
    let c = Collection.create "tiny" in
    (match Collection.add_xml c "<proceedings><confYear>1999</confYear></proceedings>" with
    | Ok _ -> ()
    | Error _ -> failwith "bad xml");
    Collection.snapshot c
  in
  checkb "tiny build side falls back to nested loop" true
    (is_nested
       (Planner.plan_join seo dblp_coll tiny_coll ~pattern:sim_pattern
          ~sl:sim_sl));
  (* Key orientation is normalized: writing the atom right-to-left must
     still be recognized. *)
  let open Pattern in
  let flipped =
    v
      (node 0 [ ad (node 1 [ pc (leaf 2) ]); ad (node 3 [ pc (leaf 4) ]) ])
      (Condition.conj
         [
           Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
           Condition.tag_eq 1 "inproceedings";
           Condition.tag_eq 2 "year";
           Condition.tag_eq 3 "proceedings";
           Condition.tag_eq 4 "confYear";
           Condition.Cmp (Condition.Content 4, Condition.Eq, Condition.Content 2);
         ])
  in
  checkb "flipped equality still hashes" true
    (is_hash (plan_of flipped [ 1; 3 ]));
  match (plan_of flipped [ 1; 3 ]).Plan.root with
  | Plan.Dedup (Plan.Hash_pair { keys = [ (l, r) ]; _ }) ->
      checkb "left key term is the left side's" true (l = Condition.Content 2);
      checkb "right key term is the right side's" true (r = Condition.Content 4)
  | _ -> Alcotest.fail "expected a single-key hash pair"

(* --------------------- unit: rewrite cache ------------------------ *)

(* Compiling a pattern expands its constants through the memoized
   expansions: a second compilation of the same pattern under the same
   SEO is served entirely from the cache, with the walks' answers. *)
let test_rewrite_cache () =
  let module Metrics = Toss_obs.Metrics in
  let pattern, _ = Workload.scalability_selection () in
  let counter name =
    Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)
  in
  ignore (Compile.build seo pattern);
  let misses = counter "rewrite.cache.misses" and hits = counter "rewrite.cache.hits" in
  ignore (Compile.build seo pattern);
  checki "recompilation misses nothing" misses (counter "rewrite.cache.misses");
  checkb "recompilation hits the cache" true (counter "rewrite.cache.hits" > hits);
  let direct = Seo.isa_below seo "database conference" in
  let cached = Rewrite.isa_below seo "database conference" in
  checkb "cached expansion matches Seo" true (cached = direct);
  checkb "second call stable" true
    (Rewrite.isa_below seo "database conference" = direct);
  checkb "similar terms cached too" true
    (Rewrite.similar_terms seo "VLDB" = Seo.similar_terms seo "VLDB")

(* The expansion cache is keyed on the physical SEO value. Swapping the
   SEO — or just its ε, which always means building a new SEO since the
   type is immutable — must never serve the previous ontology's
   expansions. Regression test: interleave two SEOs that give different
   answers for the same constants and require every cached answer to
   match a fresh uncached walk. *)
let test_rewrite_cache_invalidation () =
  let module Hierarchy = Toss_hierarchy.Hierarchy in
  let module Ontology = Toss_ontology.Ontology in
  let module Levenshtein = Toss_similarity.Levenshtein in
  let seo_a =
    Seo.create_exn ~metric:Levenshtein.metric ~eps:0.5
      (Ontology.of_list
         [ (Ontology.isa, Hierarchy.of_pairs [ ("model", "article") ]) ])
  in
  let seo_b =
    Seo.create_exn ~metric:Levenshtein.metric ~eps:1.0
      (Ontology.of_list
         [ (Ontology.isa,
            Hierarchy.of_pairs
              [ ("model", "article"); ("models", "article"); ("note", "article") ]) ])
  in
  (* The two ontologies genuinely disagree, so a stale hit is visible. *)
  checkb "fixture: ontologies disagree on isa" true
    (Seo.isa_below seo_a "article" <> Seo.isa_below seo_b "article");
  checkb "fixture: eps changes similarity" true
    (Seo.similar_terms seo_a "model" <> Seo.similar_terms seo_b "model");
  List.iter
    (fun seo ->
      checkb "isa expansion follows the live SEO" true
        (Rewrite.isa_below seo "article" = Seo.isa_below seo "article");
      checkb "similar expansion follows the live SEO" true
        (Rewrite.similar_terms seo "model" = Seo.similar_terms seo "model");
      checkb "part expansion follows the live SEO" true
        (Rewrite.part_below seo "article" = Seo.part_below seo "article"))
    [ seo_a; seo_b; seo_a; seo_b; seo_a ]

let () =
  Alcotest.run "toss_planner"
    [
      ( "equivalence",
        [
          Alcotest.test_case "selection workload (50 query/mode runs)" `Quick
            test_selection_equivalence;
          Alcotest.test_case "multi-document collection" `Quick
            test_selection_equivalence_multidoc;
          Alcotest.test_case "multi-document matches" `Quick
            test_sigmod_hits_equivalence;
          Alcotest.test_case "similarity join" `Quick
            test_join_equivalence_similarity;
          Alcotest.test_case "equi join (hash vs nested loop)" `Quick
            test_join_equivalence_hash;
        ] );
      ( "planner units",
        [
          Alcotest.test_case "pairing strategy" `Quick test_pairing_choice;
          Alcotest.test_case "rewrite expansion cache" `Quick test_rewrite_cache;
          Alcotest.test_case "cache invalidation on SEO/eps change" `Quick
            test_rewrite_cache_invalidation;
        ] );
    ]
