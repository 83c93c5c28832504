(* End-to-end integration tests: a miniature of the paper's Section 6
   evaluation. A ground-truth corpus is rendered into DBLP-style XML,
   the full TOSS precomputation pipeline runs (Ontology Maker -> fusion ->
   SEA), and the Figure 15 workload executes under TAX, TOSS(eps=2) and
   TOSS(eps=3). The paper's qualitative claims are asserted:

   - TAX precision is 1.0 on every query, with low recall;
   - TOSS recall dominates TAX recall, and grows with eps;
   - TOSS precision stays high (possibly < 1);
   - TOSS quality dominates TAX quality on average. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Seo = Toss_core.Seo
module Executor = Toss_core.Executor
module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Sigmod_gen = Toss_data.Sigmod_gen
module Workload = Toss_data.Workload
module Quality = Toss_eval.Quality

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let corpus = Corpus.generate ~seed:7 ~n_papers:100 ()
let dblp = Dblp_gen.render ~seed:7 corpus
let doc = Doc.of_tree dblp.Dblp_gen.tree

let collection_t =
  let c = Collection.create "dblp" in
  ignore (Collection.add_document c dblp.Dblp_gen.tree);
  c

(* The executor takes immutable snapshots; the writable handle stays
   around for the persistence round-trip test. *)
let collection = Collection.snapshot collection_t

let seo_for eps =
  match
    Seo.of_documents ~metric:Workload.experiment_metric ~eps [ doc ]
  with
  | Ok seo -> seo
  | Error msg -> failwith msg

let seo2 = seo_for 2.0
let seo3 = seo_for 3.0

let queries = Workload.selection_queries corpus

type run = { precision : float; recall : float; quality : float }

let run_query seo mode (q : Workload.query) =
  let results, _ =
    Executor.select ~mode seo collection ~pattern:q.Workload.pattern ~sl:q.Workload.sl
  in
  let returned = Workload.result_keys results in
  let p, r, quality = Quality.evaluate ~correct:q.Workload.correct ~returned in
  { precision = p; recall = r; quality }

let tax_runs = lazy (List.map (run_query seo2 Executor.Tax) queries)
let toss2_runs = lazy (List.map (run_query seo2 Executor.Toss) queries)
let toss3_runs = lazy (List.map (run_query seo3 Executor.Toss) queries)

let mean f runs = Quality.mean (List.map f runs)

let test_tax_precision_is_one () =
  List.iteri
    (fun i r ->
      checkb (Printf.sprintf "query %d precision 1" (i + 1)) true (r.precision = 1.0))
    (Lazy.force tax_runs)

let test_tax_recall_low () =
  let avg = mean (fun r -> r.recall) (Lazy.force tax_runs) in
  checkb "TAX average recall below 0.6" true (avg < 0.6);
  (* The paper: recall below 0.5 for most queries. *)
  let low =
    List.length (List.filter (fun r -> r.recall < 0.5) (Lazy.force tax_runs))
  in
  checkb "at least half the queries below 0.5" true (2 * low >= List.length queries)

let test_toss_recall_dominates_tax () =
  List.iteri
    (fun i (tax, toss) ->
      checkb (Printf.sprintf "query %d: toss recall >= tax recall" (i + 1)) true
        (toss.recall >= tax.recall -. 1e-9))
    (List.combine (Lazy.force tax_runs) (Lazy.force toss3_runs));
  checkb "strictly better on average" true
    (mean (fun r -> r.recall) (Lazy.force toss3_runs)
    > mean (fun r -> r.recall) (Lazy.force tax_runs) +. 0.1)

let test_eps_monotonicity () =
  let r2 = mean (fun r -> r.recall) (Lazy.force toss2_runs) in
  let r3 = mean (fun r -> r.recall) (Lazy.force toss3_runs) in
  checkb "recall grows with eps" true (r3 >= r2);
  checkb "eps 3 meaningfully higher" true (r3 > r2 +. 0.02)

let test_toss_precision_high () =
  let p2 = mean (fun r -> r.precision) (Lazy.force toss2_runs) in
  let p3 = mean (fun r -> r.precision) (Lazy.force toss3_runs) in
  checkb "eps 2 precision above 0.9" true (p2 > 0.9);
  checkb "eps 3 precision above 0.8" true (p3 > 0.8);
  checkb "precision does not grow with eps" true (p2 >= p3 -. 1e-9)

let test_quality_dominance () =
  let q_tax = mean (fun r -> r.quality) (Lazy.force tax_runs) in
  let q3 = mean (fun r -> r.quality) (Lazy.force toss3_runs) in
  checkb "TOSS(3) quality dominates TAX quality" true (q3 > q_tax)

(* ------------------------------------------------------------------ *)
(* Executor phase accounting and result sanity                          *)
(* ------------------------------------------------------------------ *)

let test_phases_and_counts () =
  let q = List.hd queries in
  let results, stats =
    Executor.select ~mode:Executor.Toss seo3 collection ~pattern:q.Workload.pattern
      ~sl:q.Workload.sl
  in
  checkb "phases non-negative" true
    (stats.Executor.phases.Executor.rewrite_s >= 0.
    && stats.Executor.phases.Executor.execute_s >= 0.
    && stats.Executor.phases.Executor.assemble_s >= 0.);
  checki "result count" (List.length results) stats.Executor.n_results;
  checkb "candidates fetched" true (stats.Executor.n_candidates > 0);
  (* The in-memory TOSS algebra shares no code with the plan operators
     and must return the same witnesses, in the same order. *)
  let reference =
    Toss_core.Toss_algebra.select seo3 ~pattern:q.Workload.pattern ~sl:q.Workload.sl
      [ dblp.Dblp_gen.tree ]
  in
  checkb "algebra select agrees" true (List.equal Tree.equal reference results)

(* ------------------------------------------------------------------ *)
(* Cross-schema join (Figure 16(b) shape) on a small corpus             *)
(* ------------------------------------------------------------------ *)

let test_cross_schema_join () =
  let small = Corpus.generate ~seed:3 ~n_papers:16 () in
  let d = Dblp_gen.render ~seed:3 small in
  let s = Sigmod_gen.render ~seed:3 small in
  let left = Collection.create "dblp" in
  ignore (Collection.add_document left d.Dblp_gen.tree);
  let right = Collection.create "sigmod" in
  List.iter (fun t -> ignore (Collection.add_document right t)) s.Sigmod_gen.trees;
  let left = Collection.snapshot left and right = Collection.snapshot right in
  let docs =
    Doc.of_tree d.Dblp_gen.tree :: List.map Doc.of_tree s.Sigmod_gen.trees
  in
  let seo =
    match Seo.of_documents ~metric:Workload.experiment_metric ~eps:2.0 docs with
    | Ok seo -> seo
    | Error m -> failwith m
  in
  let pattern, sl = Workload.join_query () in
  let toss_results, _ = Executor.join ~mode:Executor.Toss seo left right ~pattern ~sl in
  let tax_results, _ = Executor.join ~mode:Executor.Tax seo left right ~pattern ~sl in
  let toss_pairs = Workload.result_key_pairs toss_results in
  let tax_pairs = Workload.result_key_pairs tax_results in
  (* Every paper appears in both renderings; the join on title similarity
     should recover most same-key pairs. Titles are unique per paper so
     all matched pairs must be same-key. *)
  checkb "all TOSS pairs are correct" true (List.for_all (fun (l, r) -> l = r) toss_pairs);
  checkb "TOSS recovers most papers" true (List.length toss_pairs >= 12);
  checkb "TAX pairs are a subset" true
    (List.for_all (fun p -> List.mem p toss_pairs) tax_pairs);
  checkb "abbreviated titles block TAX" true
    (List.length tax_pairs < List.length toss_pairs)

(* ------------------------------------------------------------------ *)
(* The in-memory TOSS algebra agrees with the executor on the workload  *)
(* ------------------------------------------------------------------ *)

let test_executor_algebra_agreement_on_workload () =
  let small = Corpus.generate ~seed:11 ~n_papers:30 () in
  let d = Dblp_gen.render ~seed:11 small in
  let coll = Collection.create "dblp" in
  ignore (Collection.add_document coll d.Dblp_gen.tree);
  let coll = Collection.snapshot coll in
  let seo =
    match
      Seo.of_documents ~metric:Workload.experiment_metric ~eps:3.0
        [ Doc.of_tree d.Dblp_gen.tree ]
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  List.iter
    (fun (q : Workload.query) ->
      let via_store, _ =
        Executor.select ~mode:Executor.Toss seo coll ~pattern:q.Workload.pattern
          ~sl:q.Workload.sl
      in
      let in_memory =
        Toss_core.Toss_algebra.select seo ~pattern:q.Workload.pattern ~sl:q.Workload.sl
          [ d.Dblp_gen.tree ]
      in
      checkb
        (Printf.sprintf "query %d agreement" q.Workload.query_id)
        true
        (Workload.result_keys via_store = Workload.result_keys in_memory))
    (Workload.selection_queries ~n:6 small)

(* ------------------------------------------------------------------ *)
(* Durability: answers survive a save/load cycle                        *)
(* ------------------------------------------------------------------ *)

let test_persistence_preserves_answers () =
  let q = List.hd queries in
  let before, _ =
    Executor.select ~mode:Executor.Toss seo2 collection ~pattern:q.Workload.pattern
      ~sl:q.Workload.sl
  in
  let dir = Filename.temp_file "toss_int" "" in
  Sys.remove dir;
  Toss_store.Persist.save_collection collection_t ~dir;
  match Toss_store.Persist.load_collection ~name:"reloaded" dir with
  | Error msg -> Alcotest.fail msg
  | Ok reloaded ->
      let after, _ =
        Executor.select ~mode:Executor.Toss seo2 (Collection.snapshot reloaded)
          ~pattern:q.Workload.pattern ~sl:q.Workload.sl
      in
      Alcotest.(check (list string)) "same answer keys"
        (Workload.result_keys before) (Workload.result_keys after)

(* ------------------------------------------------------------------ *)
(* SAX-filtered ingestion: the big-dump workflow                        *)
(* ------------------------------------------------------------------ *)

let test_sax_filtered_ingestion () =
  (* Extract only the inproceedings records from the serialized dump (the
     way one would carve the paper's 188 MB DBLP down to Xindice's 5 MB),
     load them as individual documents, and query. *)
  let dump = Toss_xml.Printer.to_string dblp.Dblp_gen.tree in
  match Toss_xml.Sax.trees_where (fun tag -> tag = "inproceedings") dump with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Toss_xml.Parser.pp_error e)
  | Ok records ->
      Alcotest.(check int) "all records extracted" 100 (List.length records);
      let coll = Collection.create "records" in
      List.iter (fun t -> ignore (Collection.add_document coll t)) records;
      let coll = Collection.snapshot coll in
      let q = List.hd queries in
      let per_record, _ =
        Executor.select ~mode:Executor.Toss seo2 coll ~pattern:q.Workload.pattern
          ~sl:q.Workload.sl
      in
      let whole, _ =
        Executor.select ~mode:Executor.Toss seo2 collection ~pattern:q.Workload.pattern
          ~sl:q.Workload.sl
      in
      Alcotest.(check (list string)) "same answers as the single-document form"
        (Workload.result_keys whole)
        (Workload.result_keys per_record)

(* ------------------------------------------------------------------ *)
(* Session-level replay of a workload query via TQL                     *)
(* ------------------------------------------------------------------ *)

let test_session_tql_matches_executor () =
  let session =
    Toss_core.Session.create ~metric:Workload.experiment_metric ~eps:2.0
      ~content_tags:[ "author"; "booktitle" ] ()
  in
  Toss_core.Session.add_document session ~collection:"dblp" dblp.Dblp_gen.tree;
  (* Rebuild the first workload query as TQL text. *)
  let q = List.hd queries in
  let author, venue =
    match Toss_tax.Condition.atoms q.Workload.pattern.Toss_tax.Pattern.condition with
    | [ _; _; _; Toss_tax.Condition.Sim (_, Toss_tax.Condition.Str a);
        Toss_tax.Condition.Isa (_, Toss_tax.Condition.Str v) ] ->
        (a, v)
    | _ -> Alcotest.fail "unexpected workload query shape"
  in
  let tql =
    Printf.sprintf
      {|MATCH #1:inproceedings(/#2:author, /#3:booktitle)
        WHERE #2.content ~ "%s" AND #3.content isa "%s"
        SELECT #1|}
      author venue
  in
  match Toss_core.Session.query session ~collection:"dblp" tql with
  | Error msg -> Alcotest.fail msg
  | Ok answer ->
      let direct, _ =
        Executor.select ~mode:Executor.Toss
          (Result.get_ok (Toss_core.Session.seo session))
          (Collection.snapshot
             (Option.get (Toss_core.Session.collection session "dblp")))
          ~pattern:q.Workload.pattern ~sl:q.Workload.sl
      in
      Alcotest.(check (list string)) "TQL and direct answers agree"
        (Workload.result_keys direct)
        (Workload.result_keys answer.Toss_core.Session.trees)

let () =
  Alcotest.run "toss_integration"
    [
      ( "figure 15 shape",
        [
          Alcotest.test_case "TAX precision is 1.0" `Slow test_tax_precision_is_one;
          Alcotest.test_case "TAX recall is low" `Slow test_tax_recall_low;
          Alcotest.test_case "TOSS recall dominates" `Slow test_toss_recall_dominates_tax;
          Alcotest.test_case "recall grows with eps" `Slow test_eps_monotonicity;
          Alcotest.test_case "TOSS precision stays high" `Slow test_toss_precision_high;
          Alcotest.test_case "quality dominance" `Slow test_quality_dominance;
        ] );
      ( "executor",
        [
          Alcotest.test_case "phase accounting" `Slow test_phases_and_counts;
          Alcotest.test_case "cross-schema join" `Slow test_cross_schema_join;
          Alcotest.test_case "store/algebra agreement" `Slow
            test_executor_algebra_agreement_on_workload;
        ] );
      ( "system",
        [
          Alcotest.test_case "persistence preserves answers" `Slow
            test_persistence_preserves_answers;
          Alcotest.test_case "sax-filtered ingestion" `Slow test_sax_filtered_ingestion;
          Alcotest.test_case "session TQL replay" `Slow test_session_tql_matches_executor;
        ] );
    ]
