(* The differential harness tested against itself.

   A clean engine must survive a few hundred random cases; an engine
   with a deliberately injected engine fault must NOT — and the shrunk
   counterexample must be small. This is the standing proof that the
   harness has teeth: if a refactor ever silences it, these tests fail
   before a real bug can hide behind it. *)

module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Plan = Toss_core.Plan
module Rng = Toss_check.Rng
module Gen = Toss_check.Gen
module Oracle = Toss_check.Oracle
module Diff = Toss_check.Diff
module Harness = Toss_check.Harness

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------- generator ------------------------------ *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case seed and b = Gen.case seed in
      Alcotest.(check string)
        "same seed, same case" (Gen.to_ocaml a) (Gen.to_ocaml b);
      checkb "same op" true (a.Gen.op = b.Gen.op))
    [ 0; 1; 42; 123456789 ]

let test_gen_covers_both_ops () =
  let rng = Rng.create 7 in
  let seeds = List.init 64 (fun _ -> Rng.sub_seed rng) in
  let ops = List.map (fun s -> (Gen.case s).Gen.op) seeds in
  checkb "some selections" true (List.mem Gen.Select ops);
  checkb "some joins" true (List.mem Gen.Join ops);
  List.iter
    (fun s ->
      let c = Gen.case s in
      checkb "selections have no right corpus" true
        (c.Gen.op = Gen.Join || c.Gen.right_docs = []);
      checkb "at least one document" true (c.Gen.docs <> []))
    seeds

(* --------------------------- oracle ------------------------------- *)

(* A case tiny enough to verify by hand: //a[b] with SL = {b}. *)
let test_oracle_by_hand () =
  let doc =
    Doc.of_tree
      (Toss_xml.Parser.parse_exn "<a><b>x</b><a><b>y</b></a></a>")
  in
  let pattern =
    Pattern.v
      (Pattern.node 1 [ (Pattern.Ad, Pattern.leaf 2) ])
      (Condition.conj [ Condition.tag_eq 1 "a"; Condition.tag_eq 2 "b" ])
  in
  let eval = Condition.eval_tax in
  let results, n = Oracle.select ~eval ~pattern ~sl:[ 2 ] [ doc ] in
  (* Embeddings: outer a -> either b (2), inner a -> inner b (1). *)
  checki "three satisfying embeddings" 3 n;
  (* Witnesses under SL = {b}: <a><b>x</b></a> from the first embedding;
     the other two embeddings both render as <a><b>y</b></a> — different
     nodes, identical witness value — and set semantics keeps one. *)
  checki "two distinct witnesses" 2 (List.length results)

let test_oracle_matches_executor_on_workload () =
  (* Redundant with [toss check] but pinned here so `dune runtest` alone
     exercises the differential loop. *)
  let rng = Rng.create 2024 in
  let failures =
    List.init 60 (fun _ -> Rng.sub_seed rng)
    |> List.filter_map (fun s -> Diff.check_case (Gen.case s))
  in
  checki "no discrepancies on 60 cases" 0 (List.length failures)

(* ---------------------- harness and faults ------------------------ *)

let test_clean_run_passes () =
  match Harness.run ~seed:42 ~runs:120 () with
  | Harness.Pass { runs } -> checki "all runs checked" 120 runs
  | Harness.Fail { failure; _ } ->
      Alcotest.failf "unexpected discrepancy: %s" failure.Diff.detail

let expect_caught ?op ?max_per_side ~runs name fault =
  match Harness.run ~fault ?op ~seed:42 ~runs () with
  | Harness.Pass _ -> Alcotest.failf "%s: fault not caught in %d runs" name runs
  | Harness.Fail { failure; _ } ->
      let c = failure.Diff.case in
      let docs = List.length c.Gen.docs + List.length c.Gen.right_docs in
      checkb (name ^ ": shrunk to at most 3 documents") true (docs <= 3);
      Option.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s: shrunk to at most %d document(s) per side" name m)
            true
            (List.length c.Gen.docs <= m && List.length c.Gen.right_docs <= m))
        max_per_side;
      checkb (name ^ ": repro mentions the discrepancy") true
        (String.length (Harness.repro failure) > 0)

let test_fault_no_dedup () = expect_caught ~runs:200 "no-dedup" Plan.No_dedup

(* The compiled matcher's own proof obligation: ancestor-descendant
   matches must bubble up the arena, or deep matches go missing. *)
let test_fault_compile_skip_descendant_edge () =
  expect_caught ~op:Gen.Select ~runs:200 "compile-skip-descendant-edge"
    Plan.Compile_skip_descendant_edge

let test_fault_hash_no_recheck () =
  expect_caught ~op:Gen.Join ~runs:500 "hash-no-recheck" Plan.Hash_no_recheck

(* The two sim-join faults bracket the operator's two proof obligations:
   candidate completeness (a too-short signature prefix loses pairs the
   nested-loop reference finds) and soundness (skipping the cross-
   condition recheck emits pairs that merely share a prefix token).
   Both must shrink to a couple of documents per side — [Sim_pair] still
   fires there because the planner's build-side threshold is 2. *)
let test_fault_simjoin_prefix_too_short () =
  expect_caught ~op:Gen.Join ~max_per_side:2 ~runs:500 "simjoin-prefix-too-short"
    Plan.Simjoin_prefix_too_short

let test_fault_simjoin_no_recheck () =
  expect_caught ~op:Gen.Join ~max_per_side:2 ~runs:500 "simjoin-no-recheck"
    Plan.Simjoin_no_recheck

(* -------------------------- shrinker ------------------------------ *)

let test_shrinker_requires_failure () =
  (* A trivially passing case must be rejected, not "minimized". *)
  let case = Gen.case 42 in
  match Diff.check_case case with
  | Some _ -> Alcotest.fail "fixture: seed 42 unexpectedly fails clean"
  | None ->
      checkb "minimize rejects passing cases" true
        (try
           ignore (Toss_check.Shrink.minimize case);
           false
         with Invalid_argument _ -> true)

let () =
  Alcotest.run "toss_check"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_gen_deterministic;
          Alcotest.test_case "covers both operators" `Quick test_gen_covers_both_ops;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "hand-checked selection" `Quick test_oracle_by_hand;
          Alcotest.test_case "agrees with executor (60 cases)" `Quick
            test_oracle_matches_executor_on_workload;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean run passes" `Quick test_clean_run_passes;
          Alcotest.test_case "catches missing dedup" `Quick test_fault_no_dedup;
          Alcotest.test_case "catches skipped descendant edges" `Quick
            test_fault_compile_skip_descendant_edge;
          Alcotest.test_case "catches skipped hash recheck" `Quick
            test_fault_hash_no_recheck;
          Alcotest.test_case "catches too-short simjoin prefixes" `Quick
            test_fault_simjoin_prefix_too_short;
          Alcotest.test_case "catches skipped simjoin recheck" `Quick
            test_fault_simjoin_no_recheck;
          Alcotest.test_case "shrinker rejects passing cases" `Quick
            test_shrinker_requires_failure;
        ] );
    ]
