module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Executor = Toss_core.Executor
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan

type config = { planner : bool }

let configs = [ { planner = true }; { planner = false } ]
let config_name c = if c.planner then "planner=on" else "planner=off"

type failure = {
  case : Gen.case;
  mode : Executor.mode;
  config : config;
  expected : Tree.t list;
  got : Tree.t list;
  detail : string;
}

let mode_name = function Executor.Tax -> "tax" | Executor.Toss -> "toss"

(* Results compare as canonicalized multisets: [Tree.compare] is a total
   order, so sorting both sides makes the comparison order-insensitive
   while still counting duplicates. *)
let canonical trees = List.sort Tree.compare trees

let equal_multiset a b =
  List.length a = List.length b && List.for_all2 Tree.equal a b

let modes = [ Executor.Tax; Executor.Toss ]

(* The harness drives [Planner] and [Plan.run] rather than [Executor], so
   it can hand [Plan.run] a sabotage [fault] without the executor
   carrying a test hook. The mode's evaluator and the join's
   side-to-snapshot mapping are the executor's own. *)
let check_case ?(fault = Plan.No_fault) ?(simjoin = true) (case : Gen.case) =
  let seo = Gen.seo_of case in
  let coll = Collection.snapshot (Collection.of_trees ~name:"check" case.Gen.docs) in
  let rcoll =
    Collection.snapshot (Collection.of_trees ~name:"check-right" case.Gen.right_docs)
  in
  let docs = List.map Doc.of_tree case.Gen.docs in
  let rdocs = List.map Doc.of_tree case.Gen.right_docs in
  let pattern = case.Gen.pattern and sl = case.Gen.sl in
  let fail mode config expected got detail =
    Some { case; mode; config; expected; got; detail }
  in
  let check_mode mode =
    let eval = Executor.evaluator_of mode seo in
    match case.Gen.op with
    | Gen.Select -> (
        let oracle_trees, oracle_n = Oracle.select ~eval ~pattern ~sl docs in
        let expected = canonical oracle_trees in
        (* A selection has a single plan; [planner] only shapes joins. *)
        let config = { planner = true } in
        let plan = Planner.plan_select ~mode seo coll ~pattern ~sl in
        let results, (exec : Plan.exec_stats) =
          Plan.run ~fault ~eval ~coll_of:(fun _ -> coll) plan
        in
        let got = canonical results in
        if not (equal_multiset expected got) then
          fail mode config expected got
            (Printf.sprintf "select result multiset differs (oracle %d, executor %d)"
               (List.length expected) (List.length got))
        else if exec.Plan.n_embeddings <> oracle_n then
          fail mode config expected got
            (Printf.sprintf "embedding count differs (oracle %d, executor %d)"
               oracle_n exec.Plan.n_embeddings)
        else None)
    | Gen.Join ->
        let expected = canonical (Oracle.join ~eval ~pattern ~sl docs rdocs) in
        let coll_of = Executor.join_sides coll rcoll in
        List.find_map
          (fun config ->
            let plan =
              Planner.plan_join ~mode ~optimize:config.planner ~simjoin seo coll
                rcoll ~pattern ~sl
            in
            let results, _ = Plan.run ~fault ~eval ~coll_of plan in
            let got = canonical results in
            if not (equal_multiset expected got) then
              fail mode config expected got
                (Printf.sprintf "join result multiset differs (oracle %d, executor %d)"
                   (List.length expected) (List.length got))
            else None)
          configs
  in
  List.find_map check_mode modes
