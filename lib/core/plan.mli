(** Logical query plans and their physical operators.

    The planner ({!Planner}) compiles a pattern-tree query into this IR;
    {!run} executes it. Splitting the two keeps the executor's
    three-phase contract — the plan is built during the [rewrite] phase,
    and {!run} produces exactly one [execute] span (empty: the matcher
    sends no store queries) and one [assemble] span (matching, pairing,
    deduplication), so {!Executor.stats.phases} remains a faithful view
    over the trace.

    A plan is a small operator tree:

    - [Compiled_match] — one side's pattern, compiled once ({!Compile})
      and matched against every document of the side's snapshot in one
      arena pass;
    - [Nested_loop_pair] / [Hash_pair] / [Sim_pair] — combine the two
      sides of a join, checking the cross condition on every pair, only
      on hash-partitioned key matches, or only on signature-overlap
      candidates of a [~]/[isa] atom ({!Simjoin});
    - [Dedup] — global set semantics over the paired results.

    Plans are pure data: rendering one ({!pp}) performs no store access,
    which is what the CLI's [--explain] shows before running anything. *)

type side = Single | Left | Right
(** Which snapshot an operator reads: [Single] for selections,
    [Left]/[Right] for the two collections of a join. *)

type embed_spec = {
  side : side;
  sub_pattern : Toss_tax.Pattern.t;
  sub_sl : int list;  (** the SL labels that fall on this side *)
  pin_root : bool;
      (** pin the sub-pattern root to the document root (a pc edge from
          the join product root, as in the paper's Figure 14) *)
}

type node =
  | Nested_loop_pair of {
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
  | Hash_pair of {
      keys : (Toss_tax.Condition.term * Toss_tax.Condition.term) list;
          (** equality atoms split across the sides: (left term, right
              term) pairs used to partition; the full [cross_condition]
              is still re-checked on every key match, so the operator is
              an optimization, never a semantic change *)
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
  | Sim_pair of {
      atom : Toss_tax.Condition.t;
          (** the top-level [~]/[isa] cross conjunct driving the filter
              (for rendering; completeness relies on it being a
              top-level conjunct of [cross_condition]) *)
      lterm : Toss_tax.Condition.term;  (** probe-side (left) atom term *)
      rterm : Toss_tax.Condition.term;  (** build-side (right) atom term *)
      scheme : Simjoin.scheme;
          (** the taxonomic signature scheme ({!Simjoin}) the planner
              derived from the atom kind, mode and SEO *)
      cross_condition : Toss_tax.Condition.t;
      left : node;
      right : node;
    }
      (** the similarity-join operator: the right side is indexed by
          frequency-ordered signature prefixes, the left probes with an
          adaptive overlap constraint, and — exactly as for [Hash_pair]
          — the full [cross_condition] is re-checked on every candidate,
          so the operator is an optimization, never a semantic change *)
  | Dedup of node
  | Compiled_match of { spec : embed_spec; matcher : Compile.t }
      (** the compiled single-pass matcher ({!Compile}): every document
          of the side's snapshot is matched in one arena pass,
          predicates evaluated inline. Produces witness trees directly
          for [Single] sides and bindings for join sides, which feed the
          pairing operators. *)

type t = { mode : Rewrite.mode; root : node }

val pp : Format.formatter -> t -> unit
(** Renders the operator tree, compiled states included — the CLI's
    [--explain]. Deterministic; performs no store access. *)

val to_string : t -> string

(** {1 Execution} *)

type exec_stats = { n_candidates : int; n_embeddings : int }

(** {1 Fault injection (testing only)}

    Deliberate sabotage for the differential harness ([Toss_check]):
    each variant breaks one invariant the operators rely on, so
    [toss check --inject-fault] can demonstrate that the naive oracle
    catches a broken engine and that the shrinker minimizes the
    witness. Only the harness passes a fault to {!run}; the executor
    always runs with {!No_fault}. *)

type fault =
  | No_fault
  | Hash_no_recheck
      (** [Hash_pair] accepts every key match without re-checking the
          full cross condition *)
  | No_dedup  (** both deduplication sites pass duplicates through *)
  | Compile_skip_descendant_edge
      (** [Compiled_match] stops bubbling ancestor-descendant matches up
          the arena, silently demoting every ad edge to pc semantics —
          matches deeper than one level under their pattern parent's
          image are dropped *)
  | Simjoin_prefix_too_short
      (** [Sim_pair] indexes one prefix token too few per build record
          (see {!Simjoin.build}), making some true pairs unreachable —
          missed results *)
  | Simjoin_no_recheck
      (** [Sim_pair] emits every overlap candidate without re-checking
          the cross condition — false results *)

val run :
  ?check:(unit -> unit) ->
  ?fault:fault ->
  eval:(Toss_tax.Condition.env -> Toss_tax.Condition.t -> bool) ->
  coll_of:(side -> Toss_store.Collection.Snapshot.t) ->
  t ->
  Toss_xml.Tree.t list * exec_stats
(** Executes the plan against pinned collection snapshots — it performs
    no locking of its own and reads only immutable version state, so
    concurrent runs on separate domains are safe and a run's results are
    unaffected by writers advancing the collections mid-flight. One
    empty [execute] span, then one [assemble] span containing a
    per-document [match] span and (for joins) a [pair] span. Must be
    called inside an executor root span for the trace to be observable;
    works standalone too (spans become no-ops).

    [check] is a cooperative cancellation checkpoint, called once per
    arena node inside the matcher's loop and once per outer pairing
    iteration. It does nothing by default; the query server passes one
    that raises once the request's deadline has passed, which unwinds
    the run mid-plan (no partial results escape: the exception
    propagates through {!Executor}). [fault] (default {!No_fault}) is
    the harness's sabotage hook. *)
