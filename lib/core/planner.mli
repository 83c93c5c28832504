(** Compilation of pattern-tree queries into {!Plan} operator trees.

    The planner runs during the executor's [rewrite] phase. Every
    matching side becomes one {!Plan.Compiled_match} leaf: the pattern is
    compiled once ({!Compile.build}), its SEO-expanded node predicates
    resolved up front, and every document of the snapshot is matched in
    one arena pass. Planning reads only the immutable snapshot, so it is
    safe from any domain and consistent with the execution that runs the
    plan against the same snapshot.

    For joins the planner also picks the pairing operator from what it
    can observe: cross-conditions whose top-level conjuncts include an
    equality split across the two sides are lowered to [Hash_pair]
    (hash-partitioned pairing with a full recheck on key matches);
    otherwise a top-level [~]/[isa] conjunct split across the sides is
    lowered to [Sim_pair] (signature prefix filtering with an adaptive
    overlap constraint — see {!Simjoin} — plus the same full recheck)
    whenever the build side holds at least two documents; anything else
    falls back to [Nested_loop_pair]. *)

val plan_select :
  ?mode:Rewrite.mode ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Plan.t
(** The plan for [σ_{P,SL}] over the snapshot: a single
    {!Plan.Compiled_match} leaf. *)

val plan_join :
  ?mode:Rewrite.mode ->
  ?optimize:bool ->
  ?simjoin:bool ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Plan.t
(** The plan for a condition join. The pattern's root must have exactly
    two children (the left and right sub-patterns); raises
    [Invalid_argument] otherwise, as {!Executor.join} always has. Each
    side becomes its own {!Plan.Compiled_match} leaf feeding the pairing
    operator. [optimize:false] (the CLI's [--no-planner]) always pairs
    by nested loop, the reference the pairing operators are checked
    against. [simjoin] (default true; the CLI's [--no-simjoin] when off)
    gates the [Sim_pair] lowering only — with it off, similarity
    cross-conditions keep the nested-loop pairing, the escape hatch and
    differential reference. *)
