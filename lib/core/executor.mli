(** The Query Executor (TOSS architecture component 3).

    Executes pattern-tree queries against a store collection in the three
    phases the paper times (Section 6): (i) rewrite the pattern tree,
    (ii) execute it against the store, (iii) assemble TAX-form witness
    trees. The paper's phase (i) produces XPath store queries; here it
    compiles the pattern, with its SEO-expanded node predicates, into a
    single-pass arena matcher ({!Compile}). No store queries are sent, so
    phase (ii) is empty and phase (iii) holds one [match] span per
    document. The [mode] selects the baseline TAX semantics or the
    ontology-aware TOSS semantics; both run the same matcher, so
    measured differences reflect the ontology accesses, as in the paper.

    Both entry points are facades over {!Planner.plan_select} /
    {!Planner.plan_join} followed by {!Plan.run}. For joins, phase (i)
    also picks the pairing operator; [planner:false] — the CLI's
    [--no-planner] — pairs by nested loop instead, the pairing
    reference. Results are identical either way, only the work to
    produce them changes. *)

type mode = Rewrite.mode = Tax | Toss

type phases = {
  rewrite_s : float;  (** phase (i) seconds, including planning *)
  execute_s : float;  (** phase (ii) seconds *)
  assemble_s : float;  (** phase (iii) seconds *)
}

type stats = {
  phases : phases;
  n_candidates : int;  (** arena nodes visited by the matchers *)
  n_embeddings : int;  (** pattern embeddings found during assembly *)
  n_results : int;  (** witness trees returned (after deduplication) *)
  trace : Toss_obs.Span.t;
      (** the full span tree of this run; [phases] is a view over its
          [rewrite]/[execute]/[assemble] children, so the two always
          agree. [execute] is empty; [assemble] holds one [match] span
          per document (annotated [nodes]/[structural]/[matches]) and,
          for joins, a [pair] span (annotated with the [strategy] and
          pair counts) — the operators EXPLAIN ANALYZE renders.
          Allocation deltas are populated when
          [Toss_obs.Span.set_enabled true] was called beforehand.

          When a [Toss_obs.Event] sink is installed, a run additionally
          emits the event stream [query_start], [rewrite_done], one
          [embed_done] per document, and [query_end] (carrying this
          trace). *)
}

val total_s : phases -> float
(** Sum of the three phase durations — the end-to-end query time the
    paper reports. *)

val evaluator_of : mode -> Seo.t -> Toss_tax.Condition.env -> Toss_tax.Condition.t -> bool
(** The condition evaluator a [mode] runs under: {!Toss_tax.Condition.eval_tax}
    for [Tax], {!Toss_condition.evaluator} for [Toss]. *)

val join_sides :
  Toss_store.Collection.Snapshot.t ->
  Toss_store.Collection.Snapshot.t ->
  Plan.side ->
  Toss_store.Collection.Snapshot.t
(** [join_sides left right] is the [coll_of] a join plan runs with:
    [Left] (and [Single]) read [left], [Right] reads [right]. *)

val select :
  ?mode:mode ->
  ?check:(unit -> unit) ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.t list * stats
(** [σ_{P,SL}] over every document of the pinned snapshot. Planning and
    execution both read the same immutable version, so the answer is
    exactly the one a stop-the-world run at that version would produce —
    concurrent writers advancing the underlying collection have no
    effect on an in-flight call. The call itself takes no locks and is
    safe to run on any domain (its observability side effects go to the
    domain-safe {!Toss_obs} registry and the calling domain's span
    context). [check] is forwarded to {!Plan.run} as its cooperative
    cancellation checkpoint (the query server's per-request deadline —
    it fires once per arena node); whatever it raises propagates out of
    this call. *)

val join :
  ?mode:mode ->
  ?planner:bool ->
  ?simjoin:bool ->
  ?check:(unit -> unit) ->
  Seo.t ->
  Toss_store.Collection.Snapshot.t ->
  Toss_store.Collection.Snapshot.t ->
  pattern:Toss_tax.Pattern.t ->
  sl:int list ->
  Toss_xml.Tree.t list * stats
(** Condition join of two pinned snapshots (same isolation and
    domain-safety guarantees as {!select}). The pattern's root must have
    exactly two children — the sub-pattern matched in the left collection
    and the one matched in the right (as in the paper's Figure 14); the
    root itself stands for the product node and is not matched against
    either store. An ad edge from the root lets the side match anywhere in
    a document; a pc edge pins it to the document root. Cross-collection
    atoms are evaluated during assembly; with [planner] on, equality
    atoms split across the sides are used to hash-partition the pairing,
    and failing that a [~]/[isa] atom selects the signature-indexed
    similarity pairing ({!Plan.Sim_pair}) when the build side is big
    enough (the full condition is still re-checked on every key match or
    overlap candidate). [simjoin:false] — the CLI's [--no-simjoin] —
    disables only the similarity pairing, keeping the nested-loop path
    as escape hatch and differential reference. *)
