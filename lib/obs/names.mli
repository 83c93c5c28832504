(** Canonical span names of the query pipeline.

    The executor's statistics ([Executor.stats.phases]) are a view over
    the span tree: phase durations are found {e by name} in the trace, and
    EXPLAIN ANALYZE renders the same tree. Centralising the names makes
    that contract explicit — the physical operators, the phase view and
    the renderers all refer to the one constant, so they cannot drift
    apart. *)

val select_root : string
(** Root span of one [Executor.select] run (["executor.select"]). *)

val join_root : string
(** Root span of one [Executor.join] run (["executor.join"]). *)

(** {1 Phases} — the paper's three timed phases (Section 6). *)

val rewrite : string
(** Phase (i): pattern-tree rewrite and planning. *)

val execute : string
(** Phase (ii): store-query execution — empty, since the compiled
    matcher reads documents directly during assembly. *)

val assemble : string
(** Phase (iii): witness-tree assembly. *)

(** {1 Physical operators} — per-operator spans nested inside the
    phases. *)

val matcher : string
(** One document's compiled single-pass match (child of {!assemble});
    annotated with [nodes]/[structural]/[matches]. *)

val pair : string
(** The join's pairing operator (child of {!assemble}); annotated with
    the chosen [strategy] (["hash"], ["sim"] or ["nested-loop"]). *)
