(** Edit distances.

    The Levenshtein distance with unit costs is the paper's running example
    of a {e strong} similarity measure (footnote to Definition 7); it drives
    Example 11 and the experiments' SEO construction. *)

val distance : string -> string -> int
(** Unit-cost insert/delete/substitute edit distance. O(|a|·|b|) time,
    O(min(|a|,|b|)) space. *)

val distance_within : int -> string -> string -> int option
(** [distance_within k a b] is [Some d] when [distance a b = d <= k] and
    [None] otherwise (always [None] for [k < 0]). A length difference
    above [k] answers at once. Otherwise the DP fills only the band of
    cells within [k] of the diagonal and stops at the first row whose band
    minimum exceeds [k]: O(k·max(|a|,|b|)) time, O(min(|a|,|b|)) space.
    Threshold tests (the SEA ε-graph, the token typo checks of the rule
    measures) use this instead of {!distance}. *)

val damerau_distance : string -> string -> int
(** Adds adjacent-transposition as a unit-cost edit (optimal string
    alignment variant). *)

val metric : Metric.t
(** Levenshtein as a strong {!Metric.t}. *)

val damerau_metric : Metric.t

val normalized_metric : Metric.t
(** [distance a b / max |a| |b|], in [0, 1] (0 for two empty strings). Not
    strong. *)
