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

val keys : budget:int -> string -> int list
(** Blocking keys for [distance <= budget]: the hashes of every
    subsequence of the string's first [P = 6] characters that keeps at
    least [min (length, P) - budget] of them. Two strings within [budget]
    edits share a key: an optimal alignment, cut where it first leaves
    either string's [P]-prefix, matches a common subsequence that each
    prefix reaches by deleting at most [budget] characters (the SymSpell
    prefix argument). Keys for a larger budget are a superset, so strings
    keyed at different budgets still meet at the smaller. [P] was chosen
    by measuring the SEA ε-graph build on the serving benchmark's
    corpora: [P = 8] tests fewer pairs, but its larger index costs as
    much time and more memory. *)

val damerau_distance : string -> string -> int
(** Adds adjacent-transposition as a unit-cost edit (optimal string
    alignment variant). *)

val metric : Metric.t
(** Levenshtein as a strong {!Metric.t}: the banded threshold test, keyed
    by {!keys} at budget [⌊eps⌋]. *)

val damerau_metric : Metric.t

val normalized_metric : Metric.t
(** [distance a b / max |a| |b|], in [0, 1] (0 for two empty strings). Not
    strong. *)
