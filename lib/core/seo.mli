(** Similarity-enhanced ontology contexts — the precomputed structure every
    TOSS query evaluates against (Sections 3–5).

    A context bundles the fused [isa] and [part-of] hierarchies of a
    semistructured database, the similarity enhancement of the [isa]
    hierarchy (computed once by the SEA algorithm with the configured
    measure and threshold ε), and the conversion-function registry. *)

module Hierarchy = Toss_hierarchy.Hierarchy
module Metric = Toss_similarity.Metric
module Sea = Toss_similarity.Sea
module Ontology = Toss_ontology.Ontology

type t

val create :
  ?conversions:Conversion.t ->
  ?metric:Metric.t ->
  ?eps:float ->
  Ontology.t ->
  (t, string) result
(** Builds a context from an already fused ontology. The default measure
    is Levenshtein with [eps = 0] (pure TAX-compatible semantics). When
    the standard (existential-lift) SEA construction is similarity
    inconsistent — the cycle case of Definition 9 — the context falls back
    to the universal lift, which keeps only unanimously-agreed orderings
    and always yields a DAG. [Error] is reserved for invalid parameters or
    fusion failures. *)

val create_exn :
  ?conversions:Conversion.t -> ?metric:Metric.t -> ?eps:float -> Ontology.t -> t

val of_documents :
  ?conversions:Conversion.t ->
  ?metric:Metric.t ->
  ?eps:float ->
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t list ->
  (t, string) result
(** The full precomputation pipeline of the TOSS architecture: Ontology
    Maker on each document, fusion under the lexicon-derived
    interoperation constraints, then similarity enhancement. *)

val eps : t -> float
val metric : t -> Metric.t
val conversions : t -> Conversion.t
val isa_hierarchy : t -> Hierarchy.t
(** The enhanced isa hierarchy when an enhancement exists, the fused one
    otherwise. *)

val part_of_hierarchy : t -> Hierarchy.t
val enhancement : t -> Sea.t option
val ontology : t -> Ontology.t
(** The fused (pre-enhancement) ontology. *)

val similar : t -> string -> string -> bool
(** The [~] predicate. Equal strings are always similar. Two terms known
    to the (enhanced) isa hierarchy are similar iff they co-reside in an
    enhanced node; two terms both absent from it fall back to a direct
    distance test [d(x, y) <= ε]; a known and an unknown term are never
    similar. The ontology being authoritative for its own terms is what
    makes the rewriter's [~] pushdown (a disjunction of exact tests over
    {!similar_terms}) semantics-preserving. *)

val similar_terms : t -> string -> string list
(** The term plus everything co-resident with it — the expansion the query
    rewriter uses for [~] conditions. *)

val leq_isa : t -> string -> string -> bool
(** [leq_isa t x y]: x isa y (reflexive on known terms), judged on the
    enhanced hierarchy so that similar spellings inherit each other's
    ancestors. *)

val isa_below : t -> string -> string list
(** Every term at-or-below the argument in the (enhanced) isa hierarchy —
    the expansion for [isa]/[below] conditions. *)

val leq_part : t -> string -> string -> bool
val part_below : t -> string -> string list

val knows_term : t -> string -> bool
(** Whether the term occurs in the (enhanced) isa hierarchy. A compiled
    [~] predicate is set membership only when the constant is known — for
    unknown constants the evaluator's direct-distance fallback decides. *)

val n_terms : t -> int
