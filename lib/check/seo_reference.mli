(** The all-pairs reference for SEO construction, and the differential
    check of the production build against it.

    Production builds the SEO with two shortcuts: the SEA ε-graph tests
    only the node pairs whose strings share a blocking key
    ({!Toss_similarity.Sea.epsilon_edges}), and the synonym constraints
    are a linear spanning set ({!Toss_ontology.Maker.auto_constraints}).
    The references below are the definitions those shortcuts replace —
    every node pair tested, and one equality per cross-source synonym
    pair — so a shortcut that drops or adds an edge, or merges a different
    set of terms, shows up as a difference in the fused or enhanced
    hierarchies. *)

module Hierarchy = Toss_hierarchy.Hierarchy
module Metric = Toss_similarity.Metric
module Ontology = Toss_ontology.Ontology
module Interop = Toss_ontology.Interop

val epsilon_edges : metric:Metric.t -> eps:float -> Hierarchy.t -> (int * int) list
(** Every pair [(i, j)], [i < j], of positions in [Hierarchy.nodes h] with
    [Node_dist.within metric ~eps], ascending. Every node pair is tested,
    with no blocking; each string is prepared once through
    [Metric.stage], whose test is [Metric.within]'s (test_seo_build checks
    [prepared = within] for every shipped measure). *)

val auto_constraints :
  ?lexicon:Toss_ontology.Lexicon.t ->
  Ontology.t list ->
  (Ontology.relation * Interop.t list) list
(** An [Eq] for every pair of differently spelled synonyms occurring in
    two different sources, per relation: quadratic in the occurrences. *)

type built = {
  fused : Ontology.t;
  edges : (int * int) list;  (** the ε-graph of the fused isa hierarchy *)
  enhanced : Hierarchy.t;
      (** the enhanced isa hierarchy, or the fused one when [eps = 0],
          with the universal-lift fallback of [Seo.create] *)
}

val build :
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?auto_equate:bool ->
  metric:Metric.t ->
  eps:float ->
  Toss_xml.Tree.Doc.t list ->
  built
(** The reference pipeline: Ontology Maker, {!auto_constraints}, fusion,
    {!epsilon_edges}, then the SEA clusters of those edges. *)

val differential :
  ?lexicon:Toss_ontology.Lexicon.t ->
  ?auto_equate:bool ->
  metric:Metric.t ->
  eps:float ->
  Toss_xml.Tree.Doc.t list ->
  (unit, string list) result
(** Builds the documents' SEO with the production path ([Maker],
    [Fusion], [Seo.create]) and with {!build}, and lists every
    difference: the fused isa and part-of hierarchies, the ε-graph, and
    the enhanced isa hierarchy ([Hierarchy.equal]). *)
