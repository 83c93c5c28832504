(** The all-pairs reference for SEO construction, and the differential
    check of the production build against it.

    Production builds the SEO with three shortcuts: fusion runs on dense
    vertex ids, merging equal spellings with union-find
    ({!Toss_ontology.Fusion}); the SEA ε-graph tests only the node pairs
    whose strings share a blocking key
    ({!Toss_similarity.Sea.epsilon_edges}); and the synonym constraints
    are a linear spanning set ({!Toss_ontology.Maker.auto_constraints}).
    The references below are the definitions those shortcuts replace —
    fusion as the condensation of the source-qualified hierarchy graph,
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

val fuse :
  ?auto_equate:bool ->
  Hierarchy.t list ->
  Interop.t list ->
  (Hierarchy.t, Toss_ontology.Fusion.error) result
(** Canonical fusion (Definitions 5–6) as the persistent graph with one
    vertex per (source, node) and per (source, unknown term), an edge per
    Hasse edge and [Leq] constraint ([Eq] expanded), and a two-cycle
    between vertices sharing a spelling when [auto_equate] is set (the
    default); the fused hierarchy is [Hierarchy.normalize] of its
    condensation. The same errors as [Fusion.fuse], checked in the same
    order, and [Invalid_argument] on a cyclic fused diagram. *)

val fuse_ontologies :
  ?auto_equate:bool ->
  Ontology.t list ->
  (Ontology.relation * Interop.t list) list ->
  (Ontology.t, Ontology.relation * Toss_ontology.Fusion.error) result
(** {!fuse}, relation by relation, as [Fusion.fuse_ontologies]. *)

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
(** The reference pipeline: Ontology Maker, {!auto_constraints},
    {!fuse_ontologies}, {!epsilon_edges}, then the SEA clusters of those
    edges. *)

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
