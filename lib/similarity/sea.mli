(** The Similarity Enhancement Algorithm (SEA, Figure 12 of the paper).

    Given a (fused) hierarchy [H], a similarity measure [d] and a threshold
    [ε >= 0], SEA computes a similarity enhancement [(H', μ)]
    (Definition 8):

    - the nodes of [H'] are the maximal pairwise-ε-similar clusters of
      nodes of [H] (conditions 2–4);
    - [μ] maps each node of [H] to the clusters containing it;
    - the ordering of [H] is lifted to [H'] (condition 1);
    - if the lifted ordering is cyclic, no enhancement exists and the
      triple [(H, d, ε)] is {e similarity inconsistent} (Definition 9).

    Two lifting rules are provided, reflecting an ambiguity in the paper:
    Figure 12's algorithm lifts an edge when {e some} pair of merged
    members is ordered ({!Existential}, the default — this is the variant
    whose failure mode is the acyclicity check the paper describes), while
    the proof of Theorem 1 uses edges present iff {e all} member pairs are
    ordered ({!Universal}, which cannot create cycles but may drop
    orderings). *)

module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy

type lift = Existential | Universal

type t = {
  hierarchy : Hierarchy.t;  (** the enhanced hierarchy [H'] *)
  mu : (Node.t * Node.t list) list;  (** [μ]: original node -> enhanced nodes *)
  eps : float;
  metric : Metric.t;
}

val epsilon_edges : metric:Metric.t -> eps:float -> Hierarchy.t -> (int * int) list
(** The ε-similarity graph of [H]: the pairs [(i, j)], [i < j], of
    positions in [Hierarchy.nodes h] whose nodes are within [eps]
    ({!Node_dist.within}), in ascending order. Each string is prepared
    once through {!Metric.stage}, so the quadratic pair loop runs only
    the measure's pair test. *)

val of_edges :
  ?lift:lift -> metric:Metric.t -> eps:float -> Hierarchy.t -> (int * int) list -> t option
(** The enhancement whose clusters are the maximal cliques of the given
    ε-graph (as returned by {!epsilon_edges}). [None] when the lifted
    ordering is cyclic. A caller trying both lifts computes the graph
    once. *)

val enhance : ?lift:lift -> metric:Metric.t -> eps:float -> Hierarchy.t -> t option
(** [of_edges] over [epsilon_edges]. [None] when [(H, d, ε)] is
    similarity inconsistent. [eps] must be non-negative. *)

val enhance_exn : ?lift:lift -> metric:Metric.t -> eps:float -> Hierarchy.t -> t
(** @raise Failure on similarity inconsistency. *)

val is_consistent : ?lift:lift -> metric:Metric.t -> eps:float -> Hierarchy.t -> bool

val mu_of : t -> Node.t -> Node.t list
(** [μ(A)]; empty for nodes not in the original hierarchy. *)

val similar : t -> string -> string -> bool
(** The [~] predicate: true iff some node of [H'] contains both strings
    (the paper's semantics of similarTo). *)

val similar_terms : t -> string -> string list
(** Every string co-resident with the argument in some enhanced node,
    including itself when known. The TOSS query rewriter uses this to
    expand a [~] condition into a disjunction of exact conditions. *)

val clusters : t -> Node.t list
(** The nodes of [H'] (each a maximal ε-similar cluster). *)

val check : original:Hierarchy.t -> t -> (unit, string list) result
(** Validates the Definition 8 conditions that the construction must
    guarantee: (2) members of one enhanced node are pairwise ε-similar,
    (3) every ε-similar pair of original nodes shares an enhanced node,
    (4) no enhanced node's member set is a strict subset of another's, and
    acyclicity. Used by the test suite. *)
