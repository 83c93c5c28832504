(** Canonical fusion of hierarchies (Definitions 5–6).

    The fusion is the quotient of the sources' disjoint union by the
    equivalence the equalities generate, with the order placed on the
    classes (Guo et al., {e Merging Ontologies Algebraically}). It runs on
    dense vertex ids: one vertex per (source, hierarchy-node) pair, and
    one per (source, term) that a constraint names and the source does
    not know. Union-find merges the vertices that share a spelling. The
    within-hierarchy Hasse edges and the [Leq] constraints ([Eq] as two
    of them) become edges between the classes, and the strongly connected
    components of that graph are the fused nodes, each the union of its
    members' terms. The transitive reduction of the order between them is
    the canonical hierarchy of Calvanese et al. (the paper's references
    [2, 3]). Components whose terms coincide are one fused node; an edge
    between two such components is a cycle, which raises
    [Invalid_argument]. The witness maps each input node to the fused
    node absorbing it, satisfying both integration axioms of
    Definition 5.

    When [auto_equate] is set (the default), terms spelled identically in
    different sources are equated implicitly — the paper's example relies
    on this for [title], [author] and [year], and then no two components
    can coincide. Explicit [Neq] constraints are checked on the fused
    nodes: one that ends inside a single fused node is an error.
    [Toss_check.Seo_reference.fuse] is the same fusion as the condensation
    of a persistent graph with a two-cycle per equality, for differential
    testing. *)

module Node = Toss_hierarchy.Node
module Hierarchy = Toss_hierarchy.Hierarchy

type witness
(** The injective mappings ψ₁ … ψₙ of Definition 5. *)

type error =
  | Neq_violated of Interop.t
  (** A [Neq] constraint's two terms ended up in the same fused node. *)
  | Unknown_source of Interop.t
  (** A constraint references a source index out of range. *)

type result = { fused : Hierarchy.t; witness : witness }

val fuse :
  ?auto_equate:bool -> Hierarchy.t list -> Interop.t list -> (result, error) Stdlib.result

val fuse_exn : ?auto_equate:bool -> Hierarchy.t list -> Interop.t list -> result

val psi : witness -> source:int -> Node.t -> Node.t option
(** The fused node absorbing an input node; [None] when the node is not in
    that source. *)

val psi_term : witness -> source:int -> string -> Node.t option
(** Convenience: the fused node containing the source's term. *)

val fuse_ontologies :
  ?auto_equate:bool ->
  Ontology.t list ->
  (Ontology.relation * Interop.t list) list ->
  (Ontology.t, Ontology.relation * error) Stdlib.result
(** Fuses relation-by-relation: the k-th output hierarchy is the fusion of
    the inputs' k-th hierarchies under that relation's constraints. The
    witness is not built. *)

val check_integration :
  Hierarchy.t list -> Interop.t list -> result -> (unit, string list) Stdlib.result
(** Verifies the two axioms of Definition 5 against a fusion result:
    (1) ordering of every input hierarchy is preserved, (2) every [Leq]
    constraint is honoured. Used by the test suite. *)

val pp_error : Format.formatter -> error -> unit
