(** Persistent directed graphs over an ordered vertex type.

    This module provides the graph algorithms that the rest of the system is
    built on: reachability, Tarjan's strongly-connected components,
    condensation, topological sorting, transitive closure and transitive
    reduction (the Hasse diagram of the induced partial order). All graphs
    are persistent; operations return new graphs. The strongly-connected
    components, topological sort and transitive reduction number the
    vertices once ({!S.dense}) and run the kernels of {!Intgraph}. *)

module type VERTEX = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type vertex
  type t

  module Vset : Set.S with type elt = vertex
  module Vmap : Map.S with type key = vertex

  val empty : t
  val is_empty : t -> bool
  val add_vertex : vertex -> t -> t

  val add_edge : vertex -> vertex -> t -> t
  (** [add_edge u v g] adds the edge [u -> v], inserting both endpoints as
      vertices if needed. Self-loops are permitted (they make the graph
      cyclic). *)

  val remove_edge : vertex -> vertex -> t -> t

  val remove_vertex : vertex -> t -> t
  (** Removes the vertex and every edge incident to it. *)

  val mem_vertex : vertex -> t -> bool
  val mem_edge : vertex -> vertex -> t -> bool
  val vertices : t -> vertex list
  val edges : t -> (vertex * vertex) list
  val succs : vertex -> t -> Vset.t
  val preds : vertex -> t -> Vset.t
  val out_degree : vertex -> t -> int
  val in_degree : vertex -> t -> int
  val n_vertices : t -> int
  val n_edges : t -> int
  val of_edges : (vertex * vertex) list -> t
  val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val fold_edges : (vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a
  val map_vertices : (vertex -> vertex) -> t -> t
  (** [map_vertices f g] renames every vertex by [f]; edges follow. If [f]
      identifies two vertices their edge sets are merged. *)

  val dense : t -> vertex array * Intgraph.t
  (** The graph on dense ids: its vertices in ascending order, and each
      one's successors as ascending positions in that array. *)

  val of_dense : vertex array -> Intgraph.t -> t
  (** The inverse of {!dense}: the graph on the given distinct vertices
      with an edge [vs.(u) -> vs.(v)] for each [v] in row [u]. *)

  val reachable : vertex -> t -> Vset.t
  (** All vertices reachable from the given vertex by a path of length >= 0
      (the vertex itself is included when it is in the graph). *)

  val has_path : vertex -> vertex -> t -> bool
  (** [has_path u v g] holds iff there is a path of length >= 0 from [u] to
      [v]; both must be vertices of [g]. The search stops at [v]. *)

  val is_acyclic : t -> bool

  val topological_sort : t -> vertex list option
  (** [None] when the graph has a cycle. Sources (no predecessors) first. *)

  val scc : t -> vertex list list
  (** Tarjan's strongly-connected components, in reverse topological order
      of the condensation (i.e. a component follows the components it can
      reach). Each component is a non-empty list. *)

  val condensation : t -> vertex list list * (vertex * vertex) list
  (** The condensation DAG: its vertices are the SCCs of the input and its
      edges the inter-component edges (deduplicated, no self-loops). *)

  val transitive_closure : t -> t
  (** Adds an edge [u -> v] for every pair with a path of length >= 1. *)

  val transitive_reduction : t -> t
  (** For a DAG, the unique minimal subgraph with the same reachability
      relation (the Hasse diagram).
      @raise Invalid_argument when the graph has a cycle. *)

  val pp : Format.formatter -> t -> unit
end

module Make (V : VERTEX) : S with type vertex = V.t
