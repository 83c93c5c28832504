(** Graph kernels over dense integer vertex ids.

    A graph on [n] vertices is its successor arrays: [g.(u)] lists the
    heads of [u]'s out-edges, [0 <= u < n]. The kernels visit vertices in
    ascending order and each vertex's successors in array order, so their
    outputs are determined by the arrays. {!Digraph} numbers its vertices
    into this form ({!Digraph.S.dense}) and calls these kernels; fusion
    and SEA build their graphs here directly. *)

type t = int array array

val of_edges : int -> (int * int) list -> t
(** The graph on [n] vertices with the given edges, each pair once and
    each row ascending. *)

val scc : t -> int list list
(** Tarjan's strongly connected components, in the order the search
    completes them: every component follows the components it reaches.
    Each component starts at its root, followed by its other members in
    the order the search reached them. Searches start from the vertices
    in ascending order. *)

val topological_order : t -> int list option
(** Kahn's algorithm, the queue seeded with the sources in ascending
    order: sources first. [None] when the graph has a cycle (a self-loop
    is one). *)

val is_acyclic : t -> bool

val transitive_reduction : t -> t option
(** The Hasse diagram of a DAG: each vertex keeps, in their order, the
    successors that no other successor reaches. One DFS per vertex over
    what its successors reach, with a stamp array shared by all of them.
    A row must not repeat a successor. [None] when the graph has a
    cycle. *)
