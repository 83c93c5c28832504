(** Hierarchy nodes: non-empty clusters of terms.

    A node of an ordinary hierarchy holds a single term. Fusing hierarchies
    merges equated terms into one node, and similarity enhancement (the SEA
    algorithm) merges mutually similar terms, so in general a node carries a
    set of strings. Nodes are kept in a canonical form (sorted, without
    duplicates) so that structural equality coincides with set equality. *)

type t = private string list

val of_list : string list -> t
(** Canonicalizes (sorts, dedups).
    @raise Invalid_argument on the empty list. *)

val singleton : string -> t
val strings : t -> string list
val mem : string -> t -> bool
val cardinal : t -> int
val union : t -> t -> t
val subset : t -> t -> bool
val representative : t -> string
(** The least term of the cluster; stable across equal nodes. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val distinct : t array -> t array * int array
(** [distinct ns]: the distinct nodes of [ns] in ascending order, and
    each [ns.(i)]'s position among them. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
