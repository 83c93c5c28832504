(** Per-document value indexes.

    Xindice lets the administrator declare value indexes on element
    content; our store builds the equivalent structures at insertion time:
    an exact-match index from [(tag, content)] to nodes and a token index
    from [(tag, token)] to nodes, both restricted to {e leaf} elements
    (elements without element children), which is where rewritten TAX and
    TOSS conditions test content. *)

type t

val build : Toss_xml.Tree.Doc.t -> t

val eq_lookup : t -> tag:string -> value:string -> Toss_xml.Tree.Doc.node list
(** Leaf elements with the given tag whose content equals [value]. *)

val token_lookup : t -> tag:string -> token:string -> Toss_xml.Tree.Doc.node list
(** Leaf elements with the given tag whose content contains the (already
    lowercased) token. A superset check: callers must still verify a
    substring condition against the actual content. *)

val n_entries : t -> int

(** {1 Statistics}

    Per-term statistics. Unlike the lookups above these do not touch
    the lookup/hit metrics: reading a statistic must not perturb the
    counters that describe lookups. *)

val eq_count : t -> tag:string -> value:string -> int
(** Number of leaf elements with the given tag whose content equals
    [value] — the exact cardinality an {!eq_lookup} would return. *)

val token_count : t -> tag:string -> token:string -> int
(** Number of leaf elements with the given tag containing the (already
    lowercased) token — an upper bound on a containment match. *)
