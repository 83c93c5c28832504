(** Embeddings of pattern trees into documents (Section 2.1.1).

    An embedding is a total mapping from pattern nodes to document nodes
    that sends pc edges to parent-child pairs and ad edges to
    ancestor-descendant pairs, such that the induced witness tree
    satisfies the pattern's selection condition. The satisfaction notion
    is a parameter ([eval]) so that the same enumeration serves both the
    TAX and the TOSS semantics. *)

type binding = (int * Toss_xml.Tree.Doc.node) list
(** Pattern label to document node, in pattern preorder. *)

val enumerate :
  eval:(Condition.env -> Condition.t -> bool) ->
  Toss_xml.Tree.Doc.t ->
  Pattern.t ->
  binding list
(** All embeddings, in document order of the root image (then
    lexicographically). Node-local atomic conjuncts of the pattern's
    condition are used as prefilters with the supplied [eval]. *)

val env_of : Toss_xml.Tree.Doc.t -> binding -> Condition.env
