(** Pattern compilation: a pattern tree plus its SEO-expanded node
    predicates, compiled into a single-pass bottom-up arena matcher.

    The paper's executor answers a k-node pattern with k XPath
    evaluations plus a structural-join reassembly — k passes over each
    document. A compiled matcher makes {e one} pass instead: it walks a
    document's arena in reverse preorder, evaluates every pattern node's
    compiled predicate ({!Rewrite.compile_pred}) inline at each arena
    node, and propagates partial matches bottom-up along the pattern
    edges. The arena representation makes the propagation cheap — a
    parent-child edge routes a match to [Doc.parent], an
    ancestor-descendant edge additionally bubbles accumulated matches one
    level up per node — and reverse preorder guarantees every descendant
    is fully processed before its ancestor, so a state's child matches
    are always complete when the state is evaluated.

    Produced bindings are exactly {!Toss_tax.Embedding.enumerate}'s:
    the same multiset, the same per-binding label order (pattern
    preorder), the same final sort — the in-memory algebra built on that
    enumeration is the reference the tests compare it against, and the
    differential harness ([Toss_check]) holds it to a naive oracle. *)

type t
(** A compiled matcher: one state per pattern node (in pattern preorder,
    the root first), each carrying its compiled node predicate and its
    edge to the parent. Immutable and reusable across documents and
    domains. *)

val build : ?mode:Rewrite.mode -> Seo.t -> Toss_tax.Pattern.t -> t
(** Compiles the pattern under the given semantics. All SEO expansions
    are resolved here, once, through {!Rewrite.compile_pred}; running
    the matcher performs no hierarchy walks. *)

val mode : t -> Rewrite.mode
val pattern : t -> Toss_tax.Pattern.t
val n_states : t -> int

type state_info = {
  state_label : int;  (** the pattern label this state matches *)
  state_parent : (int * Toss_tax.Pattern.edge_kind) option;
      (** parent pattern label and connecting edge; [None] for the root *)
  state_pred : string list;
      (** the compiled predicate, one described conjunct per line (see
          {!Rewrite.pred_describe}) *)
}

val describe : t -> state_info list
(** The automaton, state by state in pattern preorder — what EXPLAIN
    renders for a compiled plan. *)

type doc_stats = {
  nodes_visited : int;  (** arena nodes visited (= the document size) *)
  structural : int;  (** structural matches before the full-condition filter *)
  n_matches : int;  (** bindings returned *)
}

val run_doc :
  ?check:(unit -> unit) ->
  ?pin_root:bool ->
  ?skip_descendant:bool ->
  t ->
  Toss_xml.Tree.Doc.t ->
  (int * Toss_xml.Tree.Doc.node) list list * doc_stats
(** One pass over one document's arena. Returns the complete bindings
    (label, node) in pattern preorder, filtered by the full pattern
    condition and sorted — bit-for-bit what
    {!Toss_tax.Embedding.enumerate} yields for the same document.

    [check] is the cooperative cancellation checkpoint, called once per
    arena node {e inside} the matching loop, so a server deadline can
    unwind a compiled match mid-arena (the exception propagates; no
    partial results escape). [pin_root] restricts the pattern root to
    the document root (a pc edge from a join's product root).
    [skip_descendant] is the {!Plan.Compile_skip_descendant_edge} fault:
    it drops the upward bubbling of ancestor-descendant matches,
    demoting every ad edge to pc semantics — for the differential
    harness only. *)
