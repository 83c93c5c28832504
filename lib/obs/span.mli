(** Lightweight tracing spans.

    A span measures one named region of execution: wall-clock time,
    and — when tracing is {!set_enabled} — the allocation delta over the
    region (via [Gc.quick_stat]). Spans nest: a {!with_} call inside
    another becomes a child in the finished tree, in execution order.
    Completed root spans are kept in a bounded ring buffer ({!recent})
    for after-the-fact inspection.

    Cost model: a span always records wall-clock time (two
    [Unix.gettimeofday] calls — the executor's phase statistics are a
    view over the span tree, so timing cannot be optional), but GC
    sampling and ring-buffer retention only happen when tracing is
    enabled. Tracing is {e disabled by default}, so instrumented code
    pays the same clock reads the hand-rolled timing did.

    Concurrency: the open-span context is {e domain-local}, so queries
    tracing on separate pool domains build independent, correctly
    nested trees in parallel. Systhreads within one domain share that
    domain's context — interleaved spans from such threads can attach to
    the wrong parent (never crash); keep span-producing work one-per-
    domain, as the server does. The {!recent} ring and the tracing flag
    are shared across domains and internally synchronized. *)

type t = {
  name : string;
  elapsed_s : float;  (** wall-clock duration *)
  alloc_bytes : float;
      (** bytes allocated during the span (minor + major − promoted);
          [0.] when tracing was disabled *)
  meta : (string * string) list;
      (** caller-supplied annotations; when the opening domain had a
          {!Trace} id set, a [("trace_id", id)] pair is prepended at
          open time, so every node of a request's tree self-identifies *)
  children : t list;  (** sub-spans, in execution order *)
}

val set_enabled : bool -> unit
(** Turns GC sampling and ring-buffer recording on or off (default off). *)

val enabled : unit -> bool

val with_ : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name fn] runs [fn] inside a span. If a span is already open,
    the new span becomes its child; otherwise it is a root and, when
    tracing is enabled, is pushed to {!recent} on completion. The span is
    finished (and recorded) even when [fn] raises. *)

val annotate : (string * string) list -> unit
(** Appends key/value pairs to the {e innermost open} span's [meta]
    (after any pairs given at {!with_} time); a no-op when no span is
    open. This is how an operator attaches actuals that are only known
    once it has run — the compiled matcher annotates each [match] span
    with its [nodes]/[structural]/[matches] funnel — which is what the
    CLI's [--explain-analyze] tree renders. *)

val run : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a * t
(** Like {!with_}, but also returns the finished span — how the executor
    obtains the trace it exposes in its statistics. [run] always starts a
    fresh root (it detaches from any enclosing span), nested {!with_}
    calls attach as children, and the finished root is recorded in
    {!recent} when tracing is enabled. *)

(** {1 Inspection} *)

val find : t -> string -> t option
(** First span named [name] in a preorder walk (the span itself first). *)

val total_s : t -> float
(** The span's own wall-clock duration ([elapsed_s]). *)

val self_s : t -> float
(** Duration not covered by the span's direct children. *)

val recent : unit -> t list
(** Recently completed root spans, newest first. *)

val clear_recent : unit -> unit

val set_capacity : int -> unit
(** Resizes the ring buffer (default 32); drops retained spans. *)

val pp : Format.formatter -> t -> unit
(** Indented tree: one line per span with duration, share of the root,
    and allocation. *)

val to_string : t -> string

val to_json : t -> string
(** Nested JSON object mirroring the span tree. *)
