(** Structured per-query event log.

    Where {!Metrics} aggregates across queries and {!Span} times one
    query's phases, the event log answers "what happened, in order,
    while this query ran": each instrumentation point emits a typed
    event with a monotonic timestamp and a key/value payload, and every
    installed sink sees every event. Sinks are pluggable: a null sink, a
    bounded in-memory ring (tests, ad-hoc inspection), a line-delimited
    JSON writer (the CLI's [--profile file.jsonl]), and a slow-query
    sink that buffers each query's full event stream and flushes it —
    span tree included — as one JSONL record when the query exceeds a
    latency threshold (the CLI's [--slow-ms]).

    Emission is free when no sink is installed ({!emit} returns before
    allocating anything); instrumented code should guard payload
    construction with {!active}. Like the metrics registry, the sink
    list is process-global — and, like it, domain-safe: {!active} is a
    single lock-free load, while emission and sink management serialize
    on an internal mutex, so events from parallel query domains arrive
    whole and in one global [seq] order (interleaved {e across} queries,
    as concurrent execution implies).

    Each event is stamped with the emitting domain's current {!Trace}
    id, when one is set — that id is the key that makes the interleaved
    global stream attributable: the slow-query sink demultiplexes
    events into per-trace streams, so start-to-end capture is correct
    with any number of requests in flight. Untraced events (the
    single-domain CLI sets no trace id) share one default stream, which
    does assume one query at a time. *)

(** {1 Events} *)

type value = Str of string | Int of int | Float of float | Bool of bool

(** The typed event vocabulary of the query pipeline. [Custom] names an
    event outside the built-in vocabulary (rendered verbatim). *)
type kind =
  | Query_start  (** executor entered; payload: [op], [mode], [collection] *)
  | Rewrite_done  (** phase (i) finished; payload: [op] *)
  | Embed_done
      (** one document matched; payload: [doc], [nodes], [embeddings],
          plus [witnesses] for selections and [side] for joins *)
  | Query_end
      (** executor returned; payload: [op], [results], [candidates],
          [embeddings], [elapsed_s]; carries the query's span tree *)
  | Custom of string

val kind_name : kind -> string
(** ["query_start"], ["rewrite_done"], … ; a [Custom] name verbatim. *)

type t = {
  seq : int;  (** strictly increasing across the process *)
  ts_s : float;
      (** seconds since the module was loaded; forced non-decreasing, so
          sorting by [ts_s] (ties broken by [seq]) is event order *)
  kind : kind;
  payload : (string * value) list;
  trace : Span.t option;  (** span tree attached to a [Query_end] *)
  trace_id : string option;
      (** the emitting domain's {!Trace.get} at emission time — the
          request this event belongs to; [None] outside a traced
          request (e.g. the CLI) *)
}

val payload_int : t -> string -> int option
val payload_str : t -> string -> string option
val payload_float : t -> string -> float option
(** Typed payload lookups ([payload_float] also reads an [Int]). *)

val to_json : t -> string
(** One-line JSON object: [{"seq":…,"ts_s":…,"kind":"…","payload":{…}}]
    plus a ["trace_id"] key after ["kind"] and a ["trace"] key (the
    {!Span.to_json} tree) at the end, each when present. *)

(** {1 Sinks} *)

type sink

val null : sink
(** Discards every event (an installed-but-off placeholder: unlike an
    empty sink list, it keeps {!active} true). *)

val memory : ?capacity:int -> unit -> sink
(** A bounded ring keeping the last [capacity] (default 1024) events. *)

val events : sink -> t list
(** The events a {!memory} sink retained, oldest first; [[]] for every
    other sink kind. *)

val jsonl : (string -> unit) -> sink
(** Calls the writer with one JSON line ({!to_json}, no newline) per
    event. *)

val jsonl_to_channel : out_channel -> sink
(** {!jsonl} writing [line ^ "\n"] to the channel, flushing per line so
    the log can be tailed while a query runs. *)

val slow_query : threshold_s:float -> write:(string -> unit) -> sink
(** Buffers events from each [Query_start] to the matching [Query_end];
    if the query's duration (the [Query_end]'s [elapsed_s] payload, else
    the start/end timestamp difference) is at least [threshold_s], the
    whole stream — including the [Query_end]'s span tree — is written as
    one JSON line: [{"type":"slow_query","trace_id":…,"threshold_s":…,
    "elapsed_s":…,"op":…,"n_events":…,"events":[…]}]. Events outside a
    query are dropped. [threshold_s = 0.] logs every query.

    Buffering is keyed by trace id, so capture is correct with requests
    in flight on many domains at once: each traced request reassembles
    into its own record containing only its own events, however the
    global stream interleaved. Events {e without} a trace id share one
    default stream (fine for the single-threaded CLI, where at most one
    untraced query runs at a time). A traced stream whose [Query_end]
    never arrives (deadline abort, crash mid-query) stays buffered
    until {!drop_trace}; the server drops every request's trace id when
    the request finishes, however it finishes. *)

val drop_trace : string -> unit
(** Discards any buffered slow-query stream for this trace id, in every
    installed sink — the cleanup for requests that emitted a
    [Query_start] but will never emit the matching [Query_end]. No-op
    when the id has no open stream. *)

val install : sink -> unit
(** Adds the sink to the process-global list (idempotent per sink). *)

val remove : sink -> unit

val clear_sinks : unit -> unit

val active : unit -> bool
(** Whether at least one sink is installed — guard payload construction
    on hot paths with this. *)

val emit : ?payload:(string * value) list -> ?trace:Span.t -> kind -> unit
(** Delivers one event to every installed sink; a no-op (no allocation,
    no timestamp read) when none is installed. *)
