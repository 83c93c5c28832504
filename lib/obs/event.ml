type value = Str of string | Int of int | Float of float | Bool of bool

type kind =
  | Query_start
  | Rewrite_done
  | Embed_done
  | Query_end
  | Custom of string

let kind_name = function
  | Query_start -> "query_start"
  | Rewrite_done -> "rewrite_done"
  | Embed_done -> "embed_done"
  | Query_end -> "query_end"
  | Custom name -> name

type t = {
  seq : int;
  ts_s : float;
  kind : kind;
  payload : (string * value) list;
  trace : Span.t option;
  trace_id : string option;
}

let payload_int e key =
  match List.assoc_opt key e.payload with Some (Int i) -> Some i | _ -> None

let payload_str e key =
  match List.assoc_opt key e.payload with Some (Str s) -> Some s | _ -> None

let payload_float e key =
  match List.assoc_opt key e.payload with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

(* -------------------------------- JSON -------------------------------- *)

let json_escape = Toss_json.escape

let json_value = function
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
  | Bool b -> if b then "true" else "false"

let to_json e =
  let payload =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v))
         e.payload)
  in
  let trace_id =
    match e.trace_id with
    | None -> ""
    | Some id -> Printf.sprintf ",\"trace_id\":\"%s\"" (json_escape id)
  in
  let trace =
    match e.trace with
    | None -> ""
    | Some t -> ",\"trace\":" ^ Span.to_json t
  in
  Printf.sprintf "{\"seq\":%d,\"ts_s\":%.6f,\"kind\":\"%s\"%s,\"payload\":{%s}%s}"
    e.seq e.ts_s (json_escape (kind_name e.kind)) trace_id payload trace

(* -------------------------------- Sinks ------------------------------- *)

(* A slow-query sink keeps one buffered stream per concurrent request:
   events carrying a trace id are routed to the stream keyed by that id
   ([streams]), so interleaved events from parallel domains reassemble
   into per-request records; events without a trace id (the
   single-threaded CLI) share the one [default] stream, as before. *)
type slow_state = {
  threshold_s : float;
  write : string -> unit;
  streams : (string, t Queue.t) Hashtbl.t;  (* open traced streams *)
  default : t Queue.t;  (* the untraced stream *)
  mutable default_open : bool;
}

(* Backstop against streams that never see a [Query_end] when the owner
   also never calls [drop_trace]; in the server every job drops its
   trace in a [finally], so reaching this means a leak elsewhere. *)
let max_streams = 4096

type sink_impl =
  | Null
  | Memory of { capacity : int; q : t Queue.t }
  | Jsonl of (string -> unit)
  | Slow of slow_state

type sink = { id : int; impl : sink_impl }

let next_sink_id = Atomic.make 0

let make impl = { id = Atomic.fetch_and_add next_sink_id 1 + 1; impl }

(* One lock serializes sink installation, removal, emission and sink
   inspection: sink queues are mutable and events must arrive in [seq]
   order, so delivery from parallel domains is a critical section. The
   uninstrumented path ([active () = false]) never touches it. *)
let sink_lock = Mutex.create ()

let sink_locked f =
  Mutex.lock sink_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sink_lock) f

let null = make Null
let memory ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Event.memory: capacity must be positive";
  make (Memory { capacity; q = Queue.create () })

let events sink =
  sink_locked (fun () ->
      match sink.impl with
      | Memory { q; _ } -> List.of_seq (Queue.to_seq q)
      | _ -> [])

let jsonl write = make (Jsonl write)

let jsonl_to_channel oc =
  jsonl (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)

let slow_query ~threshold_s ~write =
  make
    (Slow
       {
         threshold_s;
         write;
         streams = Hashtbl.create 16;
         default = Queue.create ();
         default_open = false;
       })

(* The sink list itself is an atomic so [active ()] — consulted before
   every payload construction on the query hot path — stays a lock-free
   load; all writes happen under [sink_lock]. *)
let sinks : sink list Atomic.t = Atomic.make []

let install sink =
  sink_locked (fun () ->
      let cur = Atomic.get sinks in
      if not (List.memq sink cur) then Atomic.set sinks (cur @ [ sink ]))

let remove sink =
  sink_locked (fun () ->
      Atomic.set sinks
        (List.filter (fun s -> s.id <> sink.id) (Atomic.get sinks)))

let clear_sinks () = sink_locked (fun () -> Atomic.set sinks [])
let active () = Atomic.get sinks <> []

(* ------------------------------ Emission ------------------------------ *)

(* [seq] and [last_ts] are only touched under [sink_lock] (see [emit]). *)
let seq = ref 0
let t0 = Unix.gettimeofday ()
let last_ts = ref 0.

(* Wall-clock can step backwards (NTP); event time must not. *)
let now () =
  let t = Unix.gettimeofday () -. t0 in
  let t = if t < !last_ts then !last_ts else t in
  last_ts := t;
  t

(* Write one completed stream as a slow-query record if it crossed the
   threshold. [trace_id] keys the record when the stream was traced. *)
let flush_slow (slow : slow_state) ~trace_id evs =
  match (evs, List.rev evs) with
  | first :: _, last :: _ ->
      let elapsed =
        match payload_float last "elapsed_s" with
        | Some e -> e
        | None -> last.ts_s -. first.ts_s
      in
      if elapsed >= slow.threshold_s then begin
        let op = match payload_str last "op" with Some op -> op | None -> "?" in
        let tid =
          match trace_id with
          | None -> ""
          | Some id -> Printf.sprintf ",\"trace_id\":\"%s\"" (json_escape id)
        in
        slow.write
          (Printf.sprintf
             "{\"type\":\"slow_query\"%s,\"threshold_s\":%.6f,\"elapsed_s\":%.6f,\"op\":\"%s\",\"n_events\":%d,\"events\":[%s]}"
             tid slow.threshold_s elapsed (json_escape op) (List.length evs)
             (String.concat "," (List.map to_json evs)))
      end
  | _ -> ()

let deliver sink e =
  match sink.impl with
  | Null -> ()
  | Memory { capacity; q } ->
      Queue.push e q;
      if Queue.length q > capacity then ignore (Queue.pop q)
  | Jsonl write -> write (to_json e)
  | Slow slow -> (
      match e.trace_id with
      | Some id -> (
          match e.kind with
          | Query_start ->
              (* A start for an id that already has an open stream can
                 only mean the previous request with that id never
                 ended; the fresh stream replaces the orphan. *)
              if Hashtbl.length slow.streams >= max_streams then
                Hashtbl.reset slow.streams;
              let q = Queue.create () in
              Queue.push e q;
              Hashtbl.replace slow.streams id q
          | Query_end -> (
              match Hashtbl.find_opt slow.streams id with
              | Some q ->
                  Queue.push e q;
                  Hashtbl.remove slow.streams id;
                  flush_slow slow ~trace_id:(Some id)
                    (List.of_seq (Queue.to_seq q))
              | None -> ())
          | _ -> (
              match Hashtbl.find_opt slow.streams id with
              | Some q -> Queue.push e q
              | None -> ()))
      | None -> (
          match e.kind with
          | Query_start ->
              (* A start with a stale open query: drop the orphaned
                 stream. *)
              Queue.clear slow.default;
              slow.default_open <- true;
              Queue.push e slow.default
          | Query_end ->
              if slow.default_open then begin
                Queue.push e slow.default;
                let evs = List.of_seq (Queue.to_seq slow.default) in
                Queue.clear slow.default;
                slow.default_open <- false;
                flush_slow slow ~trace_id:None evs
              end
          | _ -> if slow.default_open then Queue.push e slow.default))

let drop_trace id =
  if active () then
    sink_locked (fun () ->
        List.iter
          (fun s ->
            match s.impl with
            | Slow slow -> Hashtbl.remove slow.streams id
            | _ -> ())
          (Atomic.get sinks))

let emit ?(payload = []) ?trace kind =
  match Atomic.get sinks with
  | [] -> ()
  | _ ->
      (* Read the domain-local trace id before entering the critical
         section: it belongs to the emitting domain, not to whichever
         domain last held the lock. *)
      let trace_id = Trace.get () in
      sink_locked (fun () ->
          match Atomic.get sinks with
          | [] -> ()
          | live ->
              incr seq;
              let e =
                { seq = !seq; ts_s = now (); kind; payload; trace; trace_id }
              in
              List.iter (fun s -> deliver s e) live)
