(* The load generator: a few connections, each on its own thread,
   sending the pre-drawn schedule and recording what came back. *)

module J = Toss_json
module P = Toss_server.Protocol
module Client = Toss_server.Client

(* Two connections, or one on a single-core machine: the generator never
   has more threads or connections than there are cores. *)
let connections = min 2 (Domain.recommended_domain_count ())
let collection = "bib"

type answer = {
  version : int;
  hit : bool;
  digest : Digest.t;  (** of the served witness trees *)
  shards : (float * float) list;  (** router only: (server_ms, queue_ms) *)
}

type outcome =
  | Pending
  | Failed of string  (** wire error code, or ["transport"] *)
  | Answer of answer
  | Ack of { doc_id : int; version : int }

type slot = {
  uid : int;
  op : Schedule.op;
  due : float;  (** scheduled send time; the send time in a closed loop *)
  mutable sent : float;
  mutable lag : float;  (** how late an idle connection sent; nan if busy *)
  mutable stop : float;
  mutable server_ms : float;
  mutable queue_ms : float;
  mutable outcome : outcome;
  mutable trace_id : string option;
  mutable captured : (P.envelope * P.response) option;
}

type ctx = {
  addr : string;
  mix : string array;
  pool : string array;
  trace : string option;  (** trace-id prefix; [None] sends no ids *)
  capture : int;  (** keep envelope and response of slots below this *)
  trees : (Digest.t, string list) Hashtbl.t;  (** witnesses by digest *)
  trees_lock : Mutex.t;
}

let request ctx = function
  | Schedule.Query i ->
      P.Query
        {
          collection;
          tql = ctx.mix.(i);
          mode = Toss_core.Executor.Toss;
          cache = true;
        }
  | Schedule.Insert k ->
      P.Insert { collection; xml = ctx.pool.(k mod Array.length ctx.pool) }

let num name v = Option.bind (J.member name v) J.to_num

let int_field name v =
  Option.map int_of_float (num name v) |> Option.value ~default:(-1)

let witnesses payload =
  Option.bind (J.member "trees" payload) J.to_list
  |> Option.value ~default:[]
  |> List.filter_map J.to_str

let record ctx slot (resp : P.response) =
  slot.server_ms <- Option.value resp.P.server_ms ~default:nan;
  slot.queue_ms <- Option.value resp.P.queue_ms ~default:nan;
  slot.outcome <-
    (match (resp.P.body, slot.op) with
    | Error e, _ -> Failed (P.code_name e.P.code)
    | Ok v, Schedule.Insert _ ->
        Ack { doc_id = int_field "doc_id" v; version = int_field "version" v }
    | Ok v, Schedule.Query _ ->
        let trees = witnesses v in
        let digest = Digest.string (String.concat "\000" trees) in
        Mutex.lock ctx.trees_lock;
        if not (Hashtbl.mem ctx.trees digest) then
          Hashtbl.add ctx.trees digest trees;
        Mutex.unlock ctx.trees_lock;
        let shards =
          Option.bind (J.member "shards" v) J.to_list
          |> Option.value ~default:[]
          |> List.map (fun s ->
                 ( Option.value (num "server_ms" s) ~default:nan,
                   Option.value (num "queue_ms" s) ~default:nan ))
        in
        Answer
          {
            version = int_field "version" v;
            hit =
              Option.bind (J.member "cache" v) J.to_str = Some "hit";
            digest;
            shards;
          })

let send ctx conn ~tag i slot =
  let env =
    {
      P.id = None;
      deadline_ms = None;
      trace_id = Option.map (fun p -> Printf.sprintf "%s-%s-%d" p tag i) ctx.trace;
      allow_partial = false;
      request = request ctx slot.op;
    }
  in
  slot.trace_id <- env.P.trace_id;
  slot.sent <- Unix.gettimeofday ();
  let r = Client.call_response conn ?trace_id:env.P.trace_id env.P.request in
  slot.stop <- Unix.gettimeofday ();
  match r with
  | Error (Client.Wire e) -> slot.outcome <- Failed (P.code_name e.P.code)
  | Error (Client.Transport _) -> slot.outcome <- Failed "transport"
  | Ok resp ->
      record ctx slot resp;
      if i < ctx.capture then slot.captured <- Some (env, resp)

let uids = Atomic.make 0

let new_slot ~due op =
  {
    uid = Atomic.fetch_and_add uids 1;
    op;
    due;
    sent = nan;
    lag = nan;
    stop = nan;
    server_ms = nan;
    queue_ms = nan;
    outcome = Pending;
    trace_id = None;
    captured = None;
  }

(* Runs [worker] on [connections] threads, each with its own
   connection. A connection that cannot be opened leaves its share to
   the others. *)
let on_connections ctx worker =
  let threads =
    List.init connections (fun _ ->
        Thread.create
          (fun () ->
            match Client.connect ctx.addr with
            | Error _ -> ()
            | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> Client.close conn)
                  (fun () -> worker conn))
          ())
  in
  List.iter Thread.join threads

(* Open loop: each slot is due at [t0 + offset]; latency runs from that
   instant. A connection still busy when a slot falls due sends it late,
   and the backlog shows in the latency; an idle connection that wakes
   late is generator lag, recorded apart. *)
let run_open ctx ~tag schedule =
  let t0 = Unix.gettimeofday () +. 0.01 in
  let slots =
    Array.map (fun (off, op) -> new_slot ~due:(t0 +. off) op) schedule
  in
  let next = Atomic.make 0 in
  on_connections ctx (fun conn ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length slots then begin
          let slot = slots.(i) in
          let now = Unix.gettimeofday () in
          let idle = now < slot.due in
          if idle then Thread.delay (slot.due -. now);
          send ctx conn ~tag i slot;
          if idle then slot.lag <- slot.sent -. slot.due;
          loop ()
        end
      in
      loop ());
  slots

(* Closed loop: every connection sends its next operation as soon as
   the previous one is answered, until [duration] seconds have passed.
   Returns the slots that were sent and the elapsed time. *)
let run_closed ctx ~tag ~duration ops =
  let t0 = Unix.gettimeofday () in
  let until = t0 +. duration in
  let slots = Array.map (fun op -> new_slot ~due:nan op) ops in
  let next = Atomic.make 0 in
  on_connections ctx (fun conn ->
      let rec loop () =
        if Unix.gettimeofday () < until then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length slots then begin
            send ctx conn ~tag i slots.(i);
            loop ()
          end
        end
      in
      loop ());
  let sent = Array.of_list (List.filter (fun s -> not (Float.is_nan s.sent)) (Array.to_list slots)) in
  let last = Array.fold_left (fun acc s -> Float.max acc s.stop) t0 sent in
  (sent, last -. t0)

(* The [i]th synchronous operation of set-up on an existing connection. *)
let call_one ctx conn i op =
  let slot = new_slot ~due:(Unix.gettimeofday ()) op in
  send ctx conn ~tag:"setup" i slot;
  slot

let latency_ms s = (s.stop -. s.due) *. 1000.
let rtt_ms s = (s.stop -. s.sent) *. 1000.
let is_query s = match s.op with Schedule.Query _ -> true | Schedule.Insert _ -> false
let ok s = match s.outcome with Answer _ | Ack _ -> true | Pending | Failed _ -> false
