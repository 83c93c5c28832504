(* The traced run's per-layer measurements. Everything here times calls
   into the layers' public functions from outside the program:

   - on the wire, the client records a span around each call and reads
     the server's (and router's) timing fields from the envelope;
   - in process, the open-loop phase's first [replay_count] operations
     are replayed against a session built from the same documents, with
     a span around each public call;
   - after the run, each sampled query is sent again at the open loop's
     pace, and what its round trip spends outside the server is that
     request's transport;
   - per request, the three are joined into one span tree whose self
     times say which layer the round trip went to. *)

module J = Toss_json
module P = Toss_server.Protocol
module Client = Toss_server.Client
module Cache = Toss_server.Cache
module Session = Toss_core.Session
module Tql = Toss_core.Tql
module Executor = Toss_core.Executor
module Planner = Toss_core.Planner
module Seo = Toss_core.Seo
module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer
module W = Workload

let replay_count = 400

(* Replayed calls take microseconds: time them on the monotonic
   nanosecond clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Median of [reps] timings of a call too short for one clock read. *)
let time_short ?(reps = 5) f =
  Stats.median (List.init reps (fun _ -> snd (time f)))

let ms s = s *. 1000.
let us s = s *. 1e6

(* ------------------------------------------------------------------ *)
(* Wire measurements taken while the servers are still up.            *)

type wire = {
  outside_ms : (int, float) Hashtbl.t;
      (** per sampled query: round trip minus the server's time and queue
          wait, for that query's real request and response *)
  hop_ms : float;  (** binary-codec round trip to a back end minus its server and queue time *)
  witnesses : (int * string list list) list;
      (** per sampled query: each back end's witness trees *)
}

(* The distinct queries among the replayed operations, at most 50. *)
let sample_queries (opn : Gen.slot array) =
  Array.to_list (Array.sub opn 0 (min replay_count (Array.length opn)))
  |> List.filter_map (fun s ->
         match s.Gen.op with Schedule.Query qi -> Some qi | Schedule.Insert _ -> None)
  |> List.sort_uniq compare
  |> List.filteri (fun i _ -> i < 50)

(* Round trip minus server and queue time of one call. *)
let outside conn req =
  let r, dt = time (fun () -> Client.call_response conn req) in
  match r with
  | Ok resp ->
      ms dt
      -. Option.value resp.P.server_ms ~default:0.
      -. Option.value resp.P.queue_ms ~default:0.
  | Error f -> failwith (Client.failure_to_string f)

(* Taken while the servers are still up, with nothing else running.
   Each sampled query is sent again [paced_reps] times on one
   connection, one request every [gap] seconds (the open loop's mean
   gap, so the processes are as idle between requests as in the open
   loop), and what its round trip spends outside the server is kept:
   the transport of that request's real payload sizes. *)
let paced_reps = 4

let wire_probe (ctx : Gen.ctx) ~queries:qs ~gap ~front ~backends =
  let connect ?codec addr =
    match Client.connect ?codec addr with Ok c -> c | Error m -> failwith m
  in
  let c = connect front in
  let outside_ms = Hashtbl.create 64 in
  (* the first send warms the result cache; it is not kept *)
  List.iter (fun qi -> ignore (outside c (Gen.request ctx (Schedule.Query qi)))) qs;
  List.iter
    (fun qi ->
      let req = Gen.request ctx (Schedule.Query qi) in
      let l =
        List.init paced_reps (fun _ ->
            Thread.delay gap;
            outside c req)
      in
      Hashtbl.replace outside_ms qi (Stats.median l))
    qs;
  Client.close c;
  let bconns = List.map (connect ~codec:P.Binary) backends in
  let hop_ms =
    Stats.median
      (List.concat_map
         (fun qi ->
           let req = Gen.request ctx (Schedule.Query qi) in
           List.init 4 (fun _ -> outside (List.hd bconns) req))
         qs)
  in
  let witnesses =
    List.map
      (fun qi ->
        ( qi,
          List.map
            (fun conn ->
              match Client.call conn (Gen.request ctx (Schedule.Query qi)) with
              | Ok v -> Gen.witnesses v
              | Error f -> failwith (Client.failure_to_string f))
            bconns ))
      qs
  in
  List.iter Client.close bconns;
  { outside_ms; hop_ms; witnesses }

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)

(* What the replay measured for one operation, in seconds. *)
type step = {
  seo_rebuild : float option;  (** the pin followed a write *)
  pin : float;
  cache_find : float option;  (** the wire answer was a cache hit *)
  parse : float;
  plan : float;
  select : float;
  serialize : float;
}

type replay = {
  steps : (int, step) Hashtbl.t;  (** by open-loop slot index *)
  selects : (float * Executor.stats) list;
  pins : float list;  (** pin seconds, a preceding rebuild included *)
  rebuilds : int;
  inserts : float list;
  xml_parses : float list;
  appends : float list;
  spans : Spans.t list;
  seo_build : float;  (** the set-up documents' SEO build, seconds *)
  seo_terms : int;
}

let replay ~(data : W.data) ~dir ~(opn : Gen.slot array) ~probe ~gap =
  let session = W.session data.W.setup_docs in
  let cache = Cache.create ~capacity:W.cache_capacity () in
  let persist_dir = Filename.concat dir "replay.db" in
  let spans = ref [] and next_id = ref 0 in
  (* [span name ~trace f] times [f] and records it as a span *)
  let span ?parent ~trace name f =
    let id = !next_id in
    incr next_id;
    let start = now () in
    let r = f id in
    let stop = now () in
    spans := { Spans.id; parent; name; trace; start; stop } :: !spans;
    (r, stop -. start)
  in
  let steps = Hashtbl.create 512 in
  let selects = ref [] and pins = ref [] and rebuilds = ref 0 in
  let inserts = ref [] and xml_parses = ref [] and appends = ref [] in
  (* the server built its SEO during set-up, before the replayed
     operations; timed here, it is the set-up's SEO build *)
  let seo, seo_build = time (fun () -> Session.seo session) in
  let seo_terms =
    match seo with Ok s -> Seo.n_terms s | Error m -> failwith m
  in
  let dirty = ref false in
  let insert ~trace xml =
    let tree, dt = span ~trace "xml.parse" (fun _ -> Parser.parse_exn xml) in
    xml_parses := dt :: !xml_parses;
    let id, dt =
      span ~trace "session.insert" (fun _ ->
          Session.insert session ~collection:Gen.collection tree)
    in
    inserts := dt :: !inserts;
    let (), dt =
      span ~trace "persist.append" (fun _ ->
          Toss_store.Persist.append_document ~dir:persist_dir
            ~collection:Gen.collection id tree)
    in
    appends := dt :: !appends;
    Cache.invalidate cache ~collection:Gen.collection;
    dirty := true
  in
  let n = min replay_count (Array.length opn) in
  for i = 0 to n - 1 do
    (* at the open loop's pace, so caches are as cold as the server's *)
    Thread.delay gap;
    let slot = opn.(i) in
    let trace = Printf.sprintf "replay-%d" i in
    match slot.Gen.op with
    | Schedule.Insert k -> insert ~trace data.W.pool.(k mod Array.length data.W.pool)
    | Schedule.Query qi ->
        let tql = data.W.mix.(qi) in
        let seo_rebuild =
          if !dirty then begin
            dirty := false;
            incr rebuilds;
            Some (snd (span ~trace "seo.rebuild" (fun _ -> Session.seo session)))
          end
          else None
        in
        let pinned, pin =
          span ~trace "session.pin" (fun _ ->
              match Session.pin session ~collection:Gen.collection with
              | Ok p -> p
              | Error m -> failwith m)
        in
        pins := (pin +. Option.value seo_rebuild ~default:0.) :: !pins;
        let key =
          {
            Cache.collection = Gen.collection;
            version = Session.pinned_version pinned;
            config = "replay";
            mode = "toss";
            tql;
          }
        in
        (* the uncached path, timed whether or not the wire hit *)
        let q, parse = span ~trace "tql.parse" (fun _ -> Tql.parse_exn tql) in
        let seo = Result.get_ok (Session.pinned_seo pinned) in
        let snap = Session.pinned_snapshot pinned in
        let sl = Tql.sl q in
        let (trees, stats, plan), select =
          span ~trace "executor.select" (fun parent ->
              let _, plan =
                span ~parent ~trace "planner.plan" (fun _ ->
                    Planner.plan_select seo snap ~pattern:q.Tql.pattern ~sl)
              in
              (* the server passes its (deadline-free) cancellation
                 hook, called at every node *)
              let trees, stats =
                Executor.select ~check:ignore seo snap ~pattern:q.Tql.pattern ~sl
              in
              (trees, stats, plan))
        in
        (* the planner call above is the replay's own; the server plans
           inside [Executor.select] *)
        let select = select -. plan in
        selects := (select, stats) :: !selects;
        let xmls, serialize =
          span ~trace "printer.serialize" (fun _ ->
              List.map (Printer.to_string ~decl:false) trees)
        in
        let hit =
          match slot.Gen.outcome with Gen.Answer a -> a.Gen.hit | _ -> false
        in
        if Cache.find cache key = None then
          Cache.add cache key (J.Arr (List.map (fun x -> J.Str x) xmls));
        let cache_find =
          if hit then
            Some (snd (span ~trace "cache.find" (fun _ -> Cache.find cache key)))
          else None
        in
        Hashtbl.replace steps i
          { seo_rebuild; pin; cache_find; parse; plan; select; serialize }
  done;
  Array.iteri
    (fun i s ->
      match s.Gen.op with
      | Schedule.Insert k ->
          insert ~trace:(Printf.sprintf "replay-probe-%d" i)
            data.W.pool.(k mod Array.length data.W.pool)
      | Schedule.Query _ -> ())
    probe;
  {
    steps;
    selects = !selects;
    pins = !pins;
    rebuilds = !rebuilds;
    inserts = !inserts;
    xml_parses = !xml_parses;
    appends = !appends;
    spans = !spans;
    seo_build;
    seo_terms;
  }

(* ------------------------------------------------------------------ *)
(* Per-request span trees                                              *)

type add = ?parent:int -> string -> float -> float -> int

(* One request's tree, laid out from its measured durations (seconds):
   the client's round trip at the root; under it the codec calls, the
   transport (the paced probe's time outside the server for the same
   query, less the codec calls), the queue and the server's (or
   router's) execution, with the replayed calls inside the execution.
   Parallel shards share a start. What the children leave uncovered is
   the root's self time: the part of the round trip no layer accounts
   for. *)
let request_tree ~trace ~rtt ~codec:(c_enc, s_dec, s_enc, c_dec) ~transport
    ~queue ~server ~(inner : add -> unit) =
  let spans = ref [] and next = ref 0 in
  let add ?parent name start dur =
    let id = !next in
    incr next;
    spans := { Spans.id; parent; name; trace; start; stop = start +. dur } :: !spans;
    id
  in
  let root = add "request" 0. rtt in
  let at = ref 0. in
  let seq name dur =
    let id = add ~parent:root name !at dur in
    at := !at +. dur;
    id
  in
  ignore (seq "protocol.client_encode" c_enc);
  ignore (seq "transport.out" (transport /. 2.));
  ignore (seq "protocol.server_decode" s_dec);
  ignore (seq "pool.queue" queue);
  let exec_start = !at in
  let exec = seq (fst server) (snd server) in
  inner (fun ?parent name start dur ->
      add ~parent:(Option.value parent ~default:exec) name (exec_start +. start) dur);
  ignore (seq "protocol.server_encode" s_enc);
  ignore (seq "transport.back" (transport /. 2.));
  ignore (seq "protocol.client_decode" c_dec);
  !spans

(* The replayed engine calls of one request, back to back from the start
   of the execution. A cache hit costs the pin and the lookup; a miss
   the pin, parse, select (planning inside it) and serialization. *)
let engine_children step (add : add) =
  let at = ref 0. in
  let seq name dur =
    let id = add ?parent:None name !at dur in
    at := !at +. dur;
    id
  in
  Option.iter (fun d -> ignore (seq "seo.rebuild" d)) step.seo_rebuild;
  ignore (seq "session.pin" step.pin);
  match step.cache_find with
  | Some d -> ignore (seq "cache.find" d)
  | None ->
      ignore (seq "tql.parse" step.parse);
      let sel_start = !at in
      let sel = seq "executor.select" step.select in
      ignore (add ~parent:sel "planner.plan" sel_start step.plan);
      ignore (seq "printer.serialize" step.serialize)

let codec_times env resp =
  let req_line = P.request_to_line env and resp_line = P.response_to_line resp in
  ( time_short (fun () -> P.request_to_line env),
    time_short (fun () -> P.parse_request req_line),
    time_short (fun () -> P.response_to_line resp),
    time_short (fun () -> P.parse_response resp_line),
    String.length resp_line )

(* Parse and canonicalize every back end's witnesses of one answer: the
   router's merge. *)
let merge_time per_backend =
  time_short ~reps:3 (fun () ->
      Answers.canonical
        (List.concat_map (List.map Parser.parse_exn) per_backend))

let layers =
  [
    "transport"; "protocol"; "pool"; "engine"; "session"; "seo"; "cache";
    "tql"; "planner"; "executor"; "printer"; "router"; "merge";
  ]

(* Self time per layer and the unaccounted remainder, summed over
   [trees], as shares of their summed round trips. *)
let shares trees =
  let total = Hashtbl.create 16 and rtt = ref 0. and self_sum = ref 0. in
  List.iter
    (fun spans ->
      List.iter
        (fun (s, self) ->
          if s.Spans.parent = None then rtt := !rtt +. (s.Spans.stop -. s.Spans.start)
          else begin
            self_sum := !self_sum +. self;
            let l = Spans.layer s in
            Hashtbl.replace total l
              (self +. Option.value (Hashtbl.find_opt total l) ~default:0.)
          end)
        (Spans.self_times spans))
    trees;
  let share l = Option.value (Hashtbl.find_opt total l) ~default:0. /. !rtt in
  (List.map (fun l -> (l, share l)) layers, (!rtt -. !self_sum) /. !rtt)

(* ------------------------------------------------------------------ *)
(* The per-layer metrics                                               *)

let metrics ~(w : W.t) ~(data : W.data) ~seed ~dir ~(opn : Gen.slot array)
    ~(closed : Gen.slot array) ~(probe : Gen.slot array) ~(window : Gen.slot list)
    ~overhead ~(wire : wire) ~(lag : Stats.summary) =
  let router = w.W.deployment = W.Router in
  let rp = replay ~data ~dir ~opn ~probe ~gap:(1. /. w.W.open_qps) in
  let answered l =
    List.filter_map
      (fun s ->
        match s.Gen.outcome with Gen.Answer a -> Some (s, a) | _ -> None)
      l
  in
  let queries = answered (Array.to_list opn @ Array.to_list closed) in
  let open_queries = answered (Array.to_list opn) in
  (* a single server is its own back end; behind a router the back
     ends are the shards, each reporting (server_ms, queue_ms) *)
  let backends =
    List.concat_map
      (fun (s, (a : _)) ->
        if router then a.Gen.shards else [ (s.Gen.server_ms, s.Gen.queue_ms) ])
      queries
  in
  let backend_server = List.map fst backends and backend_queue = List.map snd backends in
  let total (sv, q) = sv +. q in
  let slowest a = List.fold_left (fun m x -> Float.max m (total x)) 0. a.Gen.shards in
  let fastest a = List.fold_left (fun m x -> Float.min m (total x)) infinity a.Gen.shards in
  (* without a router there is no router time and no skew *)
  let router_self, skew =
    if router then
      ( List.map (fun (s, a) -> s.Gen.server_ms -. slowest a) open_queries,
        List.map (fun (_, a) -> slowest a -. fastest a) open_queries )
    else ([ 0. ], [ 0. ])
  in
  let merges = Hashtbl.create 64 in
  List.iter (fun (qi, per) -> Hashtbl.replace merges qi (merge_time per)) wire.witnesses;
  (* a query the paced probe did not sample gets the probe's median *)
  let outside_all = Stats.median (List.of_seq (Hashtbl.to_seq_values wire.outside_ms)) in
  (* the per-request trees of the replayed open-loop queries *)
  let codecs = ref [] in
  let trees =
    List.filter_map
      (fun i ->
        let s = opn.(i) in
        match (s.Gen.op, s.Gen.outcome, s.Gen.captured, Hashtbl.find_opt rp.steps i) with
        | Schedule.Query qi, Gen.Answer a, Some (env, resp), Some step ->
            let c_enc, s_dec, s_enc, c_dec, bytes = codec_times env resp in
            codecs := (c_enc +. s_enc, s_dec +. c_dec, bytes) :: !codecs;
            let trace = Option.value env.P.trace_id ~default:(string_of_int i) in
            let rtt = s.Gen.stop -. s.Gen.sent in
            let codec = (c_enc, s_dec, s_enc, c_dec) in
            (* what the probe's round trip spent outside the server,
               less the codec calls timed here *)
            let transport =
              Float.max 0.
                ((Option.value (Hashtbl.find_opt wire.outside_ms qi) ~default:outside_all
                 /. 1000.)
                -. c_enc -. s_dec -. s_enc -. c_dec)
            in
            let tree =
              if not router then
                request_tree ~trace ~rtt ~codec ~transport
                  ~queue:(s.Gen.queue_ms /. 1000.)
                  ~server:("engine.exec", s.Gen.server_ms /. 1000.)
                  ~inner:(engine_children step)
              else
                request_tree ~trace ~rtt ~codec ~transport ~queue:0.
                  ~server:("router.exec", s.Gen.server_ms /. 1000.)
                  ~inner:(fun (add : add) ->
                    let hop = wire.hop_ms /. 1000. in
                    ignore (add "router.hop" 0. hop);
                    let slow = ref 0. in
                    List.iter
                      (fun (sv, q) ->
                        ignore (add "pool.queue" hop (q /. 1000.));
                        ignore (add "engine.exec" (hop +. (q /. 1000.)) (sv /. 1000.));
                        slow := Float.max !slow ((sv +. q) /. 1000.))
                      a.shards;
                    let m = Option.value (Hashtbl.find_opt merges qi) ~default:0. in
                    ignore (add "merge.canonical" (hop +. !slow) m))
            in
            Some (step, tree)
        | _ -> None)
      (List.init (min replay_count (Array.length opn)) Fun.id)
  in
  let share_list, unaccounted = shares (List.map snd trees) in
  let after_insert = List.filter (fun (st, _) -> st.seo_rebuild <> None) trees in
  if w.W.open_inserts > 0 && after_insert <> [] then begin
    let l, u = shares (List.map snd after_insert) in
    Printf.printf "blocking self time, %d queries that follow an insert:\n"
      (List.length after_insert);
    List.iter (fun (name, v) -> Printf.printf "  %-10s %6.1f%%\n" name (100. *. v)) l;
    Printf.printf "  %-10s %6.1f%%\n" "unaccounted" (100. *. u)
  end;
  (* spans stay in memory until here, then go to one file per run *)
  let out = Printf.sprintf ".bench_run/traces/%s-seed%d.jsonl" w.W.name seed in
  Procs.mkdir_p (Filename.dirname out);
  let oc = open_out out in
  let client_spans =
    List.mapi
      (fun id s ->
        {
          Spans.id = -1 - id;
          parent = None;
          name = "client.call";
          trace = Option.value s.Gen.trace_id ~default:(string_of_int s.Gen.uid);
          start = s.Gen.sent;
          stop = s.Gen.stop;
        })
      window
  in
  List.iter
    (fun sp -> output_string oc (Spans.to_json sp ^ "\n"))
    (client_spans @ rp.spans @ List.concat_map snd trees);
  close_out oc;
  let rtts = List.map (fun (s, _) -> Gen.rtt_ms s) open_queries in
  let transport =
    List.map
      (fun (s, _) ->
        Gen.rtt_ms s -. s.Gen.server_ms
        -. if Float.is_nan s.Gen.queue_ms then 0. else s.Gen.queue_ms)
      open_queries
  in
  let hits = List.length (List.filter (fun (_, a) -> a.Gen.hit) queries) in
  let p name l q = (name, "ms", (Stats.percentile l q).Stats.value, "") in
  let med name unit l = (name, unit, Stats.median l, "") in
  let per_result f =
    let num = List.fold_left (fun a (_, st) -> a + f st) 0 rp.selects in
    let den = List.fold_left (fun a (_, st) -> a + st.Executor.n_results) 0 rp.selects in
    float_of_int num /. float_of_int (max 1 den)
  in
  let count name n = (name, "count", float_of_int n, "") in
  let steps = List.of_seq (Hashtbl.to_seq_values rp.steps) in
  let selects = List.map (fun (d, _) -> ms d) rp.selects in
  [
    p "client.rtt_p50_ms" rtts 0.5;
    p "client.rtt_p99_ms" rtts 0.99;
    p "transport.p50_ms" transport 0.5;
    med "protocol.encode_us" "us" (List.map (fun (e, _, _) -> us e) !codecs);
    med "protocol.decode_us" "us" (List.map (fun (_, d, _) -> us d) !codecs);
    med "protocol.response_bytes" "B" (List.map (fun (_, _, b) -> float_of_int b) !codecs);
    p "pool.queue_p50_ms" backend_queue 0.5;
    p "pool.queue_p99_ms" backend_queue 0.99;
    count "pool.shed"
      (List.length
         (List.filter (fun s -> s.Gen.outcome = Gen.Failed "overloaded") window));
    ("cache.hit_ratio", "frac", float_of_int hits /. float_of_int (List.length queries), "");
    (* every acknowledged insert empties the collection's cache entries *)
    count "cache.invalidations"
      (List.length
         (List.filter
            (fun s -> match s.Gen.outcome with Gen.Ack _ -> true | _ -> false)
            window));
    p "engine.server_p50_ms" backend_server 0.5;
    p "engine.server_p99_ms" backend_server 0.99;
    med "session.pin_p50_ms" "ms" (List.map ms rp.pins);
    ("session.pin_max_ms", "ms", ms (List.fold_left Float.max 0. rp.pins), "");
    count "session.seo_rebuilds" rp.rebuilds;
    med "session.insert_p50_ms" "ms" (List.map ms rp.inserts);
    ("seo.build_s", "s", rp.seo_build, "");
    count "seo.terms" rp.seo_terms;
    med "tql.parse_us" "us" (List.map (fun st -> us st.parse) steps);
    med "planner.plan_us" "us" (List.map (fun st -> us st.plan) steps);
    p "executor.select_p50_ms" selects 0.5;
    p "executor.select_p99_ms" selects 0.99;
    ("executor.candidates_per_result", "ratio", per_result (fun st -> st.Executor.n_candidates), "");
    ("executor.embeddings_per_result", "ratio", per_result (fun st -> st.Executor.n_embeddings), "");
    med "printer.serialize_us" "us" (List.map (fun st -> us st.serialize) steps);
    med "xml.parse_us" "us" (List.map us rp.xml_parses);
    p "persist.append_p50_ms" (List.map ms rp.appends) 0.5;
    p "persist.append_p99_ms" (List.map ms rp.appends) 0.99;
    p "router.self_p50_ms" router_self 0.5;
    ("router.hop_p50_ms", "ms", wire.hop_ms, "");
    p "router.shard_skew_p50_ms" skew 0.5;
    med "merge.canonical_us" "us" (List.map us (List.of_seq (Hashtbl.to_seq_values merges)));
    ("gen.send_lag_p99_ms", "ms", lag.Stats.value, Printf.sprintf "q=%.4g n=%d" lag.Stats.q lag.Stats.n);
    ("trace.overhead_frac", "frac", overhead, "");
    ("accounting.unaccounted_frac", "frac", unaccounted, "");
  ]
  @ List.map (fun (l, v) -> ("blocking." ^ l ^ "_frac", "frac", v, "")) share_list
