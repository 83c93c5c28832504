(* The serving benchmark: starts real [toss serve] / [toss router]
   processes, drives one workload over the wire, checks every answer
   against an in-process reference session, and prints the metrics.

     main.exe --toss PATH --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer ones
   of the traced run (see README.md). *)

module P = Toss_server.Protocol
module Client = Toss_server.Client
module Session = Toss_core.Session
module W = Workload

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      Procs.kill_all ();
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)

type deployment = {
  front : Procs.t;  (** what the generator talks to *)
  backends : Procs.t list;  (** the servers that execute queries *)
  procs : Procs.t list;
  dbs : string list;
}

let start ~toss ~dir (w : W.t) =
  Procs.mkdir_p dir;
  let path name ext = Filename.concat dir (name ^ ext) in
  let serve name ~domains =
    let db = path name ".db" in
    ( Procs.spawn ~toss ~log:(path name ".log") ~name ~addr:(path name ".sock")
        [
          "serve"; "--socket"; path name ".sock"; "--db"; db; "--domains";
          string_of_int domains;
        ],
      db )
  in
  let ready p = match Procs.wait_ready p with Ok () -> () | Error m -> die "%s" m in
  match w.W.deployment with
  | W.Single ->
      let p, db = serve "server" ~domains:2 in
      ready p;
      { front = p; backends = [ p ]; procs = [ p ]; dbs = [ db ] }
  | W.Router ->
      let shards = List.init 2 (fun i -> serve (Printf.sprintf "shard%d" i) ~domains:1) in
      List.iter (fun (p, _) -> ready p) shards;
      let addr = path "router" ".sock" in
      let r =
        Procs.spawn ~toss ~log:(path "router" ".log") ~name:"router" ~addr
          ([ "router"; "--socket"; addr ]
          @ List.concat_map (fun (p, _) -> [ "--shard"; p.Procs.addr ]) shards)
      in
      ready r;
      let backends = List.map fst shards in
      { front = r; backends; procs = r :: backends; dbs = List.map snd shards }

let stop d =
  match Procs.shutdown ~front:d.front d.procs with
  | Ok () -> ()
  | Error m -> die "%s" m

(* Set-up: spawn, ingest, and the first query after ingest; its time
   runs from the spawn to that answer, so it includes the first SEO
   build. *)
let setup ~toss ~dir w (ctx : Gen.ctx) =
  let t0 = Unix.gettimeofday () in
  let d = start ~toss ~dir w in
  let conn =
    match Client.connect d.front.Procs.addr with Ok c -> c | Error m -> die "%s" m
  in
  let inserts =
    List.mapi
      (fun k _ -> Gen.call_one ctx conn k (Schedule.Insert k))
      (Array.to_list ctx.Gen.pool)
  in
  let first =
    Gen.call_one ctx conn (Array.length ctx.Gen.pool) (Schedule.Query 0)
  in
  Client.close conn;
  (d, Unix.gettimeofday () -. t0, inserts @ [ first ])

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

(* Insert acknowledgements of one server instance must number documents
   and versions without gaps. Returns the slots that break that. *)
let ack_gaps slots =
  let acks =
    List.filter_map
      (fun s ->
        match s.Gen.outcome with
        | Gen.Ack { doc_id; version } -> Some (version, doc_id, s)
        | _ -> None)
      slots
    |> List.sort (fun (v, d, _) (v', d', _) -> compare (v, d) (v', d'))
  in
  match acks with
  | [] -> []
  | (v0, d0, _) :: _ ->
      List.filteri (fun i (v, d, _) -> v <> v0 + i || d <> d0 + i || (i = 0 && v <> 1)) acks
      |> List.map (fun (_, _, s) -> s)

(* Checks every answer against a reference session holding the same
   documents at the version the answer reports. Inserts made during the
   run are replayed into the reference in version order, and reference
   answers are memoized per (query, version). A router reports the sum
   of its shards' versions, so there every answer must carry the one
   version the set-up ended at. Returns the slots with wrong answers. *)
let check_answers ~(w : W.t) ~(data : W.data) ~trees ~run_inserts answers =
  let reference = W.session data.W.setup_docs in
  let pending =
    ref
      (List.filter_map
         (fun s ->
           match (s.Gen.op, s.Gen.outcome) with
           | Schedule.Insert k, Gen.Ack { version; _ } ->
               Some (version, data.W.pool.(k mod Array.length data.W.pool))
           | _ -> None)
         run_inserts
      |> List.sort compare)
  in
  let rec advance v =
    match !pending with
    | (v', xml) :: rest when v' <= v ->
        ignore
          (Session.insert reference ~collection:Gen.collection
             (Toss_xml.Parser.parse_exn xml));
        pending := rest;
        advance v
    | _ -> ()
  in
  let router_version = ref None in
  let expected = Hashtbl.create 64 and verdicts = Hashtbl.create 256 in
  let verdict qi version digest =
    let at_version =
      match w.W.deployment with
      | W.Router -> (
          match !router_version with
          | None ->
              router_version := Some version;
              true
          | Some v -> v = version)
      | W.Single ->
          advance version;
          Session.version reference ~collection:Gen.collection = version
    in
    if not at_version then Error (Printf.sprintf "no reference at version %d" version)
    else
      let reference_answer =
        match Hashtbl.find_opt expected (qi, version) with
        | Some r -> r
        | None ->
            let r =
              match Session.query reference ~collection:Gen.collection data.W.mix.(qi) with
              | Ok a -> Answers.canonical a.Session.trees
              | Error m -> die "reference query failed: %s" m
            in
            Hashtbl.add expected (qi, version) r;
            r
      in
      Answers.check ~reference:reference_answer (Hashtbl.find trees digest)
  in
  let keyed =
    List.filter_map
      (fun s ->
        match (s.Gen.op, s.Gen.outcome) with
        | Schedule.Query qi, Gen.Answer { version; digest; _ } ->
            Some ((version, qi, digest), s)
        | _ -> None)
      answers
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  List.filter
    (fun ((version, qi, digest), _) ->
      let key = (version, qi, digest) in
      let v =
        match Hashtbl.find_opt verdicts key with
        | Some v -> v
        | None ->
            let v = verdict qi version digest in
            (match v with
            | Error m -> Printf.eprintf "perfbench: wrong answer to %S at version %d: %s\n" data.W.mix.(qi) version m
            | Ok () -> ());
            Hashtbl.add verdicts key v;
            v
      in
      Result.is_error v)
    keyed
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

type metric = { name : string; unit : string; value : float; note : string }

let metric ?(note = "") name unit value = { name; unit; value; note }

let pct name groups q =
  let s = Stats.grouped groups q in
  metric name "ms" s.Stats.value
    ~note:
      (Printf.sprintf "q=%.4g n=%d, median of windows %s" s.Stats.q s.Stats.n
         (String.concat " " (List.map (Printf.sprintf "%.3f") s.Stats.parts)))

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-36s %14.6f %-6s %s\n" m.name m.value m.unit m.note)
    metrics;
  (match List.find_opt (fun m -> not (Float.is_finite m.value)) metrics with
  | Some m -> die "metric %s was not measured" m.name
  | None -> ());
  let fields =
    List.map
      (fun m ->
        Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name m.value m.unit)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed (String.concat ", " fields);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let setups = 3
let warmup_s = 0.5

(* The measured seconds go to the open-loop phase, the closed-loop phase
   and the insert probes in these shares. *)
let open_share = 0.6
let closed_share = 0.25
let probe_share = 0.15

(* Open-loop latencies are reported as the median over this many equal
   stretches of the phase. *)
let windows = 5

(* The closed loop runs in this many equal slices; throughput and CPU per
   operation are medians over them, so one disturbed slice does not move
   them. In a traced run every other slice sends trace ids: the untraced
   slices give the metrics, the traced ones the tracing overhead. *)
let closed_slices = 6

type slice = { slots : Gen.slot array; secs : float; cpu_s : float; traced : bool }

let run_closed ctx ~traced ~cpu ~duration ops =
  let pos = ref 0 in
  List.init closed_slices (fun j ->
      let traced = traced && j mod 2 = 1 in
      let c = if traced then ctx else { ctx with Gen.trace = None } in
      let cpu0 = cpu () in
      let slots, secs =
        Gen.run_closed c
          ~tag:(Printf.sprintf "closed%d" j)
          ~duration:(duration /. float_of_int closed_slices)
          (Array.sub ops !pos (Array.length ops - !pos))
      in
      pos := !pos + Array.length slots;
      { slots; secs; cpu_s = cpu () -. cpu0; traced })

(* How the open loop kept up: its backlog (operations due and not yet
   sent) and its stalls, the stretches where more operations waited than
   there are connections to carry them. *)
type health = {
  backlog_max : int;
  end_backlog : int;  (** median backlog of the phase's last 1% *)
  delayed : int;  (** operations sent during a stall *)
  stall_ms : float list;  (** each stall, from its first due time to its last answer *)
}

let health (opn : Gen.slot array) =
  let backlog =
    Stats.backlog
      ~due:(Array.map (fun s -> s.Gen.due) opn)
      ~sent:(Array.map (fun s -> s.Gen.sent) opn)
  in
  let n = Array.length backlog in
  let stalls = Stats.stalls ~connections:Gen.connections backlog in
  let tail = max 1 (n / 100) in
  {
    backlog_max = Array.fold_left max 0 backlog;
    end_backlog =
      (if n = 0 then 0
       else
         int_of_float
           (Stats.median
              (List.init tail (fun k -> float_of_int backlog.(n - 1 - k)))));
    delayed = List.fold_left (fun a (i, j) -> a + j - i + 1) 0 stalls;
    stall_ms =
      List.map
        (fun (i, j) ->
          let last = ref 0. in
          for k = i to j do
            last := Float.max !last opn.(k).Gen.stop
          done;
          (!last -. opn.(i).Gen.due) *. 1000.)
        stalls;
  }

(* The probes' single-paper inserts arrive at this rate, on every
   workload. *)
let probe_qps = 100.

(* The generator has fallen behind when an idle connection sends this
   late; the run is then invalid. *)
let max_send_lag_ms = 20.

let run ~toss ~(w : W.t) ~seed ~seconds ~traced =
  let data = W.data w in
  Printf.printf "%s: %d setup documents, %d distinct queries, seed %d\n" w.W.name
    (List.length data.W.setup_docs) (Array.length data.W.mix) seed;
  let dir = Printf.sprintf ".bench_run/%s-%d" w.W.name (Unix.getpid ()) in
  (* on every exit, the servers are stopped before their files go *)
  at_exit (fun () ->
      Procs.kill_all ();
      Procs.rm_rf dir);
  let ctx =
    {
      Gen.addr = "";
      mix = data.W.mix;
      pool = data.W.pool;
      trace = (if traced then Some (Printf.sprintf "pb%d" seed) else None);
      capture = (if traced then Layers.replay_count else 0);
      trees = Hashtbl.create 1024;
      trees_lock = Mutex.create ();
    }
  in
  let setup_ctx = { ctx with Gen.pool = Array.of_list data.W.setup_docs } in
  let seconds = float_of_int seconds in
  let st = Schedule.rng ~seed ~stream:0x5c4ed in
  (* Set-up several times. Each deployment but the last then takes an
     insert probe, on a server no query has run on, and stops; the last
     one serves the reads. *)
  let runs =
    List.init setups (fun k ->
        let d, secs, slots =
          setup ~toss ~dir:(Printf.sprintf "%s/%d" dir k) w setup_ctx
        in
        if k = setups - 1 then (d, secs, slots, [||])
        else begin
          let probe =
            Gen.run_open
              { ctx with Gen.addr = d.front.Procs.addr }
              ~tag:(Printf.sprintf "probe%d" k)
              (Array.mapi
                 (fun i (t, _) -> (t, Schedule.Insert i))
                 (Schedule.open_loop st ~rate:probe_qps
                    ~duration:(probe_share *. seconds /. float_of_int (setups - 1))
                    ~cdf:[| 1. |] ~inserts:0 (ref 0)))
          in
          stop d;
          (d, secs, slots, probe)
        end)
  in
  let d, _, final_setup, _ = List.nth runs (setups - 1) in
  let probe = Array.concat (List.map (fun (_, _, _, p) -> p) runs) in
  let ctx = { ctx with Gen.addr = d.front.Procs.addr } in
  let cdf = Schedule.zipf_cdf ~s:w.W.zipf_s (Array.length data.W.mix) in
  let next_insert = ref 0 in
  let open_s = open_share *. seconds in
  let warm, _ =
    Gen.run_closed ctx ~tag:"warm" ~duration:warmup_s
      (Schedule.closed_loop st ~n:20_000 ~cdf ~insert_every:0 (ref 0))
  in
  (* each phase starts with the generator's heap compacted *)
  let quiesce () = Gc.compact () in
  quiesce ();
  let cpu () = List.fold_left (fun a p -> a +. Procs.cpu_s p) 0. d.procs in
  let opn =
    Gen.run_open ctx ~tag:"open"
      (Schedule.open_loop st ~rate:w.W.open_qps ~duration:open_s ~cdf
         ~inserts:w.W.open_inserts next_insert)
  in
  let closed_ops =
    Schedule.closed_loop st ~n:(6000 * int_of_float seconds) ~cdf
      ~insert_every:w.W.closed_insert_every next_insert
  in
  quiesce ();
  let slices =
    run_closed ctx ~traced ~cpu ~duration:(closed_share *. seconds) closed_ops
  in
  let closed = Array.concat (List.map (fun sl -> sl.slots) slices) in
  let rss = List.fold_left (fun a p -> a +. Procs.rss_peak_mb p) 0. d.procs in
  let wire =
    if traced then
      Some
        (Layers.wire_probe ctx ~queries:(Layers.sample_queries opn)
           ~gap:(1. /. w.W.open_qps) ~front:d.front.Procs.addr
           ~backends:(List.map (fun p -> p.Procs.addr) d.backends))
    else None
  in
  stop d;
  let window = Array.to_list opn @ Array.to_list closed in
  let db_bytes = List.fold_left (fun a db -> a + Procs.du db) 0 d.dbs in
  let input_bytes =
    List.fold_left ( + ) 0 (List.map String.length data.W.setup_docs)
    + List.fold_left
        (fun a s ->
          match s.Gen.op with
          | Schedule.Insert k -> a + String.length data.W.pool.(k mod Array.length data.W.pool)
          | Schedule.Query _ -> a)
        0 window
  in
  (* checking happens after the servers are gone, outside every timed
     window *)
  let all_slots =
    List.concat_map (fun (_, _, s, _) -> s) runs
    @ Array.to_list probe @ Array.to_list warm @ window
  in
  let run_inserts = List.filter (fun s -> not (Gen.is_query s)) window in
  let wrong =
    check_answers ~w ~data ~trees:ctx.Gen.trees ~run_inserts
      (List.filter Gen.is_query all_slots)
  in
  let gaps =
    List.concat_map
      (fun (_, _, s, p) -> ack_gaps (s @ Array.to_list p))
      (List.filteri (fun i _ -> i < setups - 1) runs)
    @ ack_gaps (final_setup @ run_inserts)
  in
  let errors = List.filter (fun s -> not (Gen.ok s)) all_slots in
  let attempted = List.length all_slots in
  let failed =
    List.length
      (List.sort_uniq compare (List.map (fun s -> s.Gen.uid) (errors @ wrong @ gaps)))
  in
  let lags =
    Array.to_list opn @ Array.to_list probe
    |> List.filter_map (fun s -> if Float.is_nan s.Gen.lag then None else Some (s.Gen.lag *. 1000.))
  in
  let lag = Stats.percentile lags 0.99 in
  if lag.Stats.value > max_send_lag_ms then
    die "invalid run: generator send lag p%.4g is %.3f ms (limit %.0f ms)"
      (lag.Stats.q *. 100.) lag.Stats.value max_send_lag_ms;
  let ok_of l = List.filter Gen.ok l in
  let open_queries = ok_of (List.filter Gen.is_query (Array.to_list opn)) in
  (* latencies per window: five stretches of the open loop, two halves
     of each probe. With inserts in the open loop the rebuild stalls are
     the tail being measured, so there the phase is one window. *)
  let q =
    let due s = s.Gen.due in
    let lo = Array.fold_left (fun m s -> Float.min m s.Gen.due) infinity opn in
    let n = if w.W.open_inserts > 0 then 1 else windows in
    Stats.by_time ~n ~lo ~hi:(lo +. open_s) ~time:due open_queries
    |> List.map (List.map Gen.latency_ms)
  in
  let ins =
    List.concat_map
      (fun (_, _, _, p) ->
        let l = ok_of (Array.to_list p) in
        let half = List.length l / 2 in
        [ List.filteri (fun i _ -> i < half) l; List.filteri (fun i _ -> i >= half) l ])
      (List.filteri (fun i _ -> i < setups - 1) runs)
    |> List.map (List.map Gen.latency_ms)
  in
  (* throughput and CPU per operation of each untraced closed-loop
     slice *)
  let plain = List.filter (fun sl -> not sl.traced) slices in
  let per_slice f = Stats.median (List.map f plain) in
  let done_ sl = float_of_int (List.length (ok_of (Array.to_list sl.slots))) in
  let peak = per_slice (fun sl -> done_ sl /. sl.secs) in
  let cpu_per_op = per_slice (fun sl -> sl.cpu_s *. 1000. /. done_ sl) in
  let closed_ops = List.fold_left (fun a sl -> a + Array.length sl.slots) 0 plain in
  let overhead =
    let rtts t =
      Stats.median
        (List.concat_map
           (fun sl -> List.map Gen.rtt_ms (Array.to_list sl.slots))
           (List.filter (fun sl -> sl.traced = t) slices))
    in
    (rtts true /. rtts false) -. 1.
  in
  let h = health opn in
  Printf.printf
    "open loop: %d operations, backlog max %d and %d at the end, %d stalls \
     delaying %d operations (%.2f%%), stalls %s ms\n"
    (Array.length opn) h.backlog_max h.end_backlog (List.length h.stall_ms) h.delayed
    (100. *. float_of_int h.delayed /. float_of_int (max 1 (Array.length opn)))
    (String.concat " " (List.map (Printf.sprintf "%.1f") h.stall_ms));
  (* more than a second of arrivals still waiting at the end of the open
     loop: the servers did not keep up, and the run is invalid *)
  if float_of_int h.end_backlog > w.W.open_qps then
    die "invalid run: the open loop ended with %d operations waiting" h.end_backlog;
  let e2e =
    [
      metric "ok_frac" "frac"
        (1. -. (float_of_int failed /. float_of_int attempted))
        ~note:(Printf.sprintf "failed=%d attempted=%d" failed attempted);
      metric "setup_s" "s"
        (Stats.median (List.map (fun (_, s, _, _) -> s) runs))
        ~note:(Printf.sprintf "median of %d" setups);
      metric "rss_peak_mb" "MiB" rss;
      metric "db_bytes_per_input_byte" "B/B"
        (float_of_int db_bytes /. float_of_int input_bytes);
    ]
  in
  (* Latency, throughput and CPU time vary more from run to run on a
     shared machine than any bound could allow, so they are printed on
     every run and reported with the per-layer metrics of the traced
     run, not gated. *)
  let ungated =
    [
      pct "query_p50_ms" q 0.5;
      pct "query_p90_ms" q 0.9;
      pct "query_p99_ms" q 0.99;
      metric "peak_qps" "1/s" peak
        ~note:
          (Printf.sprintf "n=%d, median of %d closed-loop slices" closed_ops
             (List.length plain));
      metric "cpu_ms_per_op" "ms" cpu_per_op
        ~note:
          (Printf.sprintf "ops=%d, median of %d closed-loop slices" closed_ops
             (List.length plain));
      pct "insert_p50_ms" ins 0.5;
      pct "insert_p99_ms" ins 0.99;
      metric "gen.backlog_max" "count" (float_of_int h.backlog_max);
      metric "gen.delayed_frac" "frac"
        (float_of_int h.delayed /. float_of_int (max 1 (Array.length opn)));
      metric "gen.stall_max_ms" "ms" (List.fold_left Float.max 0. h.stall_ms);
    ]
  in
  let mixed =
    List.filter (fun s -> not (Gen.is_query s)) (Array.to_list opn) |> ok_of
    |> List.map Gen.latency_ms
  in
  if mixed <> [] then
    Printf.printf "inserts among the open-loop reads: n=%d p50 %.3f ms max %.3f ms\n"
      (List.length mixed) (Stats.median mixed) (List.fold_left Float.max 0. mixed);
  (* a wrong answer, an ack gap, a wire error or a transport failure
     makes the run incorrect *)
  let correct = failed = 0 in
  if not traced then begin
    List.iter
      (fun m -> Printf.printf "%-36s %14.6f %-6s %s\n" m.name m.value m.unit m.note)
      ungated;
    print_result ~correct ~attempted ~failed e2e
  end
  else begin
    List.iter
      (fun m -> Printf.printf "%-36s %14.6f %-6s %s\n" m.name m.value m.unit m.note)
      e2e;
    let layer_metrics =
      Layers.metrics ~w ~data ~seed ~dir ~opn ~closed ~probe ~window
        ~overhead ~wire:(Option.get wire) ~lag
    in
    print_result ~correct ~attempted ~failed
      (ungated
      @ List.map (fun (name, unit, value, note) -> metric name unit value ~note) layer_metrics)
  end

let () =
  let toss = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--toss", Arg.Set_string toss, "PATH the toss executable");
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --toss PATH --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (have: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all))
  in
  if not (Sys.file_exists !toss) then die "no toss executable at %S" !toss;
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A large minor heap and a lazy major collector keep the generator's
     own collections out of the latencies it measures. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 400 };
  at_exit Procs.kill_all;
  try run ~toss:!toss ~w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  with e -> die "%s" (Printexc.to_string e)
