(* Tests of the benchmark's own code: the percentile rule, the seeded
   schedules, span self times and the answer checker. *)

module Tree = Toss_xml.Tree

let close = Alcotest.float 1e-9

(* --- percentile rule ------------------------------------------------ *)

let test_supported_q () =
  let q n = Stats.supported_q ~n 0.99 in
  Alcotest.check close "1000 samples support p99" 0.99 (q 1000);
  Alcotest.check close "500 samples: ten beyond p98" 0.98 (q 500);
  Alcotest.check close "100 samples: ten beyond p90" 0.9 (q 100);
  Alcotest.check close "below 20 samples: the median" 0.5 (q 15);
  Alcotest.check close "no samples" 0.5 (q 0);
  Alcotest.check close "a lower request is kept" 0.5 (Stats.supported_q ~n:1000 0.5)

let test_percentile () =
  let samples = List.init 1000 (fun i -> float_of_int (1000 - i)) in
  let s = Stats.percentile samples 0.99 in
  Alcotest.check close "nearest rank p99 of 1..1000" 990. s.Stats.value;
  Alcotest.(check int) "sample count" 1000 s.Stats.n;
  let s = Stats.percentile (List.init 100 float_of_int) 0.99 in
  Alcotest.check close "100 samples report p90" 0.9 s.Stats.q;
  Alcotest.check close "with ten samples above it" 89. s.Stats.value;
  Alcotest.check close "median" 3. (Stats.median [ 5.; 1.; 3.; 4.; 2. ])

let test_windows () =
  let calm = List.init 100 (fun i -> float_of_int (i + 1)) in
  let stalled = List.init 100 (fun i -> 1000. +. float_of_int i) in
  let s = Stats.grouped [ calm; stalled; calm ] 0.5 in
  Alcotest.check close "one disturbed window does not move the median" 50. s.Stats.value;
  Alcotest.(check int) "counts every sample" 300 s.Stats.n;
  let s = Stats.grouped [ calm; List.init 30 float_of_int ] 0.99 in
  Alcotest.check close "the smallest window's rule is reported" (2. /. 3.) s.Stats.q;
  let bins =
    Stats.by_time ~n:3 ~lo:0. ~hi:3. ~time:fst
      [ (0.1, "a"); (2.9, "d"); (1.5, "c"); (1.0, "b"); (3.0, "e"); (-0.5, "z") ]
  in
  Alcotest.(check (list (list string))) "cut by time, ends clamped"
    [ [ "a"; "z" ]; [ "c"; "b" ]; [ "d"; "e" ] ]
    (List.map (List.map snd) bins)

let test_backlog () =
  (* five operations due a second apart; the third is answered late, so
     the fourth and fifth wait behind it *)
  let due = [| 0.; 1.; 2.; 3.; 4. |] in
  let sent = [| 0.; 1.; 2.; 4.5; 4.6 |] in
  let b = Stats.backlog ~due ~sent in
  Alcotest.(check (array int)) "due and unsent at each send" [| 1; 1; 1; 2; 1 |] b;
  Alcotest.(check (list (pair int int))) "a stall is a run past the connections"
    [ (3, 3) ]
    (Stats.stalls ~connections:1 b);
  Alcotest.(check (list (pair int int))) "two connections carry it" []
    (Stats.stalls ~connections:2 b);
  Alcotest.(check (list (pair int int))) "consecutive waits form one stall"
    [ (1, 2); (4, 4) ]
    (Stats.stalls ~connections:1 [| 1; 3; 2; 0; 5 |])

(* --- seeded schedules ----------------------------------------------- *)

let schedule seed =
  let st = Schedule.rng ~seed ~stream:7 in
  let cdf = Schedule.zipf_cdf ~s:1.1 12 in
  Schedule.open_loop st ~rate:200. ~duration:5. ~cdf ~inserts:10 (ref 0)

let test_schedule_determinism () =
  Alcotest.(check bool) "same seed, same schedule" true (schedule 3 = schedule 3);
  Alcotest.(check bool) "another seed, another schedule" false (schedule 3 = schedule 4);
  let st () = Schedule.rng ~seed:9 ~stream:1 in
  let cdf = Schedule.zipf_cdf ~s:0.5 50 in
  let a = Schedule.closed_loop (st ()) ~n:500 ~cdf ~insert_every:20 (ref 0) in
  let b = Schedule.closed_loop (st ()) ~n:500 ~cdf ~insert_every:20 (ref 0) in
  Alcotest.(check bool) "closed-loop sequence too" true (a = b)

let test_schedule_shape () =
  let s = schedule 5 in
  let n = Array.length s - 10 in
  Alcotest.(check bool) "Poisson count near rate x duration" true (n > 900 && n < 1100);
  Alcotest.(check bool) "arrivals ascend within the phase" true
    (Array.for_all (fun (t, _) -> t >= 0. && t < 5.) s
    && fst (Array.fold_left (fun (ok, prev) (t, _) -> (ok && t >= prev, t)) (true, -1.) s));
  let inserts =
    Array.to_list s
    |> List.filter_map (function t, Schedule.Insert k -> Some (t, k) | _ -> None)
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "ten inserts, evenly spaced, in order"
    (List.init 10 (fun j -> ((float_of_int j +. 0.5) *. 0.5, j)))
    inserts;
  let c =
    Schedule.closed_loop (Schedule.rng ~seed:1 ~stream:2) ~n:100
      ~cdf:(Schedule.zipf_cdf ~s:1.1 12) ~insert_every:20 (ref 5)
  in
  Alcotest.(check (list int)) "closed loop: every 20th operation, numbered on"
    [ 5; 6; 7; 8; 9 ]
    (Array.to_list c |> List.filter_map (function Schedule.Insert k -> Some k | _ -> None));
  let cdf = Schedule.zipf_cdf ~s:1.1 12 in
  Alcotest.check close "cdf ends at one" 1. cdf.(11);
  Alcotest.(check int) "u = 0 picks rank 0" 0 (Schedule.pick cdf 0.);
  Alcotest.(check int) "u = cdf(3) picks rank 3" 3 (Schedule.pick cdf cdf.(3));
  Alcotest.(check int) "just above cdf(3) picks rank 4" 4 (Schedule.pick cdf (cdf.(3) +. 1e-12));
  Alcotest.(check int) "u = 1 picks the last rank" 11 (Schedule.pick cdf 1.)

(* --- span self time ------------------------------------------------- *)

let span ?parent id name start stop =
  { Spans.id; parent; name; trace = "t"; start; stop }

let test_self_time () =
  let spans =
    [
      span 0 "request" 0. 10.;
      span ~parent:0 1 "engine.exec" 1. 3.;
      span ~parent:0 2 "pool.queue" 2. 5.;  (* overlaps its sibling *)
      span ~parent:0 3 "protocol.client_decode" 8. 12.;  (* runs past its parent *)
      span ~parent:1 4 "executor.select" 1.5 2.;
    ]
  in
  let self = Spans.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Spans.id = id) self) in
  Alcotest.check close "children cover [1,5] and [8,10]" 4. (of_id 0);
  Alcotest.check close "minus its own child" 1.5 (of_id 1);
  Alcotest.check close "a leaf keeps its duration" 3. (of_id 2);
  Alcotest.check close "leaf past the parent" 4. (of_id 3);
  Alcotest.(check string) "layer of a dotted name" "executor" (Spans.layer (span 9 "executor.select" 0. 1.));
  Alcotest.check close "parallel children count once" 2.
    (Spans.covered ~lo:0. ~hi:10. [ (1., 3.); (1., 3.); (2., 3.) ])

(* --- answer checker ------------------------------------------------- *)

let paper key author =
  Tree.element ~attrs:[ ("key", key) ] "inproceedings"
    [ Tree.leaf "author" author; Tree.leaf "booktitle" "VLDB" ]

let served trees = List.map (Toss_xml.Printer.to_string ~decl:false) trees

let test_checker () =
  let answer = [ paper "a" "Jeffrey Ullman"; paper "b" "Jennifer Widom"; paper "b" "Jennifer Widom" ] in
  let reference = Answers.canonical answer in
  let ok got = Result.is_ok (Answers.check ~reference (served got)) in
  Alcotest.(check bool) "the same witnesses" true (ok answer);
  Alcotest.(check bool) "in another order" true (ok (List.rev answer));
  Alcotest.(check bool) "a perturbed witness" false
    (ok [ paper "a" "Jeffrey Ulman"; paper "b" "Jennifer Widom"; paper "b" "Jennifer Widom" ]);
  Alcotest.(check bool) "a missing duplicate" false
    (ok [ paper "a" "Jeffrey Ullman"; paper "b" "Jennifer Widom" ]);
  Alcotest.(check bool) "an extra witness" false (ok (paper "c" "Alon Halevy" :: answer));
  Alcotest.(check bool) "unparseable XML" false
    (Result.is_ok (Answers.check ~reference [ "<inproceedings>" ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_supported_q;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "windowed medians" `Quick test_windows;
          Alcotest.test_case "open-loop backlog and stalls" `Quick test_backlog;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "seed determinism" `Quick test_schedule_determinism;
          Alcotest.test_case "Poisson arrivals, zipf ranks, insert spacing" `Quick
            test_schedule_shape;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("answers", [ Alcotest.test_case "checker catches perturbed witnesses" `Quick test_checker ]);
    ]
