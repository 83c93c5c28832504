(* Request schedules, drawn up front from the run's seed: what is sent
   and when never depends on how the system under test responds. *)

type op = Query of int  (** index into the query mix *) | Insert of int
(** index into the insert pool *)

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* Zipf(s) over ranks [0, m): rank i has weight 1 / (i + 1)^s. *)
let zipf_cdf ~s m =
  let w = Array.init m (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The first rank whose cumulative weight reaches [u]. *)
let pick cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* The [i]th operation of a closed-loop mix: every [insert_every]th is an
   insert (numbered from [next_insert] on; [0] means none), the rest
   zipf-drawn queries. *)
let draw st ~cdf ~insert_every next_insert i =
  if insert_every > 0 && i mod insert_every = insert_every - 1 then begin
    let k = !next_insert in
    incr next_insert;
    Insert k
  end
  else Query (pick cdf (Random.State.float st 1.))

(* Poisson query arrivals at [rate] per second over [duration] seconds,
   as offsets from the phase start, and [inserts] inserts at evenly
   spaced instants among them. Fixed insert instants keep the work the
   inserts cause in each stretch of the phase the same from seed to
   seed. *)
let open_loop st ~rate ~duration ~cdf ~inserts next_insert =
  let rec go t acc =
    let t = t +. (-.log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then List.rev acc
    else go t ((t, Query (pick cdf (Random.State.float st 1.))) :: acc)
  in
  let queries = go 0. [] in
  let writes =
    List.init inserts (fun j ->
        let k = !next_insert in
        incr next_insert;
        ((float_of_int j +. 0.5) *. duration /. float_of_int inserts, Insert k))
  in
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) (queries @ writes))

(* A closed-loop sequence: the same mix without arrival times; the
   connections take the next operation as soon as they are free. *)
let closed_loop st ~n ~cdf ~insert_every next_insert =
  Array.init n (draw st ~cdf ~insert_every next_insert)
