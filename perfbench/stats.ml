(* Sample statistics for the benchmark's reports. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median samples = quantile (sorted samples) 0.5

(* The percentile rule: a tail percentile is reported only as high as
   the sample supports, i.e. the highest rank with at least ten samples
   above it. Below twenty samples that is under the median, and the
   median is reported instead. *)
let beyond = 10

let supported_q ~n q =
  if n <= 0 then 0.5
  else Float.max 0.5 (Float.min q (float_of_int (n - beyond) /. float_of_int n))

type summary = {
  value : float;
  q : float;
  n : int;
  parts : float list;  (** the per-window values a median was taken over *)
}

let percentile samples q =
  let a = sorted samples in
  let n = Array.length a in
  let q = supported_q ~n q in
  { value = quantile a q; q; n; parts = [] }

(* A percentile that one disturbed stretch of a run cannot move: the
   percentile is taken in each group of samples (each under the
   percentile rule; the groups are consecutive stretches of time), and
   the median over the groups is reported, with the lowest percentile a
   group supported and the total sample count. *)
let grouped groups q =
  let per =
    List.filter_map
      (fun g -> if g = [] then None else Some (percentile g q))
      groups
  in
  let parts = List.map (fun s -> s.value) per in
  {
    value = median parts;
    q = List.fold_left (fun m s -> Float.min m s.q) q per;
    n = List.fold_left (fun a s -> a + s.n) 0 per;
    parts;
  }

(* Cuts [items] into [n] stretches of equal length over [lo, hi) by
   [time]. *)
let by_time ~n ~lo ~hi ~time items =
  let width = (hi -. lo) /. float_of_int n in
  let bins = Array.make n [] in
  List.iter
    (fun x ->
      let i = max 0 (min (n - 1) (int_of_float ((time x -. lo) /. width))) in
      bins.(i) <- x :: bins.(i))
    items;
  Array.to_list (Array.map List.rev bins)

(* The open loop's backlog. Operation [i] falls due at [due.(i)]
   (ascending) and is sent at [sent.(i)], in index order; its backlog is
   how many operations, itself included, were due and not yet sent when
   it went out. *)
let backlog ~due ~sent =
  let n = Array.length due in
  (* how many operations are due at [t] *)
  let due_by t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if due.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.init n (fun i -> max 0 (due_by sent.(i) - i))

(* The stalls of an open loop with [connections] connections: maximal
   runs of consecutive operations sent while more were waiting than
   there are connections to carry them. Returns each stall as its first
   and last index. *)
let stalls ~connections backlog =
  let n = Array.length backlog in
  let rec go i acc =
    if i >= n then List.rev acc
    else if backlog.(i) <= connections then go (i + 1) acc
    else
      let j = ref i in
      while !j + 1 < n && backlog.(!j + 1) > connections do incr j done;
      go (!j + 1) ((i, !j) :: acc)
  in
  go 0 []
