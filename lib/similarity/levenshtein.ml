let distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* Keep the shorter string in the inner dimension to bound memory. *)
    let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let prev = ref (Array.init (la + 1) Fun.id) in
    let curr = ref (Array.make (la + 1) 0) in
    for j = 1 to lb do
      let prev_row = !prev and curr_row = !curr in
      curr_row.(0) <- j;
      let bj = b.[j - 1] in
      for i = 1 to la do
        (* Explicit int comparisons: the polymorphic [min] costs more than
           the rest of the cell update combined. *)
        let subst = prev_row.(i - 1) + (if a.[i - 1] = bj then 0 else 1) in
        let del = prev_row.(i) + 1 in
        let ins = curr_row.(i - 1) + 1 in
        let best = if del < subst then del else subst in
        let best = if ins < best then ins else best in
        curr_row.(i) <- best
      done;
      prev := curr_row;
      curr := prev_row
    done;
    !prev.(la)
  end

let distance_within k a b =
  let la = String.length a and lb = String.length b in
  let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
  if k < 0 || lb - la > k then None
  else if la = 0 then Some lb
  else begin
    (* Ukkonen's band: a cell (i, j) with |i - j| > k costs more than k, so
       row j only fills columns [j - k, j + k]. Cells outside the band
       read as [inf]: the right edge of a row was never written (the band
       only moves right), and the left sentinel is reset per row. Every
       alignment crosses every row, so a row whose band minimum exceeds k
       settles the answer. *)
    let inf = k + 1 in
    let prev = ref (Array.make (la + 1) inf) in
    let curr = ref (Array.make (la + 1) inf) in
    for i = 0 to min la k do
      !prev.(i) <- i
    done;
    let j = ref 1 and over = ref false in
    while (not !over) && !j <= lb do
      let prev_row = !prev and curr_row = !curr in
      let jj = !j in
      let lo = if jj - k > 1 then jj - k else 1 in
      let hi = if jj + k < la then jj + k else la in
      curr_row.(lo - 1) <- (if jj <= k then jj else inf);
      let row_min = ref curr_row.(lo - 1) in
      let bj = b.[jj - 1] in
      for i = lo to hi do
        let subst = prev_row.(i - 1) + (if a.[i - 1] = bj then 0 else 1) in
        let del = prev_row.(i) + 1 in
        let ins = curr_row.(i - 1) + 1 in
        let best = if del < subst then del else subst in
        let best = if ins < best then ins else best in
        let best = if best > inf then inf else best in
        curr_row.(i) <- best;
        if best < !row_min then row_min := best
      done;
      if !row_min > k then over := true;
      prev := curr_row;
      curr := prev_row;
      incr j
    done;
    if !over then None
    else
      let d = !prev.(la) in
      if d <= k then Some d else None
  end

let damerau_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let d = Array.make_matrix (la + 1) (lb + 1) 0 in
    for i = 0 to la do
      d.(i).(0) <- i
    done;
    for j = 0 to lb do
      d.(0).(j) <- j
    done;
    for i = 1 to la do
      for j = 1 to lb do
        let subst = d.(i - 1).(j - 1) + (if a.[i - 1] = b.[j - 1] then 0 else 1) in
        let del = d.(i - 1).(j) + 1 in
        let ins = d.(i).(j - 1) + 1 in
        let best = if del < subst then del else subst in
        let best = if ins < best then ins else best in
        let best =
          if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1] then begin
            let transpose = d.(i - 2).(j - 2) + 1 in
            if transpose < best then transpose else best
          end
          else best
        in
        d.(i).(j) <- best
      done
    done;
    d.(la).(lb)
  end

let within_banded ~eps a b =
  eps >= 0. && distance_within (int_of_float eps) a b <> None

let prefix_length = 6

(* Each kept subsequence is hashed as it is built, character by
   character, so no subsequence string is allocated; the hash depends on
   the subsequence only. *)
let keys ~budget s =
  let p = min prefix_length (String.length s) in
  let rec go i h left acc =
    if i = p then h :: acc
    else
      let acc = go (i + 1) ((h * 0x100000001b3) + Char.code s.[i]) left acc in
      if left > 0 then go (i + 1) h (left - 1) acc else acc
  in
  List.sort_uniq Int.compare (go 0 0 (max 0 budget) [])

let metric =
  Metric.staged ~name:"levenshtein" ~strong:true
    ~stage:(fun ~eps ->
      let budget = int_of_float eps in
      Metric.Staged
        {
          prepare = Fun.id;
          test = within_banded ~eps;
          (* With [prefix_length] deletions every string's keys hold the
             empty subsequence, so every pair is a candidate anyway. *)
          keys = (if budget >= prefix_length then Metric.one_key else keys ~budget);
        })
    (fun a b -> float_of_int (distance a b))

let damerau_metric =
  Metric.v ~name:"damerau-levenshtein" ~strong:true (fun a b ->
      float_of_int (damerau_distance a b))

let normalized_metric =
  Metric.v ~name:"normalized levenshtein" ~strong:false (fun a b ->
      let l = max (String.length a) (String.length b) in
      if l = 0 then 0. else float_of_int (distance a b) /. float_of_int l)
