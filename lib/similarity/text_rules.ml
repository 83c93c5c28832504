let abbrev_cost = 0.5
let typo_unit = 1.1
let mismatch_cost = 5.0

(* Dropping a whole token is almost as bad as a mismatch: "web conference"
   must NOT come out close to "conference", or the similarity enhancement
   of any isa hierarchy containing both becomes cyclic (similarity
   inconsistent). Abbreviations keep the token count, so this does not
   penalize the proceedings-page renderings. *)
let skip_cost = 3.5

(* Tokenize keeping the trailing '.' marker meaningful: "eff." abbreviates
   "efficient". The generic tokenizer drops punctuation, so detect
   abbreviations by prefix relation on the alphanumeric token instead. *)
let is_abbreviation ~short ~long =
  short <> long
  && String.length short >= 2
  && String.length short < String.length long
  && String.sub long 0 (String.length short) = short

let token_cost a b =
  if a = b then 0.
  else if is_abbreviation ~short:a ~long:b || is_abbreviation ~short:b ~long:a then
    abbrev_cost
  else if min (String.length a) (String.length b) < 3 then mismatch_cost
  else
    match Levenshtein.distance_within 2 a b with
    | Some lev -> typo_unit *. float_of_int lev
    | None -> mismatch_cost

type prepared = string array

let prepare x = Array.of_list (Token.tokenize x)

(* Token alignment DP; [cutoff] aborts with infinity as soon as a full DP
   row exceeds it (distances only grow along rows), which makes threshold
   tests on clearly-different phrases cheap. *)
let alignment ?cutoff xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 && ny = 0 then 0.
  else begin
    match cutoff with
    | Some c when Float.abs (float_of_int (nx - ny)) *. skip_cost > c -> infinity
    | _ ->
        let d = Array.make_matrix (nx + 1) (ny + 1) 0. in
        for i = 1 to nx do
          d.(i).(0) <- float_of_int i *. skip_cost
        done;
        for j = 1 to ny do
          d.(0).(j) <- float_of_int j *. skip_cost
        done;
        let result = ref None in
        let i = ref 1 in
        while !result = None && !i <= nx do
          (* The row minimum must include column 0, which later rows also
             build on. *)
          let row_min = ref d.(!i).(0) in
          for j = 1 to ny do
            let subst = d.(!i - 1).(j - 1) +. token_cost xs.(!i - 1) ys.(j - 1) in
            let del = d.(!i - 1).(j) +. skip_cost in
            let ins = d.(!i).(j - 1) +. skip_cost in
            let best = Float.min subst (Float.min del ins) in
            d.(!i).(j) <- best;
            if best < !row_min then row_min := best
          done;
          (match cutoff with
          | Some c when !row_min > c -> result := Some infinity
          | _ -> ());
          incr i
        done;
        (match !result with Some r -> r | None -> d.(nx).(ny))
  end

(* Below [skip_cost] an alignment within [eps] can neither drop nor insert
   a token, so only the diagonal remains: equal token counts, and the
   running sum of the aligned token costs — the same additions the DP's
   diagonal makes, stopped once they pass [eps]. *)
let within_prepared ~eps xs ys =
  if eps >= 0. && eps < skip_cost then begin
    let n = Array.length xs in
    n = Array.length ys
    &&
    let rec diagonal i acc =
      if acc > eps then false
      else if i = n then true
      else diagonal (i + 1) (acc +. token_cost xs.(i) ys.(i))
    in
    diagonal 0 0.
  end
  else alignment ~cutoff:eps xs ys <= eps

let distance x y = alignment (prepare x) (prepare y)

let metric =
  Metric.staged ~name:"text-rules" ~strong:false
    ~stage:(fun ~eps -> Metric.Staged { prepare; test = within_prepared ~eps })
    distance
