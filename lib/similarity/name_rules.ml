let initial_cost = 1.25
let skip_cost = 0.75
let typo_unit = 1.1
let concat_cost = 0.1
let mismatch_cost = 6.5

let tokens s = Token.tokenize s

let is_initial t = String.length t = 1

(* Cost of treating two single name tokens as the same name part. *)
let token_cost a b =
  if a = b then 0.
  else if is_initial a && (not (is_initial b)) && a.[0] = b.[0] then initial_cost
  else if is_initial b && (not (is_initial a)) && b.[0] = a.[0] then initial_cost
  else if min (String.length a) (String.length b) < 3 then mismatch_cost
  else
    match Levenshtein.distance_within 2 a b with
    | Some lev -> typo_unit *. float_of_int lev
    | None -> mismatch_cost

(* Whether token [a] spells the concatenation of [b1] and [b2]. *)
let concatenates a b1 b2 = String.equal a (b1 ^ b2)

(* Sequence alignment over given-name tokens: exact/initial/typo matches,
   skips, and 1-against-2 concatenation merges. A token may only be
   skipped from the side with more remaining tokens (a dropped middle
   name); equal-length remainders must be matched pairwise, so two
   different given names cannot dodge comparison by skipping both. *)
let align_given xa ya =
  let nx = Array.length xa and ny = Array.length ya in
  let memo = Array.make_matrix (nx + 1) (ny + 1) nan in
  let rec go i j =
    if Float.is_nan memo.(i).(j) then begin
      let v =
        if i = nx && j = ny then 0.
        else if i = nx then (float_of_int (ny - j) *. skip_cost)
        else if j = ny then (float_of_int (nx - i) *. skip_cost)
        else begin
          let best = token_cost xa.(i) ya.(j) +. go (i + 1) (j + 1) in
          let best =
            if nx - i > ny - j then Float.min best (skip_cost +. go (i + 1) j)
            else best
          in
          let best =
            if ny - j > nx - i then Float.min best (skip_cost +. go i (j + 1))
            else best
          in
          let best =
            if i + 1 < nx && concatenates ya.(j) xa.(i) xa.(i + 1) then
              Float.min best (concat_cost +. go (i + 2) (j + 1))
            else best
          in
          let best =
            if j + 1 < ny && concatenates xa.(i) ya.(j) ya.(j + 1) then
              Float.min best (concat_cost +. go (i + 1) (j + 2))
            else best
          in
          best
        end
      in
      memo.(i).(j) <- v
    end;
    memo.(i).(j)
  in
  go 0 0

(* A surname matches exactly or with one typo; the length gate answers
   most pairs before any DP runs. *)
let surname_cost a b =
  if a = b then Some 0.
  else if
    min (String.length a) (String.length b) >= 4
    && abs (String.length a - String.length b) <= 1
  then
    Option.map
      (fun lev -> typo_unit *. float_of_int lev)
      (Levenshtein.distance_within 1 a b)
  else None

type prepared =
  | Empty
  | Name of { surname : string; given : string array; flat : string }

let prepare s =
  match List.rev (tokens s) with
  | [] -> Empty
  | surname :: given_rev ->
      let given = List.rev given_rev in
      Name
        {
          surname;
          given = Array.of_list given;
          flat = String.concat "" (given @ [ surname ]);
        }

let distance_prepared x y =
  match (x, y) with
  | Empty, Empty -> 0.
  | Empty, Name _ | Name _, Empty -> mismatch_cost
  | Name x, Name y -> (
      match surname_cost x.surname y.surname with
      | Some c -> Float.min (c +. align_given x.given y.given) mismatch_cost
      | None ->
          (* Different tokenizations of the same full name, e.g. a surname
             glued to a given name: fall back to comparing the whole names
             with spacing removed. *)
          if x.flat = y.flat then concat_cost else mismatch_cost)

(* Every distance is capped at [mismatch_cost]. *)
let within_prepared ~eps x y = eps >= mismatch_cost || distance_prepared x y <= eps
let distance x y = distance_prepared (prepare x) (prepare y)

let metric =
  Metric.staged ~name:"name-rules" ~strong:false
    ~stage:(fun ~eps -> Metric.Staged { prepare; test = within_prepared ~eps })
    distance

let compatible ~threshold a b = distance a b <= threshold
