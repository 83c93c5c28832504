type staged =
  | Staged : {
      prepare : string -> 'p;
      test : 'p -> 'p -> bool;
      keys : 'p -> int list;
    }
      -> staged

type t = {
  name : string;
  strong : bool;
  dist : string -> string -> float;
  stage : eps:float -> staged;
}

let one_key _ = [ 0 ]
let tag i keys = List.map (fun k -> Hashtbl.hash (i, k)) keys
let pairwise test = Staged { prepare = Fun.id; test; keys = one_key }

let v ~name ~strong ?within dist =
  let stage =
    match within with
    | Some within -> fun ~eps -> pairwise (within ~eps)
    | None -> fun ~eps -> pairwise (fun a b -> dist a b <= eps)
  in
  { name; strong; dist; stage }

let staged ~name ~strong ~stage dist = { name; strong; dist; stage }
let dist m a b = m.dist a b
let stage m ~eps = m.stage ~eps

let within m ~eps a b =
  let (Staged s) = m.stage ~eps in
  s.test (s.prepare a) (s.prepare b)

let scale factor m =
  if factor <= 0. then invalid_arg "Metric.scale: factor must be positive";
  {
    name = Printf.sprintf "%gx %s" factor m.name;
    strong = m.strong;
    dist = (fun a b -> factor *. m.dist a b);
    stage = (fun ~eps -> m.stage ~eps:(eps /. factor));
  }

let cap bound m =
  {
    name = Printf.sprintf "%s (capped at %g)" m.name bound;
    strong = false;
    dist = (fun a b -> Float.min bound (m.dist a b));
    stage =
      (fun ~eps -> if eps >= bound then pairwise (fun _ _ -> true) else m.stage ~eps);
  }

(* Pairs two staged tests: the prepared value carries both components,
   [combine] decides from the first verdict and the (lazy) second, and
   [keys] builds the pair's keys from the first component's and the
   (lazy) second's. *)
let both combine keys (Staged a) (Staged b) =
  Staged
    {
      prepare = (fun s -> (a.prepare s, b.prepare s));
      test = (fun (x1, x2) (y1, y2) -> combine (a.test x1 y1) (fun () -> b.test x2 y2));
      keys = (fun (x1, x2) -> keys (a.keys x1) (fun () -> b.keys x2));
    }

let fold_stages combine keys ms ~eps =
  match List.map (fun m -> m.stage ~eps) ms with
  | [] -> assert false
  | first :: rest -> List.fold_left (both combine keys) first rest

let min_of ~name = function
  | [] -> invalid_arg "Metric.min_of: empty list"
  | ms ->
      {
        name;
        strong = false;
        dist =
          (fun a b -> List.fold_left (fun acc m -> Float.min acc (m.dist a b)) infinity ms);
        stage = fold_stages (fun x y -> x || y ()) (fun k1 k2 -> tag 0 k1 @ tag 1 (k2 ())) ms;
      }

let max_of ~name = function
  | [] -> invalid_arg "Metric.max_of: empty list"
  | ms ->
      {
        name;
        strong = List.for_all (fun m -> m.strong) ms;
        dist =
          (fun a b -> List.fold_left (fun acc m -> Float.max acc (m.dist a b)) 0. ms);
        stage = fold_stages (fun x y -> x && y ()) (fun k1 _ -> k1) ms;
      }

let of_similarity ~name sim = v ~name ~strong:false (fun a b -> Float.max 0. (1. -. sim a b))

let pp ppf m =
  Format.fprintf ppf "%s%s" m.name (if m.strong then " (strong)" else "")
