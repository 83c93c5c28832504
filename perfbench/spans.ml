(* Spans recorded by the traced run, and their self times. *)

type t = {
  id : int;
  parent : int option;
  name : string;  (** ["layer"] or ["layer.call"] *)
  trace : string;
  start : float;  (** seconds *)
  stop : float;
}

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

(* A span's self time is its duration minus the part of its interval its
   children cover; parallel children count once. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.add children p (s.start, s.stop))
        s.parent)
    spans;
  List.map
    (fun s ->
      ( s,
        s.stop -. s.start
        -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id) ))
    spans

let to_json s =
  Printf.sprintf
    {|{"id":%d,"parent":%s,"name":%S,"trace":%S,"start":%.9f,"stop":%.9f}|}
    s.id
    (match s.parent with Some p -> string_of_int p | None -> "null")
    s.name s.trace s.start s.stop
