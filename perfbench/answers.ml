(* The answer checker: a served answer is right when its witness trees,
   as a multiset, equal the reference session's at the same version. *)

module Tree = Toss_xml.Tree

let canonical trees = Toss_check.Diff.canonical trees

(* Parses a served answer's witness trees (serialized XML) and puts them
   in multiset normal form. *)
let of_served xmls =
  let rec go acc = function
    | [] -> Ok (canonical (List.rev acc))
    | x :: rest -> (
        match Toss_xml.Parser.parse x with
        | Ok t -> go (t :: acc) rest
        | Error e ->
            Error (Format.asprintf "unparseable witness: %a" Toss_xml.Parser.pp_error e))
  in
  go [] xmls

let same a b = List.length a = List.length b && List.for_all2 Tree.equal a b

(* [Ok ()] when the served witnesses equal [reference] (already
   canonical); otherwise what differs. *)
let check ~reference served =
  match of_served served with
  | Error msg -> Error msg
  | Ok got when same got reference -> Ok ()
  | Ok got ->
      Error
        (Printf.sprintf "witness multiset differs: %d served, %d expected"
           (List.length got) (List.length reference))
