type t = string list

let of_list = function
  | [] -> invalid_arg "Node.of_list: empty cluster"
  | ss -> List.sort_uniq String.compare ss

let singleton s = [ s ]
let strings t = t
let mem s t = List.mem s t
let cardinal = List.length
let union a b = List.sort_uniq String.compare (a @ b)

let subset a b = List.for_all (fun s -> List.mem s b) a

let representative = function
  | s :: _ -> s
  | [] -> assert false (* excluded by the smart constructors *)

let compare = compare
let equal a b = compare a b = 0

let distinct ns =
  let order = Array.init (Array.length ns) Fun.id in
  Array.stable_sort (fun a b -> compare ns.(a) ns.(b)) order;
  let position = Array.make (Array.length ns) 0 and nodes = ref [] and count = ref 0 in
  Array.iter
    (fun i ->
      (match !nodes with
      | previous :: _ when equal previous ns.(i) -> ()
      | _ ->
          nodes := ns.(i) :: !nodes;
          incr count);
      position.(i) <- !count - 1)
    order;
  (Array.of_list (List.rev !nodes), position)

let pp ppf t =
  match t with
  | [ s ] -> Format.pp_print_string ppf s
  | ss ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_string)
        ss

let to_string t = Format.asprintf "%a" pp t
