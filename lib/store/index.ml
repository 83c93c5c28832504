module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Metrics = Toss_obs.Metrics

let m_builds = Metrics.counter "store.index.builds"
let m_eq_lookups = Metrics.counter "store.index.eq_lookups"
let m_eq_hits = Metrics.counter "store.index.eq_hits"
let m_token_lookups = Metrics.counter "store.index.token_lookups"
let m_token_hits = Metrics.counter "store.index.token_hits"

type t = {
  eq : (string * string, Doc.node list) Hashtbl.t;
  tokens : (string * string, Doc.node list) Hashtbl.t;
}

let tokenize s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      let c = Char.lowercase_ascii c in
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then Buffer.add_char buf c
      else flush ())
    s;
  flush ();
  !out

let push tbl key node =
  Hashtbl.replace tbl key (node :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let build doc =
  Metrics.incr m_builds;
  let eq = Hashtbl.create 256 in
  let tokens = Hashtbl.create 256 in
  List.iter
    (fun n ->
      if Doc.children doc n = [] then begin
        let tag = Doc.tag doc n in
        let content = Doc.content doc n in
        push eq (tag, content) n;
        List.iter
          (fun tok -> push tokens (tag, tok) n)
          (List.sort_uniq String.compare (tokenize content))
      end)
    (Doc.nodes doc);
  { eq; tokens }

let eq_lookup t ~tag ~value =
  Metrics.incr m_eq_lookups;
  match Hashtbl.find_opt t.eq (tag, value) with
  | None -> []
  | Some nodes ->
      Metrics.incr m_eq_hits;
      List.rev nodes

let token_lookup t ~tag ~token =
  Metrics.incr m_token_lookups;
  match Hashtbl.find_opt t.tokens (tag, token) with
  | None -> []
  | Some nodes ->
      Metrics.incr m_token_hits;
      List.rev nodes

let n_entries t = Hashtbl.length t.eq + Hashtbl.length t.tokens

(* Statistics accessors: plain reads, no lookup/hit metrics — reading a
   statistic must not perturb the counters that describe lookups. *)

let eq_count t ~tag ~value =
  match Hashtbl.find_opt t.eq (tag, value) with
  | None -> 0
  | Some nodes -> List.length nodes

let token_count t ~tag ~token =
  match Hashtbl.find_opt t.tokens (tag, token) with
  | None -> 0
  | Some nodes -> List.length nodes
