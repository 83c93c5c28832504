module Doc = Toss_xml.Tree.Doc
module Metrics = Toss_obs.Metrics

let m_enumerations = Metrics.counter "tax.embed.enumerations"
let m_candidates = Metrics.histogram "tax.embed.candidates_considered"
let m_structural = Metrics.histogram "tax.embed.structural_bindings"
let m_embeddings = Metrics.histogram "tax.embed.embeddings"

type binding = (int * Doc.node) list

let env_of doc binding label =
  Option.map (fun n -> (doc, n)) (List.assoc_opt label binding)

(* Environment for prefiltering: only the node under consideration is
   bound, to its own label. *)
let single_env doc label node l = if l = label then Some (doc, node) else None

let enumerate ~eval doc (pattern : Pattern.t) =
  Metrics.incr m_enumerations;
  let n_considered = ref 0 in
  let condition = pattern.Pattern.condition in
  let local_ok label node =
    List.for_all
      (fun atom -> eval (single_env doc label node) atom)
      (Condition.local_atoms condition label)
  in
  (* Enumerate structural embeddings by walking the pattern in preorder;
     [binding] accumulates in reverse. *)
  let rec extend binding (pnode : Pattern.node) image =
    let binding = (pnode.Pattern.label, image) :: binding in
    let rec over_children binding = function
      | [] -> [ binding ]
      | (kind, child) :: rest ->
          let structural =
            match (kind : Pattern.edge_kind) with
            | Pattern.Pc -> Doc.children doc image
            | Pattern.Ad -> Doc.descendants doc image
          in
          let options =
            n_considered := !n_considered + List.length structural;
            List.filter (local_ok child.Pattern.label) structural
          in
          List.concat_map
            (fun img ->
              List.concat_map
                (fun b -> over_children b rest)
                (extend binding child img))
            options
    in
    over_children binding pnode.Pattern.children
  in
  let root = pattern.Pattern.root in
  let root_candidates =
    let scanned = Doc.nodes doc in
    n_considered := !n_considered + List.length scanned;
    List.filter (local_ok root.Pattern.label) scanned
  in
  let structural =
    List.concat_map (fun img -> extend [] root img) root_candidates
  in
  let embeddings =
    structural
    |> List.rev_map List.rev
    |> List.filter (fun binding -> eval (env_of doc binding) condition)
    |> List.sort compare
  in
  Metrics.observe_int m_candidates !n_considered;
  Metrics.observe_int m_structural (List.length structural);
  Metrics.observe_int m_embeddings (List.length embeddings);
  embeddings
