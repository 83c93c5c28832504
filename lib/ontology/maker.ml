module Hierarchy = Toss_hierarchy.Hierarchy
module Doc = Toss_xml.Tree.Doc
module Sset = Set.Make (String)

(* Adds [lower <= upper] unless it is a self-loop or would create a cycle
   (recursive element nesting, or a content value spelled like a tag). *)
let add_leq_acyclic ~lower ~upper h =
  if lower = upper then h
  else if Hierarchy.leq h upper lower then h
  else Hierarchy.add_leq ~lower ~upper h

let leaf_tags doc =
  List.fold_left
    (fun acc n -> if Doc.children doc n = [] then Sset.add (Doc.tag doc n) acc else acc)
    Sset.empty (Doc.nodes doc)

let contents_by_tag doc ~tags ~cap =
  List.map
    (fun tag ->
      let values =
        List.fold_left
          (fun acc n ->
            if Doc.tag doc n = tag && Doc.children doc n = [] then
              let c = Doc.content doc n in
              if c = "" then acc else Sset.add c acc
            else acc)
          Sset.empty (Doc.nodes doc)
      in
      let values = Sset.elements values in
      let values =
        match cap with
        | None -> values
        | Some k -> List.filteri (fun i _ -> i < k) values
      in
      (tag, values))
    tags

let make ?(lexicon = Lexicon.seeded) ?content_tags ?max_content_terms doc =
  let tags = Doc.tags doc in
  let content_tags =
    match content_tags with Some ts -> ts | None -> Sset.elements (leaf_tags doc)
  in
  let by_tag = contents_by_tag doc ~tags:content_tags ~cap:max_content_terms in
  let content_values = List.concat_map snd by_tag in
  let all_terms = tags @ content_values in
  (* isa: the lexicon's hypernymy over the document's terms, plus each
     content value below its tag (values of a type are types, Section 5). *)
  let isa_h = Lexicon.isa_hierarchy ~restrict_to:all_terms lexicon in
  let isa_h =
    List.fold_left
      (fun h (tag, values) ->
        List.fold_left (fun h v -> add_leq_acyclic ~lower:v ~upper:tag h) h values)
      isa_h by_tag
  in
  (* part-of: element nesting plus the lexicon's holonymy. *)
  let part_h = Lexicon.part_hierarchy ~restrict_to:all_terms lexicon in
  let part_h =
    List.fold_left
      (fun h n ->
        match Doc.parent doc n with
        | None -> h
        | Some p -> add_leq_acyclic ~lower:(Doc.tag doc n) ~upper:(Doc.tag doc p) h)
      part_h (Doc.nodes doc)
  in
  Ontology.empty
  |> Ontology.add Ontology.isa (Hierarchy.normalize isa_h)
  |> Ontology.add Ontology.part_of (Hierarchy.normalize part_h)

let make_all ?lexicon ?content_tags ?max_content_terms docs =
  List.map (make ?lexicon ?content_tags ?max_content_terms) docs

(* The synonym equalities of one synset, given its occurrences: the
   distinct (term, source) pairs of its terms. The definition equates
   every two occurrences that differ in both term and source; that graph
   is quadratic, and this returns a spanning forest of it, linear in the
   occurrences, so the equivalence closure (what fusion merges) is the
   same and every emitted equality is one the definition emits.

   In that graph an occurrence is isolated iff every other one shares its
   term or its source, which counts decide. The remaining occurrences
   [live] form one component, unless they are exactly a 2 x 2 grid: then
   the complement graph (same term or same source) is a join of the two
   diagonals, and the diagonals are the components. A component is
   spanned from its least occurrence [h = (a, i)]: [h] links to every
   occurrence [near] it (other term, other source); another occurrence of
   term [a] or of source [i] links to a member of [near] it differs from
   in source or term, using two witnesses; the at most two occurrences
   with no such witness link through the other line. *)
let synset_constraints occurrences =
  let counts key occ =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun o ->
        let k = key o in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      occ;
    tbl
  in
  let n = List.length occurrences in
  let per_term = counts fst occurrences and per_source = counts snd occurrences in
  let live =
    List.filter
      (fun (t, i) -> Hashtbl.find per_term t + Hashtbl.find per_source i - 1 < n)
      occurrences
  in
  let differ (t1, i) (t2, j) = t1 <> t2 && i <> j in
  let is_2x2 =
    List.length live = 4
    && Hashtbl.length (counts fst live) = 2
    && Hashtbl.length (counts snd live) = 2
  in
  match live with
  | [] -> []
  | _ when is_2x2 ->
      List.concat_map
        (fun x ->
          List.filter_map
            (fun y -> if x < y && differ x y then Some (Interop.eq x y) else None)
            live)
        live
  | first :: _ ->
      let ((a, _) as h) = List.fold_left min first live in
      let near, line = List.partition (differ h) (List.filter (( <> ) h) live) in
      let row, col = List.partition (fun (t, _) -> t = a) line in
      (* [near] is not empty: [h] is live. *)
      let ((t1, s1) as w1) = List.hd near in
      let other_source = List.find_opt (fun (_, s) -> s <> s1) near in
      let other_term = List.find_opt (fun (t, _) -> t <> t1) near in
      let attach witness cells =
        List.partition_map
          (fun y -> match witness y with Some w -> Left (y, w) | None -> Right y)
          cells
      in
      let row_links, row_left =
        attach (fun (_, j) -> if j <> s1 then Some w1 else other_source) row
      in
      let col_links, col_left =
        attach (fun (b, _) -> if b <> t1 then Some w1 else other_term) col
      in
      let left_links =
        match (row_left, col_left) with
        | [], [] -> []
        | [ y ], [] -> [ (y, List.hd col) ]
        | [], [ z ] -> [ (z, List.hd row) ]
        | [ y ], [ z ] ->
            (* Not a 2 x 2 grid, so some other row or column occurrence
               was linked; [y] and [z] each differ from those of the
               other line. *)
            (y, z)
            :: (match (col_links, row_links) with
               | (z', _) :: _, _ -> [ (y, z') ]
               | [], (y', _) :: _ -> [ (z, y') ]
               | [], [] -> assert false)
        | _ -> assert false
      in
      List.map (fun x -> Interop.eq h x) near
      @ List.map (fun (x, y) -> Interop.eq x y) (row_links @ col_links @ left_links)

let auto_constraints ?(lexicon = Lexicon.seeded) ontologies =
  let indexed = List.mapi (fun i o -> (i, o)) ontologies in
  let relations =
    List.sort_uniq String.compare (List.concat_map Ontology.relations ontologies)
  in
  List.map
    (fun rel ->
      (* Occurrences of lexicon terms, grouped by synset. *)
      let by_synset = Hashtbl.create 97 in
      List.iter
        (fun (i, o) ->
          List.iter
            (fun t ->
              match Lexicon.synset lexicon t with
              | None -> ()
              | Some id ->
                  Hashtbl.replace by_synset id
                    ((t, i) :: Option.value ~default:[] (Hashtbl.find_opt by_synset id)))
            (Hierarchy.terms (Ontology.get rel o)))
        indexed;
      let constraints =
        Hashtbl.fold (fun _ occ acc -> synset_constraints occ @ acc) by_synset []
      in
      (rel, constraints))
    relations
