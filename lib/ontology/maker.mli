(** The Ontology Maker (TOSS architecture component 1, Section 3).

    Automatically associates an ontology with a semistructured instance:

    - the {e part-of} hierarchy is read off the element nesting structure
      (a tag that occurs as a child of another is part of it), enriched
      with the lexicon's holonymy entries for terms that occur in the
      document;
    - the {e isa} hierarchy links the document's terms — tags and the
      content values of the selected tags — into the lexicon's hypernymy
      graph; content values are additionally placed below their tag (each
      value of a type is itself a type, Section 5).

    The result can then be refined by a database administrator via
    {!Ontology.update}, fused across instances with {!Fusion}, and
    similarity-enhanced with [Toss_similarity.Sea]. *)

module Hierarchy = Toss_hierarchy.Hierarchy

val make :
  ?lexicon:Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t ->
  Ontology.t
(** [lexicon] defaults to {!Lexicon.seeded}. [content_tags] selects the
    tags whose content values become ontology terms (default: every leaf
    tag). [max_content_terms] caps the number of distinct content values
    added per tag (default unlimited). *)

val make_all :
  ?lexicon:Lexicon.t ->
  ?content_tags:string list ->
  ?max_content_terms:int ->
  Toss_xml.Tree.Doc.t list ->
  Ontology.t list

val auto_constraints :
  ?lexicon:Lexicon.t -> Ontology.t list -> (Ontology.relation * Interop.t list) list
(** Interoperation constraints between the ontologies of different
    sources, derived from the lexicon, per relation.

    The contract is an equivalence closure, not a list of pairs: by
    definition every two occurrences of synonyms (same synset) that are
    spelled differently and lie in different sources are equated, e.g.
    [booktitle:0 = conference:1] when the lexicon declares them
    synonymous. The result is a spanning forest of that quadratic set of
    equalities: every constraint is [Eq] of one such pair, and the
    equalities induce the same equivalence classes on the (term, source)
    occurrences, so fusion merges exactly the same terms. Its size is
    below the number of (term, source) occurrences of lexicon terms, and
    it is built in time linear in them. Identically-spelled terms are
    left to the fusion's [auto_equate]. *)
