(** The paper's query workloads (Section 6).

    - {!selection_queries}: the Figure 15 mix — selection queries with
      exactly 3 tag-matching conditions, 1 similarTo condition (on an
      author name) and 1 isa condition (on the venue or its category),
      each paired with its semantically correct answer keys from the
      ground truth.
    - {!scalability_selection}: the Figure 16(a) shape — conjunctive
      selections with 2 isa and 4 tag-matching conditions.
    - {!join_query}: the Figure 16(b) shape — a join with 5 tag-matching
      and 1 similarTo condition across the DBLP and SIGMOD renderings
      (title similarity, as in the paper's Figure 14). *)

module Pattern = Toss_tax.Pattern
module Metric = Toss_similarity.Metric

val experiment_metric : Metric.t
(** The similarity measure the experiments plug into TOSS: the minimum of
    the rule-based person-name distance, the abbreviation-aware text
    distance, and Levenshtein (doubled for strings shorter than 6
    characters so that short venue acronyms never merge with each
    other). Its staged form ({!Metric.stage}) prepares each string's
    length, name parts and tokens once, and tests a pair cheapest
    component first. *)

type query = {
  query_id : int;
  description : string;
  pattern : Pattern.t;
  sl : int list;
  correct : string list;  (** keys of the semantically correct papers *)
}

val selection_queries : ?n:int -> Corpus.t -> query list
(** [n] defaults to the paper's 12. Authors are drawn from the most
    published; the isa constant alternates between the paper's venue and
    its category, so that the TAX baseline's recall spreads over a range
    as in Figure 15(a). *)

val scalability_selection : unit -> Pattern.t * int list
(** Pattern and SL for the Figure 16(a) experiment: [#1] any paper-kind
    element with [#2 author], [#3 booktitle], [#4 year], [#5 title]
    children; conditions [#1.tag isa paper], [#3.content isa "database
    conference"] (2 isa) and the four child tag matches. *)

val join_query : unit -> Pattern.t * int list
(** Pattern and SL for Figure 16(b): DBLP [inproceedings/title] joined
    with proceedings-page [article/title] on title similarity. *)

val result_keys : Toss_xml.Tree.t list -> string list
(** The [key] attributes occurring in result trees, deduplicated —
    the identity of the papers an answer contains. *)

val result_key_pairs : Toss_xml.Tree.t list -> (string * string) list
(** For join results: the (left, right) key pairs under each product
    root. *)
