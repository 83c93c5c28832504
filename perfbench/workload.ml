(* The four workloads. Each one is a deployment, the documents its
   set-up inserts, a query mix, and the rates of its open-loop phase.
   The corpus of a workload is generated from a fixed seed of its own;
   the run's seed draws the traffic (arrival times, which query, where
   the inserts fall), so seeds vary the load and not the data, and a
   metric's spread across seeds is the system's, not the corpus's. *)

module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Printer = Toss_xml.Printer

type deployment =
  | Single  (** one [toss serve --domains 2] *)
  | Router  (** [toss router] over two [toss serve --domains 1] shards *)

type t = {
  name : string;
  deployment : deployment;
  corpus_seed : int;
  n_papers : int;  (** corpus the set-up ingests *)
  per_paper : bool;  (** one insert per paper, or the corpus as one document *)
  wide : bool;  (** the wide author/venue mix instead of the loadgen mix *)
  zipf_s : float;
  open_qps : float;  (** open-loop query arrival rate *)
  open_inserts : int;  (** single-paper inserts, evenly spaced over the open loop *)
  closed_insert_every : int;
      (** every this many closed-loop operations, one is an insert; [0]: none *)
}

let all =
  [
    (* The working set fits the result cache: every answer after warm-up
       is a hit, so client, codec, transport, pool and cache lookup take
       the time and the executor idles. *)
    {
      name = "read-hot";
      deployment = Single;
      corpus_seed = 91;
      n_papers = 100;
      per_paper = true;
      wide = false;
      zipf_s = 1.1;
      open_qps = 300.;
      open_inserts = 0;
      closed_insert_every = 0;
    };
    (* Several times the cache capacity in distinct queries: most queries
       miss and run parse, plan, compiled match and serialize. *)
    {
      name = "read-wide";
      deployment = Single;
      corpus_seed = 92;
      n_papers = 400;
      per_paper = false;
      wide = true;
      zipf_s = 0.5;
      open_qps = 300.;
      open_inserts = 0;
      closed_insert_every = 0;
    };
    (* Cached queries with inserts: each insert clears the cache and the
       SEO, and the next pin rebuilds the SEO under the session lock while
       every query behind it waits. The open loop takes two inserts, a
       third and two thirds of the way in: each rebuild stalls both
       connections for a few hundred milliseconds, the queries that
       arrive meanwhile queue up (the tail, reported as the [gen.*]
       stall figures), and the queue drains long before the next insert,
       since cached queries are served over ten times faster than they
       arrive. The closed loop takes one insert per hundred operations,
       so its throughput is set by the rebuild. *)
    {
      name = "write-mix";
      deployment = Single;
      corpus_seed = 93;
      n_papers = 100;
      per_paper = false;
      wide = false;
      zipf_s = 1.1;
      open_qps = 150.;
      open_inserts = 2;
      closed_insert_every = 100;
    };
    (* read-hot's data and mix through the router: fan-out, shard wait,
       the binary hop and the canonical merge. *)
    {
      name = "router-fanout";
      deployment = Router;
      corpus_seed = 91;
      n_papers = 100;
      per_paper = true;
      wide = false;
      zipf_s = 1.1;
      open_qps = 100.;
      open_inserts = 0;
      closed_insert_every = 0;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [toss serve]'s similarity measure and threshold: a reference session
   built with them answers as the server does. *)
let metric = Toss_data.Workload.experiment_metric
let eps = 2.0

(* A session holding the set-up's documents, as the server holds them
   once set-up is done. *)
let session data_docs =
  let s = Toss_core.Session.create ~metric ~eps () in
  List.iter
    (fun xml ->
      ignore
        (Toss_core.Session.insert s ~collection:"bib"
           (Toss_xml.Parser.parse_exn xml)))
    data_docs;
  s

(* The result cache's default capacity; read-wide's mix must exceed it
   by this factor so that most queries miss. *)
let cache_capacity = 256
let wide_factor = 4

type data = {
  setup_docs : string list;  (** XML inserted by set-up, in order *)
  mix : string array;  (** TQL by popularity rank *)
  pool : string array;  (** single-paper XML for run-time inserts *)
}

let render ~seed ~n_papers =
  Dblp_gen.render ~seed (Corpus.generate ~seed ~n_papers ())

let split_papers (rendered : Dblp_gen.t) =
  match
    Toss_xml.Sax.trees_where
      (fun tag -> String.equal tag "inproceedings")
      (Printer.to_string rendered.Dblp_gen.tree)
  with
  | Ok trees -> List.map (Printer.to_string ~decl:false) trees
  | Error e ->
      failwith (Format.asprintf "corpus split: %a" Toss_xml.Parser.pp_error e)

let plain s = String.for_all (fun c -> c <> '"' && c <> '\\') s

let distinct l = List.sort_uniq compare (List.filter plain l)

(* read-wide's mix: similarity, exact and conjunctive author lookups and
   ontology and exact venue selections, over every author and venue
   string the corpus contains, in a seeded random popularity order. *)
let wide_mix ~seed (rendered : Dblp_gen.t) =
  let authors =
    distinct (List.map (fun (_, _, s) -> s) rendered.Dblp_gen.author_strings)
  in
  let venues = distinct (List.map snd rendered.Dblp_gen.venue_strings) in
  let author fmt = List.map (Printf.sprintf fmt) authors in
  let venue fmt = List.map (Printf.sprintf fmt) venues in
  let mix =
    Array.of_list
      (author
         "MATCH #1:inproceedings(/#2:author) WHERE #2.content ~ \"%s\" SELECT #1"
      @ author
          "MATCH #1:inproceedings(/#2:author) WHERE #2.content = \"%s\" \
           SELECT #1"
      @ author
          "MATCH #1:inproceedings(/#2:author, /#3:booktitle) WHERE \
           #2.content ~ \"%s\" AND #3.content isa \"database conference\" \
           SELECT #1"
      @ venue
          "MATCH #1:inproceedings(/#2:booktitle) WHERE #2.content isa \"%s\" \
           SELECT #1"
      @ venue
          "MATCH #1:inproceedings(/#2:booktitle) WHERE #2.content = \"%s\" \
           SELECT #1")
  in
  if Array.length mix < wide_factor * cache_capacity then
    failwith
      (Printf.sprintf "read-wide mix has %d queries, needs %d"
         (Array.length mix) (wide_factor * cache_capacity));
  let st = Schedule.rng ~seed ~stream:0x31de in
  for i = Array.length mix - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- x
  done;
  mix

(* Run-time inserts come from a second corpus, so they add papers the
   set-up did not. *)
let pool_size = 300

let data w =
  let seed = w.corpus_seed in
  let rendered = render ~seed ~n_papers:w.n_papers in
  {
    setup_docs =
      (if w.per_paper then split_papers rendered
       else [ Printer.to_string ~decl:false rendered.Dblp_gen.tree ]);
    mix =
      (if w.wide then wide_mix ~seed rendered
       else Toss_shard.Loadgen.query_mix ~seed ~n_papers:w.n_papers);
    pool =
      Array.of_list
        (split_papers (render ~seed:(seed + 0x5eed) ~n_papers:pool_size));
  }
