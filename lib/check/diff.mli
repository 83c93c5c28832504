(** One case, every engine configuration, against the oracle.

    A case passes when, for both semantics (TAX and TOSS), the engine's
    results equal the oracle's as canonicalized witness-tree multisets,
    and (for selections) the engine's [n_embeddings] funnel stat equals
    the oracle's count of condition-satisfying embeddings. Selections
    have one plan, the compiled matcher; joins run under both planner
    settings, so the hash and sim-pair operators are each checked
    alongside the nested-loop pairing. The engine is driven through
    {!Toss_core.Planner} and {!Toss_core.Plan.run}, the same operators
    {!Toss_core.Executor} runs, so a sabotage fault can be passed in. *)

type config = { planner : bool }

val configs : config list
(** Planner on, then off. *)

val config_name : config -> string

type failure = {
  case : Gen.case;
  mode : Toss_core.Executor.mode;
  config : config;
  expected : Toss_xml.Tree.t list;  (** oracle results, canonicalized *)
  got : Toss_xml.Tree.t list;  (** executor results, canonicalized *)
  detail : string;
}

val mode_name : Toss_core.Executor.mode -> string

val canonical : Toss_xml.Tree.t list -> Toss_xml.Tree.t list
(** Sorted by {!Toss_xml.Tree.compare} — the multiset normal form
    results are compared in. *)

val check_case :
  ?fault:Toss_core.Plan.fault -> ?simjoin:bool -> Gen.case -> failure option
(** [None] when every mode × configuration agrees with the oracle; the
    first discrepancy otherwise. [fault] (default
    {!Toss_core.Plan.No_fault}) is passed to every {!Toss_core.Plan.run}.
    [simjoin] (default true) is forwarded to
    {!Toss_core.Planner.plan_join} — the CLI's [--no-simjoin] axis, which
    pins the nested-loop pairing for similarity cross-conditions instead
    of the sim-pair operator. *)
