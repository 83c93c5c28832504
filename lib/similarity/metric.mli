(** String similarity measures (Definition 7 of the paper).

    A string similarity measure [d_s] maps two strings to a non-negative
    real with [d_s x x = 0] and [d_s x y = d_s y x]; smaller means more
    similar. A measure is {e strong} when it also satisfies the triangle
    inequality. The TOSS framework is parametric in the measure: anything
    of type {!t} can be plugged into the SEA algorithm and the [~]
    (similarTo) predicate. *)

type staged =
  | Staged : {
      prepare : string -> 'p;
      test : 'p -> 'p -> bool;
      keys : 'p -> int list;
    }
      -> staged
      (** The ε-predicate in three stages: [prepare] does everything
          that depends on one string only (tokens, shape, lengths), [test]
          decides a pair of prepared strings, and [keys] gives a prepared
          string's blocking keys. A caller testing many pairs — the SEA
          ε-graph — prepares each string once, and tests only the pairs
          that share a key.

          {b Key law.} For every [eps] and every [p], [q]:
          [test p q] implies that [keys p] and [keys q] share a key. Keys
          are hashes: a collision only adds a candidate pair, so it never
          costs completeness. A measure with no blocking of its own emits
          {!one_key}, which makes every pair a candidate. *)

type t = {
  name : string;
  strong : bool;  (** triangle inequality holds *)
  dist : string -> string -> float;
  stage : eps:float -> staged;
      (** The law: for every [eps >= 0] and every pair [(x, y)],
          [let (Staged s) = stage ~eps in s.test (s.prepare x) (s.prepare y)]
          is [dist x y <= eps] ({!within} is exactly that expression). A
          prepared value may be reused across any number of tests, and
          [s.keys] obeys the key law of {!staged}. *)
}

val one_key : 'p -> int list
(** The same single key for every string: all pairs are candidates. *)

val tag : int -> int list -> int list
(** Moves keys into the key space of component [i], so that the keys of
    different components of a union do not meet by construction. *)

val v :
  name:string ->
  strong:bool ->
  ?within:(eps:float -> string -> string -> bool) ->
  (string -> string -> float) ->
  t
(** A measure whose staged form prepares nothing and has {!one_key}:
    [test] is [within] (a threshold test that must agree with
    [dist x y <= eps]) when given, and [dist x y <= eps] otherwise. *)

val staged :
  name:string -> strong:bool -> stage:(eps:float -> staged) -> (string -> string -> float) -> t
(** A measure with a native preparation or blocking; [stage] must obey
    the laws on {!t} and {!staged}. *)

val dist : t -> string -> string -> float

val stage : t -> eps:float -> staged
(** The staged ε-predicate. *)

val within : t -> eps:float -> string -> string -> bool
(** [dist t x y <= eps]: prepare both strings, then test the pair. The
    executor's similarity fallback calls this once per pair; callers
    that test many pairs over a fixed set of strings use {!stage}. *)

val scale : float -> t -> t
(** Multiplies every distance by a positive factor (preserves strength).
    The staged form, keys included, is the unscaled measure's at
    [eps /. factor], which is exact when [factor] is a power of two. *)

val cap : float -> t -> t
(** Clamps distances to a maximum. Capping preserves symmetry and identity
    but not, in general, the triangle inequality, so the result is marked
    non-strong. At [eps >= bound] the staged test accepts every pair
    without preparing anything, under {!one_key}. *)

val min_of : name:string -> t list -> t
(** Pointwise minimum of several measures. Not strong in general. The
    staged form prepares every component and accepts a pair as soon as
    one component does, in list order. Its keys are the union of the
    components' keys, each {!tag}ged by its component. *)

val max_of : name:string -> t list -> t
(** Pointwise maximum; strong when all components are strong. The staged
    form rejects a pair as soon as one component does. A pair within the
    maximum is within the first component, so its keys are the first
    component's. *)

val of_similarity : name:string -> (string -> string -> float) -> t
(** Wraps a similarity score in [0, 1] (1 = identical) as the distance
    [1 - sim]. Not marked strong. *)

val pp : Format.formatter -> t -> unit
