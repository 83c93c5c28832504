(** String similarity measures (Definition 7 of the paper).

    A string similarity measure [d_s] maps two strings to a non-negative
    real with [d_s x x = 0] and [d_s x y = d_s y x]; smaller means more
    similar. A measure is {e strong} when it also satisfies the triangle
    inequality. The TOSS framework is parametric in the measure: anything
    of type {!t} can be plugged into the SEA algorithm and the [~]
    (similarTo) predicate. *)

type staged =
  | Staged : { prepare : string -> 'p; test : 'p -> 'p -> bool } -> staged
      (** The ε-predicate split in two stages: [prepare] does everything
          that depends on one string only (tokens, shape, lengths), and
          [test] decides a pair of prepared strings. A caller testing
          many pairs — the SEA ε-graph tests every pair of an ontology's
          strings — prepares each string once and reuses it. *)

type t = {
  name : string;
  strong : bool;  (** triangle inequality holds *)
  dist : string -> string -> float;
  stage : eps:float -> staged;
      (** The law: for every [eps >= 0] and every pair [(x, y)],
          [let (Staged s) = stage ~eps in s.test (s.prepare x) (s.prepare y)]
          is [dist x y <= eps] ({!within} is exactly that expression). A
          prepared value may be reused across any number of tests. *)
}

val v :
  name:string ->
  strong:bool ->
  ?within:(eps:float -> string -> string -> bool) ->
  (string -> string -> float) ->
  t
(** A measure whose staged form prepares nothing: [test] is [within]
    (a threshold test that must agree with [dist x y <= eps]) when given,
    and [dist x y <= eps] otherwise. *)

val staged :
  name:string -> strong:bool -> stage:(eps:float -> staged) -> (string -> string -> float) -> t
(** A measure with a native preparation; [stage] must obey the law on
    {!t}. *)

val dist : t -> string -> string -> float

val stage : t -> eps:float -> staged
(** The staged ε-predicate. *)

val within : t -> eps:float -> string -> string -> bool
(** [dist t x y <= eps]: prepare both strings, then test the pair. The
    executor's similarity fallback calls this once per pair; callers
    that test many pairs over a fixed set of strings use {!stage}. *)

val scale : float -> t -> t
(** Multiplies every distance by a positive factor (preserves strength).
    The staged form tests the unscaled measure against [eps /. factor],
    which is exact when [factor] is a power of two. *)

val cap : float -> t -> t
(** Clamps distances to a maximum. Capping preserves symmetry and identity
    but not, in general, the triangle inequality, so the result is marked
    non-strong. At [eps >= bound] the staged test accepts every pair
    without preparing anything. *)

val min_of : name:string -> t list -> t
(** Pointwise minimum of several measures. Not strong in general. The
    staged form prepares every component and accepts a pair as soon as
    one component does, in list order. *)

val max_of : name:string -> t list -> t
(** Pointwise maximum; strong when all components are strong. The staged
    form rejects a pair as soon as one component does. *)

val of_similarity : name:string -> (string -> string -> float) -> t
(** Wraps a similarity score in [0, 1] (1 = identical) as the distance
    [1 - sim]. Not marked strong. *)

val pp : Format.formatter -> t -> unit
