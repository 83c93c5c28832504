(** Rule-based similarity for person names.

    The paper (Sections 1 and 4.3) motivates rule-based measures for proper
    nouns: WordNet-style lexical resources cannot relate "J. Ullman",
    "J.D. Ullman" and "Jeffrey D. Ullman". This measure encodes the domain
    rules for bibliographic author names and is calibrated to the paper's
    running examples:

    - [d "Gian Luigi Ferrari" "GianLuigi Ferrari" = 0.1] (concatenation),
    - [d "Marco Ferrari" "Mauro Ferrari" = 2.2] (near-typo given names),
    - [d "Marco Ferrari" "GianLuigi Ferrari" > 6] (different people).

    Costs: matching an initial against a full given name costs 1.25, a
    dropped middle name 0.75, a typo 1.1 per edit (up to 2 edits), a token
    concatenation split 0.1; incompatible tokens cost 6.5. The initial
    cost places fully-initialized two-given-token renderings
    ("J. D. Ullman" vs "Jeffrey David Ullman", 2.5) just beyond a
    threshold of 2 but within 3 — the gradient behind the paper's
    ε = 2 / ε = 3 recall difference. *)

val distance : string -> string -> float

type prepared
(** A name's surname (its last token), given-name tokens and spacing-free
    spelling, computed once. *)

val prepare : string -> prepared

val within_prepared : eps:float -> prepared -> prepared -> bool
(** [distance x y <= eps] on prepared names. Every distance is at most the
    mismatch cost, so [eps >= 6.5] accepts at once; surnames more than one
    character apart in length never match, so those pairs skip the
    given-name alignment. *)

val keys : eps:float -> prepared -> int list
(** Blocking keys for {!within_prepared} (the key law of
    {!Metric.staged}): the spacing-free spelling, the surname, and from
    [eps >= 1.1] (one typo) the surname's one-deletion variants when it
    has at least 4 characters; one key for the empty name. At
    [eps >= 6.5] every pair is within, and the key is {!Metric.one_key}. *)

val metric : Metric.t
(** Staged: {!prepare}, {!within_prepared} and {!keys}. *)

val compatible : threshold:float -> string -> string -> bool
(** [distance a b <= threshold]. *)
