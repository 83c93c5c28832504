(** Rule-based similarity for titles and other phrases.

    Token-level alignment: identical tokens cost 0, a prefix abbreviation
    ("Eff." / "Efficient", "Mgmt." / "Management") costs 0.5, a token with
    at most two character edits costs 1.1 per edit, a dropped token costs
    3.5, and anything else costs 5.0. This captures how proceedings pages
    abbreviate the titles that bibliographies store in full — the paper's
    Example 13 joins the two sources on title similarity. Dropped tokens
    are nearly as expensive as mismatches so that a phrase never counts as
    similar to its own head noun ("web conference" vs "conference"), which
    would make isa hierarchies similarity inconsistent. *)

val distance : string -> string -> float

val skip_cost : float
(** The cost of a dropped token, 3.5. *)

type prepared
(** A phrase's tokens, computed once. *)

val prepare : string -> prepared

val within_prepared : eps:float -> prepared -> prepared -> bool
(** [distance x y <= eps] on prepared phrases. Below the dropped-token
    cost (3.5) only equal token counts can pass, and only the aligned
    diagonal is summed, stopping once it exceeds [eps]; otherwise the
    alignment aborts at the first DP row above [eps]. *)

val keys : eps:float -> prepared -> int list
(** Blocking keys for {!within_prepared} (the key law of
    {!Metric.staged}). Below the dropped-token cost, at most
    [t = ⌊eps / 1.1⌋] aligned tokens are typos, so at least one of the
    first [t + 1] positions is an equal token or an abbreviation: the
    keys are [(token count, position, first two characters)] over those
    positions, or the token count alone when it is at most [t]. At
    [eps >= 3.5] the key is {!Metric.one_key}. *)

val metric : Metric.t
(** Staged: {!prepare}, {!within_prepared} and {!keys}. *)
