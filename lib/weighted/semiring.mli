(** First-class semirings for weighted parsing.

    A derivation in the packed parse chart is scored by multiplying the
    weights of the edges it uses; a node (and ultimately the whole
    input) is scored by summing over the derivations below it.  Running
    that sweep over different semirings answers different questions with
    the same chart:

    - {!Boolean} — membership: is there any derivation at all?
    - {!Counting} — exact ambiguity counts with the saturating integer
      arithmetic of [Chart.count];
    - {!Viterbi} — the best (maximum-probability) derivation, in
      log-space: ⊕ is [max], ⊗ is [+.];
    - {!Inside} — total derivation mass (inside probability), in
      log-space: ⊕ is log-sum-exp, ⊗ is [+.].

    Laws (checked by the test suite on random elements): ⊕ is
    associative and commutative with identity [zero]; ⊗ is associative
    with identity [one]; ⊗ distributes over ⊕; [zero] annihilates ⊗.
    {!Counting} satisfies them in the saturating sense — products and
    sums clamp at [max_int] — which is exactly the arithmetic the
    ambiguity counter has always used. *)

module type S = sig
  type t

  val zero : t
  (** Identity of ⊕; the weight of an impossible derivation. *)

  val one : t
  (** Identity of ⊗; the weight of the empty product. *)

  val plus : t -> t -> t
  val times : t -> t -> t
  val equal : t -> t -> bool
  val to_string : t -> string
end

module Boolean : S with type t = bool

module Counting : S with type t = int
(** Saturating non-negative integers: [plus] and [times] clamp at
    [max_int], matching [Lambekd_grammar.Chart.count]. *)

module Viterbi : S with type t = float
(** Max-times over probabilities, represented in log-space:
    [zero = neg_infinity], [one = 0.], [plus = Float.max],
    [times = (+.)]. *)

module Inside : S with type t = float
(** Sum-times over probabilities, represented in log-space:
    [plus = log_add] (log-sum-exp, the numerically stable form),
    [times = (+.)]. *)

val log_add : float -> float -> float
(** [log_add a b = log (exp a +. exp b)] computed without overflow:
    [max + log1p (exp (min - max))].  Total on [neg_infinity]. *)

val saturated : int -> bool
(** Did a {!Counting} value clamp at [max_int]? *)
