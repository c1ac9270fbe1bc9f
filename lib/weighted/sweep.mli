(** Semiring sweeps and lazy k-best over the packed parse chart.

    [Lambekd_grammar.Chart] names every item with a dense node id and
    every local derivation choice with a labelled edge; this module runs
    any semiring over that structure — membership, counting, Viterbi
    best-derivation, inside/outside mass (cf. vanda-haskell's
    [Data.Hypergraph]).

    Chart node ids are a topological order (every tail of an edge is
    smaller than its head), so inside and outside are single array
    sweeps, forward resp. backward. *)

open Lambekd_grammar

val inside :
  (module Semiring.S with type t = 'w) ->
  weight:(Chart.label -> 'w) ->
  Chart.t ->
  'w array
(** One forward sweep: the inside weight of each node is ⊕ over its
    edges of the edge weight ⊗ the inside weights of its tails. *)

val inside_root :
  (module Semiring.S with type t = 'w) ->
  weight:(Chart.label -> 'w) ->
  Chart.t ->
  'w
(** The root's inside weight; [S.zero] when the input is rejected. *)

val outside :
  (module Semiring.S with type t = 'w) ->
  weight:(Chart.label -> 'w) ->
  inside:'w array ->
  Chart.t ->
  'w array
(** One backward sweep from [outside root = S.one]: a tail [u] of an
    edge [e] headed at [v] receives
    [outside v ⊗ weight e ⊗ Π inside (other tails of e)].
    Nodes unreachable from the root keep [S.zero]. *)

(** {1 Viterbi and lazy k-best}

    Ranked enumeration is monomorphic in the {!Semiring.Viterbi} /
    {!Semiring.Inside} carrier: weights are log-probabilities, a
    derivation's weight is the sum of its edge weights, and better
    means larger.  Ties are broken on item order — smaller edge index
    first, then lexicographically smaller child-rank vectors — never on
    float identity, so ranked output is deterministic across runs and
    domains. *)

type derivation = {
  logw : float;  (** log-probability of this derivation *)
  tree : Ptree.t;
}

val viterbi :
  weight:(Chart.label -> float) -> Chart.t -> derivation option
(** The single best derivation, or [None] on a rejecting input. *)

val kbest :
  ?poll:(unit -> unit) ->
  weight:(Chart.label -> float) ->
  k:int ->
  Chart.t ->
  derivation list
(** The [min k total] best derivations, best first, weights
    non-increasing, [k = 1] agreeing with {!viterbi}.  Lazy in the
    Huang–Chiang sense: per-node candidate heaps materialize only the
    derivations the top-[k] frontier touches, never the full set —
    [Probe] counter [kbest.derivs] reports how many were popped. *)
