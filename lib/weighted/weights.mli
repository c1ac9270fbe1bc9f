(** Normalized PCFG weight tables.

    A weight table assigns each production of a {!Lambekd_cfg.Cfg.t} a
    conditional probability P(rhs | lhs): raw non-negative weights are
    normalized per left-hand side, stored as log-probabilities, and
    fingerprinted so a table can key result caches alongside the
    grammar digest.  Tables plug into {!Sweep} sweeps through
    {!edge_weight}: a CFG realized by [Cfg.to_grammar] tags each
    alternative with [Index.N i], the global production index, so the
    table's weight for production [i] lands exactly on that [LInj]
    chart edge and every other edge weighs [one] (log 0). *)

type t

val normalize :
  Lambekd_cfg.Cfg.t -> float array -> (t, string) result
(** [normalize cfg w] validates [w] — one weight per production, in
    production order; every weight finite and non-negative; every
    left-hand side's weights summing to a positive total — and
    normalizes each production's weight by its LHS total.  The error
    string is wire-ready (it becomes a [bad_request] message). *)

val uniform : Lambekd_cfg.Cfg.t -> t
(** Every production equally likely given its LHS. *)

val n : t -> int
(** Number of productions covered. *)

val logp : t -> int -> float
(** Normalized log-probability of production [i];
    [neg_infinity] for a zero raw weight. *)

val digest : t -> string
(** Hex fingerprint of the normalized table — stable across processes,
    distinct for distinct normalized tables; meant to be concatenated
    into artifact/result cache keys. *)

val edge_weight : t -> Lambekd_grammar.Chart.label -> float
(** Log-space weight of a hyperedge: [logp i] on [LInj (Index.N i)]
    for covered [i], [0.] (the multiplicative identity) elsewhere. *)
