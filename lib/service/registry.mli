(** The grammar registry: compile once, serve many.

    A grammar arriving at the service is compiled into an immutable
    {!artifact} — everything the per-request engines would otherwise
    recompute: the grammar-model realization, a private {!Charsets}
    pruning state warmed over the whole definition closure, the LL(1)
    and SLR(1) tables when the grammar admits them, the Earley tables
    and the binarized CYK form.  Artifacts are keyed by a structural
    digest of the grammar, so the same grammar sent inline by different
    clients (or under different builtin names) compiles once.

    With a {!Store}, the registry is a write-through compile cache (see
    {!create}): a restarted process loads each grammar on its first
    request instead of compiling it.

    Two LRU caches, both guarded by one registry mutex:
    - artifact cache: digest → compiled artifact;
    - result cache: (digest, query key, input) → rendered verdict, for
      repeated identical queries.

    Everything inside an artifact is read-only after {!compile} returns
    (the warmed [Charsets] state included: every definition body it will
    ever resolve is already cached), so artifacts are shared freely
    across scheduler domains. *)

type scratch = {
  es : Lambekd_cfg.Earley.scratch;
  ch : Lambekd_grammar.Chart.pool;
  cy : Lambekd_cfg.Cyk_dense.scratch;
}
(** One worker's reusable allocation-heavy state: Earley chart storage,
    the packed parse chart's pool and the dense-CYK bitset arena.
    Obtained only through {!with_scratch}, which guarantees exclusive
    use for the duration of the callback. *)

type scratch_pool
(** Per-artifact free list of {!scratch} bundles (mutex-guarded, capped). *)

type artifact = private {
  cfg : Lambekd_cfg.Cfg.t;
  digest : string;  (** structural digest (hex) *)
  grammar : Lambekd_grammar.Grammar.t;  (** [Cfg.to_grammar cfg] *)
  cs : Lambekd_grammar.Charsets.t;
      (** private pruning state, fully warmed at compile time *)
  ll1 : Lambekd_cfg.Ll1.table option;
  slr : Lambekd_cfg.Slr.table option;
  earley : Lambekd_cfg.Earley.compiled;
      (** the recognizer's grammar tables, compiled once per artifact *)
  cnf : Lambekd_cfg.Binarize.t option;
      (** the dense-CYK engine's binarized form; [None] when it blew the
          nonterminal/rule budget *)
  cnf_nts : int;
      (** binarized nonterminal count — on an over-budget grammar, how
          far construction got before aborting (a lower bound) *)
  cyk_nt_budget : int;  (** the budget this artifact was compiled under *)
  intern : Lambekd_grammar.Enum.intern;
      (** the grammar's interned terminal alphabet — built once here so
          every [enum] membership run compares dense class ids and can
          cut out-of-alphabet inputs before the solver starts *)
  pool : scratch_pool;
  wmu : Mutex.t;
  mutable wtables : (string * Lambekd_weighted.Weights.t) list;
      (** normalized weight-table cache, per process (never persisted);
          access through {!weights} *)
  compile_ns : float;  (** wall-clock cost of this compilation *)
}

val weights :
  artifact ->
  float array option ->
  (Lambekd_weighted.Weights.t, string) result
(** The normalized weight table for raw wire weights (one float per
    production), or the grammar's uniform table on [None] — cached on
    the artifact, keyed by the canonical rendering of the raw array
    (a warm lookup bumps the [service.weights_hit] probe).  [Error] is
    a wire-ready validation message (wrong arity, negative or
    non-finite weight, zero-mass left-hand side); errors are not
    cached.  The table's {!Lambekd_weighted.Weights.digest} is what
    keys weighted verdicts into the result cache alongside the grammar
    digest. *)

val with_scratch : artifact -> (scratch -> 'a) -> 'a
(** Check a scratch bundle out of the artifact's pool (allocating one on
    a cold pool — a warm checkout bumps the [earley.scratch_reuse]
    probe), run the callback with exclusive use of it, and check it back
    in, also on exception.  Results that alias scratch storage (Earley
    and packed charts) must not escape the callback. *)

val take_scratch : artifact -> scratch
(** Check a bundle out for the long haul — an incremental session
    retains its Earley chart between requests, so the bundle stays out
    of the pool (and counted in {!stats}'s [scratch_out]) until
    {!give_scratch} returns it at session close or eviction. *)

val give_scratch : artifact -> scratch -> unit
(** Return a bundle obtained by {!take_scratch}.  Must be called exactly
    once per checkout; the bundle is parked for reuse, or dropped beyond
    the pool cap or when its Earley scratch is laid out for more than
    {!scratch_max_positions} positions. *)

val scratch_max_positions : int
(** The largest {!Lambekd_cfg.Earley.scratch_positions} a pooled bundle
    may keep: a closed long session or a long one-shot input must not
    park its chart in the pool for good. *)

val digest_cfg : Lambekd_cfg.Cfg.t -> string
(** Hex digest of the canonical structural rendering (start symbol plus
    the production list in order). *)

val compile : ?cyk_nt_budget:int -> Lambekd_cfg.Cfg.t -> artifact
(** Compile outside any registry — what {!get} does on a miss, exposed
    for the differential tests and the cold-path bench.  [cyk_nt_budget]
    (default 512) bounds the binarized form: ε-variant expansion is
    exponential per production, so an adversarial inline grammar must
    not stall the compile lock; over budget, [cnf] is [None] and
    pinning the [cyk] engine is a resolve-time bad request. *)

type t

val create :
  ?artifact_cap:int ->
  ?result_cap:int ->
  ?cyk_nt_budget:int ->
  ?store:Store.t ->
  unit ->
  t
(** Defaults: 64 artifacts, 4096 results, 512 binarized nonterminals.
    A cap of 0 disables that cache.  With [?store], every in-memory
    artifact miss probes the persistent store before compiling
    (validated load — see {!Store}), and every compile writes its store
    entry through {!persist}.  Nothing is loaded at creation.  The
    store is invisible in responses: a load reports [`Miss] like the
    compile it replaces, and verdict bytes are identical with the store
    present, absent, corrupted or mid-eviction. *)

val persist : t -> artifact -> bool
(** Write an artifact's compile output to the store (false without
    one, or on an I/O failure) — the store's single write path: {!get}
    calls it after every compile, and [lambekd warm] calls it again to
    confirm each entry landed. *)

val get : ?trace:Trace.t -> t -> Lambekd_cfg.Cfg.t -> artifact * [ `Hit | `Miss ]
(** Fetch the artifact for a grammar, compiling on a miss.  The digest
    is computed outside the lock; compilation happens under it (the
    registry serves one compile at a time — queries against already
    compiled grammars do not wait on it beyond the cache probe).
    With [?trace], a degraded-probe fault event is counted on the trace
    and a miss records the compile cost it paid. *)

val find_result :
  ?trace:Trace.t ->
  t ->
  digest:string ->
  key:string ->
  input:string ->
  Protocol.verdict option
(** Probe the result cache.  [key] encodes query kind and engine.
    With [?trace], a corrupt-fault forced miss counts as a fault event. *)

val put_result :
  t -> digest:string -> key:string -> input:string -> Protocol.verdict -> unit

val artifact_evictions : t -> int
val result_evictions : t -> int

type stats = {
  artifact_size : int;
  artifact_cap : int;
  artifact_evictions : int;
  artifact_hits : int;
  artifact_misses : int;
  result_size : int;
  result_cap : int;
  result_evictions : int;
  result_hits : int;
  result_misses : int;
  scratch_free : int;  (** pooled scratch bundles parked across all artifacts *)
  scratch_out : int;  (** scratch bundles currently checked out *)
}
(** A point-in-time snapshot of both caches and the scratch pools (the
    persistent store reports its own: {!Store.stats}).  The
    hit/miss counters are registry-local and count since {!create}
    regardless of telemetry state (the Probe counters are process-global
    and gated); sizes are read under the registry lock, so the snapshot
    is internally consistent for the caches. *)

val stats : t -> stats

val clear : t -> unit
