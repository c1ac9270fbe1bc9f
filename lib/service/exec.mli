(** Request execution: engine selection, deadlines, result caching.

    One call = one request against one registry.  The engine policy for
    [Auto] picks the cheapest applicable machinery the compiled artifact
    offers — LL(1) table, else SLR(1) table, else the indexed Earley
    recognizer, with the dense bitset CYK taking over membership queries
    when grammar density × input length crosses the bench-measured
    threshold; [Count] queries always run the packed chart; [Enum] pins
    the grammar-model enumeration engines.  The engine actually used is
    recorded in the response.

    Deadlines are cooperative: the engines' [poll] hooks call a
    rate-limited clock check that raises {!Deadline} past the budget, so
    a request that exceeds [timeout_ms] aborts mid-run instead of
    occupying its domain to completion. *)

exception Deadline

val make_poll : float option -> (unit -> unit) option
(** The engines' cooperative deadline hook: a rate-limited clock check
    (one read per 256 polls) raising {!Deadline} past the absolute
    instant.  [None] deadline = no hook.  Shared with the session
    executor so incremental feeds abort like one-shot runs. *)

val tree_string : Lambekd_cfg.Earley.tree -> string
(** The wire rendering of an Earley derivation ([Ptree.to_string] of
    {!Lambekd_cfg.Earley.tree_to_ptree}) — the session layer must render
    trees byte-identically to the stateless parse path. *)

val observe_latency : engine_used:string -> float -> unit
(** Feed the request-latency histograms (overall plus the per-engine
    family, which includes ["session"]).  No-op while metrics are
    disabled. *)

val run :
  Registry.t -> ?deadline_ns:float -> Protocol.request -> Protocol.response
(** Execute one request.  [deadline_ns] is an absolute
    {!Lambekd_telemetry.Clock.now_ns} instant (the scheduler computes it
    at submission so queue time counts against the budget); when absent,
    [request.timeout_ms] counts from this call. *)
