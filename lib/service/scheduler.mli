(** A multi-domain request scheduler: bounded queue, worker pool,
    overload shedding.

    Requests are submitted (already decoded — see {!Protocol}) with a
    completion callback; a fixed pool of OCaml domains pulls them from a
    bounded MPMC queue and runs them through {!Exec.run} against a shared
    {!Registry.t}.  Per-request deadlines are fixed at submission time,
    so time spent queued counts against the budget.  When the queue is
    full, {!try_submit} sheds the request instead of blocking — the
    caller turns that into an [overloaded] response with a retry hint.

    Callbacks run on worker domains.  They must be domain-safe (the
    front end funnels them through a mutex-guarded ordered writer) and
    should be quick — a slow callback stalls its worker.

    [domains = 0] runs on the caller: there are no workers and no
    queue, and every submitted job executes on the submitting thread,
    through the same path a worker takes (deadline fixed at submission,
    queue-expiry check, an exception answered as an [internal error]
    [bad_request]).  Its callback has run before [submit]/[try_submit]
    returns.  This is the serial reference [lambekd batch --domains 0]
    and {!Fuzz} compare against. *)

type t

val create :
  ?domains:int -> ?queue_cap:int -> registry:Registry.t -> unit -> t
(** Start the pool.  Defaults: [domains] =
    [max 1 (Domain.recommended_domain_count () - 1)], [queue_cap] = 64.
    [domains = 0] starts no workers: jobs run on the submitting
    thread.  Raises [Invalid_argument] on a negative [domains]. *)

val domains : t -> int
val registry : t -> Registry.t

val depth : t -> int
(** Jobs currently queued (a point-in-time reading — the queue-depth
    gauge and health detail, not a synchronization primitive). *)

val try_submit :
  t -> Protocol.request -> (Protocol.response -> unit) -> (unit, int) result
(** Enqueue, or shed: [Error retry_after_ms] when the queue is full (the
    hint scales with queue depth).  With [domains = 0], run the job now
    and return [Ok ()].  Raises [Invalid_argument] after {!shutdown}. *)

val submit : t -> Protocol.request -> (Protocol.response -> unit) -> unit
(** Blocking enqueue — waits for queue space instead of shedding.  The
    serve loop uses {!try_submit}; batch and the fuzz replays use this. *)

val try_submit_session :
  t -> Session.routed -> (Protocol.response -> unit) -> (unit, int) result
(** {!try_submit} for a routed session op.  On [Error] the caller must
    {!Session.cancel} the routed op (the scheduler does not), or the
    session's later ops deadlock behind the dead ticket.  Queued session
    ops are never answered from the queue on deadline expiry — the
    session executor itself answers expired budgets, because only it
    advances the session's turn. *)

val submit_session :
  t -> Session.routed -> (Protocol.response -> unit) -> unit
(** Blocking enqueue of a routed session op. *)

val shutdown : t -> unit
(** Stop accepting work, wait for the queue to drain and all in-flight
    requests to complete, then join every worker.  Idempotent. *)
