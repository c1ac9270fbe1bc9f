(** A multi-domain request scheduler: bounded queue, worker pool, flow
    control.

    Requests are submitted (already decoded — see {!Protocol}) with a
    completion callback; a fixed pool of OCaml domains pulls them from a
    bounded MPMC queue and runs them through {!Exec.run} against a shared
    {!Registry.t}.  Per-request deadlines are fixed at submission time,
    so time spent queued counts against the budget.  When the queue is
    full, {!submit} waits for room: the submitting reader stops reading,
    so a burst waits in its socket or pipe buffer instead of being
    refused.

    Callbacks run on worker domains.  They must be domain-safe (the
    front end funnels them through a mutex-guarded ordered writer) and
    should be quick — a slow callback stalls its worker.

    [domains = 0] runs on the caller: there are no workers and no
    queue, and every submitted job executes on the submitting thread,
    through the same path a worker takes (deadline fixed at submission,
    queue-expiry check, an exception answered as an [internal error]
    [bad_request]).  Its callback has run before [submit] returns.
    This is the serial reference [lambekd batch --domains 0] and
    {!Fuzz} compare against. *)

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

val submit : t -> Protocol.request -> (Protocol.response -> unit) -> unit
(** Enqueue, waiting for queue room while the queue is full.  With
    [domains = 0], run the job now.  Raises [Invalid_argument] after
    {!shutdown}. *)

val submit_session :
  t -> Session.t -> Protocol.session_req -> (Protocol.response -> unit) ->
  unit
(** {!submit} for a session op: {!Session.route} it through the table
    and enqueue it as one step, under the queue lock.  A session's
    tickets therefore enter the queue in ticket order even when several
    threads submit against one shared table, and a worker never waits
    in {!Session.exec} on a ticket queued behind its own.  Call on the
    submitting thread, in line order.  Queued session ops are never
    answered from the queue on deadline expiry — the session executor
    itself answers expired budgets, because only it advances the
    session's turn. *)

val shutdown : t -> unit
(** Stop accepting work, wait for the queue to drain and all in-flight
    requests to complete, then join every worker.  Idempotent. *)
