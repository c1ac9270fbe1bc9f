(** The session table: stateful incremental-parse sessions over the
    stateless service core.

    A session owns a text buffer and a retained Earley chart
    ({!Lambekd_cfg.Earley.session}); [append]/[edit] splice the buffer
    and re-parse only the suffix whose Earley sets the edit invalidated,
    answering acceptance of the whole buffer.  Every answer is
    byte-identical to a from-scratch parse of the same buffer — the
    [paranoid] flag makes the table check that equivalence on every op
    against a pooled-scratch oracle run.

    Concurrency contract (what keeps a serial replay and a multi-domain
    replay of the same line sequence byte-identical):

    - {!route} runs on the submitting thread in line order under the
      table mutex.  It makes every stateful naming decision — session-id
      allocation (["s0"], ["s1"], ... in open order), LRU/idle eviction,
      close-unbinding, unknown-session rejection — as the op is
      queued, and issues the entry a monotonically increasing ticket.
    - {!exec} runs on any worker; it waits until the entry's turn
      reaches its ticket, so ops against one session execute in
      submission order no matter how many domains race.  Ops against
      different sessions run concurrently.  Every routed op must reach
      {!exec}, and the ops of one session must reach the workers in
      ticket order: {!Scheduler.submit_session} routes and enqueues in
      one step for exactly this reason.

    The entry's pooled scratch bundle is checked out at open
    ({!Registry.take_scratch}) and returned exactly once, by whichever
    op advances the turn past the close's ticket. *)

type t

val create :
  ?cap:int ->
  ?idle_ms:float ->
  ?max_buf:int ->
  ?paranoid:bool ->
  registry:Registry.t ->
  unit ->
  t
(** A session table.  [cap] (default 64) bounds live sessions — opening
    past it evicts the least-recently-routed session.  [idle_ms]
    (default 600000; [<= 0.] disables) evicts sessions untouched for
    that long, checked on every routed line.  [max_buf] (default 1 MiB)
    bounds a session buffer; an append/edit that would exceed it is a
    bad request and leaves the buffer unchanged.  [paranoid] re-parses
    from scratch after every op and fails the op on divergence. *)

val paranoid : t -> bool

val live : t -> int
(** Number of live sessions (for the metrics endpoint). *)

val evictions : t -> int
(** Total LRU + idle evictions since creation. *)

type routed
(** A routed session line: the target entry and its ticket (or an
    unknown-session miss), ready to queue. *)

val sreq : routed -> Protocol.session_req

val route : t -> Protocol.session_req -> routed
(** Route one line.  Call on the submitting thread, in line order —
    this is where ids are allocated, evictions happen and closes unbind
    their name.  The result must be passed to {!exec} exactly once, or
    the session's later ops deadlock. *)

val exec : ?deadline_ns:float -> routed -> Protocol.response
(** Execute a routed op (any thread; blocks until the session's earlier
    ops finish).  [deadline_ns] is the absolute budget instant as in
    {!Exec.run}; a zero or expired budget answers [timeout]
    deterministically before touching the buffer.  A deadline abort
    mid-parse answers [timeout] and leaves the retained chart invalid —
    the next op on the session recomputes from scratch. *)

val close_all : t -> unit
(** Unbind every live session and schedule its scratch return (after
    in-flight ops finish) — shutdown hygiene for the leak gates. *)
