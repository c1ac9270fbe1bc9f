(** The crash-safe NDJSON serving front end — the one loop that turns
    request lines into ordered response lines.

    {!serve_lines} reads and decodes lines on the calling thread,
    assigns trace ids, routes session ops, submits work to a
    {!Scheduler}, answers admin ops inline, and emits responses in
    request order (an internal ordered writer re-sequences worker
    completions), so output is byte-identical however many domains
    raced.  Every front end runs it:

    - [lambekd serve] over stdin/stdout or a TCP connection
      ({!serve_stream});
    - [lambekd batch] over a request file and stdout (no line cap);
    - the {!Fuzz} replays and corpus goldens over a string list,
      against a 0-domain scheduler for the serial reference.

    All of them share one flow control: when the scheduler queue is
    full the reader waits for room, so a burst waits in its socket or
    pipe buffer.  No request is refused for load.

    What makes it safe to expose:

    - {b bounded reads}: lines are read through {!read_line} with a
      byte cap; an oversized line is consumed (not buffered) and
      answered with a [bad_request] response instead of growing the
      heap without limit;
    - {b one write per released run}: a descriptor sink gets every
      response that is ready in sequence in one write; a response is
      never held back for a later one;
    - {b crash-safe writes}: a write that raises [Unix_error] or
      [Sys_error] (a vanished peer: [EPIPE], reset — the process must
      ignore [SIGPIPE]; the serving front ends do) marks the stream
      dead; reading stops and later responses are dropped;
    - {b exactly-once teardown}: a connection's descriptor is closed
      once, after its stream is flushed — no double closes racing
      descriptor reuse, no leaked descriptors across connection churn;
    - {b concurrency with a cap}: the TCP accept loop serves each
      connection on its own thread against one shared scheduler, and
      sheds connections beyond [max_conns] with an [overloaded]
      response;
    - {b graceful drain}: {!stop} (wired to [SIGINT]/[SIGTERM] by the
      CLI) stops the accept loop, half-closes the read side of every
      live connection so its stream sees EOF, waits for all in-flight
      responses to flush, and returns — the CLI then exits 0. *)

val default_max_line_bytes : int
(** 1 MiB. *)

(** {1 Bounded line reading} *)

type reader
(** A buffered line reader over a file descriptor. *)

val reader : Unix.file_descr -> reader

type line =
  | Line of string  (** one line, without the newline *)
  | Oversized of int
      (** the line exceeded the cap; it was consumed and discarded.
          The payload is the number of bytes seen. *)
  | Eof

val read_line : reader -> max_bytes:int -> line
(** Read the next line.  A read error (reset, etc.) and a final
    unterminated chunk are treated like [input_line] would: the chunk
    is a line, the error is EOF. *)

type source = max_bytes:int -> line
(** Where the loop's lines come from: the next line under a byte cap. *)

val fd_source : Unix.file_descr -> source
(** {!read_line} over a fresh {!reader}. *)

val list_source : string list -> source
(** The lines of a list, in order; a line longer than the cap is
    [Oversized], exactly as {!read_line} would report it. *)

type sink
(** Where the loop's ordered response lines go. *)

val fd_sink : Unix.file_descr -> sink
(** A descriptor: each run of responses released in sequence is written
    as newline-terminated lines with one write, before the completion
    that released it returns. *)

val line_sink : (string -> unit) -> sink
(** A callback, called once per response line (without its newline). *)

(** {1 Stream serving} *)

type status = [ `Clean | `Malformed | `Timed_out ]
(** What a finished stream saw, for the CLI's exit code: [`Malformed]
    if any line was bad (exit-code-3 class), else [`Timed_out] if any
    request timed out (exit-code-4 class). *)

type slow_log = {
  threshold_ns : float;  (** emit when received→written exceeds this *)
  emit : string -> unit;
      (** receives one JSON-lines record ({!Protocol.slow_line});
          called from worker threads, so it must be write-safe *)
}
(** The slow-request log.  When configured, every request gets a trace
    (an internal one when the client didn't ask — never echoed on the
    wire) and requests over the threshold emit a structured line. *)

val serve_lines :
  ?max_line_bytes:int ->
  ?slow:slow_log ->
  ?draining:(unit -> bool) ->
  ?live:(unit -> int) ->
  ?sessions:Session.t ->
  sched:Scheduler.t ->
  times:bool ->
  source ->
  sink ->
  status
(** Serve one NDJSON stream: read and decode on the calling thread,
    execute on the scheduler, hand the response lines to the sink in
    request order.  The sink is written under the stream lock; if it
    raises [Unix_error] or [Sys_error] the stream is dead and reading
    stops.  Returns when
    the input is exhausted and every in-flight response was written
    (or dropped).  Blank lines get no response; a line over
    [max_line_bytes] (default {!default_max_line_bytes}) gets a
    [bad_request].

    When the scheduler queue is full, the loop waits for room before it
    reads the next line.  With a 0-domain scheduler every request is
    answered on this thread before the next line is read.

    Admin lines ([{"op":"health"}], [{"op":"metrics"}]) are answered
    inline without touching the scheduler queue — [draining] and [live]
    supply the health status and connection count (defaults: never
    draining, zero connections; the TCP front end wires the real ones).
    Requests carrying ["trace":true] get a trace id [t<seq>] assigned
    here ([seq] numbers the non-blank lines from 0) and echo a
    ["trace"] object on their response.

    Session lines are routed (in line order, on this thread) through
    [sessions] as they are queued ({!Scheduler.submit_session}) and
    executed on the scheduler like requests; when no
    table is passed, the stream gets a private one whose sessions die
    with the stream.  Pass a shared table to let sessions span
    connections (the TCP front end does). *)

val serve_stream :
  ?max_line_bytes:int ->
  ?slow:slow_log ->
  ?draining:(unit -> bool) ->
  ?live:(unit -> int) ->
  ?sessions:Session.t ->
  sched:Scheduler.t ->
  times:bool ->
  Unix.file_descr ->
  Unix.file_descr ->
  status
(** {!serve_lines} over a descriptor pair ({!fd_source}, {!fd_sink}).
    Never raises on peer-caused I/O errors; does not close either
    descriptor. *)

(** {1 The TCP front end} *)

type tcp

val tcp_create :
  ?backlog:int -> port:int -> unit -> (tcp, string) result
(** Bind and listen on [127.0.0.1:port] ([port = 0] picks an ephemeral
    port — see {!port}).  Does not accept yet. *)

val port : tcp -> int

val connections : tcp -> int
(** Connections accepted so far (shed ones included). *)

val active_connections : tcp -> int
(** Connections live right now — the [lambekd_connections] gauge. *)

val stop : tcp -> unit
(** Request a graceful drain.  Async-signal-safe (sets a flag the
    accept loop polls); callable from any thread or a signal
    handler.  Idempotent. *)

val setup_accepted : Unix.file_descr -> unit
(** What {!run} sets on every accepted connection: [TCP_NODELAY] (a
    run of responses leaves at once instead of waiting for the previous
    one's acknowledgement) and a 30 s [SO_SNDTIMEO] (a client that
    stops reading cannot hold a worker forever). *)

val run :
  ?max_conns:int ->
  ?max_line_bytes:int ->
  ?slow:slow_log ->
  ?sessions:Session.t ->
  sched:Scheduler.t ->
  times:bool ->
  tcp ->
  unit
(** Run the accept loop until {!stop}: each accepted connection is
    served by {!serve_stream} on its own thread; beyond [max_conns]
    (default 64) live connections, new ones get a single [overloaded]
    response and are closed.  On stop: the listener closes, every live
    connection's read side is shut down (its stream drains and
    flushes), and [run] returns once all connections finished.  The
    caller still owns the scheduler and shuts it down afterwards. *)

(** {1 The metrics/health HTTP endpoint} *)

type metrics_endpoint
(** A one-thread HTTP/1.0 listener serving two paths: [GET /health]
    returns the [health] callback's JSON, anything else the [expose]
    callback's Prometheus text exposition.  Runs on its own thread, so
    scrapes keep answering while the main front end drains. *)

val metrics_tcp :
  ?backlog:int ->
  port:int ->
  expose:(unit -> string) ->
  health:(unit -> string) ->
  unit ->
  (metrics_endpoint, string) result
(** Bind [127.0.0.1:port] ([0] picks an ephemeral port) and start
    answering scrapes immediately. *)

val metrics_port : metrics_endpoint -> int

val metrics_stop : metrics_endpoint -> unit
(** Stop the listener and join its thread.  Idempotent. *)
