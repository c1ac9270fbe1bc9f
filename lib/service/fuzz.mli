(** Seeded fuzzing and differential replay for the parse service.

    [lambekd fuzz] drives this module: generate a reproducible NDJSON
    request stream mixing valid traffic with hostile input — malformed
    JSON, truncated lines, oversized lines, unknown grammar names,
    astral-plane strings and lone surrogates — then replay it twice.
    Both replays run the serve loop itself ({!Server.serve_lines},
    timing fields off) over the lines as a list:

    - the {b serial reference}: a 0-domain {!Scheduler}, so every line
      is answered on the calling thread (exactly what
      [lambekd batch --domains 0] does), against a warm registry, with
      the fault plane disarmed;
    - the {b service replay}: a multi-domain {!Scheduler} against its
      own warm registry, optionally under a {!Fault} schedule.

    The two outputs must be byte-identical: faults may only delay,
    reorder internally, or force degraded paths — never change a
    response.  A divergence is reported with the first differing line;
    an [internal error] response (an engine raised) on either side
    fails the round even when both sides agree.

    Streams are deterministic functions of the seed, so a failing
    [(seed, requests, schedule)] triple is a complete reproducer. *)

val default_max_line_bytes : int
(** 8 KiB — small enough that the generator can cheaply produce
    oversized lines. *)

val gen_lines : seed:int -> requests:int -> string list
(** The seeded stream: [requests] lines (some deliberately blank —
    blank lines get no response, like the serve loop). *)

val reference :
  ?max_line_bytes:int -> Registry.t -> string list -> string list
(** The serial reference rendering (timing fields off): the serve loop
    over [lines] on a 0-domain scheduler — one response line per
    non-blank input line, in order.  Also the oracle the
    committed corpus goldens under [test/data/fuzz/] are generated
    from and checked against. *)

type report = {
  lines : int;  (** input lines generated *)
  responses : int;  (** response lines each side produced *)
  schedule : string option;  (** fault schedule in force, if any *)
}

val compare_replays :
  serial:string list -> service:string list -> (int, string) result
(** The differential's verdict on two renderings: [Ok n] (the response
    count) when they are identical line for line and no line is an
    [internal error] [bad_request]; otherwise [Error] naming the first
    differing line, the count mismatch, or the internal error. *)

val differential :
  ?domains:int ->
  ?max_line_bytes:int ->
  ?schedule:Fault.config * string ->
  ?store:Store.t ->
  seed:int ->
  requests:int ->
  unit ->
  (report, string) result
(** Run one generate-and-replay round.  [schedule] arms the fault
    plane for the service replay only (the string is echoed in
    reports); the plane is disarmed again before returning, whatever
    happens.  [store] arms the {e service replay only} with a
    persistent store pre-populated over every grammar in the stream, so
    the replay runs entirely over store-loaded artifacts — proving the
    store invisible against the storeless serial reference.  [Error]
    carries the {!compare_replays} failure or the exception that
    crashed a side. *)
