(** The NDJSON request/response protocol spoken by [lambekd serve] and
    [lambekd batch].

    One request per line.  Shape:

    {v
    {"id":"r1","grammar":"dyck","input":"(())","query":"member"}
    {"id":"r2","grammar":{"start":"S","prods":[["S",[]],["S",["'a'","S","'b'"]]]},
     "input":"aabb","query":"parse","engine":"earley","timeout_ms":50}
    v}

    - [grammar]: a builtin name ({!Builtin.names}) or an inline object
      with [start] and [prods], where each production is
      [[lhs, [sym, ...]]] and a symbol is either ["'c'"] (a quoted
      terminal character) or a bare nonterminal name.
    - [query]: ["member"] (default), ["parse"], ["count"], or ["mass"]
      (inside probability of the input under the request's weight
      table).
    - [engine]: ["auto"] (default), ["ll1"], ["slr"], ["earley"],
      ["cyk"], or ["enum"].  [auto] picks the cheapest applicable table
      (LL(1) → SLR(1) → Earley, with dense-CYK taking over from Earley
      on membership queries when grammar density × input length crosses
      the measured crossover); pinning an engine whose table does not
      exist for the grammar is a bad request, as is pinning the
      recognizer-only ["cyk"] on a ["parse"] query or on a grammar whose
      binarized form exceeds the registry's nonterminal budget.
    - [weights]: an array of raw production weights, one per production
      in production order (builtin or inline), normalized per
      left-hand side by the registry; valid on ["parse"] and ["mass"]
      queries.  Omitted, a builtin's default weight table applies, or a
      uniform table when it has none.
    - [kbest]: an integer K in [1, 256]; valid on ["parse"] queries
      only.  The response carries the K best derivations under the
      weight table, best first ([{"verdict":"ranked"}]).  A weighted
      parse with no [kbest] is [kbest = 1]: the Viterbi derivation.
    - [timeout_ms]: per-request deadline; expiry yields a [timeout]
      response.

    Responses mirror the request [id] and carry the verdict, the engine
    used, both cache outcomes and the duration:

    {v
    {"id":"r1","ok":true,"verdict":"accept","engine":"ll1",
     "artifact":"miss","result":"miss","ns":81250}
    {"id":"r2","ok":false,"error":"timeout","after_ms":50}
    v}

    Requests must be decoded on the main (submitting) thread: building an
    inline grammar allocates definitions through the process-global
    declaration counter, which is not domain-safe. *)

type query = Membership | Parse | Count | Mass

type engine_choice = Auto | Ll1 | Slr | Earley | Cyk | Enum

val engine_choice_name : engine_choice -> string

type request = {
  id : string option;
  cfg : Lambekd_cfg.Cfg.t;
  gname : string;  (** builtin name, or ["inline"] *)
  input : string;
  query : query;
  engine : engine_choice;
  weights : float array option;
      (** raw per-production weights from the wire; [None] = the
          grammar's default table (builtin defaults, else uniform) *)
  kbest : int option;  (** K for ranked parse enumeration; decode
          guarantees [1 <= K <= 256] and query = parse *)
  timeout_ms : float option;
  trace : Trace.t option;
      (** present iff the request carried ["trace":true]; the front end
          assigns the id and stamps stages as the request moves *)
}

(** Admin operations answered by the front end itself, never queued:
    [{"op":"metrics"}] returns a counter/gauge/histogram snapshot,
    [{"op":"health"}] the ready/draining state — both keep working when
    the queue is full. *)
type admin_op = Op_metrics | Op_health

(** Session operations ([{"op":"session_open"|"append"|"edit"|"query"|
    "session_close"}]): stateful lines the service routes to a
    per-session entry instead of the stateless request path.

    {v
    {"op":"session_open","id":"o","grammar":"dyck"}        -> session id
    {"op":"append","session":"s0","chunk":"(()"}           -> accept/reject
    {"op":"edit","session":"s0","at":1,"del":2,"ins":")("} -> accept/reject
    {"op":"query","session":"s0","query":"parse"}          -> tree
    {"op":"session_close","session":"s0"}
    v}

    [append] concatenates [chunk] to the session buffer; [edit] splices
    [ins] over [del] bytes at byte offset [at]; both answer acceptance
    of the {e whole} buffer — the streaming accepts-as-you-go mode.
    [query] re-answers without mutating ([member], or [parse] for a
    tree).  Every answer is computed incrementally by chart-prefix
    reuse and is byte-identical to a from-scratch parse of the final
    buffer. *)
type session_op =
  | S_open of { cfg : Lambekd_cfg.Cfg.t; gname : string }
  | S_append of { chunk : string }
  | S_edit of { at : int; del : int; ins : string }
  | S_query of { q : query }  (** decode guarantees [Membership]/[Parse] *)
  | S_close

type session_req = {
  sq_id : string option;
  sq_sid : string;  (** target session id; [""] for [S_open] *)
  sq_op : session_op;
  sq_timeout_ms : float option;
  sq_trace : Trace.t option;
}

type line =
  | Admin of { aid : string option; op : admin_op }
  | Request of request
  | Session of session_req

val inline_cfg : Json.t -> (Lambekd_cfg.Cfg.t, string) result
(** Decode an inline grammar object ([{"start":...,"prods":[...]}]) —
    the same decoder the wire ["grammar"] field goes through, exposed
    for [lambekd warm]'s [--grammar FILE] grammar lists. *)

val parse_request : string -> (request, string) result
(** Decode one NDJSON line.  Resolves the grammar (builtin lookup or
    inline construction) immediately — call only from the main thread. *)

val parse_line : string -> (line, string) result
(** Like {!parse_request}, but an object carrying an ["op"] field
    decodes as an {!Admin} or {!Session} line instead of a request.
    The serve and batch front ends (and the fuzzer) speak this. *)

type verdict =
  | Accepted of string option  (** optional rendered parse tree *)
  | Rejected
  | Count of { count : int; saturated : bool }
  | Ranked of { parses : (float * string) list }
      (** (log-probability, rendered tree), best first; weights
          non-increasing in rank, ties broken deterministically on item
          order.  Renders as ["verdict":"ranked"] with a ["parses"]
          array of [{"logp":..,"tree":..}] objects ([logp] omitted when
          not finite — JSON has no [-inf]). *)
  | Mass of { log_mass : float }
      (** inside log-probability of the input; renders ["mass"] (the
          probability, possibly underflowing to 0) plus ["log_mass"]
          when finite.  [neg_infinity] = rejected, mass 0. *)
  | Session_opened of { sid : string }
      (** renders ["verdict":"session_opened"] with the ["session"] id *)
  | Session_closed of { sid : string }
  | Session_state of { len : int; accept : bool; tree : string option }
      (** the session answer after an append/edit/query: acceptance of
          the whole buffer (["verdict":"accept"|"reject"]), its byte
          length (["len"]), and a tree on [parse] queries *)

type failure =
  | Bad_request of string
  | Timeout of { after_ms : float }
  | Overloaded of { retry_after_ms : int }

type response = {
  rid : string option;
  outcome : (verdict, failure) result;
  engine_used : string;  (** engine that ran, or [""] on failure *)
  artifact_cache : [ `Hit | `Miss | `None ];
  result_cache : [ `Hit | `Miss | `None ];
  dur_ns : float;
}

val response_to_json : ?times:bool -> ?trace:Trace.t -> response -> string
(** Render one response line (no trailing newline).  [~times:false]
    omits the [ns] field so output is byte-reproducible for CI diffs and
    the serial/parallel identical-output checks.  [?trace] appends a
    ["trace"] object (rendered by {!Trace.to_json} in the same [times]
    mode) — pass it only when the request asked for one. *)

val health_response :
  ?id:string -> draining:bool -> extra:(string * Json.t) list -> unit -> string
(** The [{"op":"health"}] answer: [id] (mirrored), [ok], and a
    [status] of ["ready"] or ["draining"].  [extra] carries volatile
    detail (queue depth, live connections) — leave it empty when output
    must be byte-reproducible. *)

val metrics_response :
  ?id:string -> extra:(string * Json.t) list -> unit -> string
(** The [{"op":"metrics"}] ack.  As with {!health_response}, volatile
    snapshot fields ride in [extra] and are omitted in normalized
    output. *)

val slow_line : Trace.t -> response -> string
(** One JSON-lines record for the slow-request log: the request and
    trace ids, outcome, engine, cache outcomes, per-stage durations and
    fault-event count. *)

val bad_request : ?id:string -> string -> response
(** A failure response for a line that never became a request. *)

val timeout : ?id:string -> after_ms:float -> unit -> response
(** The deadline-expired response.  {!Exec.run} builds this when an
    engine overruns its budget; the scheduler builds it directly for a
    request whose deadline expired while still queued.  Both render
    identically (failure responses carry no engine/cache fields). *)

val overloaded : retry_after_ms:int -> unit -> response
(** The connection-level shed response: the TCP front end is at its
    [--max-conns] limit, so it answers a new connection with this line
    and closes it.  Requests themselves are never shed — a full queue
    makes the reader wait. *)
