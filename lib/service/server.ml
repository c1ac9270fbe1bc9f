module Probe = Lambekd_telemetry.Probe
module Metrics = Lambekd_telemetry.Metrics
module Histogram = Lambekd_telemetry.Histogram

let c_connections = Probe.counter "server.connections"
let c_slow = Probe.counter "server.slow_requests"
let c_shed_conns = Probe.counter "server.shed_connections"
let c_oversized = Probe.counter "server.oversized_lines"
let c_write_errors = Probe.counter "server.write_errors"

let default_max_line_bytes = 1 lsl 20

(* --- low-level writes ------------------------------------------------------ *)

(* Loop [single_write]; with SIGPIPE ignored a vanished peer surfaces as
   a [Unix_error] the caller confines to the connection.  EINTR retries;
   everything else (EPIPE, ECONNRESET, a send-timeout EAGAIN) raises. *)
let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.single_write_substring fd s !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- bounded line reading -------------------------------------------------- *)

type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable lo : int;
  mutable hi : int;  (** unread bytes are [chunk.[lo..hi)] *)
  mutable at_eof : bool;
}

let reader fd =
  { fd; chunk = Bytes.create 8192; lo = 0; hi = 0; at_eof = false }

let refill r =
  if r.at_eof then false
  else begin
    let n =
      let rec go () =
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) ->
          (* a peer reset mid-read is EOF for this stream, not a crash *)
          0
        | exception Sys_error _ -> 0
      in
      go ()
    in
    if n = 0 then begin
      r.at_eof <- true;
      false
    end
    else begin
      r.lo <- 0;
      r.hi <- n;
      true
    end
  end

type line = Line of string | Oversized of int | Eof

let read_line r ~max_bytes =
  let b = Buffer.create 128 in
  (* once over the cap we stop buffering and only count: an adversarial
     line costs its read bandwidth, never its length in memory *)
  let over = ref 0 in
  let rec go () =
    if r.lo >= r.hi && not (refill r) then
      if !over > 0 then Oversized !over
      else if Buffer.length b = 0 then Eof
      else Line (Buffer.contents b)
    else begin
      let i = ref r.lo in
      while !i < r.hi && Bytes.get r.chunk !i <> '\n' do
        incr i
      done;
      let seg = !i - r.lo in
      if !over > 0 then over := !over + seg
      else if Buffer.length b + seg > max_bytes then begin
        over := Buffer.length b + seg;
        Buffer.clear b
      end
      else Buffer.add_subbytes b r.chunk r.lo seg;
      if !i < r.hi then begin
        r.lo <- !i + 1;
        if !over > 0 then Oversized !over else Line (Buffer.contents b)
      end
      else begin
        r.lo <- r.hi;
        go ()
      end
    end
  in
  go ()

(* --- line sources ----------------------------------------------------------- *)

type source = max_bytes:int -> line

let fd_source fd =
  let r = reader fd in
  fun ~max_bytes -> read_line r ~max_bytes

(* the same cap as [read_line]: a line longer than [max_bytes] is
   [Oversized], so a replayed list and a piped file answer alike *)
let list_source lines =
  let rest = ref lines in
  fun ~max_bytes ->
    match !rest with
    | [] -> Eof
    | l :: tl ->
      rest := tl;
      let n = String.length l in
      if n > max_bytes then Oversized n else Line l

(* --- ordered, crash-safe stream output ------------------------------------- *)

type sink = Fd of Unix.file_descr | Lines of (string -> unit)

let fd_sink fd = Fd fd
let line_sink f = Lines f

(* Workers complete out of submission order; responses are buffered and
   released in order.  A write failure marks the stream dead: later
   responses are sequenced and dropped, so accounting (and thus drain)
   still completes even though the peer is gone. *)
type stream = {
  mu : Mutex.t;
  flushed : Condition.t;  (** signalled whenever [next] advances *)
  pending : (int, string) Hashtbl.t;
  mutable next : int;
  mutable dead : bool;
  sink : sink;  (** written under [mu], in sequence order *)
  out : Buffer.t;  (** an [Fd] sink's released run, newline-terminated *)
}

let stream sink =
  { mu = Mutex.create ();
    flushed = Condition.create ();
    pending = Hashtbl.create 16;
    next = 0;
    dead = false;
    sink;
    out = Buffer.create 4096 }

let write_failed st =
  Probe.bump c_write_errors;
  st.dead <- true

let deliver st l =
  match st.sink with
  | Fd _ ->
    Buffer.add_string st.out l;
    Buffer.add_char st.out '\n'
  | Lines f -> (
    match f l with
    | () -> ()
    | exception (Unix.Unix_error _ | Sys_error _) -> write_failed st)

let flush st =
  match st.sink with
  | Lines _ -> ()
  | Fd fd ->
    if Buffer.length st.out > 0 then begin
      match write_all fd (Buffer.contents st.out) with
      | () -> ()
      | exception (Unix.Unix_error _ | Sys_error _) -> write_failed st
    end;
    (* back to the initial 4 KiB: a connection does not keep the
       largest run it ever wrote *)
    Buffer.reset st.out

(* Release the run of responses that are ready in sequence and write it
   with one [write_all].  A response is written before this returns,
   together with the later ones already waiting behind it; it is never
   held back for one that is not ready yet. *)
let stream_emit st seq line =
  Mutex.protect st.mu (fun () ->
      Hashtbl.replace st.pending seq line;
      let first = st.next in
      let rec release () =
        match Hashtbl.find_opt st.pending st.next with
        | None -> ()
        | Some l ->
          Hashtbl.remove st.pending st.next;
          if not st.dead then deliver st l;
          st.next <- st.next + 1;
          release ()
      in
      release ();
      if st.next > first then begin
        flush st;
        Condition.broadcast st.flushed
      end)

let stream_dead st = Mutex.protect st.mu (fun () -> st.dead)

(* --- stream serving --------------------------------------------------------- *)

type status = [ `Clean | `Malformed | `Timed_out ]

type slow_log = {
  threshold_ns : float;
  emit : string -> unit;
      (** called from worker threads — must be write-safe (the CLI wraps
          a mutex-guarded stderr writer) *)
}

(* Volatile detail for [{"op":"metrics"}] answers: the wire snapshot
   counterpart of the Prometheus exposition.  Only rendered under
   [~times:true] — normalized output must stay byte-reproducible. *)
let metrics_extra () =
  let counters =
    List.map
      (fun (n, v) -> (n, Json.Num (float_of_int v)))
      (Probe.counters ())
  in
  let gauges = List.map (fun (n, v) -> (n, Json.Num v)) (Metrics.gauges ()) in
  let hists =
    List.map
      (fun (n, h) ->
        ( n,
          Json.Obj
            [ ("count", Json.Num (float_of_int (Histogram.count h)));
              ("p50", Json.Num (Histogram.quantile h 0.5));
              ("p90", Json.Num (Histogram.quantile h 0.9));
              ("p99", Json.Num (Histogram.quantile h 0.99)) ] ))
      (Metrics.histograms ())
  in
  [ ("counters", Json.Obj counters);
    ("gauges", Json.Obj gauges);
    ("histograms", Json.Obj hists) ]

let serve_lines ?(max_line_bytes = default_max_line_bytes) ?slow
    ?(draining = fun () -> false) ?(live = fun () -> 0) ?sessions ~sched
    ~times (next_line : source) sink : status =
  (* session lines need a table; a caller that passes none gets a
     stream-private one (closed with the stream), callers that share one
     across connections own its lifecycle *)
  let owned_sessions, stab =
    match sessions with
    | Some tab -> (false, tab)
    | None -> (true, Session.create ~registry:(Scheduler.registry sched) ())
  in
  let st = stream sink in
  let malformed = Atomic.make false in
  let timed_out = Atomic.make false in
  (* [tr = Some (trace, echo)]: the request carries a trace — stamp
     [written] at render time, emit a slow-log line past the threshold,
     and echo the trace on the wire iff the client asked for it
     ([echo = false] marks a slow-log-only internal trace) *)
  let respond ?tr seq (r : Protocol.response) =
    (match r.outcome with
    | Error (Protocol.Bad_request _) -> Atomic.set malformed true
    | Error (Protocol.Timeout _) -> Atomic.set timed_out true
    | Error (Protocol.Overloaded _) | Ok _ -> ());
    let line =
      match tr with
      | None -> Protocol.response_to_json ~times r
      | Some (trace, echo) ->
        Trace.stamp_written trace;
        (match slow with
        | Some sl
          when trace.Trace.written_ns -. trace.Trace.received_ns
               >= sl.threshold_ns ->
          Probe.bump c_slow;
          sl.emit (Protocol.slow_line trace r)
        | _ -> ());
        Protocol.response_to_json ~times
          ?trace:(if echo then Some trace else None)
          r
    in
    stream_emit st seq line
  in
  (* the front end owns a traced line's id ([t<seq>]) and received
     stamp; with a slow log, untraced lines get an internal trace *)
  let trace_of s trace =
    let tr =
      match trace with
      | Some t -> Some (t, true)
      | None -> if slow <> None then Some (Trace.create (), false) else None
    in
    Option.iter
      (fun (t, _) ->
        Trace.set_id t (Fmt.str "t%d" s);
        Trace.stamp_received t)
      tr;
    tr
  in
  let internal = function Some (t, false) -> Some t | _ -> None in
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let answer_admin s aid op =
    let line =
      match op with
      | Protocol.Op_health ->
        let extra =
          if times then
            [ ("queue_depth", Json.Num (float_of_int (Scheduler.depth sched)));
              ("domains", Json.Num (float_of_int (Scheduler.domains sched)));
              ("connections", Json.Num (float_of_int (live ()))) ]
          else []
        in
        Protocol.health_response ?id:aid ~draining:(draining ()) ~extra ()
      | Protocol.Op_metrics ->
        let extra = if times then metrics_extra () else [] in
        Protocol.metrics_response ?id:aid ~extra ()
    in
    stream_emit st s line
  in
  let rec loop () =
    (* a dead peer cannot receive anything we would compute: stop
       reading instead of burning the pool on a vanished client *)
    if stream_dead st then ()
    else
      match next_line ~max_bytes:max_line_bytes with
      | Eof -> ()
      | Oversized _ ->
        Probe.bump c_oversized;
        respond (next_seq ())
          (Protocol.bad_request
             (Fmt.str "line exceeds %d-byte limit" max_line_bytes));
        loop ()
      | Line l ->
        if String.trim l <> "" then begin
          let s = next_seq () in
          match Protocol.parse_line l with
          | Error msg -> respond s (Protocol.bad_request msg)
          | Ok (Protocol.Admin { aid; op }) ->
            (* admin ops are answered here, never queued: health and
               metrics keep working when the scheduler queue is full *)
            answer_admin s aid op
          | Ok (Protocol.Request req) -> (
            let tr = trace_of s req.Protocol.trace in
            let req =
              match internal tr with
              | Some t -> { req with Protocol.trace = Some t }
              | None -> req
            in
            Scheduler.submit sched req (respond ?tr s))
          | Ok (Protocol.Session sq) -> (
            let tr = trace_of s sq.Protocol.sq_trace in
            let sq =
              match internal tr with
              | Some t -> { sq with Protocol.sq_trace = Some t }
              | None -> sq
            in
            (* routing happens inside the submit, on the reading thread in
               line order: session ids, evictions and close-unbinding are
               decided as the op is queued (see {!Session.route} and
               {!Scheduler.submit_session}) *)
            Scheduler.submit_session sched stab sq (respond ?tr s))
        end;
        loop ()
  in
  loop ();
  (* wait until every sequenced response was written (or dropped): the
     stream's view of "drained" *)
  let total = !seq in
  Mutex.lock st.mu;
  while st.next < total do
    Condition.wait st.flushed st.mu
  done;
  Mutex.unlock st.mu;
  (* every op of a stream-private table has executed by now (its
     response was sequenced above), so closing releases the scratches *)
  if owned_sessions then Session.close_all stab;
  if Atomic.get malformed then `Malformed
  else if Atomic.get timed_out then `Timed_out
  else `Clean

let serve_stream ?max_line_bytes ?slow ?draining ?live ?sessions ~sched ~times
    fd_in fd_out =
  serve_lines ?max_line_bytes ?slow ?draining ?live ?sessions ~sched ~times
    (fd_source fd_in) (fd_sink fd_out)

(* --- the TCP front end ------------------------------------------------------ *)

type tcp = {
  sock : Unix.file_descr;
  tcp_port : int;
  stopping : bool Atomic.t;
  tmu : Mutex.t;
  conn_done : Condition.t;
  active : (Unix.file_descr, unit) Hashtbl.t;
  accepted : int Atomic.t;
}

let tcp_create ?(backlog = 64) ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock backlog
  with
  | () ->
    let tcp_port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    Ok
      { sock;
        tcp_port;
        stopping = Atomic.make false;
        tmu = Mutex.create ();
        conn_done = Condition.create ();
        active = Hashtbl.create 16;
        accepted = Atomic.make 0 }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error (Fmt.str "cannot listen on 127.0.0.1:%d: %s" port
             (Unix.error_message e))

let port t = t.tcp_port
let connections t = Atomic.get t.accepted

let active_connections t =
  Mutex.protect t.tmu (fun () -> Hashtbl.length t.active)

let stop t = Atomic.set t.stopping true

(* A client that stops reading must not wedge a worker forever: writes
   give up after 30s and the connection is marked dead.  Nagle is off:
   every write is a run of whole responses, and holding a small one back
   until the previous one is acknowledged (the client's ACK rides on its
   next request) stretches a pipelined client's latency to its request
   inter-arrival time. *)
let setup_accepted fd =
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30. with
  | Unix.Unix_error _ -> ());
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let handle_connection t ?slow ?sessions ~max_line_bytes ~sched ~times fd =
  let draining () = Atomic.get t.stopping in
  let live () = active_connections t in
  (try
     ignore
       (serve_stream ~max_line_bytes ?slow ~draining ~live ?sessions ~sched
          ~times fd fd)
   with _ -> ());
  (* remove from the active set BEFORE closing: once closed, the kernel
     may reuse the descriptor number, and the drain path must never
     shut down a stranger's descriptor *)
  Mutex.protect t.tmu (fun () -> Hashtbl.remove t.active fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.protect t.tmu (fun () -> Condition.broadcast t.conn_done)

let run ?(max_conns = 64) ?(max_line_bytes = default_max_line_bytes) ?slow
    ?sessions ~sched ~times t =
  while not (Atomic.get t.stopping) do
    (* poll-accept: a quarter-second tick bounds stop latency without
       signal-delivery trickery, and EINTR (a signal did arrive) just
       re-checks the flag *)
    match Unix.select [ t.sock ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.sock with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
        ->
        ()
      | fd, _ ->
        Atomic.incr t.accepted;
        setup_accepted fd;
        let live =
          Mutex.protect t.tmu (fun () -> Hashtbl.length t.active)
        in
        if live >= max_conns then begin
          Probe.bump c_shed_conns;
          (try
             write_all fd
               (Protocol.response_to_json ~times
                  (Protocol.overloaded ~retry_after_ms:250 ())
               ^ "\n")
           with Unix.Unix_error _ | Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          Probe.bump c_connections;
          Mutex.protect t.tmu (fun () -> Hashtbl.replace t.active fd ());
          ignore
            (Thread.create
               (fun () ->
                 handle_connection t ?slow ?sessions ~max_line_bytes ~sched
                   ~times fd)
               ())
        end)
  done;
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* graceful drain: EOF every live reader (half-close), then wait for
     each connection to flush its in-flight responses and finish *)
  Mutex.protect t.tmu (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.active);
  Mutex.lock t.tmu;
  while Hashtbl.length t.active > 0 do
    Condition.wait t.conn_done t.tmu
  done;
  Mutex.unlock t.tmu

(* --- the metrics/health HTTP endpoint --------------------------------------- *)

(* A deliberately tiny HTTP/1.0 server: one thread, poll-accept like the
   main loop, one request per connection.  Enough for a Prometheus
   scraper or a curl; emphatically not a web server. *)
type metrics_endpoint = {
  msock : Unix.file_descr;
  mport : int;
  mstop : bool Atomic.t;
  mutable mthread : Thread.t option;
}

let http_reply ~content_type body =
  Fmt.str
    "HTTP/1.0 200 OK\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    content_type (String.length body) body

let metrics_conn ~expose ~health fd =
  let rdr = reader fd in
  let req_line =
    match read_line rdr ~max_bytes:8192 with Line l -> l | _ -> ""
  in
  (* consume the header block so closing our side never resets the
     socket before the client read the reply *)
  let rec skip n =
    if n < 100 then
      match read_line rdr ~max_bytes:8192 with
      | Line "" | Line "\r" | Eof -> ()
      | Line _ | Oversized _ -> skip (n + 1)
  in
  skip 0;
  let is_health =
    String.length req_line >= 11 && String.sub req_line 0 11 = "GET /health"
  in
  let reply =
    if is_health then http_reply ~content_type:"application/json" (health ())
    else
      http_reply ~content_type:"text/plain; version=0.0.4" (expose ())
  in
  (try write_all fd reply with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

let metrics_tcp ?(backlog = 16) ~port ~expose ~health () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock backlog
  with
  | () ->
    let mport =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let t =
      { msock = sock; mport; mstop = Atomic.make false; mthread = None }
    in
    let accept_loop () =
      while not (Atomic.get t.mstop) do
        match Unix.select [ sock ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept sock with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10. with
            | Unix.Unix_error _ -> ());
            (try metrics_conn ~expose ~health fd with _ -> ()))
      done;
      try Unix.close sock with Unix.Unix_error _ -> ()
    in
    t.mthread <- Some (Thread.create accept_loop ());
    Ok t
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error
      (Fmt.str "cannot listen on 127.0.0.1:%d: %s" port (Unix.error_message e))

let metrics_port t = t.mport

let metrics_stop t =
  Atomic.set t.mstop true;
  Option.iter Thread.join t.mthread;
  t.mthread <- None
