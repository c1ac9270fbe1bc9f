(* Tests for the hardened serving front end: bounded line reading,
   ordered crash-safe stream output (including a peer that vanishes
   mid-stream), concurrent TCP serving, 1000-connection churn without
   descriptor leaks, flow control instead of shedding, connection
   shedding, and graceful drain. *)

module Sv = Lambekd_service
module Server = Sv.Server
module Scheduler = Sv.Scheduler
module Registry = Sv.Registry
module Protocol = Sv.Protocol
module Session = Sv.Session

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* every test writes to peers that may be gone; EPIPE must be an error
   code, not a process death *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* --- bounded line reading -------------------------------------------------- *)

(* Feed [payload] through a pipe in deliberately awkward 37-byte chunks
   so lines straddle refill boundaries. *)
let with_pipe_reader payload f =
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let n = String.length payload in
        let off = ref 0 in
        while !off < n do
          let k = min 37 (n - !off) in
          off := !off + Unix.write_substring w payload !off k
        done;
        Unix.close w)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join writer;
      Unix.close r)
    (fun () -> f (Server.reader r))

let test_read_line_basic () =
  with_pipe_reader "a\nbb\n\nccc no newline" @@ fun rdr ->
  let next () = Server.read_line rdr ~max_bytes:1024 in
  check_bool "line a" true (next () = Server.Line "a");
  check_bool "line bb" true (next () = Server.Line "bb");
  check_bool "empty line" true (next () = Server.Line "");
  check_bool "final unterminated chunk is a line" true
    (next () = Server.Line "ccc no newline");
  check_bool "eof" true (next () = Server.Eof);
  check_bool "eof is sticky" true (next () = Server.Eof)

let test_read_line_oversized () =
  let payload =
    String.make 50 'x' ^ "\n" ^ "short\n" ^ String.make 10 'y' ^ "\n"
    ^ String.make 20 'z'
  in
  with_pipe_reader payload @@ fun rdr ->
  let next () = Server.read_line rdr ~max_bytes:10 in
  (match next () with
  | Server.Oversized n -> check_int "bytes counted, not buffered" 50 n
  | _ -> Alcotest.fail "expected oversized");
  check_bool "next line unaffected" true (next () = Server.Line "short");
  check_bool "exactly max_bytes passes" true
    (next () = Server.Line (String.make 10 'y'));
  (match next () with
  | Server.Oversized n -> check_int "oversized at eof" 20 n
  | _ -> Alcotest.fail "expected trailing oversized");
  check_bool "eof after" true (next () = Server.Eof)

let test_read_line_long_valid () =
  (* a line far larger than the reader's internal chunk still reads *)
  let big = String.make 40_000 'q' in
  with_pipe_reader (big ^ "\nend\n") @@ fun rdr ->
  check_bool "40k line reads" true
    (Server.read_line rdr ~max_bytes:65536 = Server.Line big);
  check_bool "next" true (Server.read_line rdr ~max_bytes:65536 = Server.Line "end")

(* --- stream serving -------------------------------------------------------- *)

let with_sched f =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains:2 ~queue_cap:32 ~registry:reg () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () -> f sched)

let read_all_lines fd =
  let rdr = Server.reader fd in
  let rec go acc =
    match Server.read_line rdr ~max_bytes:(1 lsl 20) with
    | Server.Line l -> go (l :: acc)
    | Server.Oversized _ -> go acc
    | Server.Eof -> List.rev acc
  in
  go []

let test_serve_stream_ordered () =
  with_sched @@ fun sched ->
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let input =
    String.concat "\n"
      (List.init 20 (fun i ->
           Fmt.str {|{"id":"r%d","grammar":"dyck","input":"%s"}|} i
             (String.concat "" (List.init (i mod 5) (fun _ -> "()")))))
    ^ "\nnot json\n\n"
  in
  write_all in_w input;
  Unix.close in_w;
  let status =
    Server.serve_stream ~max_line_bytes:1024 ~sched ~times:false in_r out_w
  in
  Unix.close out_w;
  let lines = read_all_lines out_r in
  Unix.close out_r;
  Unix.close in_r;
  check_bool "bad line makes the stream malformed" true (status = `Malformed);
  check_int "one response per non-blank line" 21 (List.length lines);
  (* responses come back in request order whatever the pool did *)
  List.iteri
    (fun i l ->
      if i < 20 then
        check_bool (Fmt.str "response %d in order" i) true
          (String.length l > 7 && String.sub l 0 7 = Fmt.str {|{"id":"|}
          && String.equal (Fmt.str {|{"id":"r%d"|} i)
               (String.sub l 0 (String.length (Fmt.str {|{"id":"r%d"|} i)))))
    lines

let test_serve_stream_peer_vanishes () =
  (* the reading peer closes before any response is written: every write
     EPIPEs, the stream goes dead, and serve_stream still returns *)
  with_sched @@ fun sched ->
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  Unix.close out_r;
  write_all in_w
    (String.concat ""
       (List.init 10 (fun i ->
            Fmt.str {|{"id":"v%d","grammar":"dyck","input":"()"}|} i ^ "\n")));
  Unix.close in_w;
  (match
     Server.serve_stream ~max_line_bytes:1024 ~sched ~times:false in_r out_w
   with
  | (_ : Server.status) -> ()
  | exception e ->
    Alcotest.failf "serve_stream raised on dead peer: %s" (Printexc.to_string e));
  Unix.close out_w;
  Unix.close in_r

(* A full queue makes the reader wait, never shed: a 2-domain pool
   behind a one-slot queue answers every line, in order. *)
let test_serve_lines_blocking () =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains:2 ~queue_cap:1 ~registry:reg () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  let n = 200 in
  let lines =
    List.init n (fun i ->
        Fmt.str {|{"id":"b%d","grammar":"dyck","input":"%s"}|} i
          (String.concat "" (List.init (i mod 7) (fun _ -> "()"))))
  in
  let out = ref [] in
  let status =
    Server.serve_lines ~sched ~times:false (Server.list_source lines)
      (Server.line_sink (fun l -> out := l :: !out))
  in
  let out = List.rev !out in
  check_bool "clean" true (status = `Clean);
  check_int "every line answered" n (List.length out);
  List.iteri
    (fun i l ->
      let prefix = Fmt.str {|{"id":"b%d",|} i in
      check_bool (Fmt.str "response %d in order" i) true
        (String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix);
      check_bool (Fmt.str "response %d not shed" i) false
        (contains l "overloaded"))
    out

(* A 0-domain scheduler answers on the reading thread (it used to queue
   with no worker to drain it), and a list source renders exactly what
   the descriptor source does, oversized lines included. *)
let test_serve_zero_domains () =
  (* a fresh registry per run, so cache fields agree *)
  let with_serial f =
    let sched = Scheduler.create ~domains:0 ~registry:(Registry.create ()) () in
    Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () ->
        f sched)
  in
  let lines =
    [ {|{"id":"a","grammar":"dyck","input":"()"}|};
      "";
      Fmt.str {|{"id":"big","grammar":"dyck","input":"%s"}|}
        (String.make 300 '(');
      {|{"op":"health"}|};
      {|{"id":"s","op":"session_open","grammar":"dyck"}|};
      {|{"op":"append","session":"s0","chunk":"()","trace":true}|};
      {|{"id":"t","grammar":"dyck","input":"(","timeout_ms":0}|} ]
  in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  write_all in_w (String.concat "\n" lines ^ "\n");
  Unix.close in_w;
  let st_fd =
    with_serial (fun sched ->
        Server.serve_stream ~max_line_bytes:256 ~sched ~times:false in_r out_w)
  in
  Unix.close out_w;
  let from_fd = read_all_lines out_r in
  Unix.close out_r;
  Unix.close in_r;
  let out = ref [] in
  let st_list =
    with_serial (fun sched ->
        Server.serve_lines ~max_line_bytes:256 ~sched ~times:false
          (Server.list_source lines)
          (Server.line_sink (fun l -> out := l :: !out)))
  in
  check_int "one response per non-blank line" 6 (List.length from_fd);
  check_bool "oversized line answered" true
    (contains (List.nth from_fd 1) "line exceeds 256-byte limit");
  check_bool "malformed status" true (st_fd = `Malformed);
  check_bool "same status" true (st_fd = st_list);
  Alcotest.(check (list string)) "list source = descriptor source" from_fd
    (List.rev !out)

(* --- the TCP front end ------------------------------------------------------ *)

type running = {
  t : Server.tcp;
  sched : Scheduler.t;
  thread : Thread.t;
  sessions : Session.t option;
}

let start_server ?max_conns ?max_line_bytes ?(use_sessions = false)
    ?(domains = 2) ?(queue_cap = 32) () =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains ~queue_cap ~registry:reg () in
  (* a shared table (same registry as the scheduler) lets sessions span
     connections, as lambekd serve wires it *)
  let sessions =
    if use_sessions then Some (Session.create ~registry:reg ()) else None
  in
  match Server.tcp_create ~port:0 () with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let thread =
      Thread.create
        (fun () ->
          Server.run ?max_conns ?max_line_bytes ?sessions ~sched ~times:false t)
        ()
    in
    { t; sched; thread; sessions }

let stop_server r =
  Server.stop r.t;
  Thread.join r.thread;
  Option.iter Session.close_all r.sessions;
  Scheduler.shutdown r.sched

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let recv_line fd =
  let rdr = Server.reader fd in
  match Server.read_line rdr ~max_bytes:(1 lsl 20) with
  | Server.Line l -> Some l
  | Server.Oversized _ | Server.Eof -> None

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_tcp_churn () =
  let r = start_server () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let port = Server.port r.t in
  (* settle: first connection compiles the grammar into the registry *)
  let warm = connect port in
  write_all warm {|{"id":"w","grammar":"dyck","input":"()"}|};
  write_all warm "\n";
  ignore (recv_line warm);
  Unix.close warm;
  let before = open_fds () in
  for i = 1 to 1000 do
    let fd = connect port in
    write_all fd (Fmt.str {|{"id":"c%d","grammar":"dyck","input":"()"}|} i ^ "\n");
    (match recv_line fd with
    | Some l ->
      check_bool (Fmt.str "conn %d answered" i) true
        (String.length l > 0 && l.[0] = '{')
    | None -> Alcotest.failf "conn %d got no response" i);
    Unix.close fd
  done;
  (* descriptor-leak gate: churn must not grow the fd table (slack for
     the handler threads of the last few connections still tearing down) *)
  let rec settle tries =
    let now = open_fds () in
    if now <= before + 8 || tries = 0 then now
    else begin
      Thread.yield ();
      Unix.sleepf 0.05;
      settle (tries - 1)
    end
  in
  let after = settle 40 in
  check_bool
    (Fmt.str "no fd leak across 1000 connections (%d -> %d)" before after)
    true
    (after <= before + 8);
  check_bool "all connections counted" true (Server.connections r.t >= 1001)

let test_tcp_shed () =
  let r = start_server ~max_conns:1 () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let port = Server.port r.t in
  let c1 = connect port in
  write_all c1 {|{"id":"h","grammar":"dyck","input":"()"}|};
  write_all c1 "\n";
  (* reading c1's response guarantees the server registered it as live *)
  check_bool "held connection answered" true (recv_line c1 <> None);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let c2 = connect port in
  (match recv_line c2 with
  | Some l ->
    check_bool "shed response is overloaded" true
      (contains ~sub:"overloaded" l)
  | None -> Alcotest.fail "shed connection got no response");
  (* and the shed connection is closed right after *)
  check_bool "shed connection closed" true (recv_line c2 = None);
  Unix.close c2;
  Unix.close c1

let test_tcp_oversized_line () =
  let r = start_server ~max_line_bytes:64 () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let fd = connect (Server.port r.t) in
  write_all fd (String.make 500 'x');
  write_all fd "\n";
  write_all fd {|{"id":"ok","grammar":"dyck","input":"()"}|};
  write_all fd "\n";
  let rdr = Server.reader fd in
  (match Server.read_line rdr ~max_bytes:4096 with
  | Server.Line l ->
    check_string "oversized line answered with bad_request"
      {|{"ok":false,"error":"bad_request","message":"line exceeds 64-byte limit"}|}
      l
  | _ -> Alcotest.fail "no response to oversized line");
  (match Server.read_line rdr ~max_bytes:4096 with
  | Server.Line l ->
    check_bool "stream continues after oversized line" true
      (String.length l > 0 && l.[0] = '{')
  | _ -> Alcotest.fail "stream died after oversized line");
  Unix.close fd

let test_tcp_abrupt_disconnect () =
  (* a client that sends work and slams the connection shut must not
     poison the server for the next client *)
  let r = start_server () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let port = Server.port r.t in
  for _ = 1 to 20 do
    let fd = connect port in
    write_all fd
      (String.concat ""
         (List.init 5 (fun i ->
              Fmt.str {|{"id":"a%d","grammar":"expr","input":"n+n","query":"parse"}|}
                i
              ^ "\n")));
    (* close without reading a single response *)
    Unix.close fd
  done;
  let fd = connect port in
  write_all fd {|{"id":"after","grammar":"dyck","input":"()"}|};
  write_all fd "\n";
  check_bool "server healthy after abrupt disconnects" true
    (recv_line fd <> None);
  Unix.close fd

(* Nagle is off on the server's side of a served connection: the accept
   loop's socket setup, applied to a real accepted socket, reads back
   TCP_NODELAY set, and the socket then serves. *)
let test_tcp_nodelay () =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let c = connect port in
  let fd, _ = Unix.accept lsock in
  Unix.close lsock;
  Server.setup_accepted fd;
  check_bool "TCP_NODELAY set on the accepted socket" true
    (Unix.getsockopt fd Unix.TCP_NODELAY);
  with_sched @@ fun sched ->
  let server =
    Thread.create
      (fun () ->
        ignore (Server.serve_stream ~sched ~times:false fd fd : Server.status))
      ()
  in
  write_all c ({|{"id":"n","grammar":"dyck","input":"()"}|} ^ "\n");
  check_bool "the socket serves" true
    (match recv_line c with
    | Some l -> contains l {|"verdict":"accept"|}
    | None -> false);
  Unix.close c;
  Thread.join server;
  Unix.close fd

(* Read [n] response lines, giving up after [timeout_s] of silence. *)
let recv_lines ?(timeout_s = 10.) fd n =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  let rdr = Server.reader fd in
  let rec go k acc =
    if k = n then List.rev acc
    else
      match Server.read_line rdr ~max_bytes:(1 lsl 20) with
      | Server.Line l -> go (k + 1) (l :: acc)
      | Server.Oversized _ | Server.Eof -> List.rev acc
  in
  go 0 []

(* Send [payload] from a thread while the caller reads: a server that
   stops reading while its queue is full must not deadlock a client
   that writes a large burst in one go. *)
let send_async fd payload = Thread.create (fun () -> write_all fd payload) ()

(* Two connections pipeline appends to one shared session.  When routing
   and queueing were two steps, connection B's ticket k+1 could enter
   the queue ahead of connection A's ticket k; the worker that claimed
   k+1 waited in [Session.exec] for a turn queued behind it, and the
   server answered nothing more.  Every op must be answered. *)
let test_tcp_shared_session_no_wedge () =
  List.iter
    (fun domains ->
      let n = 5000 in
      let r =
        start_server ~use_sessions:true ~domains ~queue_cap:(4 * n) ()
      in
      let port = Server.port r.t in
      let c0 = connect port in
      write_all c0 ({|{"op":"session_open","grammar":"dyck"}|} ^ "\n");
      check_bool "opened" true
        (match recv_line c0 with
        | Some l -> contains l {|"session":"s0"|}
        | None -> false);
      let append = {|{"op":"append","session":"s0","chunk":"()"}|} ^ "\n" in
      let burst = String.concat "" (List.init n (fun _ -> append)) in
      let conns = [ connect port; connect port ] in
      let writers = List.map (fun c -> send_async c burst) conns in
      let answered =
        List.map (fun c -> List.length (recv_lines c n)) conns
      in
      if List.exists (fun k -> k < n) answered then
        (* a wedged worker never finishes, so neither would a drain:
           fail without tearing the server down *)
        Alcotest.failf "domains=%d: wedged after %s of %d responses" domains
          (String.concat "+" (List.map string_of_int answered))
          n;
      List.iter Thread.join writers;
      write_all c0
        ({|{"op":"query","session":"s0","query":"member"}|} ^ "\n");
      check_bool "every append applied" true
        (match recv_line c0 with
        | Some l -> contains l (Fmt.str {|"len":%d|} (4 * n))
        | None -> false);
      List.iter Unix.close (c0 :: conns);
      stop_server r)
    [ 1; 2 ]

(* A pipelined burst far past the queue cap waits in the socket buffer
   and is answered in full: no [overloaded], and no session op lost. *)
let test_tcp_burst_not_shed () =
  let r = start_server ~domains:1 ~queue_cap:1 () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let stateless = 2000 and appends = 300 in
  let lines =
    List.init stateless (fun i ->
        Fmt.str {|{"id":"q%d","grammar":"dyck","input":"(())"}|} i)
    @ [ {|{"op":"session_open","grammar":"dyck"}|} ]
    @ List.init appends (fun _ ->
          {|{"op":"append","session":"s0","chunk":"()"}|})
  in
  let total = stateless + 1 + appends in
  let c = connect (Server.port r.t) in
  let writer = send_async c (String.concat "\n" lines ^ "\n") in
  let out = recv_lines c total in
  Thread.join writer;
  Unix.close c;
  check_int "one response per line" total (List.length out);
  check_bool "nothing shed" false
    (List.exists (fun l -> contains l "overloaded") out);
  check_bool "every append applied" true
    (contains (List.nth out (total - 1)) (Fmt.str {|"len":%d|} (2 * appends)))

let test_tcp_graceful_drain () =
  let r = start_server () in
  let port = Server.port r.t in
  let fd = connect port in
  write_all fd {|{"id":"d","grammar":"dyck","input":"(())"}|};
  write_all fd "\n";
  check_bool "response before drain" true (recv_line fd <> None);
  (* connection still open when the stop lands: drain must half-close
     it, flush, and let run return *)
  Server.stop r.t;
  Thread.join r.thread;
  check_bool "drained connection sees EOF" true (recv_line fd = None);
  Unix.close fd;
  Scheduler.shutdown r.sched;
  (* the listener is gone: connecting again fails *)
  check_bool "listener closed" true
    (match connect port with
    | fd ->
      Unix.close fd;
      false
    | exception Unix.Unix_error _ -> true)

(* --- the operations plane on the wire ------------------------------------- *)

let test_serve_stream_admin_and_trace () =
  with_sched @@ fun sched ->
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  write_all in_w
    (String.concat "\n"
       [ {|{"id":"h1","op":"health"}|};
         {|{"id":"m1","op":"metrics"}|};
         {|{"id":"r2","grammar":"dyck","input":"()","trace":true}|};
         {|{"id":"r3","grammar":"expr","input":"n"}|} ]
    ^ "\n");
  Unix.close in_w;
  let status =
    Server.serve_stream ~max_line_bytes:1024 ~sched ~times:false in_r out_w
  in
  Unix.close out_w;
  let lines = read_all_lines out_r in
  Unix.close out_r;
  Unix.close in_r;
  check_bool "clean stream" true (status = `Clean);
  match lines with
  | [ h; m; traced; plain ] ->
    (* admin lines answered inline; normalized, so exact bytes *)
    check_string "health inline" {|{"id":"h1","ok":true,"status":"ready"}|} h;
    check_string "metrics inline" {|{"id":"m1","ok":true,"op":"metrics"}|} m;
    (* trace ids are t<seq> over answered lines: the request is line 2 *)
    check_string "traced response echoes its trace"
      {|{"id":"r2","ok":true,"verdict":"accept","engine":"ll1","artifact":"miss","result":"miss","trace":{"id":"t2","stages":["received","dequeued","engine_start","engine_end","written"]}}|}
      traced;
    check_bool "untraced response carries no trace" true
      (not (contains plain {|"trace"|}))
  | _ -> Alcotest.failf "expected 4 responses, got %d" (List.length lines)

let test_serve_stream_slow_log () =
  with_sched @@ fun sched ->
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let mu = Mutex.create () in
  let slow_lines = ref [] in
  let slow =
    { Server.threshold_ns = 0.;
      emit =
        (fun l -> Mutex.protect mu (fun () -> slow_lines := l :: !slow_lines))
    }
  in
  write_all in_w
    ({|{"id":"s0","grammar":"dyck","input":"()"}|} ^ "\n"
    ^ {|{"id":"s1","grammar":"dyck","input":"(())","trace":true}|} ^ "\n");
  Unix.close in_w;
  ignore
    (Server.serve_stream ~max_line_bytes:1024 ~slow ~sched ~times:false in_r
       out_w
      : Server.status);
  Unix.close out_w;
  let lines = read_all_lines out_r in
  Unix.close out_r;
  Unix.close in_r;
  check_int "responses" 2 (List.length lines);
  (* the slow log gives every request an internal trace, but only the
     client-requested one is echoed on the wire *)
  check_bool "internal trace never echoed" true
    (not (contains (List.nth lines 0) {|"trace"|}));
  check_bool "requested trace still echoed" true
    (contains (List.nth lines 1) {|"trace"|});
  (* threshold 0: every request is over it *)
  check_int "one slow record per request" 2 (List.length !slow_lines);
  List.iter
    (fun l ->
      match Sv.Json.parse l with
      | Error e -> Alcotest.failf "unparseable slow record %s: %s" l e
      | Ok j ->
        check_bool "ev:slow" true
          (Option.bind (Sv.Json.mem "ev" j) Sv.Json.str = Some "slow");
        check_bool "has total_ns" true (Sv.Json.mem "total_ns" j <> None);
        check_bool "has trace id" true (Sv.Json.mem "trace" j <> None))
    !slow_lines

let http_get port path =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd (Fmt.str "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path);
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_metrics_endpoint () =
  let module M = Lambekd_telemetry.Metrics in
  M.reset ();
  M.enable ();
  Fun.protect
    ~finally:(fun () ->
      M.disable ();
      M.reset ())
  @@ fun () ->
  let h = M.histogram "test_endpoint_ns" in
  M.observe h 100.;
  M.gauge "test_endpoint_gauge" (fun () -> 7.);
  let health () =
    Protocol.health_response ~draining:false
      ~extra:[ ("queue_depth", Sv.Json.Num 0.) ]
      ()
    ^ "\n"
  in
  match Server.metrics_tcp ~port:0 ~expose:M.expose ~health () with
  | Error e -> Alcotest.fail e
  | Ok ep ->
    Fun.protect ~finally:(fun () -> Server.metrics_stop ep) @@ fun () ->
    let port = Server.metrics_port ep in
    let m = http_get port "/metrics" in
    check_bool "scrape is 200" true (contains m "200 OK");
    check_bool "prometheus content type" true
      (contains m "text/plain; version=0.0.4");
    check_bool "histogram family served" true
      (contains m "# TYPE lambekd_test_endpoint_ns histogram");
    check_bool "gauge served" true (contains m "lambekd_test_endpoint_gauge 7");
    let hh = http_get port "/health" in
    check_bool "health is 200" true (contains hh "200 OK");
    check_bool "health content type" true (contains hh "application/json");
    check_bool "health status" true (contains hh {|"status":"ready"|})

(* --- sessions on the wire --------------------------------------------------- *)

let test_serve_stream_sessions () =
  with_sched @@ fun sched ->
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  write_all in_w
    (String.concat "\n"
       [ {|{"id":"o","op":"session_open","grammar":"dyck"}|};
         {|{"id":"a1","op":"append","session":"s0","chunk":"(("}|};
         {|{"id":"e1","op":"edit","session":"s0","at":2,"del":0,"ins":"))"}|};
         {|{"id":"q1","op":"query","session":"s0","query":"parse"}|};
         {|{"id":"t1","op":"append","session":"s0","chunk":"x","timeout_ms":0}|};
         {|{"id":"u1","op":"append","session":"nope","chunk":"x"}|};
         {|{"id":"c1","op":"session_close","session":"s0"}|};
         {|{"id":"z1","op":"append","session":"s0","chunk":"x"}|} ]
    ^ "\n");
  Unix.close in_w;
  let status =
    Server.serve_stream ~max_line_bytes:4096 ~sched ~times:false in_r out_w
  in
  Unix.close out_w;
  let lines = read_all_lines out_r in
  Unix.close out_r;
  Unix.close in_r;
  (* the unknown-session rejections are the bad-line class, the zero
     budget the timeout class: malformed wins for the exit code *)
  check_bool "rejections mark the stream malformed" true (status = `Malformed);
  match lines with
  | [ o; a1; e1; q1; t1; u1; c1; z1 ] ->
    check_string "open allocates s0"
      {|{"id":"o","ok":true,"verdict":"session_opened","session":"s0","engine":"session","artifact":"miss"}|}
      o;
    check_string "append answers whole-buffer acceptance"
      {|{"id":"a1","ok":true,"verdict":"reject","len":2,"engine":"session"}|}
      a1;
    check_string "edit splices and re-answers"
      {|{"id":"e1","ok":true,"verdict":"accept","len":4,"engine":"session"}|}
      e1;
    check_bool "parse query carries a tree" true
      (contains q1 {|"verdict":"accept"|} && contains q1 {|"tree":"|});
    (* a zero budget is a deterministic timeout that mutates nothing *)
    check_string "zero budget times out on the wire"
      {|{"id":"t1","ok":false,"error":"timeout","after_ms":0}|} t1;
    check_string "unknown session rejected"
      {|{"id":"u1","ok":false,"error":"bad_request","message":"unknown session \"nope\""}|}
      u1;
    check_string "close confirms"
      {|{"id":"c1","ok":true,"verdict":"session_closed","session":"s0","engine":"session"}|}
      c1;
    check_string "closed name is unbound"
      {|{"id":"z1","ok":false,"error":"bad_request","message":"unknown session \"s0\""}|}
      z1
  | _ -> Alcotest.failf "expected 8 responses, got %d" (List.length lines)

let test_tcp_sessions_span_connections () =
  let r = start_server ~use_sessions:true () in
  Fun.protect ~finally:(fun () -> stop_server r) @@ fun () ->
  let port = Server.port r.t in
  (* connection 1 opens and feeds the session *)
  let c1 = connect port in
  write_all c1
    ({|{"id":"o","op":"session_open","grammar":"dyck"}|} ^ "\n"
    ^ {|{"id":"a","op":"append","session":"s0","chunk":"(()"}|} ^ "\n");
  (* both answers come through one reader: the first read may buffer
     the second line.  The append must be answered before conn 2's
     append is sent, or the two could be routed in either order. *)
  let rdr = Server.reader c1 in
  let next () =
    match Server.read_line rdr ~max_bytes:(1 lsl 20) with
    | Server.Line l -> Some l
    | Server.Oversized _ | Server.Eof -> None
  in
  (match next () with
  | Some l -> check_bool "opened on conn 1" true (contains l {|"session":"s0"|})
  | None -> Alcotest.fail "no open response");
  (match next () with
  | Some l -> check_bool "appended on conn 1" true (contains l {|"len":3|})
  | None -> Alcotest.fail "no append response");
  Unix.close c1;
  (* connection 2 picks the same session up: the table is shared *)
  let c2 = connect port in
  write_all c2 ({|{"id":"b","op":"append","session":"s0","chunk":")"}|} ^ "\n");
  (match recv_line c2 with
  | Some l ->
    check_bool "session survives across connections" true
      (contains l {|"verdict":"accept"|} && contains l {|"len":4|})
  | None -> Alcotest.fail "no response on conn 2");
  Unix.close c2;
  match r.sessions with
  | Some tab -> check_int "one live session at shutdown" 1 (Session.live tab)
  | None -> Alcotest.fail "server had no table"

let test_session_churn_no_fd_leak () =
  (* stream-private tables: every serve_stream call must release all
     session state (scratch bundles back to the pool, no descriptors) *)
  with_sched @@ fun sched ->
  let churn () =
    let in_r, in_w = Unix.pipe () in
    let out_r, out_w = Unix.pipe () in
    let writer =
      Thread.create
        (fun () ->
          for i = 1 to 250 do
            write_all in_w
              (Fmt.str {|{"id":"o%d","op":"session_open","grammar":"dyck"}|} i
              ^ "\n"
              ^ Fmt.str {|{"id":"a%d","op":"append","session":"s%d","chunk":"()"}|}
                  i (i - 1)
              ^ "\n"
              ^ Fmt.str {|{"id":"c%d","op":"session_close","session":"s%d"}|} i
                  (i - 1)
              ^ "\n")
          done;
          Unix.close in_w)
        ()
    in
    let answered = ref 0 in
    let drainer =
      Thread.create (fun () -> answered := List.length (read_all_lines out_r)) ()
    in
    ignore
      (Server.serve_stream ~max_line_bytes:4096 ~sched ~times:false in_r out_w
        : Server.status);
    Unix.close out_w;
    Thread.join writer;
    Thread.join drainer;
    Unix.close out_r;
    Unix.close in_r;
    check_int "every session line answered" 750 !answered
  in
  churn ();
  let before = open_fds () in
  for _ = 1 to 4 do churn () done;
  let rec settle tries =
    let now = open_fds () in
    if now <= before + 4 || tries = 0 then now
    else begin
      Thread.yield ();
      Unix.sleepf 0.05;
      settle (tries - 1)
    end
  in
  let after = settle 40 in
  check_bool
    (Fmt.str "no fd growth across 1000 session opens (%d -> %d)" before after)
    true
    (after <= before + 4)

let suite =
  [ Alcotest.test_case "read_line: chunk-straddling lines" `Quick
      test_read_line_basic;
    Alcotest.test_case "read_line: oversized consumed, not buffered" `Quick
      test_read_line_oversized;
    Alcotest.test_case "read_line: long valid line" `Quick
      test_read_line_long_valid;
    Alcotest.test_case "serve_stream: ordered responses, malformed status"
      `Quick test_serve_stream_ordered;
    Alcotest.test_case "serve_stream: survives a vanished peer" `Quick
      test_serve_stream_peer_vanishes;
    Alcotest.test_case "serve_lines: blocking admission never sheds" `Quick
      test_serve_lines_blocking;
    Alcotest.test_case "serve_stream: 0 domains answers on the reader" `Quick
      test_serve_zero_domains;
    Alcotest.test_case "tcp: 1000-connection churn, no fd leak" `Quick
      test_tcp_churn;
    Alcotest.test_case "tcp: sheds beyond max-conns" `Quick test_tcp_shed;
    Alcotest.test_case "tcp: nodelay on served sockets" `Quick
      test_tcp_nodelay;
    Alcotest.test_case "tcp: shared session never wedges" `Quick
      test_tcp_shared_session_no_wedge;
    Alcotest.test_case "tcp: burst past queue cap waits, not shed" `Quick
      test_tcp_burst_not_shed;
    Alcotest.test_case "tcp: oversized line answered and survived" `Quick
      test_tcp_oversized_line;
    Alcotest.test_case "tcp: abrupt disconnects do not poison the server"
      `Quick test_tcp_abrupt_disconnect;
    Alcotest.test_case "tcp: graceful drain flushes and exits" `Quick
      test_tcp_graceful_drain;
    Alcotest.test_case "serve_stream: admin ops inline, traces echoed" `Quick
      test_serve_stream_admin_and_trace;
    Alcotest.test_case "serve_stream: slow-request log" `Quick
      test_serve_stream_slow_log;
    Alcotest.test_case "metrics endpoint: /metrics and /health over HTTP"
      `Quick test_metrics_endpoint;
    Alcotest.test_case "serve_stream: session conversation on the wire" `Quick
      test_serve_stream_sessions;
    Alcotest.test_case "tcp: shared table spans connections" `Quick
      test_tcp_sessions_span_connections;
    Alcotest.test_case "serve_stream: 1000-session churn, no fd leak" `Quick
      test_session_churn_no_fd_leak ]
