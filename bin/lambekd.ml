(* The lambekd command-line tool: verified parsing demonstrators.

   Subcommands:
     regex  — compile a regular expression through the Thompson →
              determinize pipeline (Corollary 4.12) and parse an input
     dyck   — parse balanced parentheses (Theorem 4.13)
     expr   — parse and evaluate an arithmetic expression (Theorem 4.14)
     reify  — decide membership in a Turing machine's language
              (Construction 4.15)
     check  — type check a surface-syntax (.lkd) file
     serve  — NDJSON parse service over stdio or TCP (grammar registry +
              multi-domain scheduler, concurrent connections, graceful
              drain on SIGINT/SIGTERM)
     batch  — run an NDJSON request file through the serve loop
     fuzz   — seeded differential fuzzing of the service against the
              serial reference, optionally under fault schedules *)

module G = Lambekd_grammar
module P = G.Ptree
module Rs = Lambekd_regex.Regex_syntax
module Pl = Lambekd_parsing.Pipeline
module Dyck = Lambekd_cfg.Dyck
module Expr = Lambekd_cfg.Expr
module M = Lambekd_turing.Machine
module Reify = Lambekd_turing.Reify
module Elab = Lambekd_surface.Elab
module T = Lambekd_telemetry
module Sv = Lambekd_service
open Cmdliner

let setup_logs verbose =
  (* install the Fmt style renderer so debug logging and the telemetry
     tables are colored consistently (and styling is dropped on pipes) *)
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

(* --- global flags: logging + telemetry ------------------------------------- *)

type common = {
  stats : bool;
  trace_json : string option;
}

let common_term =
  let verbose =
    let doc = "Enable debug logging." in
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
  in
  let stats =
    let doc =
      "Print telemetry to stderr: per-stage timings (hierarchical spans), \
       state/table counts, and the aggregate counter table."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let trace_json =
    let doc =
      "Append telemetry events to $(docv) as JSON lines (one object per \
       span/point event, plus a final counter snapshot)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE" ~doc)
  in
  let make verbose stats trace_json =
    setup_logs verbose;
    { stats; trace_json }
  in
  Term.(const make $ verbose $ stats $ trace_json)

(* Install the sinks requested by [--stats] / [--trace-json] around a
   subcommand body, and tear them down (flushing the counter snapshot)
   afterwards. *)
let with_telemetry c f =
  match Option.map open_out c.trace_json with
  | exception Sys_error msg ->
    Fmt.epr "lambekd: cannot open trace file: %s@." msg;
    2
  | oc ->
  let sinks =
    (if c.stats then [ T.Sink.pretty Fmt.stderr ] else [])
    @ (match oc with Some oc -> [ T.Sink.json_lines oc ] | None -> [])
  in
  match sinks with
  | [] -> f ()
  | sinks ->
    T.Probe.reset ();
    T.Probe.enable ~sink:(T.Sink.tee sinks) ();
    Fun.protect
      ~finally:(fun () ->
        T.Probe.flush ();
        T.Probe.disable ();
        Option.iter close_out oc)
      f

let print_tree label tree =
  Fmt.pr "%s:@.  %a@." label P.pp tree

(* Argument terms shared by the word-at-a-time subcommands (previously
   copy-pasted into each body). *)
let inputs_arg = Arg.(value & pos_all string [] & info [] ~docv:"INPUT")

let show_tree_arg =
  Arg.(value & flag & info [ "t"; "tree" ] ~doc:"Print parse trees.")

(* --- regex ----------------------------------------------------------------- *)

let regex_cmd =
  let run common pattern inputs show_tree =
    with_telemetry common @@ fun () ->
    match Rs.parse pattern with
    | Error e ->
      Fmt.epr "%a@." Rs.pp_error e;
      1
    | Ok r ->
      let alphabet =
        List.sort_uniq Char.compare
          (Lambekd_regex.Regex.chars r
          @ List.concat_map
              (fun w -> List.init (String.length w) (String.get w))
              inputs)
      in
      let t = Pl.compile ~alphabet r in
      Logs.info (fun m ->
          m "compiled %s: NFA %d states, DFA %d states" pattern
            (Pl.nfa_states t) (Pl.dfa_states t));
      List.iter
        (fun w ->
          match Pl.parse t w with
          | Ok tree ->
            Fmt.pr "%S: accepted@." w;
            if show_tree then print_tree "parse tree" tree
          | Error trace ->
            Fmt.pr "%S: rejected@." w;
            if show_tree then print_tree "rejecting trace" trace)
        inputs;
      0
  in
  let pattern =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX")
  in
  let inputs = Arg.(value & pos_right 0 string [] & info [] ~docv:"INPUT") in
  let show_tree =
    Arg.(value & flag & info [ "t"; "tree" ] ~doc:"Print parse trees.")
  in
  Cmd.v
    (Cmd.info "regex"
       ~doc:
         "Parse inputs with a verified regular-expression parser \
          (Corollary 4.12).")
    Term.(const run $ common_term $ pattern $ inputs $ show_tree)

(* --- dyck ------------------------------------------------------------------- *)

let dyck_cmd =
  let run common inputs show_tree =
    with_telemetry common @@ fun () ->
    List.iter
      (fun w ->
        match Dyck.parse w with
        | Ok d ->
          Fmt.pr "%S: balanced@." w;
          if show_tree then print_tree "Dyck parse" d
        | Error trace ->
          Fmt.pr "%S: not balanced@." w;
          if show_tree then print_tree "rejecting trace" trace)
      inputs;
    0
  in
  Cmd.v
    (Cmd.info "dyck"
       ~doc:"Parse balanced parentheses with the counter automaton \
             (Theorem 4.13).")
    Term.(const run $ common_term $ inputs_arg $ show_tree_arg)

(* --- expr ------------------------------------------------------------------- *)

let expr_cmd =
  let run common inputs show_tree =
    with_telemetry common @@ fun () ->
    List.iter
      (fun w ->
        match Expr.parse w with
        | Ok e ->
          Fmt.pr "%S: value %d@." w (Expr.eval e);
          if show_tree then print_tree "Exp parse" e
        | Error trace ->
          Fmt.pr "%S: not an expression@." w;
          if show_tree then print_tree "rejecting trace" trace)
      inputs;
    0
  in
  Cmd.v
    (Cmd.info "expr"
       ~doc:
         "Parse arithmetic expressions over {(,),+,n} with the lookahead \
          automaton (Theorem 4.14); each n counts 1.")
    Term.(const run $ common_term $ inputs_arg $ show_tree_arg)

(* --- reify ------------------------------------------------------------------- *)

let reify_cmd =
  let run common machine inputs =
    with_telemetry common @@ fun () ->
    let m =
      match machine with
      | "anbncn" -> M.anbncn
      | "unary_add" -> M.unary_add
      | other ->
        Fmt.epr "unknown machine %s (try anbncn or unary_add)@." other;
        exit 1
    in
    let g = Reify.of_machine m in
    List.iter
      (fun w ->
        let verdict = if G.Enum.accepts g w then "in" else "not in" in
        Fmt.pr "%S: %s L(%s) (%d steps)@." w verdict machine (M.steps m w))
      inputs;
    0
  in
  let machine =
    Arg.(
      value
      & opt string "anbncn"
      & info [ "m"; "machine" ] ~doc:"Machine: anbncn or unary_add.")
  in
  Cmd.v
    (Cmd.info "reify"
       ~doc:
         "Decide membership in a Turing machine's language via the reified \
          grammar (Construction 4.15).")
    Term.(const run $ common_term $ machine $ inputs_arg)

(* --- forest ------------------------------------------------------------------ *)

(* Count/inspect parses on the packed parse chart: exact counts and
   first parses on grammars whose tree sets are astronomically large. *)
let forest_cmd =
  let run common gname max_trees inputs =
    with_telemetry common @@ fun () ->
    let grammar =
      match gname with
      | "dyck" -> Ok Dyck.grammar
      | "expr" -> Ok Expr.exp
      | "ss" ->
        (* the maximally ambiguous S → SS | a: Catalan-many parses of aⁿ *)
        Ok
          (G.Grammar.fix "S" (fun self ->
               G.Grammar.alt2
                 (G.Grammar.seq self self)
                 (G.Grammar.chr 'a')))
      | other -> (
        match String.index_opt other ':' with
        | Some 2 when String.length other > 3 && String.sub other 0 2 = "re"
          -> (
          let pattern = String.sub other 3 (String.length other - 3) in
          match Rs.parse pattern with
          | Ok r -> Ok (Lambekd_regex.Regex.to_grammar r)
          | Error e -> Error (Fmt.str "%a" Rs.pp_error e))
        | _ ->
          Error
            (Fmt.str "unknown grammar %s (try dyck, expr, ss or re:PATTERN)"
               other))
    in
    match grammar with
    | Error msg ->
      Fmt.epr "lambekd: %s@." msg;
      1
    | Ok g ->
      List.iter
        (fun w ->
          let h = G.Chart.build g w in
          let c = G.Chart.count h in
          let verdict =
            if not (G.Chart.accepts h) then "rejected"
            else if G.Chart.is_saturated c then
              Fmt.str "at least %d parses" c
            else if c = 1 then "unambiguous (1 parse)"
            else Fmt.str "ambiguous (%d parses)" c
          in
          Fmt.pr "%S: %s [chart: %d nodes, %d edges]@." w verdict
            (G.Chart.nodes h) (G.Chart.edges h);
          if max_trees > 0 then
            Seq.iteri
              (fun i t -> print_tree (Fmt.str "parse %d" (i + 1)) t)
              (G.Chart.enumerate ~max_trees h)
          else
            Option.iter (print_tree "first parse") (G.Chart.first_parse h))
        inputs;
      0
  in
  let gname =
    Arg.(
      value
      & opt string "dyck"
      & info [ "g"; "grammar" ]
          ~doc:"Grammar: dyck, expr, ss (S → SS | a), or re:PATTERN.")
  in
  let max_trees =
    Arg.(
      value
      & opt int 0
      & info [ "max-trees" ] ~docv:"N"
          ~doc:
            "Unpack and print up to $(docv) parse trees from the chart \
             (0: print only the first parse).")
  in
  Cmd.v
    (Cmd.info "forest"
       ~doc:
         "Count and inspect parses via the packed parse chart (the parse \
          forest) — exact ambiguity counts without materializing the tree \
          set.")
    Term.(const run $ common_term $ gname $ max_trees $ inputs_arg)

(* --- ambiguity --------------------------------------------------------------- *)

let ambiguity_cmd =
  let run common pattern =
    with_telemetry common @@ fun () ->
    match Rs.parse pattern with
    | Error e ->
      Fmt.epr "%a@." Rs.pp_error e;
      1
    | Ok r ->
      let th = Lambekd_automata.Thompson.compile r in
      (match
         Lambekd_automata.Nfa_ambiguity.ambiguous_word
           th.Lambekd_automata.Thompson.nfa
       with
       | Some w ->
         Fmt.pr
           "%s is AMBIGUOUS: %S has more than one parse (Construction 4.10 \
            gives only a weak equivalence here)@."
           pattern w
       | None ->
         Fmt.pr
           "%s is unambiguous: every word has exactly one Thompson trace@."
           pattern);
      0
  in
  let pattern =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX")
  in
  Cmd.v
    (Cmd.info "ambiguity"
       ~doc:
         "Decide whether a regular expression (via its Thompson NFA traces) \
          is ambiguous, with a witness word.")
    Term.(const run $ common_term $ pattern)

(* --- check ------------------------------------------------------------------- *)

let check_cmd =
  let run common file =
    with_telemetry common @@ fun () ->
    let source =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Elab.run_string source with
    | Ok (_, outcomes) ->
      List.iter
        (fun outcome ->
          match outcome with
          | Elab.Type_declared name -> Fmt.pr "type %s declared@." name
          | Elab.Def_checked name -> Fmt.pr "def %s checked ✓@." name
          | Elab.Check_passed -> Fmt.pr "check passed ✓@.")
        outcomes;
      0
    | Error e ->
      Fmt.epr "%a@." Elab.pp_error e;
      1
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.lkd")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Type check a Lambek^D surface-syntax file.")
    Term.(const run $ common_term $ file)

(* --- serve / batch: the parse service ----------------------------------------- *)

(* Distinct failure exit codes, documented in --help via [service_exits]:
   cmdliner reserves 123-125, so low codes are free. *)
let exit_malformed = 3
let exit_timeout = 4

let service_exits =
  Cmd.Exit.defaults
  @ [ Cmd.Exit.info ~doc:"on malformed request lines (bad JSON, unknown \
                          grammar/query/engine, invalid inline grammar)."
        exit_malformed;
      Cmd.Exit.info ~doc:"when every request line was well-formed but at \
                          least one exceeded its time budget." exit_timeout ]

let status_exit : Sv.Server.status -> int = function
  | `Clean -> 0
  | `Malformed -> exit_malformed
  | `Timed_out -> exit_timeout

(* Arm the fault plane from LAMBEKD_FAULTS (a no-op when unset), or
   refuse to start on a malformed schedule — a typo must not silently
   run a production server with faults half-armed. *)
let with_faults f =
  match Sv.Fault.install_from_env () with
  | Error msg ->
    Fmt.epr "lambekd: %s@." msg;
    2
  | Ok armed ->
    if armed then
      Logs.warn (fun m ->
          m "fault injection ARMED via LAMBEKD_FAULTS (%s)"
            (Option.value ~default:"?" (Sys.getenv_opt "LAMBEKD_FAULTS")));
    Fun.protect ~finally:Sv.Fault.clear f

(* --- the persistent artifact store (serve/batch/warm/fuzz/grammars) ---------- *)

let store_term =
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~env:(Cmd.Env.info Sv.Store.env_var)
          ~doc:
            "Persistent on-disk artifact store: every compiled grammar is \
             written (crash-safely) to $(docv), and a later process \
             serves each grammar's first request by loading its entry \
             instead of recompiling — cold start ≈ warm start.  The \
             store is invisible in responses: verdict bytes are \
             identical with it present, absent, corrupted or \
             mid-eviction.  Entries are validated (format version, \
             build fingerprint, checksum, structural digest) and any \
             failure falls back to a fresh compile.")
  in
  let max_entries =
    Arg.(
      value
      & opt int 512
      & info [ "store-max-entries" ] ~docv:"N"
          ~doc:
            "Store eviction cap by file count: past it the \
             least-recently-used entries are deleted after each write.")
  in
  let max_bytes =
    Arg.(
      value
      & opt int (256 * 1024 * 1024)
      & info [ "store-max-bytes" ] ~docv:"BYTES"
          ~doc:"Store eviction cap by total payload bytes on disk.")
  in
  Term.(
    const (fun dir max_entries max_bytes -> (dir, max_entries, max_bytes))
    $ dir $ max_entries $ max_bytes)

(* Open the store named by --store / LAMBEKD_STORE, or refuse to start:
   a service pointed at an unusable root (a regular file, an uncreatable
   or unwritable directory) must fail fast with exit 2, not run silently
   storeless. *)
let open_store (dir, max_entries, max_bytes) =
  match dir with
  | None -> Ok None
  | Some dir ->
    Result.map Option.some (Sv.Store.open_root ~max_entries ~max_bytes dir)

let store_gauges st =
  let gauge name f =
    T.Metrics.gauge name (fun () ->
        float_of_int (f (Sv.Store.stats st : Sv.Store.stats)))
  in
  gauge "lambekd_store_entries" (fun s -> s.s_entries);
  gauge "lambekd_store_bytes" (fun s -> s.s_bytes);
  gauge "lambekd_store_hits" (fun s -> s.s_hits);
  gauge "lambekd_store_misses" (fun s -> s.s_misses);
  gauge "lambekd_store_writes" (fun s -> s.s_writes);
  gauge "lambekd_store_invalid" (fun s -> s.s_invalid);
  gauge "lambekd_store_evictions" (fun s -> s.s_evictions)

(* --- flags shared by serve and batch --------------------------------------- *)

type service_opts = {
  domains : int option;
  queue_cap : int;
  artifact_cap : int;
  result_cap : int;
  times : bool;
}

(* a negative pool size is a usage error, reported like any bad flag *)
let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Fmt.str "invalid value '%s', expected a non-negative integer" s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let service_term =
  let domains =
    Arg.(
      value
      & opt (some nonneg_int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains in the scheduler pool (default: the runtime's \
             recommended domain count minus one, at least 1).  0 runs \
             every request on the calling thread, in line order: the \
             serial reference any pooled run's output is byte-compared \
             against.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on queued requests.  When the queue is full, the reader \
             waits for room before it reads the next line, so a burst \
             waits in the socket, pipe or file instead of being refused.")
  in
  let artifact_cap =
    Arg.(
      value
      & opt int 64
      & info [ "artifact-cache" ] ~docv:"N"
          ~doc:"Compiled-grammar LRU capacity (0 disables).")
  in
  let result_cap =
    Arg.(
      value
      & opt int 4096
      & info [ "result-cache" ] ~docv:"N"
          ~doc:"Query-result LRU capacity (0 disables).")
  in
  let no_times =
    Arg.(
      value & flag
      & info [ "no-times" ]
          ~doc:
            "Omit the $(i,ns) duration field and the volatile admin detail \
             from responses, making output byte-reproducible (used by the \
             CI smoke diff).")
  in
  Term.(
    const (fun domains queue_cap artifact_cap result_cap no_times ->
        { domains; queue_cap; artifact_cap; result_cap; times = not no_times })
    $ domains $ queue_cap $ artifact_cap $ result_cap $ no_times)

(* The scheduler both front ends serve from, over a registry that is
   store-backed when a store is open. *)
let start_service o store =
  let registry =
    Sv.Registry.create ~artifact_cap:o.artifact_cap ~result_cap:o.result_cap
      ?store ()
  in
  Sv.Scheduler.create ?domains:o.domains ~queue_cap:o.queue_cap ~registry ()

let serve_cmd =
  let run common opts tcp max_conns max_line_bytes metrics_tcp slow_ms
      paranoid session_cap store =
    with_telemetry common @@ fun () ->
    with_faults @@ fun () ->
    match open_store store with
    | Error msg ->
      Fmt.epr "lambekd: --store: %s@." msg;
      2
    | Ok store ->
    (* a vanished peer must surface as EPIPE on the write, not kill the
       process *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let sched = start_service opts store in
    let registry = Sv.Scheduler.registry sched in
    let times = opts.times in
    (* one session table shared by every connection: a session opened on
       one TCP connection can be appended to from another *)
    let sessions = Sv.Session.create ~cap:session_cap ~paranoid ~registry () in
    (* the operations plane is always on while serving: counters and
       latency histograms cost one atomic op per event, and the wire
       metrics/health ops should never answer empty.  [--stats] /
       [--trace-json] sinks, if any, were installed above — enabling
       here keeps them *)
    T.Metrics.enable ();
    if not (T.Probe.enabled ()) then T.Probe.enable ();
    let stats () = Sv.Registry.stats registry in
    T.Metrics.gauge "lambekd_queue_depth" (fun () ->
        float_of_int (Sv.Scheduler.depth sched));
    T.Metrics.gauge "lambekd_artifact_cache_size" (fun () ->
        float_of_int (stats ()).Sv.Registry.artifact_size);
    T.Metrics.gauge "lambekd_result_cache_size" (fun () ->
        float_of_int (stats ()).Sv.Registry.result_size);
    T.Metrics.gauge "lambekd_scratch_in_use" (fun () ->
        float_of_int (stats ()).Sv.Registry.scratch_out);
    T.Metrics.gauge "lambekd_scratch_pooled" (fun () ->
        float_of_int (stats ()).Sv.Registry.scratch_free);
    T.Metrics.gauge "lambekd_sessions" (fun () ->
        float_of_int (Sv.Session.live sessions));
    Option.iter store_gauges store;
    (* the slow-request log: JSON lines on stderr, one writer mutex so
       worker threads never interleave bytes *)
    let slow =
      Option.map
        (fun ms ->
          let mu = Mutex.create () in
          { Sv.Server.threshold_ns = ms *. 1e6;
            emit =
              (fun line ->
                Mutex.protect mu (fun () ->
                    output_string stderr (line ^ "\n");
                    flush stderr)) })
        slow_ms
    in
    (* drain visibility for the HTTP /health path: flipped by the signal
       handler just before the accept loop is told to stop *)
    let drain_flag = Atomic.make false in
    let health_json () =
      Sv.Protocol.health_response ~draining:(Atomic.get drain_flag)
        ~extra:
          [ ("queue_depth",
             Sv.Json.Num (float_of_int (Sv.Scheduler.depth sched)));
            ("domains",
             Sv.Json.Num (float_of_int (Sv.Scheduler.domains sched))) ]
        ()
      ^ "\n"
    in
    let endpoint =
      match metrics_tcp with
      | None -> Ok None
      | Some mport ->
        Result.map Option.some
          (Sv.Server.metrics_tcp ~port:mport
             ~expose:(fun () -> T.Metrics.expose ())
             ~health:health_json ())
    in
    match endpoint with
    | Error msg ->
      Fmt.epr "lambekd: %s@." msg;
      Sv.Scheduler.shutdown sched;
      2
    | Ok endpoint ->
      Option.iter
        (fun e ->
          Logs.app (fun m ->
              m "lambekd: metrics on http://127.0.0.1:%d/metrics"
                (Sv.Server.metrics_port e)))
        endpoint;
      Fun.protect
        ~finally:(fun () ->
          Sv.Session.close_all sessions;
          Sv.Scheduler.shutdown sched;
          Option.iter Sv.Server.metrics_stop endpoint)
      @@ fun () ->
      (match tcp with
      | None ->
        status_exit
          (Sv.Server.serve_stream ~max_line_bytes ?slow ~sessions ~sched
             ~times Unix.stdin Unix.stdout)
      | Some port -> (
        match Sv.Server.tcp_create ~port () with
        | Error msg ->
          Fmt.epr "lambekd: %s@." msg;
          2
        | Ok t ->
          T.Metrics.gauge "lambekd_connections" (fun () ->
              float_of_int (Sv.Server.active_connections t));
          (* graceful drain: stop accepting, flush in-flight responses,
             exit 0 — so an orchestrator's TERM is not data loss *)
          List.iter
            (fun s ->
              Sys.set_signal s
                (Sys.Signal_handle
                   (fun _ ->
                     Atomic.set drain_flag true;
                     Sv.Server.stop t)))
            [ Sys.sigint; Sys.sigterm ];
          Logs.app (fun m ->
              m "lambekd: serving on 127.0.0.1:%d" (Sv.Server.port t));
          Sv.Server.run ~max_conns ~max_line_bytes ?slow ~sessions ~sched
            ~times t;
          Logs.app (fun m ->
              m "lambekd: drained after %d connections"
                (Sv.Server.connections t));
          0))
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on 127.0.0.1:$(docv) instead of stdio (0 picks an \
             ephemeral port); clients speak the same NDJSON, each \
             connection served concurrently against the shared \
             scheduler.  SIGINT/SIGTERM drain gracefully: in-flight \
             responses are flushed, then the process exits 0.")
  in
  let max_conns =
    Arg.(
      value
      & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Concurrent TCP connection cap; beyond it new connections \
             get one $(i,overloaded) response and are closed.")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int Sv.Server.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES"
          ~doc:
            "Per-line read limit.  An oversized line is consumed (never \
             buffered) and answered with a $(i,bad_request) response.")
  in
  let metrics_tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-tcp" ] ~docv:"PORT"
          ~doc:
            "Serve a Prometheus text exposition on \
             http://127.0.0.1:$(docv)/metrics and a JSON liveness report \
             on /health (0 picks an ephemeral port).  Runs on its own \
             thread, so scrapes keep answering while the main front end \
             drains.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log requests whose received-to-written latency exceeds \
             $(docv) milliseconds as JSON lines on stderr, with the \
             per-stage breakdown (queue, engine, compile) and fault \
             events from the request's trace.")
  in
  let paranoid =
    Arg.(
      value & flag
      & info [ "paranoid" ]
          ~doc:
            "Cross-check every incremental session answer against a \
             from-scratch re-parse of the whole buffer; a divergence \
             fails the op with a $(i,bad_request) naming it.  A \
             correctness harness, not a production mode: every session \
             op pays a full parse.")
  in
  let session_cap =
    Arg.(
      value
      & opt int 64
      & info [ "session-cap" ] ~docv:"N"
          ~doc:
            "Live incremental-session cap; opening past it evicts the \
             least-recently-used session (its id stops resolving).")
  in
  Cmd.v
    (Cmd.info "serve" ~exits:service_exits
       ~doc:
         "Parse service: read NDJSON requests from stdin (or a TCP \
          socket), answer each on a pool of worker domains against a \
          shared compiled-grammar registry.  Responses are emitted in \
          request order.  See lib/service/protocol.mli for the wire \
          format.")
    Term.(
      const run $ common_term $ service_term $ tcp $ max_conns
      $ max_line_bytes $ metrics_tcp $ slow_ms $ paranoid $ session_cap
      $ store_term)

let batch_cmd =
  let run common opts file store =
    with_telemetry common @@ fun () ->
    match open_store store with
    | Error msg ->
      Fmt.epr "lambekd: --store: %s@." msg;
      2
    | Ok store -> (
      match Unix.openfile file [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "lambekd: %s: %s@." file (Unix.error_message e);
        1
      | fd ->
        let sched = start_service opts store in
        Fun.protect
          ~finally:(fun () ->
            Sv.Scheduler.shutdown sched;
            Unix.close fd)
        @@ fun () ->
        (* the serve loop over the file; no line is too long *)
        status_exit
          (Sv.Server.serve_lines ~max_line_bytes:max_int ~sched
             ~times:opts.times (Sv.Server.fd_source fd)
             (Sv.Server.fd_sink Unix.stdout)))
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ndjson")
  in
  Cmd.v
    (Cmd.info "batch" ~exits:service_exits
       ~doc:
         "Run a file of NDJSON requests through the serve loop and print \
          one response line per request, in order.  Unlike $(b,serve), \
          lines have no length cap.")
    Term.(const run $ common_term $ service_term $ file $ store_term)

(* Corpus mode: replay every committed .ndjson case through the serial
   reference and diff (or rewrite) its .expected golden. *)
let fuzz_corpus ~write dir =
  match Sys.readdir dir with
  | exception Sys_error msg ->
    Fmt.epr "lambekd: %s@." msg;
    2
  | entries ->
    let cases =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".ndjson")
      |> List.sort String.compare
    in
    let read_lines path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    let failures =
      List.fold_left
        (fun failures case ->
          let golden_path =
            Filename.concat dir (Filename.chop_suffix case ".ndjson" ^ ".expected")
          in
          let lines = read_lines (Filename.concat dir case) in
          let reg = Sv.Registry.create ~result_cap:0 () in
          let got = Sv.Fuzz.reference reg lines in
          if write then begin
            let oc = open_out_bin golden_path in
            List.iter (fun l -> output_string oc (l ^ "\n")) got;
            close_out oc;
            Fmt.pr "wrote %s (%d responses)@." golden_path (List.length got);
            failures
          end
          else
            let want =
              match read_lines golden_path with
              | lines -> lines
              | exception Sys_error _ -> []
            in
            if got = want then begin
              Fmt.pr "corpus ok: %s (%d responses)@." case (List.length got);
              failures
            end
            else begin
              Fmt.epr "corpus FAILED: %s (run with --write-goldens to \
                       regenerate after an intended change)@." case;
              failures + 1
            end)
        0 cases
    in
    if cases = [] then begin
      Fmt.epr "lambekd: no .ndjson cases in %s@." dir;
      2
    end
    else if failures = 0 then 0
    else 1

let fuzz_cmd =
  let run common seed requests domains max_line_bytes faults corpus
      write_goldens store =
    with_telemetry common @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match corpus with
    | Some dir -> fuzz_corpus ~write:write_goldens dir
    | None -> (
    match open_store store with
    | Error msg ->
      Fmt.epr "lambekd: --store: %s@." msg;
      2
    | Ok store ->
    let parsed =
      List.map
        (fun s ->
          match Sv.Fault.parse s with
          | Ok cfg -> Ok (cfg, s)
          | Error e -> Error (s, e))
        faults
    in
    match
      List.find_map (function Error se -> Some se | Ok _ -> None) parsed
    with
    | Some (s, e) ->
      Fmt.epr "lambekd: --faults %S: %s@." s e;
      2
    | None ->
      let schedules = List.filter_map Result.to_option parsed in
      (* always one clean round; with --store, a store-armed round (the
         service replay runs over store-loaded artifacts against the
         storeless serial reference); then one round per fault schedule *)
      let rounds =
        ((None : (Sv.Fault.config * string) option), None)
        :: (match store with
           | None -> []
           | Some st -> [ (None, Some st) ])
        @ List.map (fun s -> (Some s, None)) schedules
      in
      let failures =
        List.fold_left
          (fun failures (schedule, st) ->
            let label =
              match (schedule, st) with
              | None, None -> "no faults"
              | None, Some _ -> "store-armed"
              | Some (_, s), _ -> Fmt.str "faults %s" s
            in
            match
              Sv.Fuzz.differential ?domains ~max_line_bytes ?schedule
                ?store:st ~seed ~requests ()
            with
            | Ok r ->
              Fmt.pr "fuzz ok: seed %d, %d lines, %d responses, %s@." seed
                r.Sv.Fuzz.lines r.Sv.Fuzz.responses label;
              failures
            | Error msg ->
              Fmt.epr "fuzz FAILED (seed %d, %d requests, %s):@.%s@." seed
                requests label msg;
              failures + 1)
          0 rounds
      in
      if failures = 0 then 0 else 1)
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Stream seed.  A failing (seed, requests, faults) triple is a \
             complete reproducer.")
  in
  let requests =
    Arg.(
      value & opt int 500
      & info [ "requests" ] ~docv:"N" ~doc:"Lines to generate per round.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for the service replay (at least 1).")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int Sv.Fuzz.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"BYTES"
          ~doc:"Per-line limit both replays enforce.")
  in
  let faults =
    Arg.(
      value
      & opt_all string []
      & info [ "faults" ] ~docv:"SCHEDULE"
          ~doc:
            "A fault schedule (LAMBEKD_FAULTS syntax, e.g. \
             $(i,seed=7;registry.get:delay:0.3:5;exec.run:fail:0.2)) to \
             replay under, in addition to the always-run clean round.  \
             Repeatable.")
  in
  let corpus =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Instead of generating a stream, replay every $(i,*.ndjson) \
             case in $(docv) through the serial reference and diff it \
             against its $(i,*.expected) golden.")
  in
  let write_goldens =
    Arg.(
      value & flag
      & info [ "write-goldens" ]
          ~doc:"With --corpus: rewrite the goldens instead of diffing.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:service_exits
       ~doc:
         "Differential fuzzing: generate a seeded NDJSON stream mixing \
          valid, malformed, truncated, oversized and astral-plane lines; \
          replay it through the serial reference and the multi-domain \
          service (optionally under fault schedules); fail unless both \
          outputs are byte-identical.")
    Term.(
      const run $ common_term $ seed $ requests $ domains $ max_line_bytes
      $ faults $ corpus $ write_goldens $ store_term)

(* --- warm: precompile into the store ------------------------------------------ *)

let warm_cmd =
  let run common store grammar_files =
    with_telemetry common @@ fun () ->
    match open_store store with
    | Error msg ->
      Fmt.epr "lambekd: --store: %s@." msg;
      2
    | Ok None ->
      Fmt.epr "lambekd: warm needs a store (--store DIR or LAMBEKD_STORE)@.";
      2
    | Ok (Some st) ->
      let reg = Sv.Registry.create ~store:st () in
      let failed = ref 0 in
      let malformed = ref false in
      (* one grammar: compile or load it (a compile writes through to
         the store), then persist once more so a failed write surfaces
         here instead of being swallowed by the request path *)
      let warm_one name cfg =
        let t0 = Unix.gettimeofday () in
        let a, outcome = Sv.Registry.get reg cfg in
        if not (Sv.Registry.persist reg a) then begin
          incr failed;
          Fmt.epr "lambekd: %s: store write failed@." name
        end
        else
          (* a "miss" here means the registry went to the store or the
             compiler; which one is invisible by design — the wall time
             tells the operator which happened *)
          Fmt.pr "warmed %-16s %s  %8.2f ms  (%s)@." name
            (String.sub a.Sv.Registry.digest 0 12)
            ((Unix.gettimeofday () -. t0) *. 1e3)
            (match outcome with `Hit -> "cached" | `Miss -> "ready")
      in
      List.iter
        (fun name ->
          warm_one name (Option.get (Sv.Builtin.find name)))
        Sv.Builtin.names;
      (* --grammar FILE: one inline grammar object per line, the same
         {"start":...,"prods":[...]} shape the wire grammar field takes *)
      List.iter
        (fun file ->
          match open_in file with
          | exception Sys_error msg ->
            Fmt.epr "lambekd: %s@." msg;
            incr failed
          | ic ->
            let lines =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () ->
                  let rec go acc =
                    match input_line ic with
                    | l -> go (l :: acc)
                    | exception End_of_file -> List.rev acc
                  in
                  go [])
            in
            List.iteri
              (fun i line ->
                if String.trim line <> "" then
                  let cfg =
                    Result.bind (Sv.Json.parse line) Sv.Protocol.inline_cfg
                  in
                  match cfg with
                  | Error msg ->
                    malformed := true;
                    Fmt.epr "lambekd: %s:%d: %s@." file (i + 1) msg
                  | Ok cfg ->
                    warm_one (Fmt.str "%s:%d" (Filename.basename file) (i + 1))
                      cfg)
              lines)
        grammar_files;
      let s = Sv.Store.stats st in
      Fmt.pr "store %s: %d entries, %d bytes@." (Sv.Store.root st)
        s.Sv.Store.s_entries s.Sv.Store.s_bytes;
      if !malformed then exit_malformed else if !failed > 0 then 1 else 0
  in
  let grammar_files =
    Arg.(
      value
      & opt_all string []
      & info [ "grammar" ] ~docv:"FILE"
          ~doc:
            "Also warm every inline grammar in $(docv) (one \
             $(i,{\"start\":...,\"prods\":[...]}) object per line, the \
             wire format's inline shape).  Repeatable.")
  in
  Cmd.v
    (Cmd.info "warm" ~exits:service_exits
       ~doc:
         "Precompile grammars into the persistent artifact store: every \
          builtin (plus any $(b,--grammar) file's inline grammars) is \
          compiled and written to the store (weight tables are not \
          stored: each process normalizes its own) — so a later \
          $(b,serve) or $(b,batch) against the same store loads each \
          grammar on its first request instead of compiling it.  Safe \
          to run while a server is live: writes are atomic and \
          last-writer-wins.")
    Term.(const run $ common_term $ store_term $ grammar_files)

let grammars_cmd =
  let run cache_stats store =
    match open_store store with
    | Error msg ->
      Fmt.epr "lambekd: --store: %s@." msg;
      2
    | Ok store ->
    if not cache_stats then begin
      List.iter
        (fun name ->
          Fmt.pr "%-12s %s%s@." name
            (Option.value ~default:"" (Sv.Builtin.describe name))
            (match Sv.Builtin.default_weights name with
            | None -> ""
            | Some w ->
              Fmt.str "  [weights %s]"
                (String.concat " "
                   (Array.to_list (Array.map (Fmt.str "%g") w)))))
        Sv.Builtin.names;
      0
    end
    else begin
      (* compile every builtin through a fresh registry, probe each a
         second time, and report what the caches saw — the same numbers
         the serve-mode gauges and Prometheus exposition carry.  With
         --store, the registry is store-armed: against a warm store the
         compile column collapses to load costs *)
      let reg = Sv.Registry.create ?store () in
      List.iter
        (fun name ->
          let cfg = Option.get (Sv.Builtin.find name) in
          let a, first = Sv.Registry.get reg cfg in
          let _, second = Sv.Registry.get reg cfg in
          let hm = function `Hit -> "hit" | `Miss -> "miss" in
          Fmt.pr "%-12s digest %s  compile %8.2f ms  first %-4s  again %s@."
            name
            (String.sub a.Sv.Registry.digest 0 12)
            (a.Sv.Registry.compile_ns /. 1e6)
            (hm first) (hm second))
        Sv.Builtin.names;
      let st = Sv.Registry.stats reg in
      Fmt.pr "artifact cache: %d/%d entries, %d evictions, %d hits / %d \
              misses since boot@."
        st.Sv.Registry.artifact_size st.Sv.Registry.artifact_cap
        st.Sv.Registry.artifact_evictions st.Sv.Registry.artifact_hits
        st.Sv.Registry.artifact_misses;
      Fmt.pr "result cache:   %d/%d entries, %d evictions, %d hits / %d \
              misses since boot@."
        st.Sv.Registry.result_size st.Sv.Registry.result_cap
        st.Sv.Registry.result_evictions st.Sv.Registry.result_hits
        st.Sv.Registry.result_misses;
      Fmt.pr "scratch pools:  %d parked, %d checked out@."
        st.Sv.Registry.scratch_free st.Sv.Registry.scratch_out;
      (match store with
      | None -> ()
      | Some s ->
        let ss = Sv.Store.stats s in
        Fmt.pr "store:          %d entries, %d bytes on disk (%s)@."
          ss.s_entries ss.s_bytes (Sv.Store.root s);
        Fmt.pr "store traffic:  %d hits / %d misses, %d writes, %d \
                invalid, %d evictions@."
          ss.s_hits ss.s_misses ss.s_writes ss.s_invalid ss.s_evictions);
      0
    end
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:
            "Compile every builtin through a fresh registry and report \
             per-grammar digests and compile costs plus artifact/result \
             LRU occupancy, evictions and hit/miss counts.  With \
             $(b,--store), also the persistent store's occupancy and \
             traffic counters.")
  in
  Cmd.v
    (Cmd.info "grammars"
       ~doc:
         "List the builtin grammars the parse service accepts by name in \
          the $(i,grammar) request field.")
    Term.(const run $ cache_stats $ store_term)

let main =
  Cmd.group
    (Cmd.info "lambekd" ~version:"1.0.0"
       ~doc:"Intrinsically verified parsing in Dependent Lambek Calculus.")
    [ regex_cmd; dyck_cmd; expr_cmd; forest_cmd; reify_cmd; ambiguity_cmd;
      check_cmd; serve_cmd; batch_cmd; fuzz_cmd; warm_cmd; grammars_cmd ]

let () = exit (Cmd.eval' main)
