open Lambekd_cfg
module Grammar = Lambekd_grammar
module Chart = Lambekd_grammar.Chart
module W = Lambekd_weighted
module Clock = Lambekd_telemetry.Clock
module Probe = Lambekd_telemetry.Probe
module Metrics = Lambekd_telemetry.Metrics

exception Deadline

let c_requests = Probe.counter "service.requests"
let c_timeouts = Probe.counter "service.timeouts"
let c_fault_retries = Probe.counter "service.fault_retries"

let engines =
  [ "ll1"; "slr"; "earley"; "cyk"; "enum"; "forest"; "kbest"; "mass" ]

(* One counter per resolved engine: which machinery actually serves the
   traffic (cache hits included — the engine was still the choice). *)
let c_engine =
  List.map (fun n -> (n, Probe.counter ("exec.engine." ^ n))) engines

let bump_engine name =
  match List.assoc_opt name c_engine with
  | Some c -> Probe.bump c
  | None -> ()

(* Request-latency histograms: one overall, one per resolved engine.
   Handles are created eagerly (creation is the cold path); [observe]
   is a no-op while {!Metrics} is disabled. *)
let h_latency = Metrics.histogram "lambekd_request_ns"

let h_engine =
  List.map
    (fun n -> (n, Metrics.histogram ("lambekd_request_ns_" ^ n)))
    (engines @ [ "session" ])

let observe_latency ~engine_used dur_ns =
  if Metrics.enabled () then begin
    Metrics.observe h_latency dur_ns;
    match List.assoc_opt engine_used h_engine with
    | Some h -> Metrics.observe h dur_ns
    | None -> ()
  end

(* One clock read per 256 polls: the hooks sit in engine hot loops. *)
let make_poll deadline_ns =
  match deadline_ns with
  | None -> None
  | Some d ->
    let k = ref 0 in
    Some
      (fun () ->
        incr k;
        if !k land 255 = 0 && Clock.now_ns () > d then raise Deadline)

let tree_string (t : Earley.tree) =
  Grammar.Ptree.to_string (Earley.tree_to_ptree t)

(* [Auto]'s Earley-vs-CYK crossover: by the time both deterministic
   tables have failed the grammar is typically ambiguous, which is where
   Earley's completion constants blow up and the dense chart's n³/63
   word operations win.  The static signal is binarized grammar density
   (CNF binary rules per nonterminal) × input length; the constant is
   read off the [engine_crossover] bench section (EXPERIMENTS E24): on
   the S→SS|a builtin (density 0.5) dense CYK wins from n ≈ 32, so the
   product threshold sits at 16 with the short side left to Earley. *)
let cyk_auto_crossover = 16.0

let auto_cyk (b : Binarize.t) (req : Protocol.request) =
  req.query = Protocol.Membership
  && Binarize.density b *. float_of_int (String.length req.input)
     >= cyk_auto_crossover

(* The engine [Auto] resolves to, given what the artifact offers.  Like
   [Count], the weighted queries ignore engine pins: a mass query, or a
   parse carrying ["weights"]/["kbest"], is answered by a sweep over the
   packed chart with the request's normalized weight table (builtin defaults,
   else uniform, when the request ships none) — a table the registry
   fails to normalize is a bad request. *)
let resolve (a : Registry.artifact) (req : Protocol.request) =
  let weighted k =
    let raw =
      match req.weights with
      | Some _ as w -> w
      | None -> Builtin.default_weights req.gname
    in
    Result.map k (Registry.weights a raw)
  in
  match req.query with
  | Protocol.Count -> Ok `Forest
  | Protocol.Mass -> weighted (fun wt -> `Mass wt)
  | Protocol.Parse when req.kbest <> None || req.weights <> None ->
    weighted (fun wt -> `Kbest wt)
  | Protocol.Membership | Protocol.Parse -> (
    match req.engine with
    | Protocol.Auto -> (
      match (a.ll1, a.slr) with
      | Some t, _ -> Ok (`Ll1 t)
      | None, Some t -> Ok (`Slr t)
      | None, None -> (
        match a.cnf with
        | Some b when auto_cyk b req -> Ok (`Cyk b)
        | _ -> Ok `Earley))
    | Protocol.Ll1 -> (
      match a.ll1 with
      | Some t -> Ok (`Ll1 t)
      | None -> Error "grammar is not LL(1); cannot pin engine \"ll1\"")
    | Protocol.Slr -> (
      match a.slr with
      | Some t -> Ok (`Slr t)
      | None -> Error "grammar is not SLR(1); cannot pin engine \"slr\"")
    | Protocol.Earley -> Ok `Earley
    | Protocol.Cyk ->
      if req.query = Protocol.Parse then
        Error "engine \"cyk\" is a recognizer; it cannot answer \"parse\" queries"
      else (
        match a.cnf with
        | Some b -> Ok (`Cyk b)
        | None ->
          Error
            (Fmt.str
               "grammar exceeds the cyk binarization budget (%d of %d \
                nonterminals); cannot pin engine \"cyk\""
               a.cnf_nts a.cyk_nt_budget))
    | Protocol.Enum -> Ok `Enum)

let engine_name = function
  | `Ll1 _ -> "ll1"
  | `Slr _ -> "slr"
  | `Earley -> "earley"
  | `Cyk _ -> "cyk"
  | `Enum -> "enum"
  | `Forest -> "forest"
  | `Kbest _ -> "kbest"
  | `Mass _ -> "mass"

let query_tag = function
  | Protocol.Membership -> "member"
  | Protocol.Parse -> "parse"
  | Protocol.Count -> "count"
  | Protocol.Mass -> "mass"

let run_engine engine (a : Registry.artifact) (req : Protocol.request) poll =
  let want_tree = req.query = Protocol.Parse in
  let accepted tree =
    (* render only on parse queries: Ptree rendering would otherwise
       dominate a table-driven membership request *)
    if want_tree then Protocol.Accepted (Some (tree_string tree))
    else Protocol.Accepted None
  in
  (* charts alias pooled scratch storage, so every verdict (including
     tree rendering) is produced inside the checkout *)
  let with_chart f =
    Registry.with_scratch a (fun sc ->
        f (Chart.build ~cs:a.cs ~pool:sc.Registry.ch ?poll a.grammar req.input))
  in
  match engine with
  | `Forest ->
    with_chart (fun h ->
        let count = Chart.count h in
        Protocol.Count { count; saturated = Chart.is_saturated count })
  | `Ll1 table -> (
    match Ll1.parse table req.input with
    | Ok tree -> accepted tree
    | Error _ -> Protocol.Rejected)
  | `Slr table -> (
    match Slr.parse table req.input with
    | Ok tree -> accepted tree
    | Error _ -> Protocol.Rejected)
  | `Earley ->
    Registry.with_scratch a (fun sc ->
        let chart =
          Earley.run_compiled ~scratch:sc.Registry.es ?poll a.earley req.input
        in
        if not (Earley.accepts chart) then Protocol.Rejected
        else
          match if want_tree then Earley.parse_tree ?poll chart else None with
          | Some tree -> accepted tree
          | None -> Protocol.Accepted None)
  | `Cyk b ->
    (* recognizer only (resolve rejects parse queries): bitset chart in
       the pooled arena, blocked schedule from the measured length
       threshold *)
    Registry.with_scratch a (fun sc ->
        if
          Cyk_dense.accepts
            ?block:(Cyk_dense.auto_block (String.length req.input))
            ~scratch:sc.Registry.cy ?poll b req.input
        then Protocol.Accepted None
        else Protocol.Rejected)
  | `Enum ->
    if not want_tree then
      if
        Grammar.Enum.accepts ~cs:a.cs ~intern:a.Registry.intern ?poll
          a.grammar req.input
      then
        Protocol.Accepted None
      else Protocol.Rejected
    else
      with_chart (fun h ->
          match Chart.first_parse h with
          | Some p -> Protocol.Accepted (Some (Grammar.Ptree.to_string p))
          | None -> Protocol.Rejected)
  | `Kbest wt ->
    with_chart (fun h ->
        if not (Chart.accepts h) then Protocol.Rejected
        else
          let k = Option.value req.kbest ~default:1 in
          let ds =
            W.Sweep.kbest ?poll ~weight:(W.Weights.edge_weight wt) ~k h
          in
          Protocol.Ranked
            { parses =
                List.map
                  (fun (d : W.Sweep.derivation) ->
                    (d.logw, Grammar.Ptree.to_string d.tree))
                  ds })
  | `Mass wt ->
    with_chart (fun h ->
        Protocol.Mass
          { log_mass =
              W.Sweep.inside_root
                (module W.Semiring.Inside)
                ~weight:(W.Weights.edge_weight wt) h })

let run_once registry ?deadline_ns (req : Protocol.request) =
  Probe.bump c_requests;
  let t0 = Clock.now_ns () in
  let deadline_ns =
    match (deadline_ns, req.timeout_ms) with
    | (Some _ as d), _ -> d
    | None, Some ms -> Some (t0 +. (ms *. 1e6))
    | None, None -> None
  in
  let timeout () =
    Probe.bump c_timeouts;
    Error
      (Protocol.Timeout
         { after_ms = Option.value req.timeout_ms ~default:0. })
  in
  let finish ~engine_used ~artifact_cache ~result_cache outcome =
    let dur_ns = Clock.now_ns () -. t0 in
    observe_latency ~engine_used dur_ns;
    { Protocol.rid = req.id;
      outcome;
      engine_used;
      artifact_cache;
      result_cache;
      dur_ns }
  in
  (* A zero (or negative) budget, or a deadline already past at entry,
     answers timeout deterministically before any dispatch work — no
     registry probe, no engine resolution, no result-cache hit racing
     the clock.  This matches the queue-expiry path, so the serial and
     scheduled pipelines agree on zero-budget requests regardless of
     engine pins or cache temperature. *)
  if
    (match req.timeout_ms with Some ms -> ms <= 0. | None -> false)
    || match deadline_ns with Some d -> Clock.now_ns () > d | None -> false
  then finish ~engine_used:"" ~artifact_cache:`None ~result_cache:`None (timeout ())
  else begin
  let artifact, artifact_hm = Registry.get ?trace:req.trace registry req.cfg in
  let artifact_cache = (artifact_hm :> [ `Hit | `Miss | `None ]) in
  match resolve artifact req with
  | Error msg ->
    finish ~engine_used:"" ~artifact_cache ~result_cache:`None
      (Error (Protocol.Bad_request msg))
  | Ok engine -> (
    let name = engine_name engine in
    bump_engine name;
    let key =
      query_tag req.query ^ ":" ^ name
      ^
      (* weighted verdicts depend on the normalized table and (for
         ranked output) on K, so both join the key: same input under a
         different table or depth is a different cache line *)
      match engine with
      | `Kbest wt ->
        ":" ^ W.Weights.digest wt ^ ":k"
        ^ string_of_int (Option.value req.kbest ~default:1)
      | `Mass wt -> ":" ^ W.Weights.digest wt
      | _ -> ""
    in
    match
      Registry.find_result ?trace:req.trace registry ~digest:artifact.digest
        ~key ~input:req.input
    with
    | Some verdict ->
      finish ~engine_used:name ~artifact_cache ~result_cache:`Hit (Ok verdict)
    | None ->
      if
        match deadline_ns with
        | Some d -> Clock.now_ns () > d
        | None -> false
      then finish ~engine_used:name ~artifact_cache ~result_cache:`None (timeout ())
      else (
        let poll = make_poll deadline_ns in
        let run () =
          Probe.with_span ("service.engine." ^ name) (fun () ->
              run_engine engine artifact req poll)
        in
        match
          (* stamp the engine stages only when the request asked for a
             trace — the [Fun.protect] wrapper (end stamped on Deadline
             too: the engine did run) costs nothing otherwise *)
          match req.trace with
          | None -> run ()
          | Some tr ->
            Trace.stamp_engine_start tr;
            Fun.protect ~finally:(fun () -> Trace.stamp_engine_end tr) run
        with
        | verdict ->
          Registry.put_result registry ~digest:artifact.digest ~key
            ~input:req.input verdict;
          finish ~engine_used:name ~artifact_cache ~result_cache:`Miss
            (Ok verdict)
        | exception Deadline ->
          finish ~engine_used:name ~artifact_cache ~result_cache:`Miss
            (timeout ())))
  end

(* The [exec.run] fault point fires before any engine state is touched,
   so a retry is a clean re-execution; the per-site consecutive-failure
   cap in {!Fault} bounds the loop. *)
let run registry ?deadline_ns (req : Protocol.request) =
  let rec attempt () =
    match
      Fault.disrupt Fault.Exec_run;
      run_once registry ?deadline_ns req
    with
    | resp -> resp
    | exception Fault.Injected _ ->
      Probe.bump c_fault_retries;
      Option.iter Trace.add_fault req.trace;
      attempt ()
  in
  attempt ()
