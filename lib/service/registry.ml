open Lambekd_cfg
module Charsets = Lambekd_grammar.Charsets
module Clock = Lambekd_telemetry.Clock
module Probe = Lambekd_telemetry.Probe

module Chart = Lambekd_grammar.Chart
module Weights = Lambekd_weighted.Weights

(* A scratch bundle: the allocation-heavy per-request state the engines
   can recycle — Earley chart storage, the packed-chart pool and the
   dense-CYK arena.  Bundles are checked out exclusively
   ({!with_scratch}), so the mutable state inside never crosses two
   concurrent requests. *)
type scratch = {
  es : Earley.scratch;
  ch : Chart.pool;
  cy : Cyk_dense.scratch;
}

type scratch_pool = {
  pmu : Mutex.t;
  mutable free : scratch list;
  mutable avail : int;
  mutable out : int;  (** bundles currently checked out *)
}

type artifact = {
  cfg : Cfg.t;
  digest : string;
  grammar : Lambekd_grammar.Grammar.t;
  cs : Charsets.t;
  ll1 : Ll1.table option;
  slr : Slr.table option;
  earley : Earley.compiled;
  cnf : Binarize.t option;
  cnf_nts : int;
  cyk_nt_budget : int;
  intern : Lambekd_grammar.Enum.intern;
  pool : scratch_pool;
  wmu : Mutex.t;
  mutable wtables : (string * Weights.t) list;
      (** normalized weight tables served against this artifact, keyed
          by the raw wire weights (canonically rendered); see {!weights} *)
  compile_ns : float;
}

let c_compile = Probe.counter "service.compile"
let c_weights_hit = Probe.counter "service.weights_hit"
let c_weights_miss = Probe.counter "service.weights_miss"
let c_scratch_reuse = Probe.counter "earley.scratch_reuse"
let c_artifact_hit = Probe.counter "service.artifact_hit"
let c_artifact_miss = Probe.counter "service.artifact_miss"
let c_result_hit = Probe.counter "service.result_hit"
let c_result_miss = Probe.counter "service.result_miss"

(* --- digest -------------------------------------------------------------- *)

let digest_cfg (cfg : Cfg.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b cfg.start;
  Buffer.add_char b '\x00';
  Array.iter
    (fun (p : Cfg.production) ->
      Buffer.add_string b p.lhs;
      Buffer.add_string b "->";
      List.iter
        (function
          | Cfg.T c ->
            Buffer.add_char b '\'';
            Buffer.add_char b c
          | Cfg.N n ->
            Buffer.add_char b '.';
            Buffer.add_string b n)
        p.rhs;
      Buffer.add_char b '\x00')
    cfg.productions;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- compilation --------------------------------------------------------- *)

(* Resolve every definition instance reachable from the annotated root so
   that query-time traversals never write the analysis state: [ref_body]
   on an already-cached node is a pure read. *)
let warm cs root_ann =
  let seen = Hashtbl.create 16 in
  let rec go (a : Charsets.ann) =
    match a.view with
    | Charsets.ASeq (x, y) ->
      go x;
      go y
    | Charsets.AAlt alts | Charsets.AAnd alts ->
      List.iter (fun (_, x) -> go x) alts
    | Charsets.ARef r ->
      if not (Hashtbl.mem seen r.ruid) then begin
        Hashtbl.add seen r.ruid ();
        match Charsets.ref_body cs r with
        | body -> go body
        | exception _ -> ()  (* rules not installed: engines fail the same way *)
      end
    | Charsets.AChr _ | Charsets.AEps | Charsets.AVoid | Charsets.ATop
    | Charsets.AAtom _ ->
      ()
  in
  go root_ann

(* The dense-CYK engine's binarized form is budgeted: ε-variant
   expansion is exponential in nullable occurrences per production, so
   an adversarial inline grammar could otherwise stall the compile lock.
   Over budget, the artifact records how far binarization got and the
   [cyk] pin becomes a resolve-time bad request. *)
let default_cyk_nt_budget = 512

let compile ?(cyk_nt_budget = default_cyk_nt_budget) cfg =
  Probe.with_span "service.compile" (fun () ->
      Probe.bump c_compile;
      let t0 = Clock.now_ns () in
      let digest = digest_cfg cfg in
      let grammar = Cfg.to_grammar cfg in
      let cs = Charsets.create () in
      warm cs (Charsets.annotate cs grammar);
      let ll1 = Result.to_option (Ll1.build cfg) in
      let slr = Result.to_option (Slr.build cfg) in
      let earley = Earley.compile cfg in
      let cnf, cnf_nts =
        match
          Binarize.of_cfg ~max_nts:cyk_nt_budget
            ~max_rules:(cyk_nt_budget * 64) cfg
        with
        | Ok b -> (Some b, b.Binarize.num_nts)
        | Error o -> (None, o.Binarize.nts_reached)
      in
      let intern = Lambekd_grammar.Enum.intern ~cs grammar in
      let pool = { pmu = Mutex.create (); free = []; avail = 0; out = 0 } in
      let compile_ns = Clock.now_ns () -. t0 in
      { cfg; digest; grammar; cs; ll1; slr; earley; cnf; cnf_nts;
        cyk_nt_budget; intern; pool; wmu = Mutex.create (); wtables = [];
        compile_ns })

(* Bundles a worker finished with are kept for the next request against
   the same artifact; the cap only matters when more domains than this
   ever hammer one grammar at once, and merely re-allocates beyond it. *)
let scratch_cap = 8

(* A bundle whose Earley scratch grew past this many positions (a long
   session or one-shot input) is dropped rather than parked: the pool
   would otherwise hold its chart arrays for good. *)
let scratch_max_positions = 65536

(* Long-lived checkout for incremental sessions: the bundle leaves the
   pool until {!give_scratch} returns it (session close or eviction),
   and counts as [out] the whole time so the scratch gauge reflects
   retained charts. *)
let take_scratch a =
  let sc =
    Mutex.protect a.pool.pmu (fun () ->
        a.pool.out <- a.pool.out + 1;
        match a.pool.free with
        | s :: rest ->
          a.pool.free <- rest;
          a.pool.avail <- a.pool.avail - 1;
          Some s
        | [] -> None)
  in
  match sc with
  | Some s ->
    Probe.bump c_scratch_reuse;
    s
  | None ->
    { es = Earley.scratch (); ch = Chart.pool (); cy = Cyk_dense.scratch () }

let give_scratch a sc =
  Mutex.protect a.pool.pmu (fun () ->
      a.pool.out <- a.pool.out - 1;
      if
        a.pool.avail < scratch_cap
        && Earley.scratch_positions sc.es <= scratch_max_positions
      then begin
        a.pool.free <- sc :: a.pool.free;
        a.pool.avail <- a.pool.avail + 1
      end)

(* check in even when [f] raises (deadline aborts): a scratch is reset
   at the start of its next run, so a dirty bundle is safe to reuse *)
let with_scratch a f =
  let sc = take_scratch a in
  Fun.protect ~finally:(fun () -> give_scratch a sc) (fun () -> f sc)

(* --- weight tables -------------------------------------------------------- *)

(* Normalization is cheap but the table digest participates in result
   cache keys on every weighted request, so tables are cached on the
   artifact, keyed by the canonical rendering of the raw wire weights
   (%.17g round-trips doubles exactly).  A handful of tables per
   grammar is the realistic population; the cap only guards against a
   client sweeping weight space through one artifact. *)
let weights_cache_cap = 16

let raw_weights_key = function
  | None -> "default"
  | Some w ->
    let b = Buffer.create (Array.length w * 16) in
    Array.iter
      (fun x ->
        Buffer.add_string b (Fmt.str "%.17g" x);
        Buffer.add_char b ',')
      w;
    Buffer.contents b

let weights (a : artifact) raw =
  let key = raw_weights_key raw in
  match Mutex.protect a.wmu (fun () -> List.assoc_opt key a.wtables) with
  | Some t ->
    Probe.bump c_weights_hit;
    Ok t
  | None -> (
    let r =
      match raw with
      | None -> Ok (Weights.uniform a.cfg)
      | Some w -> Weights.normalize a.cfg w
    in
    match r with
    | Ok t ->
      Probe.bump c_weights_miss;
      Mutex.protect a.wmu (fun () ->
          if not (List.mem_assoc key a.wtables) then
            a.wtables <-
              (key, t)
              :: (if List.length a.wtables >= weights_cache_cap then
                    List.filteri
                      (fun i _ -> i < weights_cache_cap - 1)
                      a.wtables
                  else a.wtables));
      Ok t
    | Error _ as e -> e)

(* --- persistence ----------------------------------------------------------

   The on-disk shape of a compiled artifact: everything immutable and
   heap-representable — the runtime-only pieces (scratch pool, mutexes)
   are rebuilt at load.  Serialized with [Marshal.Closures]: grammar
   terms embed generative definitions whose rule bodies are closures,
   so entries are only decodable inside the executable build that wrote
   them — which {!Store} guarantees up front via its binary token, and
   the marshaller's own code-segment digest enforces as a backstop.
   Internal sharing (the [Cfg.t]'s definition is the same definition
   the charsets/intern state is keyed by) survives marshalling because
   the whole bundle is one value.

   Only the compile output is persisted: weight tables are normalized
   again in each process, and the bundle shape needs no version of its
   own because the store's binary token already marks every entry from
   another build as stale.

   Nothing decoded is trusted: [decode_artifact] re-derives the
   structural digest from the decoded grammar and compares it to the
   digest the entry is filed under, and rejects bundles compiled under
   a different CYK binarization budget (the budget decides whether
   [cyk] pins are servable, which must not depend on who compiled). *)

type persisted = {
  p_cfg : Cfg.t;
  p_grammar : Lambekd_grammar.Grammar.t;
  p_cs : Charsets.t;
  p_ll1 : Ll1.table option;
  p_slr : Slr.table option;
  p_earley : Earley.compiled;
  p_cnf : Binarize.t option;
  p_cnf_nts : int;
  p_cyk_nt_budget : int;
  p_intern : Lambekd_grammar.Enum.intern;
  p_compile_ns : float;
}

let encode_artifact (a : artifact) =
  let p =
    { p_cfg = a.cfg;
      p_grammar = a.grammar;
      p_cs = a.cs;
      p_ll1 = a.ll1;
      p_slr = a.slr;
      p_earley = a.earley;
      p_cnf = a.cnf;
      p_cnf_nts = a.cnf_nts;
      p_cyk_nt_budget = a.cyk_nt_budget;
      p_intern = a.intern;
      p_compile_ns = a.compile_ns }
  in
  Marshal.to_string p [ Marshal.Closures ]

let decode_artifact ~digest ~cyk_nt_budget entry ofs : artifact option =
  match (Marshal.from_string entry ofs : persisted) with
  | exception _ -> None
  | p ->
    if p.p_cyk_nt_budget <> cyk_nt_budget || digest_cfg p.p_cfg <> digest
    then None
    else
      Some
        { cfg = p.p_cfg;
          digest;
          grammar = p.p_grammar;
          cs = p.p_cs;
          ll1 = p.p_ll1;
          slr = p.p_slr;
          earley = p.p_earley;
          cnf = p.p_cnf;
          cnf_nts = p.p_cnf_nts;
          cyk_nt_budget = p.p_cyk_nt_budget;
          intern = p.p_intern;
          pool = { pmu = Mutex.create (); free = []; avail = 0; out = 0 };
          wmu = Mutex.create ();
          wtables = [];
          compile_ns = p.p_compile_ns }

(* --- registry ------------------------------------------------------------ *)

type t = {
  mu : Mutex.t;
  artifacts : (string, artifact) Lru.t;
  snap : (string * artifact) list Atomic.t;
      (** immutable mirror of [artifacts], rebuilt on every insert: the
          lock-free hit path.  At most [artifact_cap] (small) entries, so
          a scan beats a contended futex by orders of magnitude when
          several domains serve the same few grammars. *)
  results : (string * string * string, Protocol.verdict) Lru.t;
  (* registry-local cache outcome counters: unlike the Probe counters
     above these count even with telemetry disabled, so the [grammars
     --cache-stats] report and the metrics gauges work unconditionally *)
  a_hits : int Atomic.t;
  a_misses : int Atomic.t;
  r_hits : int Atomic.t;
  r_misses : int Atomic.t;
  cyk_nt_budget : int;
  store : Store.t option;
      (** the persistent artifact store, when armed: probed on every
          in-memory miss, written after every compile *)
}

let create ?(artifact_cap = 64) ?(result_cap = 4096)
    ?(cyk_nt_budget = default_cyk_nt_budget) ?store () =
  { mu = Mutex.create ();
    artifacts = Lru.create ~cap:artifact_cap;
    snap = Atomic.make [];
    results = Lru.create ~cap:result_cap;
    a_hits = Atomic.make 0;
    a_misses = Atomic.make 0;
    r_hits = Atomic.make 0;
    r_misses = Atomic.make 0;
    cyk_nt_budget;
    store }

let tick c = ignore (Atomic.fetch_and_add c 1)

(* The one write path into the store: [get] calls it after every
   compile, [lambekd warm] to confirm each entry landed. *)
let persist t (a : artifact) =
  match t.store with
  | None -> false
  | Some st -> Store.save st ~digest:a.digest (encode_artifact a)

let get ?trace t cfg =
  Fault.delay Fault.Registry_get;
  let digest = digest_cfg cfg in
  (* a [corrupt] fault poisons the lock-free snapshot probe; the locked
     LRU path below recovers (and still reports a hit), so the fault is
     invisible in responses — which the fuzz differential asserts *)
  let degraded = Fault.degraded Fault.Registry_get in
  if degraded then Option.iter Trace.add_fault trace;
  let snap =
    if degraded then None
    else List.assoc_opt digest (Atomic.get t.snap)
  in
  match snap with
  | Some a ->
    Probe.bump c_artifact_hit;
    tick t.a_hits;
    (* refresh LRU recency opportunistically: skip rather than contend.
       Still under [t.mu], and released on any exit. *)
    if Mutex.try_lock t.mu then begin
      match Lru.find t.artifacts digest with
      | _ -> Mutex.unlock t.mu
      | exception e ->
        Mutex.unlock t.mu;
        raise e
    end;
    (a, `Hit)
  | None ->
    Mutex.protect t.mu (fun () ->
        (* double-check under the lock: another domain may have compiled
           this grammar while we were waiting *)
        match Lru.find t.artifacts digest with
        | Some a ->
          Probe.bump c_artifact_hit;
          tick t.a_hits;
          (a, `Hit)
        | None ->
          Probe.bump c_artifact_miss;
          tick t.a_misses;
          (* in-memory miss: the persistent store answers before any
             compile.  A validated entry costs a read + decode; any
             mismatch, corruption or decode error falls through to a
             fresh compile whose result rewrites the entry — so the
             store can degrade a request to a compile but never change
             its response.  The wire [artifact] field stays "miss"
             either way: the store must be invisible in responses. *)
          let a =
            let from_store =
              match t.store with
              | None -> None
              | Some st ->
                let t0 = Clock.now_ns () in
                let r =
                  Store.load st ~digest
                    ~decode:
                      (decode_artifact ~digest
                         ~cyk_nt_budget:t.cyk_nt_budget)
                in
                (match r with
                | Some _ ->
                  (* the load is this request's "compile" stage cost *)
                  Option.iter
                    (fun tr ->
                      Trace.set_compile_ns tr (Clock.now_ns () -. t0))
                    trace
                | None -> ());
                r
            in
            match from_store with
            | Some a -> a
            | None ->
              let a = compile ~cyk_nt_budget:t.cyk_nt_budget cfg in
              Option.iter
                (fun tr -> Trace.set_compile_ns tr a.compile_ns)
                trace;
              ignore (persist t a);
              a
          in
          Lru.put t.artifacts digest a;
          Atomic.set t.snap (Lru.bindings t.artifacts);
          (a, `Miss))

let find_result ?trace t ~digest ~key ~input =
  if Lru.cap t.results = 0 then None
  else begin
    Fault.delay Fault.Registry_result;
    (* a [corrupt] fault forces a miss: the engine recomputes the same
       verdict and re-inserts it, so recovery is the recompute *)
    if Fault.degraded Fault.Registry_result then begin
      Option.iter Trace.add_fault trace;
      None
    end
    else
      Mutex.protect t.mu (fun () ->
          match Lru.find t.results (digest, key, input) with
          | Some _ as r ->
            Probe.bump c_result_hit;
            tick t.r_hits;
            r
          | None ->
            Probe.bump c_result_miss;
            tick t.r_misses;
            None)
  end

let put_result t ~digest ~key ~input v =
  if Lru.cap t.results = 0 then ()
  else Mutex.protect t.mu (fun () -> Lru.put t.results (digest, key, input) v)

let artifact_evictions t = Mutex.protect t.mu (fun () -> Lru.evictions t.artifacts)
let result_evictions t = Mutex.protect t.mu (fun () -> Lru.evictions t.results)

type stats = {
  artifact_size : int;
  artifact_cap : int;
  artifact_evictions : int;
  artifact_hits : int;
  artifact_misses : int;
  result_size : int;
  result_cap : int;
  result_evictions : int;
  result_hits : int;
  result_misses : int;
  scratch_free : int;
  scratch_out : int;
}

let stats t =
  let artifact_size, artifact_cap, artifact_evictions,
      result_size, result_cap, result_evictions, pools =
    Mutex.protect t.mu (fun () ->
        ( Lru.size t.artifacts,
          Lru.cap t.artifacts,
          Lru.evictions t.artifacts,
          Lru.size t.results,
          Lru.cap t.results,
          Lru.evictions t.results,
          List.map (fun (_, a) -> a.pool) (Lru.bindings t.artifacts) ))
  in
  let scratch_free, scratch_out =
    List.fold_left
      (fun (free, out) p ->
        Mutex.protect p.pmu (fun () -> (free + p.avail, out + p.out)))
      (0, 0) pools
  in
  { artifact_size;
    artifact_cap;
    artifact_evictions;
    artifact_hits = Atomic.get t.a_hits;
    artifact_misses = Atomic.get t.a_misses;
    result_size;
    result_cap;
    result_evictions;
    result_hits = Atomic.get t.r_hits;
    result_misses = Atomic.get t.r_misses;
    scratch_free;
    scratch_out }

let clear t =
  Mutex.protect t.mu (fun () ->
      Lru.clear t.artifacts;
      Atomic.set t.snap [];
      Lru.clear t.results)
