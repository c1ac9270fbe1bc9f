(* Benchmark harness: one section per paper artifact (see DESIGN.md §4 and
   EXPERIMENTS.md).  The paper has no performance tables — its evaluation
   is a set of mechanized constructions — so each section regenerates the
   *shape* claims implied by those constructions: which algorithm is
   linear, where determinization blows up, how the verified pipeline
   compares with classical baselines.

   Two kinds of measurement:
   - sweeps: wall-clock (monotonic ns) over a size parameter, printed as
     aligned tables;
   - micro: Bechamel OLS estimates (ns/run) for the small fixed-input
     operations (Figs 1-5, the kernel checker, the generated parser). *)

module G = Lambekd_grammar
module Gr = G.Grammar
module P = G.Ptree
module E = G.Enum
module R = Lambekd_regex.Regex
module Rs = Lambekd_regex.Regex_syntax
module Bz = Lambekd_regex.Brzozowski
module An = Lambekd_regex.Antimirov
module Bt = Lambekd_regex.Backtrack
module Nfa = Lambekd_automata.Nfa
module Dfa = Lambekd_automata.Dfa
module Th = Lambekd_automata.Thompson
module Det = Lambekd_automata.Determinize
module Min = Lambekd_automata.Minimize
module Dauto = Lambekd_automata.Dauto
module Cfg = Lambekd_cfg.Cfg
module Earley = Lambekd_cfg.Earley
module Ll1 = Lambekd_cfg.Ll1
module Dyck = Lambekd_cfg.Dyck
module Expr = Lambekd_cfg.Expr
module M = Lambekd_turing.Machine
module Pl = Lambekd_parsing.Pipeline
module Core = Lambekd_core
module Elab = Lambekd_surface.Elab
module Clock = Lambekd_telemetry.Clock
module Ev = Lambekd_telemetry.Event
module Sink = Lambekd_telemetry.Sink

let abc = [ 'a'; 'b'; 'c' ]

(* --- timing helpers (shared with the telemetry runtime) ------------------------ *)

let now_ns = Clock.now_ns
let time_ns f = Clock.time_ns f

(* --- machine-readable output ---------------------------------------------------

   Alongside the human tables, every measurement row is appended as one
   JSON object to a JSON-lines file so successive runs build a perf
   trajectory (BENCH_*.json).  Destination: [--json FILE] or
   $LAMBEKD_BENCH_JSON, default [BENCH_RESULTS.jsonl] in the cwd.
   [--only sec1,sec2] restricts the run to the named sections (the CI
   smoke runs just the engine sections). *)

type cli = {
  json_path : string;
  only : string list option;
  check : string option;
  threshold : float;
}

let usage_error msg =
  Fmt.epr
    "bench: %s@.usage: bench [--json FILE] [--only sec1,sec2,...] [--check \
     BASELINE.json] [--threshold X]@."
    msg;
  exit 2

let parse_cli () =
  let default_json =
    Option.value
      (Sys.getenv_opt "LAMBEKD_BENCH_JSON")
      ~default:"BENCH_RESULTS.jsonl"
  in
  let rec go acc = function
    | [] -> acc
    | [ "--json" ] -> usage_error "--json requires a FILE argument"
    | "--json" :: path :: rest -> go { acc with json_path = path } rest
    | [ "--only" ] -> usage_error "--only requires a section list"
    | "--only" :: specs :: rest ->
      go { acc with only = Some (String.split_on_char ',' specs) } rest
    | [ "--check" ] -> usage_error "--check requires a BASELINE.json argument"
    | "--check" :: path :: rest -> go { acc with check = Some path } rest
    | [ "--threshold" ] -> usage_error "--threshold requires a ratio argument"
    | "--threshold" :: x :: rest -> (
      match float_of_string_opt x with
      | Some t when t > 1.0 -> go { acc with threshold = t } rest
      | _ -> usage_error (Fmt.str "--threshold must be a ratio > 1, got %s" x))
    | arg :: _ -> usage_error (Fmt.str "unknown argument %s" arg)
  in
  go
    { json_path = default_json; only = None; check = None; threshold = 3.0 }
    (List.tl (Array.to_list Sys.argv))

let json_sink = ref Sink.null

let json ~section fields =
  !json_sink.Sink.emit (Ev.Point { name = section; fields })

(* A measurement that was skipped (input too large for the slow baseline)
   must not change the field's JSON type: instead of a string placeholder
   in a numeric slot, the numeric field is omitted and
   [<name>_skipped: true] is recorded, so every field that is present
   parses with one type across all rows of a section. *)
let opt_field name conv = function
  | Some v -> (name, conv v)
  | None -> (name ^ "_skipped", Ev.Bool true)

let header title = Fmt.pr "@.== %s ==@." title

let row cells = Fmt.pr "%s@." (String.concat "  " cells)
let cell fmt = Fmt.str fmt

let pp_ns ns =
  if ns >= 1e9 then Fmt.str "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.str "%8.2f us" (ns /. 1e3)
  else Fmt.str "%8.1f ns" ns

(* --- E6 / Theorem 4.9: DFA trace parsing is linear ----------------------------- *)

let even_a =
  Dauto.make ~name:"even_a" ~alphabet:[ 'a'; 'b' ] ~init:(G.Index.N 0)
    ~is_accepting:(fun s -> G.Index.equal s (G.Index.N 0))
    ~step:(fun s c ->
      match s, c with
      | G.Index.N n, 'a' -> G.Index.N (1 - n)
      | s, _ -> s)

let bench_thm49 () =
  header "E6 / Theorem 4.9 — parse_D throughput (expect linear, flat ns/char)";
  row [ cell "%8s" "len"; cell "%11s" "total"; cell "%11s" "ns/char" ];
  List.iter
    (fun len ->
      let input = String.init len (fun i -> if i mod 3 = 0 then 'b' else 'a') in
      let ns = time_ns (fun () -> Dauto.parse even_a input) in
      json ~section:"thm49_dfa_trace_linear"
        [ ("len", Ev.Int len);
          ("ns", Ev.Float ns);
          ("ns_per_char", Ev.Float (ns /. float_of_int len)) ];
      row
        [ cell "%8d" len; pp_ns ns; cell "%11.1f" (ns /. float_of_int len) ])
    [ 64; 256; 1024; 4096; 16384 ]

(* --- E7 / Construction 4.10: determinization blowup ----------------------------- *)

let bench_c410 () =
  header
    "E7 / Construction 4.10 — powerset determinization on (a|b)*a(a|b)^n \
     (expect ~2^(n+1) DFA states)";
  row
    [ cell "%4s" "n"; cell "%10s" "nfa"; cell "%10s" "dfa"; cell "%10s" "min";
      cell "%11s" "build" ];
  List.iter
    (fun n ->
      let suffix = List.init n (fun _ -> R.alt (R.chr 'a') (R.chr 'b')) in
      let regex =
        R.seq
          (R.star (R.alt (R.chr 'a') (R.chr 'b')))
          (R.seq (R.chr 'a') (R.seq_list suffix))
      in
      let th = Th.compile ~alphabet:[ 'a'; 'b' ] regex in
      let t0 = now_ns () in
      let det = Det.determinize th.Th.nfa in
      let dt = now_ns () -. t0 in
      let min = Min.minimize det.Det.dfa in
      json ~section:"c410_determinization_blowup"
        [ ("n", Ev.Int n);
          ("nfa_states", Ev.Int th.Th.nfa.Nfa.num_states);
          ("dfa_states", Ev.Int det.Det.dfa.Dfa.num_states);
          ("min_states", Ev.Int min.Dfa.num_states);
          ("build_ns", Ev.Float dt) ];
      row
        [ cell "%4d" n;
          cell "%10d" th.Th.nfa.Nfa.num_states;
          cell "%10d" det.Det.dfa.Dfa.num_states;
          cell "%10d" min.Dfa.num_states;
          pp_ns dt ])
    [ 2; 4; 6; 8; 10 ]

(* --- E8 / Construction 4.11: Thompson sizes -------------------------------------- *)

let bench_c411 () =
  header
    "E8 / Construction 4.11 — Thompson NFA size vs regex size (expect \
     linear, ~2 states/node), with the Antimirov partial-derivative NFA \
     as ablation (fewer states, no ε)";
  row
    [ cell "%6s" "size"; cell "%8s" "states"; cell "%8s" "labeled";
      cell "%8s" "eps"; cell "%8s" "pd-nfa"; cell "%10s" "dfa(th)";
      cell "%10s" "dfa(pd)" ];
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun size ->
      let samples = 20 in
      let totals = ref (0, 0, 0, 0, 0, 0) in
      for _ = 1 to samples do
        let r = R.random ~chars:abc ~size rng in
        let th = Th.compile ~alphabet:abc r in
        let pd = Lambekd_automata.Pd_nfa.compile ~alphabet:abc r in
        let dth = (Det.determinize th.Th.nfa).Det.dfa.Dfa.num_states in
        let dpd = (Det.determinize pd.Lambekd_automata.Pd_nfa.nfa).Det.dfa.Dfa.num_states in
        let s, l, e, p, a, b = !totals in
        totals :=
          ( s + th.Th.nfa.Nfa.num_states,
            l + Array.length th.Th.nfa.Nfa.transitions,
            e + Array.length th.Th.nfa.Nfa.eps,
            p + pd.Lambekd_automata.Pd_nfa.nfa.Nfa.num_states,
            a + dth,
            b + dpd )
      done;
      let s, l, e, p, a, b = !totals in
      let avg x = float_of_int x /. float_of_int samples in
      json ~section:"c411_thompson_sizes"
        [ ("size", Ev.Int size);
          ("avg_states", Ev.Float (avg s));
          ("avg_labeled", Ev.Float (avg l));
          ("avg_eps", Ev.Float (avg e));
          ("avg_pd_states", Ev.Float (avg p));
          ("avg_dfa_thompson", Ev.Float (avg a));
          ("avg_dfa_pd", Ev.Float (avg b)) ];
      row
        [ cell "%6d" size; cell "%8.1f" (avg s); cell "%8.1f" (avg l);
          cell "%8.1f" (avg e); cell "%8.1f" (avg p); cell "%10.1f" (avg a);
          cell "%10.1f" (avg b) ])
    [ 5; 10; 20; 40; 80 ]

(* --- E9/E19: the verified pipeline vs classical baselines ------------------------- *)

let bench_c412 () =
  header
    "E9 / Corollary 4.12 — verified pipeline vs baselines on (ab|c)* \
     (expect same order of magnitude; all linear)";
  let regex = Rs.parse_exn ~alphabet:abc "(ab|c)*" in
  let pipeline = Pl.compile ~alphabet:abc regex in
  let brz = Bz.compile ~alphabet:abc regex in
  row
    [ cell "%6s" "len"; cell "%11s" "pipeline"; cell "%11s" "greedy-drv";
      cell "%11s" "brzozowski"; cell "%11s" "derivative";
      cell "%11s" "antimirov" ];
  List.iter
    (fun len ->
      (* an accepted input: (ab c)^k *)
      let input = String.concat "" (List.init (len / 3) (fun _ -> "abc")) in
      let pipeline_ns = time_ns (fun () -> Pl.accepts pipeline input) in
      let greedy_ns =
        time_ns (fun () -> Lambekd_regex.Deriv_parse.parse regex input)
      in
      let brz_ns = time_ns (fun () -> Bz.matches brz input) in
      let deriv_ns = time_ns (fun () -> R.matches regex input) in
      let an_ns = time_ns (fun () -> An.matches regex input) in
      json ~section:"c412_pipeline_vs_baselines"
        [ ("len", Ev.Int (String.length input));
          ("pipeline_ns", Ev.Float pipeline_ns);
          ("greedy_deriv_ns", Ev.Float greedy_ns);
          ("brzozowski_ns", Ev.Float brz_ns);
          ("derivative_ns", Ev.Float deriv_ns);
          ("antimirov_ns", Ev.Float an_ns) ];
      row
        [ cell "%6d" (String.length input);
          pp_ns pipeline_ns;
          pp_ns greedy_ns;
          pp_ns brz_ns;
          pp_ns deriv_ns;
          pp_ns an_ns ])
    [ 30; 90; 270; 810 ]

let bench_pathological () =
  header
    "E19 — pathological (aa|a)*b on a^n: backtracking explodes, automata \
     stay linear";
  let patho =
    R.seq (R.star (R.alt (R.seq (R.chr 'a') (R.chr 'a')) (R.chr 'a')))
      (R.chr 'b')
  in
  let pipeline = Pl.compile ~alphabet:[ 'a'; 'b' ] patho in
  let brz = Bz.compile ~alphabet:[ 'a'; 'b' ] patho in
  row
    [ cell "%6s" "n"; cell "%11s" "pipeline"; cell "%11s" "brzozowski";
      cell "%14s" "backtracking" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let bt_ns =
        let fuel = 20_000_000 in
        let t0 = now_ns () in
        match Bt.matches_fuel ~fuel patho input with
        | Some _ -> Some (now_ns () -. t0)
        | None -> None
      in
      let bt_cell =
        match bt_ns with
        | Some ns -> pp_ns ns
        | None -> Fmt.str "%14s" "gave up"
      in
      let pipeline_ns = time_ns (fun () -> Pl.accepts pipeline input) in
      let brz_ns = time_ns (fun () -> Bz.matches brz input) in
      json ~section:"e19_pathological_backtracking"
        [ ("n", Ev.Int n);
          ("pipeline_ns", Ev.Float pipeline_ns);
          ("brzozowski_ns", Ev.Float brz_ns);
          opt_field "backtracking_ns" (fun ns -> Ev.Float ns) bt_ns ];
      row [ cell "%6d" n; pp_ns pipeline_ns; pp_ns brz_ns; bt_cell ])
    [ 8; 16; 24; 32 ]

(* --- E10 / Theorem 4.13: Dyck parsing ---------------------------------------------- *)

let dyck_cfg =
  Cfg.make ~start:"D"
    ~productions:
      [ ("D", []); ("D", [ Cfg.T '('; Cfg.N "D"; Cfg.T ')'; Cfg.N "D" ]) ]

let bench_thm413 () =
  header
    "E10 / Theorem 4.13 — Dyck: counter-automaton parser (linear) vs \
     Earley (superlinear)";
  row
    [ cell "%6s" "len"; cell "%11s" "automaton"; cell "%11s" "earley";
      cell "%8s" "chart" ];
  List.iter
    (fun pairs ->
      let input =
        String.concat "" (List.init pairs (fun _ -> "()"))
      in
      let len = String.length input in
      let automaton_ns = time_ns (fun () -> Dyck.parse input) in
      (* one [Earley.run] per input; accepts and chart size read off the
         same chart instead of paying for recognition twice *)
      let earley =
        if len <= 256 then begin
          let chart = ref None in
          let ns = time_ns (fun () -> chart := Some (Earley.run dyck_cfg input)) in
          Some (ns, Earley.size (Option.get !chart))
        end
        else None
      in
      let earley_ns = Option.map fst earley in
      let chart_items = Option.map snd earley in
      json ~section:"thm413_dyck"
        [ ("len", Ev.Int len);
          ("automaton_ns", Ev.Float automaton_ns);
          opt_field "earley_ns" (fun ns -> Ev.Float ns) earley_ns;
          opt_field "chart_items" (fun n -> Ev.Int n) chart_items ];
      row
        [ cell "%6d" len;
          pp_ns automaton_ns;
          (match earley_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)");
          (match chart_items with
           | Some n -> cell "%8d" n
           | None -> cell "%8s" "-") ])
    [ 8; 32; 128; 512; 2048 ]

(* --- E11 / Theorem 4.14: expression parsing ------------------------------------------ *)

let expr_cfg_ll1 =
  (* LL(1) form of the expression grammar *)
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "A"; Cfg.N "E'" ]);
        ("E'", []);
        ("E'", [ Cfg.T '+'; Cfg.N "A"; Cfg.N "E'" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let expr_cfg_plain =
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "A" ]);
        ("E", [ Cfg.N "A"; Cfg.T '+'; Cfg.N "E" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let lr_expr =
  (* left-recursive: SLR(1) but not LL(1) *)
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "E"; Cfg.T '+'; Cfg.N "A" ]);
        ("E", [ Cfg.N "A" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let bench_thm414 () =
  header
    "E11 / Theorem 4.14 + E18 — expressions: lookahead automaton vs LL(1) \
     vs SLR(1) vs Earley";
  let table =
    match Ll1.build expr_cfg_ll1 with
    | Ok t -> t
    | Error _ -> failwith "expr grammar should be LL(1)"
  in
  let slr_table =
    match Lambekd_cfg.Slr.build lr_expr with
    | Ok t -> t
    | Error _ -> failwith "lr expr grammar should be SLR(1)"
  in
  let ll1_stack = Lambekd_cfg.Ll1_automaton.dauto table in
  row
    [ cell "%6s" "len"; cell "%11s" "lookahead"; cell "%11s" "ll1";
      cell "%11s" "ll1-stack"; cell "%11s" "slr1"; cell "%11s" "earley" ];
  List.iter
    (fun terms ->
      let input =
        "n" ^ String.concat "" (List.init terms (fun i ->
            if i mod 4 = 3 then "+(n+n)" else "+n"))
      in
      let len = String.length input in
      let lookahead_ns = time_ns (fun () -> Expr.parse input) in
      let ll1_ns = time_ns (fun () -> Ll1.parse table input) in
      let ll1_stack_ns = time_ns (fun () -> Dauto.parse ll1_stack input) in
      let slr_ns = time_ns (fun () -> Lambekd_cfg.Slr.parse slr_table input) in
      let earley_ns =
        if len <= 300 then
          Some (time_ns (fun () -> Earley.recognizes expr_cfg_plain input))
        else None
      in
      json ~section:"thm414_expr"
        [ ("len", Ev.Int len);
          ("lookahead_ns", Ev.Float lookahead_ns);
          ("ll1_ns", Ev.Float ll1_ns);
          ("ll1_stack_ns", Ev.Float ll1_stack_ns);
          ("slr_ns", Ev.Float slr_ns);
          opt_field "earley_ns" (fun ns -> Ev.Float ns) earley_ns ];
      row
        [ cell "%6d" len;
          pp_ns lookahead_ns;
          pp_ns ll1_ns;
          pp_ns ll1_stack_ns;
          pp_ns slr_ns;
          (match earley_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)") ])
    [ 8; 32; 128; 512 ]

(* --- E12 / Construction 4.15: reified Turing machine ----------------------------------- *)

let bench_c415 () =
  header
    "E12 / Construction 4.15 — reified a^n b^n c^n membership (expect \
     quadratic TM steps)";
  let g = Lambekd_turing.Reify.of_machine M.anbncn in
  row [ cell "%6s" "n"; cell "%8s" "steps"; cell "%11s" "time" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' ^ String.make n 'b' ^ String.make n 'c' in
      let steps = M.steps M.anbncn input in
      let ns = time_ns (fun () -> E.accepts g input) in
      json ~section:"c415_reified_tm"
        [ ("n", Ev.Int n); ("steps", Ev.Int steps); ("ns", Ev.Float ns) ];
      row [ cell "%6d" n; cell "%8d" steps; pp_ns ns ])
    [ 4; 8; 16; 32; 64 ]

(* --- engine ablation: enumeration vs counting --------------------------------- *)

let bench_counting_ablation () =
  header
    "engine ablation — parse counting: tree enumeration (Enum.count) vs \
     dynamic programming (Enum.count_fast) on ⊕b.O 0 b";
  row [ cell "%6s" "len"; cell "%11s" "enumerate"; cell "%11s" "count_fast" ];
  List.iter
    (fun terms ->
      let input =
        "n" ^ String.concat "" (List.init terms (fun _ -> "+n"))
      in
      let len = String.length input in
      let enum_ns =
        if len <= 9 then
          Some (time_ns (fun () -> E.count Expr.o_sigma input))
        else None
      in
      let fast_ns = time_ns (fun () -> E.count_fast Expr.o_sigma input) in
      json ~section:"counting_ablation"
        [ ("len", Ev.Int len);
          opt_field "enumerate_ns" (fun ns -> Ev.Float ns) enum_ns;
          ("count_fast_ns", Ev.Float fast_ns) ];
      row
        [ cell "%6d" len;
          (match enum_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)");
          pp_ns fast_ns ])
    [ 2; 4; 8; 16 ]

(* --- engine: packed charts on an exponentially ambiguous grammar --------------- *)

(* S → SS | a has Catalan(n-1) parses of a^n, so any engine that counts by
   enumerating trees is doomed past n ≈ 14.  The packed chart shares
   subderivations across parses and counts in polynomial time. *)
let bench_forest_count () =
  header
    "engine — exact ambiguity counting on S → SS | a over a^n \
     (Catalan(n-1) parses): packed chart vs tree enumeration";
  let ss = Gr.fix "S" (fun self -> Gr.alt2 (Gr.seq self self) (Gr.chr 'a')) in
  row
    [ cell "%4s" "n"; cell "%16s" "parses"; cell "%7s" "nodes";
      cell "%11s" "forest"; cell "%11s" "enumerate" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let count = ref 0 and nodes = ref 0 in
      let forest_ns =
        time_ns (fun () ->
            let h = G.Chart.build ss input in
            count := G.Chart.count h;
            nodes := G.Chart.nodes h)
      in
      let enum_ns =
        if n <= 12 then Some (time_ns (fun () -> ignore (E.count ss input)))
        else None
      in
      json ~section:"forest_count"
        [ ("n", Ev.Int n);
          ("parses", Ev.Int !count);
          ("forest_nodes", Ev.Int !nodes);
          ("forest_ns", Ev.Float forest_ns);
          opt_field "enumerate_ns" (fun ns -> Ev.Float ns) enum_ns ];
      row
        [ cell "%4d" n; cell "%16d" !count; cell "%7d" !nodes;
          pp_ns forest_ns;
          (match enum_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)") ])
    [ 6; 10; 14; 18; 24 ]

(* --- weighted: lazy k-best vs full enumeration ----------------------------------- *)

module Wt = Lambekd_weighted
module Chart = G.Chart

let ss_cfg_weighted () =
  let cfg =
    Cfg.make ~start:"S"
      ~productions:[ ("S", [ Cfg.N "S"; Cfg.N "S" ]); ("S", [ Cfg.T 'a' ]) ]
  in
  let wt =
    match Wt.Weights.normalize cfg [| 0.4; 0.6 |] with
    | Ok t -> t
    | Error e -> failwith e
  in
  (Cfg.to_grammar cfg, Wt.Weights.edge_weight wt)

let bench_weighted_kbest () =
  header
    "weighted — lazy k-best (Huang–Chiang) on S → SS | a over a^n \
     (Catalan(n-1) derivations): top-5 touches a frontier, enumeration \
     materializes everything";
  let g, weight = ss_cfg_weighted () in
  row
    [ cell "%4s" "n"; cell "%16s" "parses"; cell "%11s" "build";
      cell "%11s" "kbest5"; cell "%11s" "enumerate" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let h = ref (Chart.build g input) in
      let build_ns = time_ns (fun () -> h := Chart.build g input) in
      let parses = Chart.count !h in
      let top = ref [] in
      let kbest_ns =
        time_ns (fun () -> top := Wt.Sweep.kbest ~weight ~k:5 !h)
      in
      assert (List.length !top = min 5 parses);
      let enum_ns =
        if n <= 12 then Some (time_ns (fun () -> ignore (E.parses g input)))
        else None
      in
      json ~section:"weighted_kbest"
        [ ("n", Ev.Int n);
          ("parses", Ev.Int parses);
          ("build_ns", Ev.Float build_ns);
          ("kbest5_ns", Ev.Float kbest_ns);
          opt_field "enumerate_ns" (fun ns -> Ev.Float ns) enum_ns ];
      row
        [ cell "%4d" n; cell "%16d" parses; pp_ns build_ns; pp_ns kbest_ns;
          (match enum_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)") ])
    [ 6; 10; 12; 18; 24 ]

(* --- weighted: inside/outside sweeps --------------------------------------------- *)

let bench_inside_outside () =
  header
    "weighted — inside/outside over the packed parse chart of S → SS | a \
     (P = 0.4/0.6, log-space): one forward and one backward array sweep";
  let g, weight = ss_cfg_weighted () in
  row
    [ cell "%4s" "n"; cell "%9s" "nodes"; cell "%11s" "build";
      cell "%11s" "inside"; cell "%11s" "outside"; cell "%14s" "log_mass" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let h = ref (Chart.build g input) in
      let build_ns = time_ns (fun () -> h := Chart.build g input) in
      let ins = ref [||] in
      let inside_ns =
        time_ns (fun () ->
            ins := Wt.Sweep.inside (module Wt.Semiring.Inside) ~weight !h)
      in
      let outside_ns =
        time_ns (fun () ->
            ignore
              (Wt.Sweep.outside (module Wt.Semiring.Inside) ~weight
                 ~inside:!ins !h))
      in
      let log_mass = !ins.(Chart.root !h) in
      json ~section:"inside_outside"
        [ ("n", Ev.Int n);
          ("nodes", Ev.Int (Chart.nodes !h));
          ("build_ns", Ev.Float build_ns);
          ("inside_ns", Ev.Float inside_ns);
          ("outside_ns", Ev.Float outside_ns);
          ("log_mass", Ev.Float log_mass) ];
      row
        [ cell "%4d" n; cell "%9d" (Chart.nodes !h); pp_ns build_ns;
          pp_ns inside_ns; pp_ns outside_ns; cell "%14.6f" log_mass ])
    [ 8; 16; 32; 64; 128 ]

(* --- engine: worklist membership vs whole-recomputation fixpoint ----------------- *)

let bench_accepts_worklist () =
  header
    "engine — Enum.accepts on the Dyck grammar: semi-naive worklist (with \
     split pruning) vs the seed whole-recomputation fixpoint";
  row [ cell "%6s" "len"; cell "%11s" "worklist"; cell "%11s" "fixpoint" ];
  List.iter
    (fun pairs ->
      let input = String.concat "" (List.init pairs (fun _ -> "()")) in
      let worklist_ns = time_ns (fun () -> E.accepts Dyck.grammar input) in
      let fixpoint_ns =
        if pairs <= 64 then
          Some (time_ns (fun () -> E.accepts_fixpoint Dyck.grammar input))
        else None
      in
      json ~section:"accepts_worklist"
        [ ("len", Ev.Int (String.length input));
          ("worklist_ns", Ev.Float worklist_ns);
          opt_field "fixpoint_ns" (fun ns -> Ev.Float ns) fixpoint_ns ];
      row
        [ cell "%6d" (String.length input);
          pp_ns worklist_ns;
          (match fixpoint_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)") ])
    [ 4; 16; 64; 256 ]

(* --- cfg: Earley completer index ablation ---------------------------------------- *)

let bench_earley_completer () =
  header
    "cfg — Earley completer on the Dyck CFG: awaited-nonterminal index vs \
     full origin-chart scan (identical item sets)";
  row
    [ cell "%6s" "len"; cell "%8s" "items"; cell "%11s" "indexed";
      cell "%11s" "scan" ];
  List.iter
    (fun pairs ->
      let input = String.concat "" (List.init pairs (fun _ -> "()")) in
      let len = String.length input in
      let chart = ref None in
      let indexed_ns =
        time_ns (fun () -> chart := Some (Earley.run dyck_cfg input))
      in
      let items = Earley.size (Option.get !chart) in
      let scan_ns =
        if len <= 2048 then
          Some
            (time_ns (fun () -> ignore (Earley.run ~indexed:false dyck_cfg input)))
        else None
      in
      json ~section:"earley_completer"
        [ ("len", Ev.Int len);
          ("chart_items", Ev.Int items);
          ("indexed_ns", Ev.Float indexed_ns);
          opt_field "scan_ns" (fun ns -> Ev.Float ns) scan_ns ];
      row
        [ cell "%6d" len; cell "%8d" items; pp_ns indexed_ns;
          (match scan_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)") ])
    [ 16; 128; 512; 1024 ]

(* --- cfg: Leo right recursion ----------------------------------------------------- *)

(* E → a | aE parses a^n with a completion chain through every set, so the
   classical completer builds Θ(n²) items.  Leo's deterministic-reduction
   memo replaces each chain with one topmost item: the chart stays linear
   and so does wall-clock. *)
let bench_earley_leo () =
  header
    "cfg — Leo right recursion on E → a | aE over a^n: deterministic-\
     reduction memo (leo on) vs classical completion chains (leo off)";
  let rr_cfg =
    Cfg.make ~start:"E"
      ~productions:[ ("E", [ Cfg.T 'a' ]); ("E", [ Cfg.T 'a'; Cfg.N "E" ]) ]
  in
  let comp = Earley.compile rr_cfg in
  row
    [ cell "%6s" "len"; cell "%9s" "leo itms"; cell "%9s" "cls itms";
      cell "%11s" "leo"; cell "%11s" "classical"; cell "%8s" "speedup" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let chart_on = ref None and chart_off = ref None in
      (* best of 3 to keep the pinned speedup ratio out of scheduler noise *)
      let best f =
        let t = ref infinity in
        for _ = 1 to 3 do t := Float.min !t (time_ns f) done;
        !t
      in
      let on_ns =
        best (fun () -> chart_on := Some (Earley.run_compiled comp input))
      in
      let off_ns =
        best (fun () ->
            chart_off := Some (Earley.run_compiled ~leo:false comp input))
      in
      let items_on = Earley.size (Option.get !chart_on) in
      let items_off = Earley.size (Option.get !chart_off) in
      json ~section:"earley_leo"
        [ ("len", Ev.Int n);
          ("leo_items", Ev.Int items_on);
          ("classical_items", Ev.Int items_off);
          ("leo_ns", Ev.Float on_ns);
          ("classical_ns", Ev.Float off_ns);
          ("speedup", Ev.Float (off_ns /. on_ns)) ];
      row
        [ cell "%6d" n; cell "%9d" items_on; cell "%9d" items_off;
          pp_ns on_ns; pp_ns off_ns;
          cell "%7.1fx" (off_ns /. on_ns) ])
    [ 128; 512; 2048; 4096 ]

(* --- sessions: incremental re-parse via chart-prefix reuse ------------------------ *)

let bench_incremental () =
  header
    "sessions — incremental re-parse: chart-prefix reuse on a 1-char append \
     vs a from-scratch parse of the same buffer";
  let comp = Earley.compile dyck_cfg in
  row
    [ cell "%6s" "len"; cell "%7s" "reused"; cell "%11s" "incr";
      cell "%11s" "scratch"; cell "%8s" "speedup"; cell "%9s" "retained" ];
  List.iter
    (fun n ->
      let base = String.concat "" (List.init (n / 2) (fun _ -> "()")) in
      let text = base ^ "(" in
      let es = Earley.session comp in
      ignore (Earley.feed es base);
      (* the timed op is the 1-char-append re-feed alone; the untimed
         re-shrink between rounds restores the shorter buffer so every
         timed feed reuses the same n-set prefix *)
      let reused = ref 0 in
      let incr_ns =
        let t = ref infinity in
        for _ = 1 to 5 do
          ignore (Earley.feed es base);
          t := Float.min !t (time_ns (fun () -> ignore (Earley.feed es text)));
          reused := Earley.session_reused es
        done;
        !t
      in
      let scratch_ns =
        let t = ref infinity in
        for _ = 1 to 5 do
          t :=
            Float.min !t
              (time_ns (fun () -> ignore (Earley.run_compiled comp text)))
        done;
        !t
      in
      json ~section:"incremental"
        [ ("len", Ev.Int (String.length text));
          ("reused_sets", Ev.Int !reused);
          ("retained_words", Ev.Int (Obj.reachable_words (Obj.repr es)));
          ("incremental_ns", Ev.Float incr_ns);
          ("from_scratch_ns", Ev.Float scratch_ns);
          ("speedup", Ev.Float (scratch_ns /. incr_ns)) ];
      row
        [ cell "%6d" (String.length text); cell "%7d" !reused;
          pp_ns incr_ns; pp_ns scratch_ns;
          cell "%7.1fx" (scratch_ns /. incr_ns);
          cell "%8dw" (Obj.reachable_words (Obj.repr es)) ])
    [ 512; 2048; 4096 ];
  (* streaming accepts-as-you-go: feed 64 chunks of 32 bytes and answer
     after each, vs re-parsing the growing buffer from scratch per chunk *)
  let chunks = List.init 64 (fun _ -> String.concat "" (List.init 16 (fun _ -> "()"))) in
  let es = Earley.session comp in
  let stream_incr_ns =
    time_ns (fun () ->
        ignore (Earley.feed es "");
        List.iter
          (fun c -> ignore (Earley.feed es (Earley.session_text es ^ c)))
          chunks)
  in
  let stream_scratch_ns =
    time_ns (fun () ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun c ->
            Buffer.add_string buf c;
            ignore (Earley.run_compiled comp (Buffer.contents buf)))
          chunks)
  in
  json ~section:"incremental"
    [ ("stream_chunks", Ev.Int (List.length chunks));
      ("retained_words", Ev.Int (Obj.reachable_words (Obj.repr es)));
      ("stream_incremental_ns", Ev.Float stream_incr_ns);
      ("stream_from_scratch_ns", Ev.Float stream_scratch_ns);
      ("stream_speedup", Ev.Float (stream_scratch_ns /. stream_incr_ns)) ];
  row
    [ cell "%-13s" "stream 64x32"; pp_ns stream_incr_ns;
      pp_ns stream_scratch_ns;
      cell "%7.1fx" (stream_scratch_ns /. stream_incr_ns) ]

(* --- engine: allocation-lean hot path --------------------------------------------- *)

let bench_scratch_reuse () =
  header
    "engine — allocation-lean hot path: reusable Earley scratch and chart \
     pool vs fresh per-request allocation (warm requests)";
  let comp = Earley.compile dyck_cfg in
  let input = String.concat "" (List.init 128 (fun _ -> "()")) in
  let iters = 200 in
  row [ cell "%-14s" "mode"; cell "%11s" "ns/run"; cell "%14s" "words/run" ];
  (* total allocation, not just minor words: the savings are chart tables
     and flat arrays, which are large enough to be allocated directly on
     the major heap *)
  let alloc_words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure label f =
    (* one untimed run to warm the pool, then [iters] measured runs; timed
       with raw [now_ns] rather than [time_ns], whose warmup + repeat
       budget would multiply the allocation delta by an unknown factor *)
    f ();
    Gc.full_major ();
    let w0 = alloc_words () in
    let t0 = now_ns () in
    for _ = 1 to iters do f () done;
    let ns = now_ns () -. t0 in
    let words = (alloc_words () -. w0) /. float_of_int iters in
    json ~section:"scratch_reuse"
      [ ("mode", Ev.Str label);
        ("iters", Ev.Int iters);
        ("ns_per_run", Ev.Float (ns /. float_of_int iters));
        ("alloc_words_per_run", Ev.Float words) ];
    row
      [ cell "%-14s" label;
        pp_ns (ns /. float_of_int iters);
        cell "%14.0f" words ]
  in
  measure "earley cold" (fun () -> ignore (Earley.run_compiled comp input));
  let sc = Earley.scratch () in
  measure "earley warm" (fun () ->
      ignore (Earley.run_compiled ~scratch:sc comp input));
  let ss = Gr.fix "S" (fun self -> Gr.alt2 (Gr.seq self self) (Gr.chr 'a')) in
  let finput = String.make 12 'a' in
  (* the packed chart's pool; the "forest" mode names pair these rows
     with older baselines *)
  measure "forest cold" (fun () -> ignore (G.Chart.build ss finput));
  let pool = G.Chart.pool () in
  measure "forest warm" (fun () ->
      ignore (G.Chart.build ~pool ss finput))

(* --- E17: surface checker throughput ------------------------------------------------------ *)

let surface_program =
  {|
    type AB = 'a' * 'b' ;
    type Fig1 = AB + 'c' ;
    def f : AB -o Fig1 = \p. let (a, b) = p in inl (a, b) ;
    type AStar = rec X. I + 'a' * X ;
    def anil : AStar = roll inl () ;
    def acons : 'a' -o AStar -o AStar =
      \c. \(rest : AStar). roll inr (c, rest) ;
    check [ a : 'a', b : 'b' ] |- inl (acons a anil, b) : AStar * 'b' + 'c' ;
  |}

let bench_surface () =
  header "E17 — surface pipeline (lex + parse + elaborate + kernel check)";
  row [ cell "%22s" "stage"; cell "%11s" "time" ];
  let parse_ns =
    time_ns (fun () -> Lambekd_surface.Parser.parse_program surface_program)
  in
  let check_ns = time_ns (fun () -> Elab.run_string surface_program) in
  json ~section:"e17_surface"
    [ ("lex_parse_ns", Ev.Float parse_ns);
      ("full_check_ns", Ev.Float check_ns) ];
  row [ cell "%22s" "lex+parse"; pp_ns parse_ns ];
  row [ cell "%22s" "full check"; pp_ns check_ns ]

(* --- E1-E5, E16: Bechamel micro-benchmarks ------------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let fig1 = Gr.alt2 (Gr.seq (Gr.chr 'a') (Gr.chr 'b')) (Gr.chr 'c') in
  let fig3 = Gr.alt2 (Gr.seq (Gr.star (Gr.chr 'a')) (Gr.chr 'b')) (Gr.chr 'c') in
  let _, _, h = Core.Library.fig4_h (Core.Syntax.Chr 'a') in
  let four_as =
    let aa = P.Pair (P.Tok 'a', P.Tok 'a') in
    P.Roll
      ( "star",
        P.Inj
          ( G.Index.S "cons",
            P.Pair
              ( aa,
                P.Roll ("star", P.Inj (G.Index.S "nil", P.Eps)) ) ) )
  in
  let gen =
    Core.Generator.generate
      {
        Core.Generator.num_states = 2;
        init = 0;
        accepting = (fun s -> s = 0);
        step = (fun s c -> if Char.equal c 'a' then 1 - s else s);
        alphabet = [ 'a'; 'b' ];
      }
  in
  [ Test.make ~name:"E1 fig1: enumerate parses of \"ab\""
      (Staged.stage (fun () -> E.parses fig1 "ab"));
    Test.make ~name:"E2 fig3: enumerate parses of \"aaab\""
      (Staged.stage (fun () -> E.parses fig3 "aaab"));
    Test.make ~name:"E3 fig4: fold transformer on (aa)"
      (Staged.stage (fun () -> Core.Semantics.apply_closed Core.Library.defs h four_as));
    Test.make ~name:"E5 kernel: check fig1 term"
      (Staged.stage (fun () ->
           Core.Check.checks Core.Library.defs Core.Library.fig1_ctx
             Core.Library.fig1_term Core.Library.fig1_type));
    Test.make ~name:"E16 generated parse_D on \"abab\""
      (Staged.stage (fun () -> Core.Generator.parse gen "abab")) ]

let bench_micro () =
  header "E1-E5, E16 — Bechamel micro-benchmarks (OLS ns/run)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance result in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ ns ] -> ns
            | _ -> nan
          in
          json ~section:"micro"
            [ ("name", Ev.Str (Test.Elt.name elt)); ("ns", Ev.Float ns) ];
          row [ cell "%-42s" (Test.Elt.name elt); pp_ns ns ])
        (Test.elements test))
    (micro_tests ())

(* --- overhead gate: instrumented Enum with telemetry disabled ------------------- *)

(* The probes compiled into [Enum] must cost nothing while no sink is
   installed.  Comparable sweep to the Dyck section, reported as ns and a
   JSON record so the trajectory keeps an eye on it. *)
let bench_probe_overhead () =
  header
    "telemetry — disabled-probe overhead on Enum.accepts over the Dyck \
     grammar (counters/spans compiled in, sink off)";
  row [ cell "%6s" "len"; cell "%11s" "accepts" ];
  List.iter
    (fun pairs ->
      let input = String.concat "" (List.init pairs (fun _ -> "()")) in
      let ns = time_ns (fun () -> E.accepts Lambekd_cfg.Dyck.grammar input) in
      json ~section:"telemetry_disabled_overhead"
        [ ("len", Ev.Int (String.length input)); ("accepts_ns", Ev.Float ns) ];
      row [ cell "%6d" (String.length input); pp_ns ns ])
    [ 4; 16; 64 ]

(* --- PR7: dense bitset CYK — the raw-speed floor ---------------------------------- *)

module Binarize = Lambekd_cfg.Binarize
module CykD = Lambekd_cfg.Cyk_dense

let ss_cfg =
  Cfg.make ~start:"S"
    ~productions:[ ("S", [ Cfg.N "S"; Cfg.N "S" ]); ("S", [ Cfg.T 'a' ]) ]

let anbn_cfg =
  Cfg.make ~start:"S"
    ~productions:[ ("S", []); ("S", [ Cfg.T 'a'; Cfg.N "S"; Cfg.T 'b' ]) ]

(* best of 3: the pinned speedup ratios must survive scheduler noise *)
let best3 f =
  let t = ref infinity in
  for _ = 1 to 3 do
    t := Float.min !t (time_ns f)
  done;
  !t

(* The tentpole claim: on a dense ambiguous grammar the bitset chart's
   n³/63 word operations beat indexed Earley's item bookkeeping.  S→SS|a
   saturates every cell, the worst case for Earley's completer and the
   best case for a word-parallel OR. *)
let bench_cyk_dense () =
  header
    "PR7 cyk — dense bitset CYK vs indexed Earley on S → SS | a over a^n \
     (every span derivable: Earley's completer worst case)";
  let b = Binarize.of_cfg_exn ss_cfg in
  let comp = Earley.compile ss_cfg in
  let es = Earley.scratch () in
  let cy = CykD.scratch () in
  row
    [ cell "%6s" "len"; cell "%11s" "cyk"; cell "%11s" "earley";
      cell "%8s" "speedup" ];
  List.iter
    (fun n ->
      let input = String.make n 'a' in
      let cyk_ns =
        best3 (fun () -> ignore (CykD.accepts ~scratch:cy b input))
      in
      let earley_ns =
        if n <= 256 then
          Some
            (best3 (fun () ->
                 ignore
                   (Earley.accepts
                      (Earley.run_compiled ~scratch:es comp input))))
        else None
      in
      json ~section:"cyk_dense"
        [ ("len", Ev.Int n);
          ("cyk_ns", Ev.Float cyk_ns);
          opt_field "earley_ns" (fun ns -> Ev.Float ns) earley_ns;
          opt_field "speedup"
            (fun e -> Ev.Float (e /. cyk_ns))
            earley_ns ];
      row
        [ cell "%6d" n;
          pp_ns cyk_ns;
          (match earley_ns with
           | Some ns -> pp_ns ns
           | None -> Fmt.str "%11s" "(skipped)");
          (match earley_ns with
           | Some e -> cell "%7.1fx" (e /. cyk_ns)
           | None -> cell "%8s" "-") ])
    [ 32; 64; 128; 256; 512; 1024 ]

(* The Valiant-style blocked schedule: same chart, same bit facts, but
   middle splits are walked tile-by-tile so the working set per product
   stage is two cache-resident row segments instead of a stride across
   the whole triangle.  The win appears once the row tables outgrow L2. *)
let bench_cyk_blocked () =
  header
    "PR7 cyk — blocked (Valiant-style, 64-position tiles) vs unblocked \
     schedule on a^n b^n and Dyck";
  row
    [ cell "%6s" "gram"; cell "%7s" "len"; cell "%11s" "blocked";
      cell "%11s" "unblocked"; cell "%8s" "speedup" ];
  let cy = CykD.scratch () in
  List.iter
    (fun (gname, cfg, word) ->
      let b = Binarize.of_cfg_exn cfg in
      List.iter
        (fun n ->
          let input = word n in
          let blocked_ns =
            best3 (fun () ->
                ignore
                  (CykD.accepts ~block:CykD.default_block ~scratch:cy b input))
          in
          let unblocked_ns =
            best3 (fun () -> ignore (CykD.accepts ~scratch:cy b input))
          in
          json ~section:"cyk_blocked"
            [ ("grammar", Ev.Str gname);
              ("len", Ev.Int (String.length input));
              ("blocked_ns", Ev.Float blocked_ns);
              ("unblocked_ns", Ev.Float unblocked_ns);
              ("speedup", Ev.Float (unblocked_ns /. blocked_ns)) ];
          row
            [ cell "%6s" gname;
              cell "%7d" (String.length input);
              pp_ns blocked_ns;
              pp_ns unblocked_ns;
              cell "%7.2fx" (unblocked_ns /. blocked_ns) ])
        [ 1024; 2048; 4096 ])
    [ ("anbn", anbn_cfg, fun n -> String.make (n / 2) 'a' ^ String.make (n / 2) 'b');
      ("dyck", dyck_cfg, fun n -> String.concat "" (List.init (n / 2) (fun _ -> "()"))) ]

(* Where [Auto] should flip: sweep grammar density × input length across
   the Earley/CYK boundary.  The service constant (Exec.cyk_auto_crossover
   = 16, membership queries only) is read off this table: the dense ss
   grammar flips early, the sparse Dyck/expr grammars stay with Earley
   throughout the interactive range — exactly the density signal. *)
let bench_engine_crossover () =
  header
    "PR7 cyk — Auto crossover: density x len sweep (service flips to cyk \
     at product >= 16 on membership queries)";
  row
    [ cell "%10s" "gram"; cell "%6s" "len"; cell "%8s" "density";
      cell "%8s" "product"; cell "%11s" "earley"; cell "%11s" "cyk";
      cell "%7s" "winner" ];
  let cy = CykD.scratch () in
  List.iter
    (fun (gname, cfg, word, lens) ->
      let b = Binarize.of_cfg_exn cfg in
      let comp = Earley.compile cfg in
      let es = Earley.scratch () in
      let density = Binarize.density b in
      List.iter
        (fun n ->
          let input = word n in
          let len = String.length input in
          let earley_ns =
            best3 (fun () ->
                ignore
                  (Earley.accepts (Earley.run_compiled ~scratch:es comp input)))
          in
          let cyk_ns =
            best3 (fun () ->
                ignore
                  (CykD.accepts ?block:(CykD.auto_block len) ~scratch:cy b
                     input))
          in
          let product = density *. float_of_int len in
          let winner = if cyk_ns < earley_ns then "cyk" else "earley" in
          json ~section:"engine_crossover"
            [ ("grammar", Ev.Str gname);
              ("len", Ev.Int len);
              ("density", Ev.Float density);
              ("product", Ev.Float product);
              ("earley_ns", Ev.Float earley_ns);
              ("cyk_ns", Ev.Float cyk_ns);
              ("winner", Ev.Str winner) ];
          row
            [ cell "%10s" gname; cell "%6d" len; cell "%8.2f" density;
              cell "%8.1f" product; pp_ns earley_ns; pp_ns cyk_ns;
              cell "%7s" winner ])
        lens)
    [ ("ss", ss_cfg, (fun n -> String.make n 'a'), [ 8; 16; 32; 64; 128 ]);
      ( "expr_plain",
        expr_cfg_plain,
        (fun n -> "n" ^ String.concat "" (List.init n (fun _ -> "+n"))),
        [ 8; 32; 128 ] );
      ( "dyck",
        dyck_cfg,
        (fun n -> String.concat "" (List.init n (fun _ -> "()"))),
        [ 8; 32; 128 ] ) ]

(* The service caches' LRU: a full cap-4096 cache of registry-shaped
   result keys (32-char digest, query key, input).  One batch is 4 096
   puts of fresh keys, each evicting the least-recent entry, or 4 096
   hits; two key sets alternate so every batch evicts the whole cache.
   Timed per batch so an O(size) eviction scan (about 60 µs a put, a
   quarter second a batch) stands far above [--check]'s noise floor. *)
let bench_lru () =
  let module Lru = Lambekd_service.Lru in
  header "service LRU — 4096 evicting puts / 4096 hits on a full cap-4096 cache";
  let n = 4096 in
  let keys tag =
    Array.init n (fun i ->
        ( Digest.to_hex (Digest.string (Printf.sprintf "%s%d" tag i)),
          "member",
          Printf.sprintf "input-%d" i ))
  in
  let sets = [| keys "a"; keys "b" |] in
  let c = Lru.create ~cap:n in
  Array.iter (fun k -> Lru.put c k true) sets.(0);
  let live = ref 0 in
  let evict_batch_ns =
    time_ns (fun () ->
        live := 1 - !live;
        Array.iter (fun k -> Lru.put c k true) sets.(!live))
  in
  let hit_batch_ns =
    time_ns (fun () ->
        Array.iter (fun k -> ignore (Lru.find c k)) sets.(!live))
  in
  json ~section:"lru"
    [ ("cap", Ev.Int n);
      ("batch", Ev.Int n);
      ("evict_batch_ns", Ev.Float evict_batch_ns);
      ("hit_batch_ns", Ev.Float hit_batch_ns);
      ("evictions", Ev.Int (Lru.evictions c)) ];
  row
    [ cell "%-14s" "evicting put"; pp_ns evict_batch_ns;
      cell "%8.0f ns/op" (evict_batch_ns /. float_of_int n) ];
  row
    [ cell "%-14s" "hit"; pp_ns hit_batch_ns;
      cell "%8.0f ns/op" (hit_batch_ns /. float_of_int n) ]

(* --- PR3: service layer — registry amortization and batch throughput ----------- *)

(* The serving claims (ISSUE PR3): (a) a warm grammar registry makes a
   request ≥5x cheaper than paying the full per-request grammar analysis
   (charsets warm + FIRST/FOLLOW + LL(1)/SLR(1) tables) that every query
   cost before the service existed; (b) the scheduler's batch mode beats
   that cold per-request loop ≥2x end-to-end while producing byte-identical
   responses.  Result caching is disabled throughout so the comparison is
   engine work vs engine work, not memoized strings. *)
let bench_service () =
  let module Sv = Lambekd_service in
  header
    "PR3 service — warm-registry amortization vs cold per-request analysis";
  let requests_for gname input n =
    List.init n (fun i ->
        let line =
          Fmt.str
            {|{"id":"%s-%d","grammar":"%s","input":"%s","query":"member"}|}
            gname i gname input
        in
        match Sv.Protocol.parse_request line with
        | Ok r -> r
        | Error e -> failwith e)
  in
  (* interactive-size inputs (~24 chars): the regime the registry is
     for, where grammar analysis dominates a cold request *)
  let workloads =
    [ ("expr", String.concat "+" (List.init 12 (fun _ -> "n")));
      ("dyck", String.concat "" (List.init 12 (fun _ -> "()"))) ]
  in
  row
    [ cell "%6s" "gram"; cell "%11s" "cold"; cell "%11s" "warm";
      cell "%8s" "speedup" ];
  List.iter
    (fun (gname, input) ->
      let reqs = requests_for gname input 1 in
      let req = List.hd reqs in
      (* cold: artifact cache disabled, every request recompiles *)
      let cold_reg = Sv.Registry.create ~artifact_cap:0 ~result_cap:0 () in
      let cold_ns = time_ns (fun () -> Sv.Exec.run cold_reg req) in
      (* warm: compiled once, then probed per request *)
      let warm_reg = Sv.Registry.create ~artifact_cap:8 ~result_cap:0 () in
      ignore (Sv.Exec.run warm_reg req);
      let warm_ns = time_ns (fun () -> Sv.Exec.run warm_reg req) in
      let speedup = cold_ns /. warm_ns in
      json ~section:"service_throughput"
        [ ("mode", Ev.Str "per_request");
          ("grammar", Ev.Str gname);
          ("len", Ev.Int (String.length input));
          ("cold_ns", Ev.Float cold_ns);
          ("warm_ns", Ev.Float warm_ns);
          ("speedup", Ev.Float speedup) ];
      row
        [ cell "%6s" gname; pp_ns cold_ns; pp_ns warm_ns;
          cell "%7.1fx" speedup ])
    workloads;

  header "PR3 service — batch: 4-domain scheduler vs serial loops";
  let batch_workloads =
    (* longer inputs than the per-request rows (the batch claim is
       end-to-end throughput with real parsing work per request), and
       weighted toward the stmt grammar, whose SLR construction is the
       dominant cost a cold loop repays on every single request *)
    [ (100, "expr", String.concat "+" (List.init 50 (fun _ -> "n")));
      (100, "dyck", String.concat "" (List.init 50 (fun _ -> "()")));
      (300, "stmt", "i(v+n){v=n*v;w(v)v=v+n;}e{v=n;}") ]
  in
  let batch =
    List.concat_map
      (fun (n, g, input) -> requests_for g input n)
      batch_workloads
  in
  let total = List.length batch in
  let render rs =
    (* responses without timing fields: the identity certificate *)
    String.concat "\n"
      (Array.to_list
         (Array.map (Sv.Protocol.response_to_json ~times:false) rs))
  in
  let run_serial reg =
    let out = Array.make total None in
    List.iteri (fun i req -> out.(i) <- Some (Sv.Exec.run reg req)) batch;
    Array.map Option.get out
  in
  (* serial-cold: what batch answering cost before the service — every
     request pays the full grammar analysis on one core *)
  let cold_reg () = Sv.Registry.create ~artifact_cap:0 ~result_cap:0 () in
  let serial_cold_ns =
    let t0 = now_ns () in
    ignore (run_serial (cold_reg ()));
    now_ns () -. t0
  in
  (* serial-warm: same loop over a warm registry (reported for
     transparency: on a single-core container the scheduler's win over
     this baseline is amortization, not parallel speedup) *)
  let warm_reg () =
    let reg = Sv.Registry.create ~artifact_cap:8 ~result_cap:0 () in
    List.iter (fun req -> ignore (Sv.Registry.get reg req.Sv.Protocol.cfg)) batch;
    reg
  in
  let serial_warm_out = ref [||] in
  let serial_warm_ns =
    let reg = warm_reg () in
    let t0 = now_ns () in
    serial_warm_out := run_serial reg;
    now_ns () -. t0
  in
  (* scheduler: 4 domains over a warm registry, responses re-ordered *)
  let par_out = ref [||] in
  let par_ns =
    let reg = warm_reg () in
    let sched = Sv.Scheduler.create ~domains:4 ~queue_cap:64 ~registry:reg () in
    let out = Array.make total None in
    let t0 = now_ns () in
    List.iteri
      (fun i req ->
        Sv.Scheduler.submit sched req (fun r -> out.(i) <- Some r))
      batch;
    Sv.Scheduler.shutdown sched;
    let ns = now_ns () -. t0 in
    par_out := Array.map Option.get out;
    ns
  in
  let identical =
    String.equal (render !serial_warm_out) (render !par_out)
  in
  let rps ns = float_of_int total /. (ns /. 1e9) in
  let speedup = serial_cold_ns /. par_ns in
  json ~section:"service_throughput"
    [ ("mode", Ev.Str "batch");
      ("requests", Ev.Int total);
      ("domains", Ev.Int 4);
      ("serial_cold_ns", Ev.Float serial_cold_ns);
      ("serial_warm_ns", Ev.Float serial_warm_ns);
      ("scheduler_ns", Ev.Float par_ns);
      ("scheduler_rps", Ev.Float (rps par_ns));
      ("speedup_vs_serial_cold", Ev.Float speedup);
      ("outputs_identical", Ev.Bool identical) ];
  row
    [ cell "%-14s" "serial cold"; pp_ns serial_cold_ns;
      cell "%9.0f rps" (rps serial_cold_ns) ];
  row
    [ cell "%-14s" "serial warm"; pp_ns serial_warm_ns;
      cell "%9.0f rps" (rps serial_warm_ns) ];
  row
    [ cell "%-14s" "sched x4"; pp_ns par_ns;
      cell "%9.0f rps" (rps par_ns);
      cell "%6.1fx vs cold" speedup;
      cell "%s" (if identical then "outputs identical" else "OUTPUTS DIFFER") ];
  bench_lru ()

(* --- PR10: persistent artifact store — zero cold start ---------------------------- *)

(* The claim: booting against a populated store costs loads, not
   compiles, so cold start ≈ warm start.  Measured two ways: per-grammar
   (first-request latency, compile vs validated store load) and
   boot-to-ready (every builtin compiled into a fresh registry vs got
   once through a fresh store-armed registry, each get a load).  The
   pinned [boot_speedup] must stay ≥10x. *)
let bench_store_coldstart () =
  let module Sv = Lambekd_service in
  header
    "PR10 store — zero cold start: boot-to-ready against a populated \
     artifact store vs fresh compiles";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "lambekd-bench-store"
  in
  (* a clean slate: stale entries from a previous run must not turn
     compile measurements into load measurements *)
  (match Sys.readdir dir with
  | names -> Array.iter (fun f -> Sys.remove (Filename.concat dir f)) names
  | exception Sys_error _ -> ());
  let st =
    match Sv.Store.open_root dir with
    | Ok st -> st
    | Error e -> failwith ("store: " ^ e)
  in
  let builtins =
    List.map (fun n -> (n, Option.get (Sv.Builtin.find n))) Sv.Builtin.names
  in
  (* populate: one write-through pass over every builtin *)
  let seed = Sv.Registry.create ~result_cap:0 ~store:st () in
  List.iter (fun (_, cfg) -> ignore (Sv.Registry.get seed cfg)) builtins;
  (* per-grammar first-request latency: a fresh storeless registry pays
     the compile; a fresh store-armed registry pays a validated load *)
  row
    [ cell "%12s" "grammar"; cell "%11s" "compile"; cell "%11s" "load";
      cell "%8s" "speedup" ];
  List.iter
    (fun (name, cfg) ->
      let compile_ns =
        best3 (fun () ->
            let reg = Sv.Registry.create ~result_cap:0 () in
            ignore (Sv.Registry.get reg cfg))
      in
      let load_ns =
        best3 (fun () ->
            let reg = Sv.Registry.create ~result_cap:0 ~store:st () in
            ignore (Sv.Registry.get reg cfg))
      in
      json ~section:"store_coldstart"
        [ ("grammar", Ev.Str name);
          ("compile_ns", Ev.Float compile_ns);
          ("load_ns", Ev.Float load_ns);
          ("speedup", Ev.Float (compile_ns /. load_ns)) ];
      row
        [ cell "%12s" name; pp_ns compile_ns; pp_ns load_ns;
          cell "%7.1fx" (compile_ns /. load_ns) ])
    builtins;
  (* boot-to-ready (every builtin live in the in-memory LRU), three
     configurations:
     - empty store: the first-ever boot — every builtin compiles, is
       encoded and crash-safely persisted (write + fsync + rename);
     - populated store: every later boot — each builtin's first get
       misses in memory and is served by a validated load;
     - no store: the pre-store baseline, compiles only.
     The pinned claim is empty vs populated: what enabling the store
     costs once vs what it saves on every restart after. *)
  let clean () =
    match Sys.readdir dir with
    | names -> Array.iter (fun f -> Sys.remove (Filename.concat dir f)) names
    | exception Sys_error _ -> ()
  in
  let empty_boot_ns = ref infinity in
  for _ = 1 to 3 do
    clean ();
    (* the cleanup is setup, not boot: time only the boot itself *)
    let t0 = now_ns () in
    let reg = Sv.Registry.create ~result_cap:0 ~store:st () in
    List.iter (fun (_, cfg) -> ignore (Sv.Registry.get reg cfg)) builtins;
    empty_boot_ns := Float.min !empty_boot_ns (now_ns () -. t0)
  done;
  let empty_boot_ns = !empty_boot_ns in
  (* the last empty-store boot left the store populated *)
  let warm_boot_ns =
    best3 (fun () ->
        let reg = Sv.Registry.create ~result_cap:0 ~store:st () in
        List.iter (fun (_, cfg) -> ignore (Sv.Registry.get reg cfg)) builtins)
  in
  let nostore_boot_ns =
    best3 (fun () ->
        let reg = Sv.Registry.create ~result_cap:0 () in
        List.iter (fun (_, cfg) -> ignore (Sv.Registry.get reg cfg)) builtins)
  in
  let boot_speedup = empty_boot_ns /. warm_boot_ns in
  let s = Sv.Store.stats st in
  json ~section:"store_coldstart"
    [ ("mode", Ev.Str "boot");
      ("grammars", Ev.Int (List.length builtins));
      ("empty_store_boot_ns", Ev.Float empty_boot_ns);
      ("populated_store_boot_ns", Ev.Float warm_boot_ns);
      ("no_store_boot_ns", Ev.Float nostore_boot_ns);
      ("boot_speedup", Ev.Float boot_speedup);
      ("no_store_speedup", Ev.Float (nostore_boot_ns /. warm_boot_ns));
      ("store_entries", Ev.Int s.Sv.Store.s_entries);
      ("store_bytes", Ev.Int s.Sv.Store.s_bytes) ];
  row
    [ cell "%-14s" "boot: empty"; pp_ns empty_boot_ns;
      cell "%s" "(compile + persist)" ];
  row
    [ cell "%-14s" "boot: no store"; pp_ns nostore_boot_ns;
      cell "%s" "(compile only)" ];
  row
    [ cell "%-14s" "boot: warm"; pp_ns warm_boot_ns;
      cell "%7.1fx vs empty" boot_speedup;
      cell "%7.1fx vs no store" (nostore_boot_ns /. warm_boot_ns) ]

(* --- PR4: fault plane — disarmed probe overhead --------------------------------- *)

(* The fault plane's contract (ISSUE PR4) is zero production cost: a
   disarmed probe is one atomic load and one branch, so request latency
   with the plane disarmed must be indistinguishable from the pre-fault
   service.  Armed schedules are reported alongside for scale: an idle
   schedule (armed, all rates zero) costs the config fetch, and a
   corrupt-heavy schedule pays its degraded paths. *)
let bench_fault_overhead () =
  let module Sv = Lambekd_service in
  header "PR4 fault plane — disarmed probes vs armed schedules (warm registry)";
  let req =
    match
      Sv.Protocol.parse_request
        {|{"grammar":"expr","input":"n+n+n+n+n+n","query":"member"}|}
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let reg = Sv.Registry.create ~artifact_cap:8 ~result_cap:0 () in
  ignore (Sv.Exec.run reg req);
  let measure schedule =
    (match schedule with
    | None -> Sv.Fault.clear ()
    | Some s -> (
      match Sv.Fault.parse s with
      | Ok cfg -> Sv.Fault.install cfg
      | Error e -> failwith e));
    let ns = time_ns (fun () -> Sv.Exec.run reg req) in
    Sv.Fault.clear ();
    ns
  in
  let disarmed_ns = measure None in
  row [ cell "%-14s" "disarmed"; pp_ns disarmed_ns ];
  json ~section:"fault_overhead"
    [ ("mode", Ev.Str "disarmed"); ("ns", Ev.Float disarmed_ns) ];
  List.iter
    (fun (label, schedule) ->
      let ns = measure (Some schedule) in
      json ~section:"fault_overhead"
        [ ("mode", Ev.Str label);
          ("ns", Ev.Float ns);
          ("overhead_vs_disarmed", Ev.Float (ns /. disarmed_ns)) ];
      row
        [ cell "%-14s" label; pp_ns ns;
          cell "%6.2fx vs disarmed" (ns /. disarmed_ns) ])
    [ ("armed idle", "seed=1");
      ("armed corrupt", "seed=1;registry.get:corrupt:0.5;registry.result:corrupt:0.5") ]

(* --- PR6 operations plane: metrics and tracing overhead ---------------------------- *)

(* The zero-overhead-when-disabled contract extends to the operations
   plane: with the metrics registry off, the observe calls compiled into
   [Exec] are one atomic load and a branch; switching them on buys two
   histogram records per request (global + per-engine); asking for a
   trace adds the clock stamps.  All three modes run the same warm
   request so the disabled row must track the pre-metrics service. *)
let bench_metrics_overhead () =
  let module Sv = Lambekd_service in
  let module Tm = Lambekd_telemetry.Metrics in
  header
    "PR6 operations plane — request cost: metrics disabled vs enabled vs \
     traced (warm registry)";
  let parse l =
    match Sv.Protocol.parse_request l with Ok r -> r | Error e -> failwith e
  in
  let plain =
    parse {|{"grammar":"expr","input":"n+n+n+n+n+n","query":"member"}|}
  in
  let traced =
    parse
      {|{"grammar":"expr","input":"n+n+n+n+n+n","query":"member","trace":true}|}
  in
  let reg = Sv.Registry.create ~artifact_cap:8 ~result_cap:0 () in
  ignore (Sv.Exec.run reg plain);
  Tm.disable ();
  let disabled_ns = time_ns (fun () -> Sv.Exec.run reg plain) in
  row [ cell "%-14s" "disabled"; pp_ns disabled_ns ];
  json ~section:"metrics_overhead"
    [ ("mode", Ev.Str "disabled"); ("ns", Ev.Float disabled_ns) ];
  Tm.enable ();
  let report label req =
    let ns = time_ns (fun () -> Sv.Exec.run reg req) in
    json ~section:"metrics_overhead"
      [ ("mode", Ev.Str label);
        ("ns", Ev.Float ns);
        ("overhead_vs_disabled", Ev.Float (ns /. disabled_ns)) ];
    row
      [ cell "%-14s" label; pp_ns ns;
        cell "%6.2fx vs disabled" (ns /. disabled_ns) ]
  in
  report "enabled" plain;
  report "traced" traced;
  Tm.disable ()

(* --- baseline regression check ----------------------------------------------------- *)

(* [--check BASELINE.json] re-reads the JSON-lines this run just wrote and
   compares every timing field against the named baseline.  The threshold
   is deliberately generous (default 3x): wall-clock on shared CI is
   noisy, and this check exists to catch order-of-magnitude regressions —
   a complexity-class change in a hot path — not single-digit drift.
   Rows are paired by section and position (every section is a
   deterministic sweep); rows, sections or fields present on only one
   side are reported as notes but never fail the check, so adding a
   section does not invalidate an old baseline.  Sub-100µs measurements
   are never flagged: at that scale the ratio is all scheduler noise. *)

module Check = struct
  module Sj = Lambekd_service.Json

  let timing_field name =
    name = "ns" || name = "ns_per_run"
    || (String.length name > 3
        && String.sub name (String.length name - 3) 3 = "_ns")

  (* one JSON-lines record: (section, numeric timing fields) *)
  let parse_record path line =
    match Sj.parse line with
    | Error e -> usage_error (Fmt.str "%s: bad JSON line (%s): %s" path e line)
    | Ok v -> (
      match (Option.bind (Sj.mem "name" v) Sj.str, Sj.mem "fields" v) with
      | Some name, Some (Sj.Obj fields) ->
        let timings =
          List.filter_map
            (fun (k, fv) ->
              if timing_field k then
                Option.map (fun f -> (k, f)) (Sj.num fv)
              else None)
            fields
        in
        Some (name, timings)
      | _ -> None)

  let read_records path =
    let ic =
      try open_in path
      with Sys_error e -> usage_error (Fmt.str "cannot read baseline: %s" e)
    in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> go acc
          | line -> (
            match parse_record path line with
            | Some r -> go (r :: acc)
            | None -> go acc)
        in
        go [])

  (* group records by section, keeping each section's row order *)
  let by_section records =
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun (name, timings) ->
        if not (Hashtbl.mem tbl name) then begin
          order := name :: !order;
          Hashtbl.add tbl name []
        end;
        Hashtbl.replace tbl name (timings :: Hashtbl.find tbl name))
      records;
    List.rev_map (fun n -> (n, List.rev (Hashtbl.find tbl n))) !order

  let noise_floor_ns = 1e5

  let run ~baseline ~current ~threshold =
    let base = by_section (read_records baseline) in
    let cur = by_section (read_records current) in
    let regressions = ref 0 in
    Fmt.pr "@.== regression check vs %s (threshold %.1fx) ==@." baseline
      threshold;
    List.iter
      (fun (section, cur_rows) ->
        match List.assoc_opt section base with
        | None -> Fmt.pr "  note: section %s not in baseline, skipped@." section
        | Some base_rows ->
          if List.length base_rows <> List.length cur_rows then
            Fmt.pr "  note: section %s row count differs (%d vs %d)@." section
              (List.length cur_rows) (List.length base_rows);
          List.iteri
            (fun i cur_timings ->
              match List.nth_opt base_rows i with
              | None -> ()
              | Some base_timings ->
                List.iter
                  (fun (field, cur_ns) ->
                    match List.assoc_opt field base_timings with
                    | None -> ()
                    | Some base_ns ->
                      if
                        cur_ns > base_ns *. threshold
                        && cur_ns -. base_ns > noise_floor_ns
                      then begin
                        incr regressions;
                        Fmt.pr
                          "  REGRESSION %s[%d].%s: %s -> %s (%.1fx > %.1fx)@."
                          section i field (pp_ns base_ns) (pp_ns cur_ns)
                          (cur_ns /. base_ns) threshold
                      end)
                  cur_timings)
            cur_rows)
      cur;
    if !regressions = 0 then begin
      Fmt.pr "  ok: no timing regression beyond %.1fx@." threshold;
      true
    end
    else begin
      Fmt.pr "  FAILED: %d regression(s) beyond %.1fx@." !regressions threshold;
      false
    end
end

(* --- section registry and driver -------------------------------------------------- *)

let sections =
  [ ("thm49", bench_thm49);
    ("c410", bench_c410);
    ("c411", bench_c411);
    ("c412", bench_c412);
    ("pathological", bench_pathological);
    ("thm413", bench_thm413);
    ("thm414", bench_thm414);
    ("c415", bench_c415);
    ("counting", bench_counting_ablation);
    ("forest_count", bench_forest_count);
    ("weighted_kbest", bench_weighted_kbest);
    ("inside_outside", bench_inside_outside);
    ("accepts_worklist", bench_accepts_worklist);
    ("earley_completer", bench_earley_completer);
    ("earley_leo", bench_earley_leo);
    ("incremental", bench_incremental);
    ("scratch_reuse", bench_scratch_reuse);
    ("cyk_dense", bench_cyk_dense);
    ("cyk_blocked", bench_cyk_blocked);
    ("engine_crossover", bench_engine_crossover);
    ("surface", bench_surface);
    ("service", bench_service);
    ("store_coldstart", bench_store_coldstart);
    ("fault_overhead", bench_fault_overhead);
    ("metrics_overhead", bench_metrics_overhead);
    ("probe_overhead", bench_probe_overhead);
    ("micro", bench_micro) ]

let () =
  let cli = parse_cli () in
  let selected =
    match cli.only with
    | None -> sections
    | Some names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n sections) then
            usage_error
              (Fmt.str "unknown section %s (known: %s)" n
                 (String.concat ", " (List.map fst sections))))
        names;
      List.filter (fun (n, _) -> List.mem n names) sections
  in
  Fmt.pr "lambekd benchmark harness — each section regenerates one paper \
          artifact's shape claim@.";
  let oc = open_out cli.json_path in
  json_sink := Sink.json_lines oc;
  Fun.protect
    ~finally:(fun () ->
      !json_sink.Sink.flush ();
      json_sink := Sink.null;
      close_out oc)
    (fun () -> List.iter (fun (_, f) -> f ()) selected);
  Fmt.pr "@.done (JSON records in %s).@." cli.json_path;
  match cli.check with
  | None -> ()
  | Some baseline ->
    if
      not
        (Check.run ~baseline ~current:cli.json_path ~threshold:cli.threshold)
    then exit 1
