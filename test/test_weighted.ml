(* Tests for weighted parsing over the packed chart: semiring laws, the
   chart's count against an independent derivation counter and its
   membership against [Enum.accepts] on random grammars, Viterbi / lazy
   k-best (ordering, determinism, hand oracles), inside/outside
   consistency, PCFG weight-table validation,
   terminal interning for [Enum.accepts], and a 4-domain stress test
   asserting ranked output is byte-identical to serial — clean and under
   a committed fault schedule. *)

module W = Lambekd_weighted
module S = W.Semiring
module H = W.Sweep
module Chart = Lambekd_grammar.Chart
module Weights = W.Weights
module Cfg = Lambekd_cfg.Cfg
module Grammar = Lambekd_grammar.Grammar
module Enum = Lambekd_grammar.Enum
module Ptree = Lambekd_grammar.Ptree
module Probe = Lambekd_telemetry.Probe
module Sv = Lambekd_service
module Protocol = Sv.Protocol
module Registry = Sv.Registry
module Exec = Sv.Exec
module Scheduler = Sv.Scheduler
module Builtin = Sv.Builtin
module Fault = Sv.Fault

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_close msg expected got =
  if not (Float.abs (expected -. got) <= 1e-9 *. (1. +. Float.abs expected))
  then Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

(* --- semiring laws -------------------------------------------------------- *)

(* The integer semirings satisfy the laws exactly (Counting in the
   saturating sense); the float semirings only up to rounding —
   [Float.max] is exact, but [+.] re-association and log-sum-exp are
   not, so those are checked with a relative tolerance. *)
let laws_exact (type w) (module M : S.S with type t = w) name samples =
  List.iter
    (fun (a, b, c) ->
      let chk msg x y =
        if not (M.equal x y) then
          Alcotest.failf "%s %s: %s <> %s" name msg (M.to_string x)
            (M.to_string y)
      in
      chk "plus assoc" (M.plus (M.plus a b) c) (M.plus a (M.plus b c));
      chk "plus comm" (M.plus a b) (M.plus b a);
      chk "plus zero" (M.plus a M.zero) a;
      chk "times assoc" (M.times (M.times a b) c) (M.times a (M.times b c));
      chk "times one" (M.times a M.one) a;
      chk "one times" (M.times M.one a) a;
      chk "zero annihilates" (M.times a M.zero) M.zero;
      chk "distrib" (M.times a (M.plus b c))
        (M.plus (M.times a b) (M.times a c)))
    samples

let laws_approx (type w) (module M : S.S with type t = w)
    (to_float : w -> float) name samples =
  List.iter
    (fun (a, b, c) ->
      let chk msg x y =
        let x = to_float x and y = to_float y in
        let same =
          (Float.is_finite x && Float.is_finite y
          && Float.abs (x -. y) <= 1e-9 *. (1. +. Float.abs x))
          || (not (Float.is_finite x)) && x = y
        in
        if not same then
          Alcotest.failf "%s %s: %.17g <> %.17g" name msg x y
      in
      chk "plus assoc" (M.plus (M.plus a b) c) (M.plus a (M.plus b c));
      chk "plus comm" (M.plus a b) (M.plus b a);
      chk "plus zero" (M.plus a M.zero) a;
      chk "times assoc" (M.times (M.times a b) c) (M.times a (M.times b c));
      chk "times one" (M.times a M.one) a;
      chk "zero annihilates" (M.times a M.zero) M.zero;
      chk "distrib" (M.times a (M.plus b c))
        (M.plus (M.times a b) (M.times a c)))
    samples

let test_semiring_laws () =
  let rng = Random.State.make [| 0xbeef |] in
  let triples gen = List.init 300 (fun _ -> (gen (), gen (), gen ())) in
  laws_exact (module S.Boolean) "bool"
    (triples (fun () -> Random.State.bool rng));
  (* mix small counts with values near the clamp so saturation paths run *)
  let count () =
    match Random.State.int rng 5 with
    | 0 -> 0
    | 1 -> max_int - Random.State.int rng 3
    | 2 -> max_int / (1 + Random.State.int rng 4)
    | _ -> Random.State.int rng 1000
  in
  laws_exact (module S.Counting) "counting" (triples count);
  let logp () = -.Float.of_int (Random.State.int rng 40) /. 3. in
  laws_approx (module S.Viterbi) Fun.id "viterbi" (triples logp);
  laws_approx (module S.Inside) Fun.id "inside" (triples logp);
  check_bool "counting saturates" true
    (S.saturated S.Counting.(times (times max_int 2) 2));
  check_close "log_add oracle" (Float.log 3.)
    (S.log_add (Float.log 1.) (Float.log 2.));
  check_close "log_add neg_infinity" (Float.log 2.)
    (S.log_add Float.neg_infinity (Float.log 2.))

(* --- random-grammar differentials ---------------------------------------- *)

(* Same shape as the registry differential's generator: every
   nonterminal productive by construction, terminals drawn from {a,b}
   so a word with a 'c' exercises the interning cutoff. *)
let random_cfg rng =
  let nts = 1 + Random.State.int rng 3 in
  let nt i = Fmt.str "N%d" i in
  let sym () =
    match Random.State.int rng 4 with
    | 0 -> Cfg.T 'a'
    | 1 -> Cfg.T 'b'
    | _ -> Cfg.N (nt (Random.State.int rng nts))
  in
  let productions =
    List.concat_map
      (fun i ->
        let prods = 1 + Random.State.int rng 2 in
        List.init prods (fun _ ->
            let len = Random.State.int rng 4 in
            (nt i, List.init len (fun _ -> sym ()))))
      (List.init nts Fun.id)
  in
  Cfg.make ~start:(nt 0) ~productions

let random_word ?(alphabet = "ab") rng =
  let n = String.length alphabet in
  String.init (Random.State.int rng 6) (fun _ ->
      alphabet.[Random.State.int rng n])

(* An independent count oracle: derivations of [w] counted straight off
   the [Cfg.t] productions, memoized per (nonterminal, span), with the
   chart's saturating arithmetic.  It is exact — and terminates — on
   grammars without same-span cycles: no A ⇒+ A through productions
   whose other symbols are all nullable (ε-cycles and unit cycles). *)
let sat_add a b = if a + b < 0 then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let nullable_set (cfg : Cfg.t) =
  let nul = Hashtbl.create 8 in
  let sym_nullable = function
    | Cfg.T _ -> false
    | Cfg.N m -> Hashtbl.mem nul m
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        if (not (Hashtbl.mem nul p.lhs)) && List.for_all sym_nullable p.rhs
        then begin
          Hashtbl.replace nul p.lhs ();
          changed := true
        end)
      cfg.Cfg.productions
  done;
  sym_nullable

(* A ⇝ B when some A → α B β has α and β nullable *)
let same_span_cyclic (cfg : Cfg.t) =
  let nullable = nullable_set cfg in
  let succ a =
    List.concat_map
      (fun (_, (p : Cfg.production)) ->
        let rec go pre = function
          | [] -> []
          | sym :: rest ->
            let here =
              match sym with
              | Cfg.N b when pre && List.for_all nullable rest -> [ b ]
              | _ -> []
            in
            here @ go (pre && nullable sym) rest
        in
        go true p.rhs)
      (Cfg.productions_of cfg a)
  in
  let rec reaches seen a target =
    List.exists
      (fun b ->
        String.equal b target
        || ((not (List.mem b seen)) && reaches (b :: seen) b target))
      (succ a)
  in
  List.exists (fun a -> reaches [ a ] a a) (Cfg.nonterminals cfg)

let oracle_count (cfg : Cfg.t) w =
  let nullable = nullable_set cfg in
  let memo = Hashtbl.create 64 in
  let rec d a i j =
    if i = j && not (nullable (Cfg.N a)) then 0
    else
      match Hashtbl.find_opt memo (a, i, j) with
      | Some (Some c) -> c
      | Some None -> Alcotest.failf "oracle: same-span cycle at %s" a
      | None ->
        Hashtbl.replace memo (a, i, j) None;
        let c =
          List.fold_left
            (fun acc (_, (p : Cfg.production)) -> sat_add acc (s p.rhs i j))
            0 (Cfg.productions_of cfg a)
        in
        Hashtbl.replace memo (a, i, j) (Some c);
        c
  and s rhs i j =
    match rhs with
    | [] -> if i = j then 1 else 0
    | Cfg.T c :: rest ->
      if i < j && Char.equal w.[i] c then s rest (i + 1) j else 0
    | Cfg.N m :: rest ->
      let acc = ref 0 in
      for k = i to j do
        (* an empty side must be nullable: keeps same-span recursion on
           the ⇝ edges alone *)
        if (k > i || nullable (Cfg.N m)) && (k < j || List.for_all nullable rest)
        then acc := sat_add !acc (sat_mul (d m i k) (s rest k j))
      done;
      !acc
  in
  d cfg.Cfg.start 0 (String.length w)

let rec cycle_free_cfg rng =
  let cfg = random_cfg rng in
  if same_span_cyclic cfg then cycle_free_cfg rng else cfg

let qcheck_count_oracle =
  QCheck.Test.make ~name:"chart count = derivation counter, cycle-free grammars"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0xc0de; seed |] in
      let cfg = cycle_free_cfg rng in
      let g = Cfg.to_grammar cfg in
      List.for_all
        (fun w -> Chart.count (Chart.build g w) = oracle_count cfg w)
        (List.init 4 (fun _ -> random_word rng)
        @ [ String.init 8 (fun _ -> if Random.State.bool rng then 'a' else 'b') ]))

(* Membership holds on every random grammar, ε- and unit-cycles
   included: the chart accepts exactly when [Enum.accepts] does. *)
let qcheck_accepts_differential =
  QCheck.Test.make ~name:"chart accepts = Enum.accepts on random grammars"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0xacce; seed |] in
      let cfg = random_cfg rng in
      let g = Cfg.to_grammar cfg in
      List.for_all
        (fun w -> Chart.accepts (Chart.build g w) = Enum.accepts g w)
        (List.init 4 (fun _ -> random_word rng)))

(* A same-span cycle cut must not be memoized as emptiness: building
   N1(0,0) visits N2(0,0) while N1 is still open, and N2's only
   derivation (N2 → N1 → ε) goes through that open ref.  Settling
   N2(0,0) as empty there would lose N0 → N1 N1 N2. *)
let test_chart_cut_not_memoized () =
  let cfg =
    Cfg.make ~start:"N0"
      ~productions:
        [ ("N0", [ Cfg.N "N1"; Cfg.N "N1"; Cfg.N "N2" ]);
          ("N0", [ Cfg.T 'a'; Cfg.T 'b'; Cfg.T 'a' ]);
          ("N1", []);
          ("N1", [ Cfg.N "N2"; Cfg.N "N0"; Cfg.N "N1" ]);
          ("N2", [ Cfg.N "N0"; Cfg.T 'a'; Cfg.N "N0" ]);
          ("N2", [ Cfg.N "N1" ]) ]
  in
  let g = Cfg.to_grammar cfg in
  check_bool "Enum accepts the empty word" true (Enum.accepts g "");
  check_bool "Earley accepts the empty word" true
    (Lambekd_cfg.Earley.recognizes cfg "");
  let h = Chart.build g "" in
  check_bool "chart accepts the empty word" true (Chart.accepts h);
  check_bool "chart counts a derivation" true (Chart.count h > 0);
  (* twelve mutually unit-recursive refs, admitted over "aa" yet empty
     there: every order of visiting them is a different cut pattern, and
     re-exploring per visit instead of recording the cut-dependent
     emptiness takes 12! steps *)
  let k = 12 in
  let nt i = Fmt.str "N%d" i in
  let productions =
    List.concat_map
      (fun i ->
        ((nt i, [ Cfg.T 'a'; Cfg.T 'b' ]) :: (nt i, [ Cfg.T 'b'; Cfg.T 'a' ])
        :: List.filter_map
             (fun j -> if j = i then None else Some (nt i, [ Cfg.N (nt j) ]))
             (List.init k Fun.id)))
      (List.init k Fun.id)
  in
  let g = Cfg.to_grammar (Cfg.make ~start:"N0" ~productions) in
  let was_enabled = Probe.enabled () in
  Probe.enable ();
  let misses = Probe.counter "enum.memo_miss" in
  let before = Probe.value misses in
  check_bool "unit cycles over \"aa\" are empty" false
    (Chart.accepts (Chart.build g "aa"));
  let built = Probe.value misses - before in
  if not was_enabled then Probe.disable ();
  if built > k * k then
    Alcotest.failf "%d ref builds for %d cyclic refs (bound %d)" built k (k * k)

let qcheck_kbest_properties =
  QCheck.Test.make
    ~name:"kbest: non-increasing, k=1 = viterbi, length = min k count"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0x6b65; seed |] in
      let cfg = random_cfg rng in
      let g = Cfg.to_grammar cfg in
      let wt = Weights.uniform cfg in
      let weight = Weights.edge_weight wt in
      List.for_all
        (fun w ->
          let h = Chart.build g w in
          let total = Chart.count h in
          let k = 1 + Random.State.int rng 7 in
          let ds = H.kbest ~weight ~k h in
          let rec non_incr = function
            | ({ H.logw = a; _ } : H.derivation)
              :: ({ H.logw = b; _ } as d2)
              :: rest ->
              a >= b && non_incr (d2 :: rest)
            | _ -> true
          in
          let len_ok =
            if S.saturated total then List.length ds <= k
            else List.length ds = min k total
          in
          let head_ok =
            match (H.viterbi ~weight h, ds) with
            | None, [] -> true
            | Some v, d :: _ -> Float.equal v.H.logw d.H.logw
            | _ -> false
          in
          let yields_ok =
            List.for_all (fun d -> String.equal (Ptree.yield d.H.tree) w) ds
          in
          len_ok && non_incr ds && head_ok && yields_ok)
        (List.init 3 (fun _ -> random_word rng)))

let qcheck_intern_transparent =
  QCheck.Test.make
    ~name:"Enum.accepts with interning = without, cutoff included"
    ~count:150
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0x17e2; seed |] in
      let cfg = random_cfg rng in
      let g = Cfg.to_grammar cfg in
      let it = Enum.intern g in
      List.for_all
        (* 'c' is outside every generated grammar's alphabet, so some
           words take the early-cutoff path *)
          (fun w -> Enum.accepts g w = Enum.accepts ~intern:it g w)
        (List.init 5 (fun _ -> random_word ~alphabet:"abc" rng)))

(* --- hand oracles: ss with P(S->SS)=0.4, P(S->a)=0.6 ---------------------- *)

let ss_cfg () = (Option.get (Builtin.find "ss") : Cfg.t)

let ss_weights () =
  match Weights.normalize (ss_cfg ()) [| 0.4; 0.6 |] with
  | Ok wt -> wt
  | Error e -> Alcotest.fail e

let test_mass_oracle () =
  let cfg = ss_cfg () in
  let g = Cfg.to_grammar cfg in
  let wt = ss_weights () in
  let weight = Weights.edge_weight wt in
  let mass w =
    Float.exp (H.inside_root (module S.Inside) ~weight (Chart.build g w))
  in
  (* a^n has Catalan(n-1) parses, each using n-1 branch rules and n leaf
     rules: mass(a^n) = C(n-1) · 0.4^(n-1) · 0.6^n *)
  check_close "mass a" 0.6 (mass "a");
  check_close "mass aa" 0.144 (mass "aa");
  check_close "mass aaa" 0.06912 (mass "aaa");
  check_close "mass aaaa" (5. *. (0.4 ** 3.) *. (0.6 ** 4.)) (mass "aaaa");
  check_close "rejected mass is zero" 0. (mass "b");
  (* the boolean sweep is membership *)
  check_bool "boolean inside accepts" true
    (H.inside_root (module S.Boolean) ~weight:(fun _ -> true) (Chart.build g "aaa"));
  check_bool "boolean inside rejects" false
    (H.inside_root (module S.Boolean) ~weight:(fun _ -> true) (Chart.build g "b"))

let test_kbest_oracle () =
  let cfg = ss_cfg () in
  let g = Cfg.to_grammar cfg in
  let weight = Weights.edge_weight (ss_weights ()) in
  let h = Chart.build g "aaaa" in
  check_int "a^4 has Catalan(3) = 5 parses" 5 (Chart.count h);
  let ds = H.kbest ~weight ~k:10 h in
  check_int "kbest exhausts at 5" 5 (List.length ds);
  (* every derivation of a^4 uses 3 branch and 4 leaf applications *)
  let expected = (3. *. Float.log 0.4) +. (4. *. Float.log 0.6) in
  List.iter (fun d -> check_close "uniform tie weight" expected d.H.logw) ds;
  (* ranked output is deterministic: ties broken on item order *)
  let render ds =
    String.concat "\n"
      (List.map (fun d -> Ptree.to_string d.H.tree) ds)
  in
  check_string "tie order stable across rebuilds" (render ds)
    (render (H.kbest ~weight ~k:10 (Chart.build g "aaaa")));
  let trees = List.map (fun d -> Ptree.to_string d.H.tree) ds in
  check_int "derivations distinct" 5
    (List.length (List.sort_uniq String.compare trees));
  List.iter
    (fun d -> check_string "yield" "aaaa" (Ptree.yield d.H.tree))
    ds;
  match H.viterbi ~weight h with
  | None -> Alcotest.fail "viterbi rejected an accepted input"
  | Some v ->
    check_string "viterbi = kbest head" (Ptree.to_string v.H.tree)
      (Ptree.to_string (List.hd ds).H.tree)

let test_inside_outside_consistency () =
  let rng = Random.State.make [| 0x10ca1 |] in
  for _ = 1 to 50 do
    let cfg = random_cfg rng in
    let g = Cfg.to_grammar cfg in
    let w = random_word rng in
    let h = Chart.build g w in
    if Chart.accepts h then begin
      let one _ = 1 in
      let ins = H.inside (module S.Counting) ~weight:one h in
      let out = H.outside (module S.Counting) ~weight:one ~inside:ins h in
      let root = Chart.root h in
      let total = ins.(root) in
      check_int "outside(root) = one" 1 out.(root);
      check_int "inside(root) = count" (Chart.count h) total;
      (* through-count: derivations containing node v; a node is on at
         most every derivation, and the root is on all of them *)
      if not (S.saturated total) then
        for v = 0 to Chart.nodes h - 1 do
          let through = S.Counting.times ins.(v) out.(v) in
          if through > total then
            Alcotest.failf "node %d: through %d > total %d" v through total
        done
    end
  done

(* --- weight tables -------------------------------------------------------- *)

let test_weights_validation () =
  let cfg = ss_cfg () in
  let err w =
    match Weights.normalize cfg w with
    | Ok _ -> Alcotest.fail "expected validation error"
    | Error e -> e
  in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  check_bool "arity error names the expected count" true
    (contains ~affix:"2" (err [| 1. |]));
  check_bool "negative weight rejected" true
    (String.length (err [| -1.; 1. |]) > 0);
  check_bool "nan rejected" true (String.length (err [| Float.nan; 1. |]) > 0);
  check_bool "infinite rejected" true
    (String.length (err [| Float.infinity; 1. |]) > 0);
  check_bool "zero-mass lhs rejected" true
    (String.length (err [| 0.; 0. |]) > 0);
  (* normalization is per-LHS: scaling a table leaves it unchanged *)
  let t1 = Result.get_ok (Weights.normalize cfg [| 1.; 3. |]) in
  let t2 = Result.get_ok (Weights.normalize cfg [| 2.; 6. |]) in
  check_string "scaled tables share a digest" (Weights.digest t1)
    (Weights.digest t2);
  let t3 = Result.get_ok (Weights.normalize cfg [| 3.; 1. |]) in
  check_bool "distinct tables get distinct digests" false
    (String.equal (Weights.digest t1) (Weights.digest t3));
  check_int "table covers every production" 2 (Weights.n t1);
  check_close "logp normalized" (Float.log 0.25) (Weights.logp t1 0);
  let u = Weights.uniform cfg in
  check_close "uniform logp" (Float.log 0.5) (Weights.logp u 0)

(* --- terminal interning --------------------------------------------------- *)

let test_intern_basic () =
  let g = Cfg.to_grammar (ss_cfg ()) in
  let it = Enum.intern g in
  check_bool "ss alphabet is complete" true (Enum.intern_exact it);
  check_int "one terminal class" 1 (Enum.intern_classes it);
  check_bool "member" true (Enum.accepts ~intern:it g "aaa");
  check_bool "non-member in alphabet" true (Enum.accepts ~intern:it g "a");
  check_bool "out-of-alphabet rejected" false (Enum.accepts ~intern:it g "aab");
  (* Top consumes arbitrary bytes: the alphabet cannot be complete *)
  let topg = Grammar.Seq (Grammar.Top, Grammar.Chr 'a') in
  let itop = Enum.intern topg in
  check_bool "Top defeats exactness" false (Enum.intern_exact itop);
  check_bool "inexact interning still answers" true
    (Enum.accepts ~intern:itop topg "xa")

let test_intern_cutoff_probe () =
  let was_enabled = Probe.enabled () in
  Probe.enable ();
  let c = Probe.counter "enum.intern_cutoff" in
  let before = Probe.value c in
  let g = Cfg.to_grammar (ss_cfg ()) in
  let it = Enum.intern g in
  check_bool "cut" false (Enum.accepts ~intern:it g "aaxa");
  check_int "cutoff counted" (before + 1) (Probe.value c);
  (* in-alphabet traffic never takes the cutoff *)
  check_bool "no cut" true (Enum.accepts ~intern:it g "aa");
  check_int "counter unchanged" (before + 1) (Probe.value c);
  (* the service path wires the artifact's table in *)
  let a = Registry.compile (ss_cfg ()) in
  check_bool "artifact interning is exact" true
    (Enum.intern_exact a.Registry.intern);
  if not was_enabled then Probe.disable ()

(* --- service wire --------------------------------------------------------- *)

let run_line ?(reg = Registry.create ()) line =
  match Protocol.parse_request line with
  | Error e -> Alcotest.fail e
  | Ok req -> Exec.run reg req

let test_wire_kbest_and_mass () =
  let reg = Registry.create () in
  let r =
    run_line ~reg
      {|{"id":"k","grammar":"ss","input":"aaaa","query":"parse","kbest":5}|}
  in
  check_string "engine" "kbest" r.Protocol.engine_used;
  (match r.Protocol.outcome with
  | Ok (Protocol.Ranked { parses }) ->
    check_int "five ranked parses" 5 (List.length parses);
    let rec non_incr = function
      | (a, _) :: ((b, _) :: _ as rest) -> a >= b && non_incr rest
      | _ -> true
    in
    check_bool "ranked non-increasing" true (non_incr parses)
  | _ -> Alcotest.fail "expected a ranked verdict");
  let m =
    run_line ~reg
      {|{"id":"m","grammar":"ss","input":"aa","query":"mass","weights":[0.4,0.6]}|}
  in
  (match m.Protocol.outcome with
  | Ok (Protocol.Mass { log_mass }) ->
    check_close "mass aa" 0.144 (Float.exp log_mass)
  | _ -> Alcotest.fail "expected a mass verdict");
  let rej =
    run_line ~reg {|{"id":"r","grammar":"ss","input":"b","query":"mass"}|}
  in
  (match rej.Protocol.outcome with
  | Ok (Protocol.Mass { log_mass }) ->
    check_close "rejected mass" 0. (Float.exp log_mass)
  | _ -> Alcotest.fail "expected a mass verdict");
  (* malformed weights are a bad request, not a crash *)
  let bad =
    run_line ~reg
      {|{"id":"b","grammar":"ss","input":"a","query":"parse","kbest":2,"weights":[1]}|}
  in
  (match bad.Protocol.outcome with
  | Error (Protocol.Bad_request _) -> ()
  | _ -> Alcotest.fail "expected bad_request on arity mismatch");
  (* the per-engine latency histograms reach the metrics endpoint *)
  let module Metrics = Lambekd_telemetry.Metrics in
  let was_on = Metrics.enabled () in
  Metrics.enable ();
  ignore
    (run_line ~reg
       {|{"id":"h","grammar":"ss","input":"aa","query":"parse","kbest":2}|});
  ignore (run_line ~reg {|{"id":"h2","grammar":"ss","input":"aa","query":"mass"}|});
  let exposition = Metrics.expose () in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  check_bool "kbest histogram exposed" true
    (contains ~affix:"lambekd_request_ns_kbest" exposition);
  check_bool "mass histogram exposed" true
    (contains ~affix:"lambekd_request_ns_mass" exposition);
  if not was_on then Metrics.disable ()

(* --- 4-domain ranked-output stress ---------------------------------------- *)

let with_schedule s f =
  match Fault.parse s with
  | Error e -> Alcotest.failf "schedule %S: %s" s e
  | Ok cfg ->
    Fault.install cfg;
    Fun.protect ~finally:Fault.clear f

let ranked_requests () =
  List.filter_map
    (fun line ->
      match Protocol.parse_request line with
      | Ok r -> Some r
      | Error e -> Alcotest.fail e)
    (List.concat
       (List.init 30 (fun i ->
            let ss_w = String.make (1 + (i mod 8)) 'a' in
            let expr_in =
              "n" ^ String.concat "" (List.init (i mod 5) (fun _ -> "+n"))
            in
            [ Fmt.str
                {|{"id":"k%d","grammar":"ss","input":"%s","query":"parse","kbest":%d}|}
                i ss_w
                (1 + (i mod 6));
              Fmt.str
                {|{"id":"w%d","grammar":"expr_plain","input":"%s","query":"parse","kbest":3,"weights":[%s]}|}
                i expr_in
                (match i mod 3 with
                | 0 -> "1,1,1,1"
                | 1 -> "0.7,0.3,0.8,0.2"
                | _ -> "2,1,3,4");
              Fmt.str
                {|{"id":"s%d","grammar":"ss","input":"%s","query":"mass"%s}|}
                i
                (if i mod 7 = 0 then "b" else ss_w)
                (if i mod 2 = 0 then {|,"weights":[0.3,0.7]|} else "") ])))

(* Ranked output must be deterministic: weights go through the same
   normalized table, ties break on item order, floats render with a
   fixed format — so the 4-domain run is byte-identical to serial,
   clean and under a committed fault schedule (faults retry requests,
   recomputing k-best from scratch on the same artifact). *)
let test_ranked_domain_stress () =
  let reqs = ranked_requests () in
  let total = List.length reqs in
  let render rs =
    String.concat "\n" (List.map (Protocol.response_to_json ~times:false) rs)
  in
  let serial =
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    render (List.map (Exec.run reg) reqs)
  in
  let parallel () =
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    let sched = Scheduler.create ~domains:4 ~queue_cap:128 ~registry:reg () in
    let out = Array.make total None in
    List.iteri
      (fun i r -> Scheduler.submit sched r (fun resp -> out.(i) <- Some resp))
      reqs;
    Scheduler.shutdown sched;
    render (Array.to_list (Array.map Option.get out))
  in
  check_string "4-domain ranked output byte-identical to serial" serial
    (parallel ());
  let faulted =
    with_schedule "seed=11;exec.run:fail:0.4;registry.get:corrupt:0.4"
      (fun () -> parallel ())
  in
  check_string "identical under fault schedule too" serial faulted

let suite =
  [ Alcotest.test_case "semiring laws" `Quick test_semiring_laws;
    Alcotest.test_case "mass hand oracle (ss)" `Quick test_mass_oracle;
    Alcotest.test_case "kbest hand oracle (ss)" `Quick test_kbest_oracle;
    Alcotest.test_case "inside/outside consistency" `Quick
      test_inside_outside_consistency;
    Alcotest.test_case "weight-table validation" `Quick
      test_weights_validation;
    Alcotest.test_case "interning basics" `Quick test_intern_basic;
    Alcotest.test_case "interning cutoff probe" `Quick
      test_intern_cutoff_probe;
    Alcotest.test_case "wire: kbest + mass" `Quick test_wire_kbest_and_mass;
    Alcotest.test_case "4-domain ranked stress" `Slow
      test_ranked_domain_stress ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_accepts_differential;
        qcheck_count_oracle;
        qcheck_kbest_properties;
        qcheck_intern_transparent ]
  @ [ Alcotest.test_case "chart: a cycle cut is not memoized as empty" `Quick
        test_chart_cut_not_memoized ]
