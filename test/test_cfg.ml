(* Tests for context-free machinery: CFGs as inductive linear types,
   Earley and CYK oracles, LL(1), mu-regular expressions (Leiss), the Dyck
   language (Thm 4.13) and the Fig 15 expression parser (Thm 4.14). *)

module Cfg = Lambekd_cfg.Cfg
module Earley = Lambekd_cfg.Earley
module Cyk = Lambekd_cfg.Cyk
module Binarize = Lambekd_cfg.Binarize
module CykD = Lambekd_cfg.Cyk_dense
module Ff = Lambekd_cfg.First_follow
module Ll1 = Lambekd_cfg.Ll1
module Mu = Lambekd_cfg.Mu_regex
module Dyck = Lambekd_cfg.Dyck
module Expr = Lambekd_cfg.Expr
module R = Lambekd_regex.Regex
module Dauto = Lambekd_automata.Dauto
module P = Lambekd_grammar.Ptree
module E = Lambekd_grammar.Enum
module L = Lambekd_grammar.Language
module A = Lambekd_grammar.Ambiguity
module T = Lambekd_grammar.Transformer
module Q = Lambekd_grammar.Equivalence
module I = Lambekd_grammar.Index
module Probe = Lambekd_telemetry.Probe

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* S -> eps | a S b   (a^n b^n) *)
let anbn =
  Cfg.make ~start:"S"
    ~productions:[ ("S", []); ("S", [ Cfg.T 'a'; Cfg.N "S"; Cfg.T 'b' ]) ]

(* ambiguous: S -> eps | SS | aSb; nullable + left recursion stress *)
let hard =
  Cfg.make ~start:"S"
    ~productions:
      [ ("S", []);
        ("S", [ Cfg.N "S"; Cfg.N "S" ]);
        ("S", [ Cfg.T 'a'; Cfg.N "S"; Cfg.T 'b' ]) ]

(* balanced parens as a CFG *)
let dyck_cfg =
  Cfg.make ~start:"D"
    ~productions:
      [ ("D", []); ("D", [ Cfg.T '('; Cfg.N "D"; Cfg.T ')'; Cfg.N "D" ]) ]

let anbn_member w =
  let n = String.length w / 2 in
  String.length w mod 2 = 0
  && String.for_all (fun c -> c = 'a') (String.sub w 0 n)
  && String.for_all (fun c -> c = 'b') (String.sub w n n)

(* --- CFG structure ------------------------------------------------------- *)

let test_cfg_make () =
  Alcotest.(check (list string)) "nonterminals" [ "S" ] (Cfg.nonterminals anbn);
  Alcotest.(check (list char)) "alphabet" [ 'a'; 'b' ] (Cfg.alphabet anbn);
  check_int "productions of S" 2 (List.length (Cfg.productions_of anbn "S"));
  match Cfg.make ~start:"S" ~productions:[ ("S", [ Cfg.N "Missing" ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected missing-nonterminal error"

let test_cfg_to_grammar () =
  let g = Cfg.to_grammar anbn in
  List.iter
    (fun w ->
      check_bool (Fmt.str "agree %S" w) (anbn_member w) (E.accepts g w))
    (L.words [ 'a'; 'b' ] ~max_len:6);
  check_int "unambiguous" 1 (E.count g "aabb")

(* --- Earley ----------------------------------------------------------------- *)

let test_earley_basic () =
  List.iter
    (fun w ->
      check_bool (Fmt.str "anbn %S" w) (anbn_member w)
        (Earley.recognizes anbn w))
    (L.words [ 'a'; 'b' ] ~max_len:6)

let test_earley_hard () =
  (* `hard` accepts exactly the balanced a/b strings (a=open, b=close) *)
  let balanced w =
    let ok = ref true and depth = ref 0 in
    String.iter
      (fun c ->
        if c = 'a' then incr depth else decr depth;
        if !depth < 0 then ok := false)
      w;
    !ok && !depth = 0
  in
  List.iter
    (fun w ->
      check_bool (Fmt.str "hard %S" w) (balanced w) (Earley.recognizes hard w))
    (L.words [ 'a'; 'b' ] ~max_len:6)

let test_earley_parse_tree () =
  match Earley.parse anbn "aabb" with
  | None -> Alcotest.fail "expected a parse"
  | Some t ->
    Alcotest.(check string) "yield" "aabb" (Earley.tree_yield t);
    let pt = Earley.tree_to_ptree t in
    check_bool "genuine parse" true
      (List.exists (P.equal pt) (E.parses (Cfg.to_grammar anbn) "aabb"))

(* Tree reconstruction is memoized per (nonterminal, span).  Without the
   memo, left-nested sums on the right-biased expression grammar rebuilt
   every rejected split's subtree: doubling per nesting level, so depth
   40 would not finish.  The trees are the ones the unmemoized walk
   produced: on the unambiguous grammar the unique parse, on ambiguous
   and cyclic grammars the pinned first-found trees. *)
let expr_plain =
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "A" ]);
        ("E", [ Cfg.N "A"; Cfg.T '+'; Cfg.N "E" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let rec nest d = if d = 0 then "n" else "(" ^ nest (d - 1) ^ ")+n"

let rec nest_tree d =
  if d = 0 then "cfg[σ0·cfg[σ2·'n']]"
  else
    "cfg[σ1·(cfg[σ3·('(' ⊗ (" ^ nest_tree (d - 1)
    ^ " ⊗ ')'))] ⊗ ('+' ⊗ cfg[σ0·cfg[σ2·'n']]))]"

let tree_string t = P.to_string (Earley.tree_to_ptree t)

let test_earley_parse_tree_memo () =
  let comp = Earley.compile expr_plain in
  for d = 0 to 40 do
    let ch = Earley.run_compiled comp (nest d) in
    match Earley.parse_tree ch with
    | Some t ->
      Alcotest.(check string) (Fmt.str "depth %d tree" d) (nest_tree d)
        (tree_string t)
    | None -> Alcotest.failf "depth %d: no parse" d
  done;
  (* a fixed bound far above the memoized walk (well under 10 ms here)
     and far below the unmemoized one *)
  let ch = Earley.run_compiled comp (nest 40) in
  let t0 = Unix.gettimeofday () in
  ignore (Earley.parse_tree ch);
  check_bool "depth 40 within 1 s" true (Unix.gettimeofday () -. t0 < 1.);
  (* poll runs at constituent visits and may abort the walk *)
  let calls = ref 0 in
  let poll () = incr calls; if !calls > 50 then raise Exit in
  check_bool "poll aborts" true
    (match Earley.parse_tree ~poll ch with _ -> false | exception Exit -> true);
  let ss =
    Cfg.make ~start:"S"
      ~productions:[ ("S", [ Cfg.N "S"; Cfg.N "S" ]); ("S", [ Cfg.T 'a' ]) ]
  in
  let cyc =
    Cfg.make ~start:"S"
      ~productions:
        [ ("S", [ Cfg.N "A" ]); ("S", [ Cfg.N "S"; Cfg.N "S" ]);
          ("S", [ Cfg.T 'a' ]); ("S", []); ("A", [ Cfg.N "S" ]);
          ("A", [ Cfg.T 'b'; Cfg.N "A" ]) ]
  in
  List.iter
    (fun (name, cfg, w, want) ->
      match Earley.parse cfg w with
      | Some t ->
        Alcotest.(check string) (Fmt.str "%s %S" name w) want (tree_string t)
      | None -> Alcotest.failf "%s %S: no parse" name w)
    [ ("ss", ss, "aaaa",
       "cfg[σ0·(cfg[σ1·'a'] ⊗ cfg[σ0·(cfg[σ1·'a'] ⊗ cfg[σ0·(cfg[σ1·'a'] ⊗ cfg[σ1·'a'])])])]");
      ("cyc", cyc, "", "cfg[σ3·ε]");
      ("cyc", cyc, "ab",
       "cfg[σ1·(cfg[σ2·'a'] ⊗ cfg[σ0·cfg[σ5·('b' ⊗ cfg[σ4·cfg[σ3·ε]])]])]");
      ("cyc", cyc, "ba", "cfg[σ0·cfg[σ5·('b' ⊗ cfg[σ4·cfg[σ2·'a']])]]");
      ("cyc", cyc, "bab",
       "cfg[σ0·cfg[σ5·('b' ⊗ cfg[σ4·cfg[σ1·(cfg[σ2·'a'] ⊗ cfg[σ0·cfg[σ5·('b' ⊗ cfg[σ4·cfg[σ3·ε]])]])]])]]") ]

let test_earley_parse_hard () =
  List.iter
    (fun w ->
      match Earley.parse hard w with
      | Some t -> Alcotest.(check string) "yield" w (Earley.tree_yield t)
      | None ->
        if Earley.recognizes hard w then
          Alcotest.failf "recognized but no tree for %S" w)
    [ ""; "ab"; "abab"; "aabb"; "aababb" ]

let test_earley_chart_size_grows () =
  let s1 = Earley.chart_size anbn "aabb" in
  let s2 = Earley.chart_size anbn "aaaabbbb" in
  check_bool "chart grows" true (s2 > s1)

(* --- CYK ---------------------------------------------------------------------- *)

let test_cyk_matches_earley () =
  List.iter
    (fun cfg ->
      let cnf = Cyk.of_cfg cfg in
      List.iter
        (fun w ->
          check_bool (Fmt.str "cyk=earley %S" w)
            (Earley.recognizes cfg w)
            (Cyk.recognizes cnf w))
        (L.words (Cfg.alphabet cfg) ~max_len:6))
    [ anbn; hard; dyck_cfg ]

let test_cyk_empty () =
  check_bool "anbn nullable" true (Cyk.accepts_empty (Cyk.of_cfg anbn));
  let no_eps = Cfg.make ~start:"S" ~productions:[ ("S", [ Cfg.T 'a' ]) ] in
  check_bool "no eps" false (Cyk.accepts_empty (Cyk.of_cfg no_eps));
  check_bool "rules exist" true (Cyk.rule_count (Cyk.of_cfg anbn) > 0)

(* --- FIRST/FOLLOW and LL(1) ----------------------------------------------------- *)

(* classic LL(1) expression grammar:
   E -> T E', E' -> eps | + T E', T -> n | ( E ) *)
let ll1_expr =
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "T"; Cfg.N "E'" ]);
        ("E'", []);
        ("E'", [ Cfg.T '+'; Cfg.N "T"; Cfg.N "E'" ]);
        ("T", [ Cfg.T 'n' ]);
        ("T", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let test_first_follow () =
  let ff = Ff.compute ll1_expr in
  check_bool "E' nullable" true (Ff.nullable ff "E'");
  check_bool "E not nullable" false (Ff.nullable ff "E");
  Alcotest.(check (list char)) "first E" [ '('; 'n' ] (Ff.first ff "E");
  Alcotest.(check (list char)) "first E'" [ '+' ] (Ff.first ff "E'");
  Alcotest.(check (list char)) "follow E" [ ')' ] (Ff.follow ff "E");
  Alcotest.(check (list char)) "follow E'" [ ')' ] (Ff.follow ff "E'");
  let first, nullable = Ff.first_of_seq ff [ Cfg.N "E'"; Cfg.T 'x' ] in
  Alcotest.(check (list char)) "seq first" [ '+'; 'x' ] first;
  check_bool "seq not nullable" false nullable

let test_ll1_build () =
  check_bool "ll1_expr is LL(1)" true (Ll1.is_ll1 ll1_expr);
  check_bool "hard is not LL(1)" false (Ll1.is_ll1 hard);
  match Ll1.build hard with
  | Error c -> check_bool "conflict reported" true (c.Ll1.nonterminal <> "")
  | Ok _ -> Alcotest.fail "expected conflict"

let test_ll1_parse () =
  let table = Result.get_ok (Ll1.build ll1_expr) in
  List.iter
    (fun w ->
      let expected = Earley.recognizes ll1_expr w in
      match Ll1.parse table w with
      | Ok t ->
        check_bool (Fmt.str "earley agrees %S" w) true expected;
        Alcotest.(check string) "yield" w (Earley.tree_yield t)
      | Error _ -> check_bool (Fmt.str "earley agrees %S" w) false expected)
    (L.words [ 'n'; '+'; '('; ')' ] ~max_len:4)

(* --- mu-regular expressions -------------------------------------------------------- *)

let test_mu_regex_basic () =
  let e =
    Mu.Mu
      ("X", Mu.Alt (Mu.Eps, Mu.Seq (Mu.Chr 'a', Mu.Seq (Mu.Var "X", Mu.Chr 'b'))))
  in
  check_bool "closed" true (Mu.is_closed e);
  check_bool "open var" false (Mu.is_closed (Mu.Var "X"));
  let g = Mu.to_grammar e in
  List.iter
    (fun w -> check_bool (Fmt.str "%S" w) (anbn_member w) (E.accepts g w))
    (L.words [ 'a'; 'b' ] ~max_len:6)

let test_mu_regex_star_is_mu () =
  let star = Mu.of_regex (R.star (R.chr 'a')) in
  let mu = Mu.Mu ("X", Mu.Alt (Mu.Eps, Mu.Seq (Mu.Chr 'a', Mu.Var "X"))) in
  check_bool "same language" true
    (L.equal_upto (Mu.to_grammar star) (Mu.to_grammar mu) [ 'a'; 'b' ]
       ~max_len:5)

let test_mu_to_cfg () =
  let e =
    Mu.Mu
      ("X", Mu.Alt (Mu.Eps, Mu.Seq (Mu.Chr 'a', Mu.Seq (Mu.Var "X", Mu.Chr 'b'))))
  in
  let cfg = Mu.to_cfg e in
  List.iter
    (fun w ->
      check_bool (Fmt.str "%S" w) (anbn_member w) (Earley.recognizes cfg w))
    (L.words [ 'a'; 'b' ] ~max_len:6)

let test_cfg_to_mu () =
  List.iter
    (fun cfg ->
      let e = Mu.of_cfg cfg in
      check_bool "closed" true (Mu.is_closed e);
      let g = Mu.to_grammar e in
      List.iter
        (fun w ->
          check_bool
            (Fmt.str "of_cfg agrees on %S" w)
            (Earley.recognizes cfg w)
            (E.accepts g w))
        (L.words (Cfg.alphabet cfg) ~max_len:5))
    [ anbn; dyck_cfg; ll1_expr ]

let test_mu_subst () =
  let open Mu in
  check_bool "subst var" true (subst "x" Eps (Var "x") = Eps);
  check_bool "no capture" true
    (subst "x" Eps (Mu ("x", Var "x")) = Mu ("x", Var "x"));
  check_bool "under binder" true
    (subst "y" Eps (Mu ("x", Seq (Var "x", Var "y")))
    = Mu ("x", Seq (Var "x", Eps)))

(* --- Dyck (Theorem 4.13) ------------------------------------------------------------ *)

let dyck_words = L.words Dyck.alphabet ~max_len:6

let test_dyck_language () =
  let spec w =
    let ok = ref true and depth = ref 0 in
    String.iter
      (fun c ->
        if c = '(' then incr depth else decr depth;
        if !depth < 0 then ok := false)
      w;
    !ok && !depth = 0
  in
  List.iter
    (fun w ->
      check_bool (Fmt.str "grammar %S" w) (spec w) (E.accepts Dyck.grammar w);
      check_bool (Fmt.str "parser %S" w) (spec w) (Dyck.balanced w);
      check_bool
        (Fmt.str "automaton %S" w)
        (spec w)
        (Dauto.accepts Dyck.automaton w))
    dyck_words

let test_dyck_unambiguous () =
  List.iter
    (fun w ->
      check_bool (Fmt.str "one parse %S" w) true (A.unambiguous_at Dyck.grammar w))
    dyck_words

let test_dyck_strong_equivalence () =
  check_bool "weak" true (Q.check_weak Dyck.equivalence Dyck.alphabet ~max_len:6);
  check_bool "strong" true
    (Q.check_strong Dyck.equivalence Dyck.alphabet ~max_len:6)

let test_dyck_parse_result () =
  (match Dyck.parse "(())()" with
   | Ok d ->
     Alcotest.(check string) "yield" "(())()" (P.yield d);
     check_bool "genuine parse" true
       (List.exists (P.equal d) (E.parses Dyck.grammar "(())()"))
   | Error _ -> Alcotest.fail "expected Ok");
  match Dyck.parse "(()" with
  | Error trace ->
    Alcotest.(check string) "rejecting trace yield" "(()" (P.yield trace);
    check_bool "trace in rejecting grammar" true
      (List.exists (P.equal trace)
         (E.parses (Dauto.rejecting_traces Dyck.automaton) "(()"))
  | Ok _ -> Alcotest.fail "expected Error"

let test_dyck_vs_earley () =
  List.iter
    (fun w ->
      check_bool
        (Fmt.str "dyck=earley %S" w)
        (Earley.recognizes dyck_cfg w)
        (Dyck.balanced w))
    dyck_words

(* --- Expr (Theorem 4.14) -------------------------------------------------------------- *)

let expr_words = L.words Expr.alphabet ~max_len:4

(* reference CFG for the expression language *)
let expr_cfg =
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "A" ]);
        ("E", [ Cfg.N "A"; Cfg.T '+'; Cfg.N "E" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let test_expr_language () =
  List.iter
    (fun w ->
      let expected = Earley.recognizes expr_cfg w in
      check_bool (Fmt.str "grammar %S" w) expected (E.accepts Expr.exp w);
      check_bool (Fmt.str "automaton %S" w) expected (Expr.accepts w))
    expr_words

let test_expr_sigma_total_unambiguous () =
  List.iter
    (fun w ->
      check_int (Fmt.str "exactly one %S" w) 1 (E.count Expr.o_sigma w))
    (L.words Expr.alphabet ~max_len:3)

let test_expr_parse_o_genuine () =
  List.iter
    (fun w ->
      let b, t = Expr.parse_o w in
      check_bool (Fmt.str "genuine O-parse %S" w) true
        (List.exists (P.equal t) (E.parses (Expr.o_grammar 0 b) w)))
    (L.words Expr.alphabet ~max_len:3)

let test_expr_parse () =
  (match Expr.parse "n+(n+n)" with
   | Ok e ->
     Alcotest.(check string) "yield" "n+(n+n)" (P.yield e);
     check_bool "genuine Exp parse" true
       (List.exists (P.equal e) (E.parses Expr.exp "n+(n+n)"))
   | Error _ -> Alcotest.fail "expected Ok");
  match Expr.parse "n+" with
  | Error trace ->
    Alcotest.(check string) "trace yield" "n+" (P.yield trace);
    check_bool "genuine rejecting trace" true
      (List.exists (P.equal trace) (E.parses (Expr.o_grammar 0 false) "n+"))
  | Ok _ -> Alcotest.fail "expected Error"

let test_expr_weak_equivalence () =
  check_bool "thm 4.14 weak equivalence" true
    (Q.check_weak Expr.equivalence Expr.alphabet ~max_len:4)

let test_expr_right_associated () =
  match Expr.parse "n+n+n" with
  | Ok e ->
    let _, body = P.as_roll e in
    let tag, payload = P.as_inj body in
    check_bool "top is add" true (I.equal tag (I.S "add"));
    (match payload with
     | P.Pair (_, P.Pair (_, rest)) ->
       let _, body' = P.as_roll rest in
       let tag', _ = P.as_inj body' in
       check_bool "nested add" true (I.equal tag' (I.S "add"))
     | _ -> Alcotest.fail "malformed add")
  | Error _ -> Alcotest.fail "expected Ok"

let test_expr_eval () =
  let value w =
    match Expr.parse w with
    | Ok e -> Expr.eval e
    | Error _ -> Alcotest.failf "expected %S to parse" w
  in
  check_int "n" 1 (value "n");
  check_int "n+n" 2 (value "n+n");
  check_int "(n+n)+n" 3 (value "(n+n)+n");
  check_int "((n))" 1 (value "((n))");
  match Expr.parse "n+n" with
  | Ok e -> (
    match T.apply Expr.semantic_action e with
    | P.Inj (I.N 2, P.TopP "n+n") -> ()
    | t -> Alcotest.failf "unexpected semantic action result %a" P.pp t)
  | Error _ -> Alcotest.fail "expected Ok"


(* --- SLR(1) (paper future work: LR parsing) ----------------------------------- *)

module Slr = Lambekd_cfg.Slr

(* left-recursive expression grammar: SLR(1) but NOT LL(1) *)
let lr_expr =
  Cfg.make ~start:"E"
    ~productions:
      [ ("E", [ Cfg.N "E"; Cfg.T '+'; Cfg.N "A" ]);
        ("E", [ Cfg.N "A" ]);
        ("A", [ Cfg.T 'n' ]);
        ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]

let test_slr_accepts_left_recursion () =
  check_bool "lr_expr is SLR(1)" true (Slr.is_slr1 lr_expr);
  check_bool "lr_expr is not LL(1)" false (Ll1.is_ll1 lr_expr);
  check_bool "ambiguous grammar is not SLR(1)" false (Slr.is_slr1 hard);
  match Slr.build hard with
  | Error c -> check_bool "conflict state sane" true (c.Slr.state >= 0)
  | Ok _ -> Alcotest.fail "expected a conflict"

let test_slr_parse () =
  let table = Result.get_ok (Slr.build lr_expr) in
  check_bool "states" true (Slr.state_count table > 3);
  List.iter
    (fun w ->
      let expected = Earley.recognizes lr_expr w in
      match Slr.parse table w with
      | Ok t ->
        check_bool (Fmt.str "earley agrees %S" w) true expected;
        Alcotest.(check string) "yield" w (Earley.tree_yield t)
      | Error _ -> check_bool (Fmt.str "earley agrees %S" w) false expected)
    (L.words [ 'n'; '+'; '('; ')' ] ~max_len:5)

let test_slr_left_associated () =
  (* n+n+n under the left-recursive grammar: the top node reduces E+A with
     a nested E+A on the left *)
  let table = Result.get_ok (Slr.build lr_expr) in
  match Slr.parse table "n+n+n" with
  | Ok (Earley.Node ("E", 0, [ Earley.Node ("E", 0, _); _; _ ])) -> ()
  | Ok t -> Alcotest.failf "unexpected tree shape: %s" (Earley.tree_yield t)
  | Error e -> Alcotest.failf "parse failed: %a" Slr.pp_error e

let test_slr_dyck () =
  (* the Dyck CFG is SLR(1) too *)
  match Slr.build dyck_cfg with
  | Error c -> Alcotest.failf "unexpected conflict: %a" Slr.pp_conflict c
  | Ok table ->
    List.iter
      (fun w ->
        check_bool
          (Fmt.str "slr=earley %S" w)
          (Earley.recognizes dyck_cfg w)
          (Result.is_ok (Slr.parse table w)))
      (L.words [ '('; ')' ] ~max_len:6)

let prop_slr_earley_agree =
  QCheck.Test.make ~name:"slr agrees with earley on the expression grammar"
    ~count:100
    (QCheck.make
       ~print:(fun s -> s)
       QCheck.Gen.(
         map
           (fun cs -> String.concat "" (List.map (String.make 1) cs))
           (list_size (int_bound 10) (oneofl [ 'n'; '+'; '('; ')' ]))))
    (fun w ->
      let table = Result.get_ok (Slr.build lr_expr) in
      Bool.equal
        (Result.is_ok (Slr.parse table w))
        (Earley.recognizes lr_expr w))


(* --- random CFGs: triple differential (Earley / CYK / Gr model) --------------- *)

let random_cfg rng =
  (* 2-3 nonterminals over {a,b}; random short productions; always give
     the start symbol at least one production *)
  let nts = [ "S"; "T"; "U" ] in
  let num_nts = 2 + Random.State.int rng 2 in
  let nts = List.filteri (fun i _ -> i < num_nts) nts in
  let random_symbol () =
    if Random.State.bool rng then
      Cfg.T (if Random.State.bool rng then 'a' else 'b')
    else Cfg.N (List.nth nts (Random.State.int rng num_nts))
  in
  let random_rhs () =
    List.init (Random.State.int rng 4) (fun _ -> random_symbol ())
  in
  let productions =
    List.concat_map
      (fun nt ->
        List.init
          (1 + Random.State.int rng 2)
          (fun _ -> (nt, random_rhs ())))
      nts
  in
  Cfg.make ~start:"S" ~productions

let test_random_cfg_differential () =
  let rng = Random.State.make [| 271828 |] in
  let words = L.words [ 'a'; 'b' ] ~max_len:5 in
  for _ = 1 to 25 do
    let cfg = random_cfg rng in
    let cnf = Cyk.of_cfg cfg in
    let g = Cfg.to_grammar cfg in
    List.iter
      (fun w ->
        let earley = Earley.recognizes cfg w in
        if not (Bool.equal earley (Cyk.recognizes cnf w)) then
          Alcotest.failf "CYK disagrees with Earley on %S for@.%a" w Cfg.pp cfg;
        if not (Bool.equal earley (E.accepts g w)) then
          Alcotest.failf "Gr model disagrees with Earley on %S for@.%a" w
            Cfg.pp cfg)
      words
  done

let test_random_cfg_earley_trees () =
  let rng = Random.State.make [| 314159 |] in
  let words = L.words [ 'a'; 'b' ] ~max_len:4 in
  for _ = 1 to 25 do
    let cfg = random_cfg rng in
    List.iter
      (fun w ->
        if Earley.recognizes cfg w then
          match Earley.parse cfg w with
          | Some t ->
            if not (String.equal (Earley.tree_yield t) w) then
              Alcotest.failf "tree yield mismatch on %S" w
          | None ->
            Alcotest.failf "recognized %S but no tree for@.%a" w Cfg.pp cfg)
      words
  done

let test_random_cfg_mu_roundtrip () =
  let rng = Random.State.make [| 161803 |] in
  let words = L.words [ 'a'; 'b' ] ~max_len:4 in
  for _ = 1 to 10 do
    let cfg = random_cfg rng in
    let e = Mu.of_cfg cfg in
    let g = Mu.to_grammar e in
    List.iter
      (fun w ->
        if not (Bool.equal (Earley.recognizes cfg w) (E.accepts g w)) then
          Alcotest.failf "mu-regex roundtrip disagrees on %S for@.%a" w Cfg.pp
            cfg)
      words
  done


(* --- scaled unambiguity evidence via fast counting ------------------------------ *)

let test_expr_sigma_unambiguous_scaled () =
  (* count_fast makes exhaustive checking feasible at length 5 and random
     checking at length ~40 *)
  List.iter
    (fun w ->
      check_int (Fmt.str "exactly one %S" w) 1 (E.count_fast Expr.o_sigma w))
    (L.words Expr.alphabet ~max_len:4);
  let rng = Random.State.make [| 55 |] in
  for _ = 1 to 50 do
    let w =
      String.init
        (10 + Random.State.int rng 30)
        (fun _ -> List.nth Expr.alphabet (Random.State.int rng 4))
    in
    check_int (Fmt.str "exactly one %S" w) 1 (E.count_fast Expr.o_sigma w)
  done

let test_dyck_unambiguous_scaled () =
  let rng = Random.State.make [| 66 |] in
  for _ = 1 to 50 do
    let w = Dyck.random_balanced ~depth:6 rng in
    check_int (Fmt.str "one parse %S" w) 1 (E.count_fast Dyck.grammar w)
  done


(* --- LL(1) as a stack automaton (paper §1) -------------------------------------- *)

module La = Lambekd_cfg.Ll1_automaton
module Pd = Lambekd_parsing.Parser_def

let ll1_auto = La.dauto (Result.get_ok (Ll1.build ll1_expr))

let test_ll1_automaton_language () =
  List.iter
    (fun w ->
      check_bool (Fmt.str "agree %S" w)
        (Earley.recognizes ll1_expr w)
        (Dauto.accepts ll1_auto w))
    (L.words [ 'n'; '+'; '('; ')' ] ~max_len:5)

let test_ll1_automaton_traces () =
  (* Theorem 4.9 comes for free from the Dauto construction *)
  List.iter
    (fun w ->
      check_int (Fmt.str "one trace %S" w) 1
        (E.count_fast (Dauto.traces_grammar ll1_auto) w))
    (L.words [ 'n'; '+'; '('; ')' ] ~max_len:3);
  (* the accepting trace grammar recognizes exactly the language *)
  List.iter
    (fun w ->
      check_bool (Fmt.str "trace grammar %S" w)
        (Earley.recognizes ll1_expr w)
        (E.accepts (Dauto.accepting_traces ll1_auto) w))
    (L.words [ 'n'; '+'; '('; ')' ] ~max_len:4)

let test_ll1_automaton_parser () =
  let p = La.parser_of (Result.get_ok (Ll1.build ll1_expr)) in
  check_bool "sound" true (Pd.check_sound p [ 'n'; '+'; '(' ] ~max_len:3);
  check_bool "complete" true (Pd.check_complete p [ 'n'; '+'; '(' ] ~max_len:3);
  check_bool "disjoint" true (Pd.check_disjoint p [ 'n'; '+'; '(' ] ~max_len:3)

let test_ll1_automaton_stack_encoding () =
  let stack = [ Cfg.T 'a'; Cfg.N "E"; Cfg.T 'b' ] in
  check_bool "roundtrip encode" true
    (La.encode_stack stack
     = I.P (I.C 'a', I.P (I.S "E", I.P (I.C 'b', I.U))))

(* --- qcheck -------------------------------------------------------------------------- *)

let arb_dyck =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      map
        (fun n ->
          let rng = Random.State.make [| n |] in
          Dyck.random_balanced ~depth:5 rng)
        int)

let prop_dyck_roundtrip =
  QCheck.Test.make ~name:"dyck parse yields input and round-trips" ~count:100
    arb_dyck (fun w ->
      match Dyck.parse w with
      | Ok d ->
        String.equal (P.yield d) w
        && P.equal (T.apply Dyck.of_traces (T.apply Dyck.to_traces d)) d
      | Error _ -> false)

let arb_expr =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      map
        (fun n ->
          let rng = Random.State.make [| n |] in
          Expr.random_expr ~depth:4 rng)
        int)

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr parse yields input; eval counts nums" ~count:100
    arb_expr (fun w ->
      match Expr.parse w with
      | Ok e ->
        String.equal (P.yield e) w
        && Expr.eval e
           = String.fold_left (fun k c -> if c = 'n' then k + 1 else k) 0 w
      | Error _ -> false)

let arb_ab_word =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" (List.map (String.make 1) cs))
        (list_size (int_bound 8) (oneofl [ 'a'; 'b' ])))

let prop_earley_cyk_agree =
  QCheck.Test.make ~name:"earley and cyk agree on `hard`" ~count:100
    arb_ab_word (fun w ->
      Bool.equal (Earley.recognizes hard w) (Cyk.recognizes_cfg hard w))

(* --- completer index ------------------------------------------------------ *)

(* The indexed completer (default) and the seed full-scan completer must
   construct the identical item set — same chart size — and agree on
   acceptance, across the stress grammars (ε-productions, left recursion,
   ambiguity) and on rejected inputs. *)
let test_earley_indexed_vs_scan () =
  let cases =
    [ (anbn, [ ""; "ab"; "aabb"; "aaabbb"; "aab"; "ba"; "abab" ]);
      (hard, [ ""; "ab"; "abab"; "aabb"; "abba"; "b"; "aabbab" ]);
      (dyck_cfg, [ ""; "()"; "()()"; "(())()"; ")("; "((" ]);
      (ll1_expr, [ "n"; "n+n"; "(n+n)+n"; "n+"; "" ]) ]
  in
  List.iter
    (fun (cfg, inputs) ->
      List.iter
        (fun w ->
          (* leo off: the shortcut deliberately builds a smaller item
             set, so size equality is stated for the classical chart *)
          let fast = Earley.run ~leo:false cfg w in
          let slow = Earley.run ~indexed:false cfg w in
          check_bool
            (Fmt.str "accepts agree on %S" w)
            (Earley.accepts slow) (Earley.accepts fast);
          check_int
            (Fmt.str "item sets agree on %S" w)
            (Earley.size slow) (Earley.size fast))
        inputs)
    cases

(* One run answers accepts, size and parse_tree without rebuilding, and
   matches the one-shot wrappers. *)
let test_earley_shared_chart () =
  let w = "(())()" in
  let ch = Earley.run dyck_cfg w in
  check_bool "accepts" true (Earley.accepts ch);
  check_int "size = legacy chart_size" (Earley.chart_size dyck_cfg w)
    (Earley.size ch);
  (match Earley.parse_tree ch with
  | Some t -> Alcotest.(check string) "tree yield" w (Earley.tree_yield t)
  | None -> Alcotest.fail "expected a parse tree");
  check_bool "legacy recognizes" true (Earley.recognizes dyck_cfg w)

let test_first_last () =
  let ff = Ff.compute ll1_expr in
  Alcotest.(check (list char)) "last E" (Ff.last ff "E") (Ff.last ff "T");
  check_bool "last T has ) and n" true
    (List.mem ')' (Ff.last ff "T") && List.mem 'n' (Ff.last ff "T"));
  let ffd = Ff.compute dyck_cfg in
  Alcotest.(check (list char)) "first D" [ '(' ] (Ff.first ffd "D");
  Alcotest.(check (list char)) "last D" [ ')' ] (Ff.last ffd "D")

(* --- Leo right recursion -------------------------------------------------- *)

(* E -> a | a E : the textbook right-recursive case.  The classical chart
   holds ~n²/2 items on a^n (every suffix carries the full completion
   chain); Leo's deterministic-reduction memo collapses each chain to its
   topmost item, so the chart is linear. *)
let right_rec =
  Cfg.make ~start:"E"
    ~productions:[ ("E", [ Cfg.T 'a' ]); ("E", [ Cfg.T 'a'; Cfg.N "E" ]) ]

let test_earley_leo_right_recursion () =
  let n = 2048 in
  let w = String.make n 'a' in
  let on = Earley.run right_rec w in
  let off = Earley.run ~leo:false right_rec w in
  check_bool "leo accepts a^2048" true (Earley.accepts on);
  check_bool "classical engine also accepts a^2048" true (Earley.accepts off);
  check_bool
    (Fmt.str "leo chart >= 10x smaller (%d vs %d items)" (Earley.size on)
       (Earley.size off))
    true
    (Earley.size on * 10 <= Earley.size off);
  check_bool
    (Fmt.str "leo chart linear (%d items for n=%d)" (Earley.size on) n)
    true
    (Earley.size on <= 16 * n);
  (match Earley.parse_tree on with
  | Some t ->
    check_bool "leo tree yields the input" true
      (String.equal (Earley.tree_yield t) w)
  | None -> Alcotest.fail "leo chart lost the parse");
  check_bool "leo rejects a^n b" false
    (Earley.accepts (Earley.run right_rec (w ^ "b")))

(* Leo on and off must be observationally identical: same acceptance,
   same parse tree (after the Leo chart re-materializes the completion
   facts its shortcuts skipped), and the Leo chart never larger. *)
let prop_leo_differential =
  QCheck.Test.make ~name:"leo on/off observationally identical" ~count:220
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0x1e0 |] in
      let cfg = random_cfg rng in
      List.for_all
        (fun w ->
          let on = Earley.run cfg w in
          let off = Earley.run ~leo:false cfg w in
          Bool.equal (Earley.accepts on) (Earley.accepts off)
          && Earley.size on <= Earley.size off
          && Earley.parse_tree on = Earley.parse_tree off)
        (L.words [ 'a'; 'b' ] ~max_len:4))

(* --- dense CYK (binarize + bitset chart) --------------------------------- *)

(* Like {!random_cfg}, but biased toward the CNF pass's hard cases:
   ε-productions everywhere and bare unit rules (which form cycles as
   soon as two nonterminals pick each other). *)
let random_cfg_eps rng =
  let nts = [ "S"; "T"; "U" ] in
  let nt () = Cfg.N (List.nth nts (Random.State.int rng 3)) in
  let sym () =
    match Random.State.int rng 5 with
    | 0 -> Cfg.T 'a'
    | 1 -> Cfg.T 'b'
    | _ -> nt ()
  in
  let rhs () =
    match Random.State.int rng 5 with
    | 0 -> [] (* ε-heavy *)
    | 1 -> [ nt () ] (* unit rules, often cyclic *)
    | _ -> List.init (1 + Random.State.int rng 3) (fun _ -> sym ())
  in
  let productions =
    List.concat_map
      (fun n -> List.init (1 + Random.State.int rng 3) (fun _ -> (n, rhs ())))
      nts
  in
  Cfg.make ~start:"S" ~productions

(* The dense engine against both oracles — the indexed Earley recognizer
   and the legacy list CYK it shares a normal form with — over random
   grammars (half of them ε/unit-cycle heavy) and every short word.
   [~block:2] forces maximal tiling (length-5 words already produce
   middle tiles), so the product/sweep stages run under the oracle too;
   one shared scratch across all 220 grammars exercises the arena's
   stride-change resets. *)
let prop_cyk_dense_differential =
  let sc = CykD.scratch () in
  QCheck.Test.make ~name:"dense cyk agrees with earley and legacy cyk"
    ~count:220
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed; 0xcbc |] in
      let cfg = if seed land 1 = 0 then random_cfg rng else random_cfg_eps rng in
      let b = Binarize.of_cfg_exn cfg in
      let cnf = Cyk.of_cfg cfg in
      List.for_all
        (fun w ->
          let e = Earley.recognizes cfg w in
          Bool.equal e (CykD.accepts ~scratch:sc b w)
          && Bool.equal e (CykD.accepts ~block:2 ~scratch:sc b w)
          && Bool.equal e (Cyk.recognizes cnf w))
        (L.words [ 'a'; 'b' ] ~max_len:5))

(* Blocked and unblocked schedules compute the same fixpoint: identity
   at lengths straddling tile boundaries of the default block (64) and
   the auto-blocking threshold, on accepted and rejected inputs, with
   Earley as ground truth. *)
let test_cyk_dense_blocked_identity () =
  let dyck_b = Binarize.of_cfg_exn dyck_cfg in
  let anbn_b = Binarize.of_cfg_exn anbn in
  let sc = CykD.scratch () in
  let check_id name b cfg w =
    let plain = CykD.accepts ~scratch:sc b w in
    check_bool
      (Fmt.str "%s blocked=unblocked len %d" name (String.length w))
      plain
      (CykD.accepts ~block:CykD.default_block ~scratch:sc b w);
    check_bool
      (Fmt.str "%s matches earley len %d" name (String.length w))
      (Earley.recognizes cfg w) plain
  in
  List.iter
    (fun len ->
      let half = len / 2 in
      check_id "dyck" dyck_b dyck_cfg
        (String.concat "" (List.init half (fun _ -> "()"))
        ^ String.make (len - (2 * half)) '(');
      check_id "dyck" dyck_b dyck_cfg (String.make len '(');
      check_id "anbn" anbn_b anbn
        (String.make half 'a' ^ String.make (len - half) 'b'))
    [ 1; 2; 62; 63; 64; 65; 127; 128; 129 ];
  (* straddle the auto-blocking length threshold with the policy the
     service applies *)
  List.iter
    (fun len ->
      let w = String.make (len / 2) 'a' ^ String.make (len - (len / 2)) 'b' in
      let auto = CykD.accepts ?block:(CykD.auto_block len) ~scratch:sc anbn_b w in
      check_bool
        (Fmt.str "auto-block identity len %d" len)
        (CykD.accepts ~scratch:sc anbn_b w)
        auto)
    [ CykD.blocked_threshold - 1; CykD.blocked_threshold ];
  (* a byte outside the binarized alphabet short-circuits to reject *)
  check_bool "alphabet prefilter rejects" false
    (CykD.accepts ~scratch:sc anbn_b "acb");
  check_bool "alphabet prefilter matches earley" (Earley.recognizes anbn "acb")
    (CykD.accepts ~scratch:sc anbn_b "acb")

let test_binarize_shape_and_budget () =
  let b = Binarize.of_cfg_exn anbn in
  check_bool "anbn nullable start" true (Binarize.accepts_empty b);
  check_bool "anbn has pairs" true (b.Binarize.num_pairs > 0);
  check_bool "anbn density positive" true (Binarize.density b > 0.);
  check_bool "pair count bounded by rules" true
    (b.Binarize.num_pairs <= b.Binarize.num_binary_rules);
  (* the nonterminal budget trips on split helpers *)
  (match Binarize.of_cfg ~max_nts:2 dyck_cfg with
  | Error o -> check_bool "budget reports progress" true (o.Binarize.nts_reached > 2)
  | Ok _ -> Alcotest.fail "expected a nonterminal-budget overflow");
  (* ε-variant expansion is budgeted even when the expanded rules
     deduplicate away: A → B^12 with B nullable has 2^12 variants *)
  let blowup =
    Cfg.make ~start:"A"
      ~productions:
        [ ("A", List.init 12 (fun _ -> Cfg.N "B"));
          ("B", []);
          ("B", [ Cfg.T 'b' ]) ]
  in
  (match Binarize.of_cfg ~max_rules:64 blowup with
  | Error o -> check_bool "rule budget trips" true (o.Binarize.rules_reached > 64)
  | Ok _ -> Alcotest.fail "expected a rule-budget overflow");
  (* unbudgeted, the same grammar still binarizes correctly *)
  let bb = Binarize.of_cfg_exn blowup in
  let sc = CykD.scratch () in
  List.iter
    (fun k ->
      check_bool
        (Fmt.str "blowup accepts b^%d" k)
        (k <= 12)
        (CykD.accepts ~scratch:sc bb (String.make k 'b')))
    [ 0; 1; 7; 12; 13 ]

(* --- incremental sessions -------------------------------------------------- *)

(* The session contract: after [feed s w], the chart answers exactly as a
   fresh [run_compiled] over [w] — accepts, size, and tree rendering. *)
let check_session_state comp es w ch =
  let fresh = Earley.run_compiled comp w in
  check_bool (Fmt.str "accepts %S" w) (Earley.accepts fresh)
    (Earley.accepts ch);
  check_int (Fmt.str "size %S" w) (Earley.size fresh) (Earley.size ch);
  Alcotest.(check string) (Fmt.str "text %S" w) w (Earley.session_text es);
  match (Earley.parse_tree fresh, Earley.parse_tree ch) with
  | None, None -> ()
  | Some a, Some b ->
    Alcotest.(check string)
      (Fmt.str "tree %S" w)
      (P.to_string (Earley.tree_to_ptree a))
      (P.to_string (Earley.tree_to_ptree b))
  | Some _, None -> Alcotest.fail (Fmt.str "incremental lost the tree on %S" w)
  | None, Some _ -> Alcotest.fail (Fmt.str "incremental invented a tree on %S" w)

let splice buf at del ins =
  String.sub buf 0 at ^ ins
  ^ String.sub buf (at + del) (String.length buf - at - del)

let test_earley_session_stream () =
  let comp = Earley.compile dyck_cfg in
  let es = Earley.session comp in
  let buf = ref "" in
  (* streaming accepts-as-you-go over a growing Dyck word *)
  List.iter
    (fun chunk ->
      buf := !buf ^ chunk;
      let ch = Earley.feed es !buf in
      check_session_state comp es !buf ch)
    [ "("; "()"; ")"; "(())"; ""; "()" ];
  (* append-only reuse: all previously valid sets survive *)
  let before = String.length !buf in
  ignore (Earley.feed es (!buf ^ "()"));
  check_int "append reuses every old set" (before + 1)
    (Earley.session_reused es)

let test_earley_session_edits () =
  List.iter
    (fun (cfg, script) ->
      let comp = Earley.compile cfg in
      let es = Earley.session comp in
      let buf = ref "" in
      List.iter
        (fun (at, del, ins) ->
          buf := splice !buf at del ins;
          let ch = Earley.feed es !buf in
          check_session_state comp es !buf ch)
        script)
    [ (dyck_cfg,
       [ (0, 0, "(())()"); (2, 2, ""); (1, 0, ")("); (0, 3, ""); (3, 0, "((") ]);
      (anbn, [ (0, 0, "aabb"); (2, 0, "ab"); (0, 1, ""); (4, 1, "b") ]);
      (hard, [ (0, 0, "abab"); (2, 2, "ba"); (0, 0, "ab"); (3, 1, "") ]);
      (right_rec, [ (0, 0, "aaaa"); (4, 0, "aaaa"); (2, 1, ""); (0, 7, "") ]) ]

(* A deadline abort mid-feed leaves the retained chart invalid, never
   wrong: the next feed recomputes from scratch and agrees with a fresh
   run again. *)
let test_earley_session_abort_recovers () =
  let comp = Earley.compile dyck_cfg in
  let es = Earley.session comp in
  ignore (Earley.feed es "(()())");
  (match
     Earley.feed es ~poll:(fun () -> raise Exit) "(()())()"
   with
  | _ -> Alcotest.fail "poll abort did not propagate"
  | exception Exit -> ());
  let w = "(()())()()" in
  let ch = Earley.feed es w in
  check_session_state comp es w ch

(* Random edit scripts, every step compared against a from-scratch run —
   the engine-level mirror of the service's --paranoid oracle: accepts,
   size and the first-found tree.  The grammars are three fixed ones
   plus one drawn from {!random_cfg}.  Odd seeds run every session on a
   scratch last used by a grammar with a different nonterminal count,
   so a stale stride cannot leak into the chart; seeds with bit 1 set
   abort a feed by [poll] before some steps. *)
let prop_session_differential =
  (* five nonterminals: more than any grammar the sessions run *)
  let wide =
    Earley.compile
      (Cfg.make ~start:"V"
         ~productions:
           [ ("V", [ Cfg.N "W" ]); ("W", [ Cfg.N "X"; Cfg.T 'a' ]);
             ("X", [ Cfg.N "Y" ]); ("Y", [ Cfg.N "Z"; Cfg.N "Y" ]);
             ("Y", []); ("Z", [ Cfg.T 'b' ]) ])
  in
  let gen =
    QCheck.make
      ~print:(fun (seed, ops) ->
        Fmt.str "seed %d: %s" seed
          (String.concat ";"
             (List.map (fun (a, d, s) -> Fmt.str "(%d,%d,%S)" a d s) ops)))
      QCheck.Gen.(
        pair (int_bound 1_000_000)
          (list_size (1 -- 12)
             (triple (0 -- 20) (0 -- 6)
                (string_size ~gen:(oneofl [ '('; ')'; 'a'; 'b' ]) (0 -- 6)))))
  in
  let tree = Option.map (fun t -> P.to_string (Earley.tree_to_ptree t)) in
  QCheck.Test.make ~name:"session edits agree with from-scratch runs" ~count:60
    gen (fun (seed, script) ->
      let rng = Random.State.make [| seed; 0x5e55 |] in
      List.for_all
        (fun cfg ->
          let comp = Earley.compile cfg in
          let scratch =
            if seed land 1 = 0 then None
            else begin
              let sc = Earley.scratch () in
              ignore (Earley.run_compiled ~scratch:sc wide "bbbbbba");
              Some sc
            end
          in
          let es = Earley.session ?scratch comp in
          let buf = ref "" in
          List.for_all
            (fun (at, del, ins) ->
              let n = String.length !buf in
              let at = min at n in
              let del = min del (n - at) in
              buf := splice !buf at del ins;
              if seed land 2 <> 0 && Random.State.bool rng then begin
                let left = ref (Random.State.int rng 8) in
                let poll () = if !left = 0 then raise Exit else decr left in
                try ignore (Earley.feed ~poll es !buf) with Exit -> ()
              end;
              let ch = Earley.feed es !buf in
              let fresh = Earley.run_compiled comp !buf in
              Bool.equal (Earley.accepts fresh) (Earley.accepts ch)
              && Earley.size fresh = Earley.size ch
              && tree (Earley.parse_tree fresh) = tree (Earley.parse_tree ch))
            script)
        [ dyck_cfg; hard; right_rec; random_cfg rng ])

(* What a session retains: built by appends to 4 KiB, a dyck or a
   right-recursive expr_plain session holds at most 40 words per buffer
   byte (a few words per item, no table per position), and 256 further
   one-byte appends allocate at most 64 major-heap words per buffer
   byte in all — most of it the buffer copies themselves, since an
   append touches only the new sets. *)
let test_earley_session_retained_memory () =
  let expr_plain =
    Cfg.make ~start:"E"
      ~productions:
        [ ("E", [ Cfg.N "A" ]); ("E", [ Cfg.N "A"; Cfg.T '+'; Cfg.N "E" ]);
          ("A", [ Cfg.T 'n' ]); ("A", [ Cfg.T '('; Cfg.N "E"; Cfg.T ')' ]) ]
  in
  List.iter
    (fun (name, cfg, unit) ->
      let es = Earley.session (Earley.compile cfg) in
      let buf = ref "" in
      let append s =
        buf := !buf ^ s;
        ignore (Earley.accepts (Earley.feed es !buf))
      in
      while String.length !buf < 4096 do
        append unit
      done;
      let n = String.length !buf in
      let words = Obj.reachable_words (Obj.repr es) in
      if words > 40 * n then
        Alcotest.failf "%s: session retains %d words for %d bytes (%.1f/byte)"
          name words n
          (float words /. float n);
      let major () = (Gc.quick_stat ()).Gc.major_words in
      let before = major () in
      for i = 1 to 256 do
        append (String.make 1 unit.[i mod String.length unit])
      done;
      let grown = major () -. before in
      if grown > float (64 * n) then
        Alcotest.failf "%s: 256 appends allocated %.0f major words (%.1f x n)"
          name grown (grown /. float n))
    [ ("dyck", dyck_cfg, "(()"); ("expr_plain", expr_plain, "n+") ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dyck_roundtrip; prop_expr_roundtrip; prop_earley_cyk_agree;
      prop_slr_earley_agree; prop_leo_differential;
      prop_cyk_dense_differential; prop_session_differential ]

let suite =
  [ ("cfg make/validate", `Quick, test_cfg_make);
    ("cfg as inductive linear type", `Quick, test_cfg_to_grammar);
    ("earley basic", `Quick, test_earley_basic);
    ("earley nullable+left-recursive", `Quick, test_earley_hard);
    ("earley parse tree", `Quick, test_earley_parse_tree);
    ("earley parse tree memoized", `Quick, test_earley_parse_tree_memo);
    ("earley parse on hard grammar", `Quick, test_earley_parse_hard);
    ("earley chart size", `Quick, test_earley_chart_size_grows);
    ("earley indexed vs scan completer", `Quick, test_earley_indexed_vs_scan);
    ("earley leo right recursion", `Quick, test_earley_leo_right_recursion);
    ("earley shared chart", `Quick, test_earley_shared_chart);
    ("earley session streaming", `Quick, test_earley_session_stream);
    ("earley session edits", `Quick, test_earley_session_edits);
    ("earley session abort recovery", `Quick, test_earley_session_abort_recovers);
    ("first/last sets", `Quick, test_first_last);
    ("cyk matches earley", `Quick, test_cyk_matches_earley);
    ("cyk empty string", `Quick, test_cyk_empty);
    ("first/follow", `Quick, test_first_follow);
    ("ll1 table construction", `Quick, test_ll1_build);
    ("ll1 parser", `Quick, test_ll1_parse);
    ("mu-regex semantics", `Quick, test_mu_regex_basic);
    ("mu-regex star", `Quick, test_mu_regex_star_is_mu);
    ("mu-regex to cfg", `Quick, test_mu_to_cfg);
    ("cfg to mu-regex (Leiss)", `Quick, test_cfg_to_mu);
    ("mu-regex substitution", `Quick, test_mu_subst);
    ("dyck language", `Quick, test_dyck_language);
    ("dyck unambiguous", `Quick, test_dyck_unambiguous);
    ("thm4.13 strong equivalence", `Quick, test_dyck_strong_equivalence);
    ("dyck verified parser", `Quick, test_dyck_parse_result);
    ("dyck vs earley", `Quick, test_dyck_vs_earley);
    ("expr language", `Quick, test_expr_language);
    ("expr sigma total+unambiguous", `Quick, test_expr_sigma_total_unambiguous);
    ("expr parse_o genuine", `Quick, test_expr_parse_o_genuine);
    ("thm4.14 verified parser", `Quick, test_expr_parse);
    ("thm4.14 weak equivalence", `Quick, test_expr_weak_equivalence);
    ("expr right association", `Quick, test_expr_right_associated);
    ("expr semantic action", `Quick, test_expr_eval);
    ("slr handles left recursion", `Quick, test_slr_accepts_left_recursion);
    ("slr parser", `Quick, test_slr_parse);
    ("slr left association", `Quick, test_slr_left_associated);
    ("slr dyck", `Quick, test_slr_dyck);
    ("random cfg differential", `Quick, test_random_cfg_differential);
    ("cyk dense blocked identity", `Quick, test_cyk_dense_blocked_identity);
    ("binarize shape and budgets", `Quick, test_binarize_shape_and_budget);
    ("random cfg earley trees", `Quick, test_random_cfg_earley_trees);
    ("random cfg mu roundtrip", `Quick, test_random_cfg_mu_roundtrip);
    ("expr unambiguity scaled", `Quick, test_expr_sigma_unambiguous_scaled);
    ("dyck unambiguity scaled", `Quick, test_dyck_unambiguous_scaled);
    ("ll1 stack automaton language", `Quick, test_ll1_automaton_language);
    ("ll1 stack automaton traces", `Quick, test_ll1_automaton_traces);
    ("ll1 stack automaton parser", `Quick, test_ll1_automaton_parser);
    ("ll1 stack encoding", `Quick, test_ll1_automaton_stack_encoding) ]
  @ qcheck_tests
  @ [ ("earley session retained memory", `Quick,
       test_earley_session_retained_memory) ]
