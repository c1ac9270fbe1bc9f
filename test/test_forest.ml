(* Tests for the packed parse chart ({!Chart}, the parse forest):
   agreement with the enumeration engines on counts and membership,
   exact Catalan ambiguity at sizes where materializing the parse list
   is infeasible, saturating counts, and on-demand unpacking. *)

module G = Lambekd_grammar.Grammar
module P = Lambekd_grammar.Ptree
module E = Lambekd_grammar.Enum
module C = Lambekd_grammar.Chart
module Dyck = Lambekd_cfg.Dyck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* S → SS | a: the parses of a^n are the binary trees with n leaves,
   counted by Catalan(n-1). *)
let ss = G.fix "S" (fun self -> G.alt2 (G.seq self self) (G.chr 'a'))

let count g s = C.count (C.build g s)

let catalan n =
  let c = Array.make (n + 1) 0 in
  c.(0) <- 1;
  for i = 1 to n do
    for j = 0 to i - 1 do
      c.(i) <- c.(i) + (c.(j) * c.(i - 1 - j))
    done
  done;
  c.(n)

let test_count_matches_enum () =
  for n = 1 to 8 do
    let s = String.make n 'a' in
    check_int (Fmt.str "count a^%d" n) (E.count ss s) (count ss s);
    check_int
      (Fmt.str "count_fast a^%d" n)
      (E.count_fast ss s) (count ss s)
  done;
  check_int "empty input" 0 (count ss "");
  check_int "wrong letter" 0 (count ss "ab")

let test_catalan_exact () =
  for n = 1 to 14 do
    let s = String.make n 'a' in
    check_int (Fmt.str "catalan a^%d" n) (catalan (n - 1)) (count ss s)
  done;
  (* the acceptance-scale instance: Catalan(23) parse trees, far beyond
     anything a materialized list could hold *)
  check_bool "a^24 exact count" true
    (count ss (String.make 24 'a') = 343_059_613_650)

let test_saturation () =
  (* Catalan(79) ≫ max_int: the sweep must saturate, not overflow *)
  let c = count ss (String.make 80 'a') in
  check_bool "saturated" true (C.is_saturated c);
  check_bool "small count not saturated" false
    (C.is_saturated (count ss "aaa"))

let test_engines_agree_dyck () =
  let inputs =
    [ ""; "()"; "(())"; "()()()"; "(()())(())"; ")("; "(("; "())("; "()(" ]
  in
  List.iter
    (fun w ->
      let f = C.accepts (C.build Dyck.grammar w) in
      check_bool (Fmt.str "worklist %S" w) f (E.accepts Dyck.grammar w);
      check_bool
        (Fmt.str "fixpoint %S" w)
        f
        (E.accepts_fixpoint Dyck.grammar w))
    inputs

let test_random_differential () =
  let st = Random.State.make [| 0x5eed; 2 |] in
  for _ = 1 to 200 do
    let len = Random.State.int st 13 in
    let w =
      String.init len (fun _ -> if Random.State.bool st then '(' else ')')
    in
    let f = C.accepts (C.build Dyck.grammar w) in
    check_bool (Fmt.str "worklist %S" w) f (E.accepts Dyck.grammar w);
    check_bool
      (Fmt.str "fixpoint %S" w)
      f
      (E.accepts_fixpoint Dyck.grammar w);
    (* Dyck is unambiguous: the materialized parse list has 0 or 1 tree *)
    check_int
      (Fmt.str "parses %S" w)
      (if f then 1 else 0)
      (List.length (E.parses Dyck.grammar w))
  done

let test_enumerate_bounded () =
  let f = C.build ss (String.make 10 'a') in
  let trees = List.of_seq (C.enumerate ~max_trees:7 f) in
  check_int "bounded" 7 (List.length trees);
  List.iter
    (fun t ->
      Alcotest.(check string) "yield" (String.make 10 'a') (P.yield t))
    trees;
  check_int "distinct" 7 (List.length (List.sort_uniq compare trees));
  check_int "full enumeration" (catalan 4)
    (List.length (List.of_seq (C.enumerate (C.build ss "aaaaa"))))

let test_first_parse () =
  (match C.first_parse (C.build Dyck.grammar "(())") with
  | Some t -> Alcotest.(check string) "yield" "(())" (P.yield t)
  | None -> Alcotest.fail "expected a parse");
  check_bool "none on reject" true
    (C.first_parse (C.build Dyck.grammar "(") = None)

let test_build_span () =
  check_bool "inner span accepted" true
    (C.accepts (C.build_span Dyck.grammar "))()((" 2 4));
  check_bool "outer span rejected" false
    (C.accepts (C.build_span Dyck.grammar "))()((" 0 2))

let test_forest_stats () =
  let f = C.build ss (String.make 8 'a') in
  check_bool "has nodes" true (C.nodes f > 0);
  (* more edges than nodes: some node packs two or more alternatives *)
  check_bool "has genuinely packed nodes" true (C.edges f > C.nodes f);
  check_int "root is the last node" (C.nodes f - 1) (C.root f);
  (* DAG size is polynomial even though the count is Catalan-sized *)
  check_bool "polynomial size" true (C.nodes f <= 8 * 8 * 4)

(* One pool reused across grammars and input sizes (growing and
   shrinking) must be invisible: counts and unpacked trees equal those of
   fresh builds. *)
let test_pool_reuse () =
  let pool = C.pool () in
  let cases =
    [ (ss, "aaaaaa"); (Dyck.grammar, "(()())"); (ss, "aa");
      (ss, String.make 20 'a'); (Dyck.grammar, ")("); (ss, "aaa") ]
  in
  List.iter
    (fun (g, w) ->
      let fresh = C.build g w in
      let fresh_count = C.count fresh in
      let fresh_trees = List.of_seq (C.enumerate ~max_trees:20 fresh) in
      let pooled = C.build ~pool g w in
      check_int (Fmt.str "pooled count %S" w) fresh_count (C.count pooled);
      check_bool (Fmt.str "pooled trees %S" w) true
        (List.equal P.equal fresh_trees
           (List.of_seq (C.enumerate ~max_trees:20 pooled))))
    cases

let suite =
  [ ("forest count = enum count", `Quick, test_count_matches_enum);
    ("catalan ambiguity exact", `Quick, test_catalan_exact);
    ("count saturates", `Quick, test_saturation);
    ("three engines agree on dyck", `Quick, test_engines_agree_dyck);
    ("random differential dyck", `Quick, test_random_differential);
    ("bounded enumeration", `Quick, test_enumerate_bounded);
    ("first parse", `Quick, test_first_parse);
    ("span builds", `Quick, test_build_span);
    ("forest statistics", `Quick, test_forest_stats);
    ("pooled builds = fresh builds", `Quick, test_pool_reuse) ]
