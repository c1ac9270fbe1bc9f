(* Tests for the service layer: LRU, JSON, protocol decoding, the grammar
   registry (including a random differential against fresh compilation),
   request execution (engine policy, deadlines, result cache), and the
   multi-domain scheduler (flow control, and a stress test asserting parallel
   output is byte-identical to serial). *)

module Sv = Lambekd_service
module Lru = Sv.Lru
module Json = Sv.Json
module Protocol = Sv.Protocol
module Registry = Sv.Registry
module Exec = Sv.Exec
module Scheduler = Sv.Scheduler
module Builtin = Sv.Builtin
module Cfg = Lambekd_cfg.Cfg
module Charsets = Lambekd_grammar.Charsets

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- lru ---------------------------------------------------------------- *)

let test_lru_basic () =
  let c = Lru.create ~cap:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check_bool "find a" true (Lru.find c "a" = Some 1);
  (* a is now most recent; inserting c evicts b *)
  Lru.put c "c" 3;
  check_int "size stays at cap" 2 (Lru.size c);
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a survives" true (Lru.find c "a" = Some 1);
  check_bool "c present" true (Lru.find c "c" = Some 3);
  check_int "one eviction" 1 (Lru.evictions c)

let test_lru_replace () =
  let c = Lru.create ~cap:2 in
  Lru.put c "a" 1;
  Lru.put c "a" 10;
  check_int "replace does not grow" 1 (Lru.size c);
  check_bool "replaced value" true (Lru.find c "a" = Some 10);
  check_int "replace is not an eviction" 0 (Lru.evictions c)

let test_lru_disabled () =
  let c = Lru.create ~cap:0 in
  Lru.put c "a" 1;
  check_bool "cap 0 never stores" true (Lru.find c "a" = None);
  check_int "drop counted as eviction" 1 (Lru.evictions c)

(* Differential against the stamp-scan LRU the service used to ship
   ([Lru_oracle]): one random script of puts, finds and clears is run on
   both at every cap, and after each step the find answer, size,
   eviction count and set of bindings must agree.  Keys are folded into
   a range a little over twice the cap, so scripts both hit and evict. *)
type lru_op = Put of int * int | Find of int | Clear

let lru_caps = [ 0; 1; 2; 5; 64 ]

let lru_script =
  let open QCheck.Gen in
  let op =
    frequency
      [ (6, map2 (fun k v -> Put (k, v)) (int_bound 200) small_nat);
        (6, map (fun k -> Find k) (int_bound 200));
        (1, return Clear) ]
  in
  let print = function
    | Put (k, v) -> Printf.sprintf "put %d %d" k v
    | Find k -> Printf.sprintf "find %d" k
    | Clear -> "clear"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (list_size (int_range 0 300) op)

let lru_agrees cap ops =
  let c = Lru.create ~cap and o = Lru_oracle.create ~cap in
  let key k = k mod ((2 * cap) + 3) in
  let sorted l = List.sort compare l in
  List.for_all
    (fun op ->
      let same_answer =
        match op with
        | Put (k, v) ->
          Lru.put c (key k) v;
          Lru_oracle.put o (key k) v;
          true
        | Find k -> Lru.find c (key k) = Lru_oracle.find o (key k)
        | Clear ->
          Lru.clear c;
          Lru_oracle.clear o;
          true
      in
      same_answer
      && Lru.size c = Lru_oracle.size o
      && Lru.evictions c = Lru_oracle.evictions o
      && sorted (Lru.bindings c) = sorted (Lru_oracle.bindings o))
    ops

let prop_lru_matches_oracle =
  QCheck.Test.make ~name:"lru: matches the stamp-scan oracle" ~count:100
    lru_script (fun ops -> List.for_all (fun cap -> lru_agrees cap ops) lru_caps)

(* A hit relinks the recency list with int writes only: on a full cache
   of registry-shaped keys, 100k hits must promote (almost) nothing to
   the major heap.  An LRU that stores fresh boxes into old entries on
   every hit promotes a word or more per hit and fails this. *)
let test_lru_hit_promotes_nothing () =
  let n = 4096 in
  let c = Lru.create ~cap:n in
  let keys =
    Array.init n (fun i ->
        ( Digest.to_hex (Digest.string (string_of_int i)),
          "member",
          Printf.sprintf "input-%d" i ))
  in
  Array.iteri (fun i k -> Lru.put c k (string_of_int i)) keys;
  check_int "full" n (Lru.size c);
  Gc.full_major ();
  let _, promoted0, _ = Gc.counters () in
  for i = 0 to 99_999 do
    ignore (Sys.opaque_identity (Lru.find c keys.(i land (n - 1))))
  done;
  Gc.minor ();
  let _, promoted1, _ = Gc.counters () in
  let promoted = promoted1 -. promoted0 in
  check_bool
    (Printf.sprintf "100k hits promoted %.0f words (< 1000)" promoted)
    true (promoted < 1000.);
  check_int "no eviction on a hit" 0 (Lru.evictions c)

(* --- json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [ {|null|}; {|true|}; {|[1,2,3]|}; {|{"a":1,"b":[true,null]}|};
      {|"he\"llo\n"|}; {|{"nested":{"x":[{"y":"z"}]}}|} ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
        let printed = Json.to_string v in
        match Json.parse printed with
        | Error e -> Alcotest.failf "reparse %s: %s" printed e
        | Ok v' -> check_bool ("roundtrip " ^ s) true (v = v')))
    cases

let test_json_errors () =
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true (Result.is_error (Json.parse s)))
    [ ""; "{"; "[1,"; {|{"a"}|}; "tru"; {|"unterminated|}; "1 2"; "{} []" ]

let test_json_escapes () =
  (match Json.parse {|"A\t"|} with
  | Ok (Json.Str s) -> check_string "unicode escape" "A\t" s
  | _ -> Alcotest.fail "escape parse");
  check_string "control chars escaped" {|"\u0001"|}
    (Json.to_string (Json.Str "\001"));
  check_string "integral floats print as ints" {|{"n":42}|}
    (Json.to_string (Json.Obj [ ("n", Json.Num 42.) ]))

(* Encode one code point as UTF-8 (the test-side mirror of the encoder
   the JSON decoder uses, so properties do not test it against itself). *)
let utf8_of_cp cp =
  let b = Buffer.create 4 in
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end;
  Buffer.contents b

let test_json_surrogates () =
  (match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
    check_string "pair decodes to 4-byte UTF-8" (utf8_of_cp 0x1F600) s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  (match Json.parse {|"A\ud834\udd1e!"|} with
  | Ok (Json.Str s) ->
    check_string "pair embeds in surrounding text" ("A" ^ utf8_of_cp 0x1D11E ^ "!") s
  | _ -> Alcotest.fail "mixed pair");
  (* raw astral bytes pass through the string lexer untouched *)
  (match Json.parse ("\"" ^ utf8_of_cp 0x1F680 ^ "\"") with
  | Ok (Json.Str s) -> check_string "raw astral" (utf8_of_cp 0x1F680) s
  | _ -> Alcotest.fail "raw astral");
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true (Result.is_error (Json.parse s)))
    [ {|"\ud800"|};           (* lone high surrogate at end *)
      {|"\ud83dx"|};          (* high surrogate, then a plain char *)
      {|"\ud83d\u0041"|};     (* high surrogate, then a non-low escape *)
      {|"\udc00"|};           (* lone low surrogate *)
      {|"\ude00()"|} ]

let arbitrary_unicode_string =
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(
      let cp =
        (* all four UTF-8 widths, surrogate range excluded *)
        frequency
          [ (4, int_range 1 0x7f);
            (2, int_range 0x80 0x7ff);
            (1, int_range 0x800 0xd7ff);
            (1, int_range 0xe000 0xffff);
            (2, int_range 0x10000 0x10ffff) ]
      in
      map
        (fun cps -> String.concat "" (List.map utf8_of_cp cps))
        (list_size (int_bound 24) cp))

let qcheck_json_string_roundtrip =
  QCheck.Test.make
    ~name:"json: escape/decode round-trips any UTF-8 string" ~count:300
    arbitrary_unicode_string
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

(* --- protocol ----------------------------------------------------------- *)

let test_parse_request () =
  match
    Protocol.parse_request
      {|{"id":"r1","grammar":"dyck","input":"()","query":"parse","engine":"earley","timeout_ms":50}|}
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "id" true (r.Protocol.id = Some "r1");
    check_string "gname" "dyck" r.Protocol.gname;
    check_string "input" "()" r.Protocol.input;
    check_bool "query" true (r.Protocol.query = Protocol.Parse);
    check_bool "engine" true (r.Protocol.engine = Protocol.Earley);
    check_bool "timeout" true (r.Protocol.timeout_ms = Some 50.)

let test_parse_request_defaults () =
  match Protocol.parse_request {|{"grammar":"expr","input":"n"}|} with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "no id" true (r.Protocol.id = None);
    check_bool "default query" true (r.Protocol.query = Protocol.Membership);
    check_bool "default engine" true (r.Protocol.engine = Protocol.Auto);
    check_bool "no timeout" true (r.Protocol.timeout_ms = None)

let test_parse_request_inline () =
  match
    Protocol.parse_request
      {|{"grammar":{"start":"S","prods":[["S",[]],["S",["'a'","S","'b'"]]]},"input":"aabb"}|}
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_string "inline gname" "inline" r.Protocol.gname;
    let resp = Exec.run (Registry.create ()) r in
    check_bool "a^n b^n accepted" true
      (resp.Protocol.outcome = Ok (Protocol.Accepted None))

let test_parse_request_errors () =
  List.iter
    (fun line ->
      check_bool
        ("rejects " ^ line)
        true
        (Result.is_error (Protocol.parse_request line)))
    [ "not json";
      {|["grammar"]|};
      {|{"input":"x"}|};
      {|{"grammar":"nope","input":"x"}|};
      {|{"grammar":"dyck"}|};
      {|{"grammar":"dyck","input":"x","query":"frobnicate"}|};
      {|{"grammar":"dyck","input":"x","engine":"glr"}|};
      {|{"grammar":"dyck","input":"x","timeout_ms":-1}|};
      {|{"grammar":{"start":"S","prods":[["S",["T"]]]},"input":"x"}|};
      {|{"grammar":{"start":"S","prods":[["S",["''"]]]},"input":"x"}|} ]

let test_response_json () =
  let resp =
    { Protocol.rid = Some "r7";
      outcome = Ok (Protocol.Accepted None);
      engine_used = "ll1";
      artifact_cache = `Hit;
      result_cache = `Miss;
      dur_ns = 1234.5 }
  in
  check_string "with times"
    {|{"id":"r7","ok":true,"verdict":"accept","engine":"ll1","artifact":"hit","result":"miss","ns":1235}|}
    (Protocol.response_to_json resp);
  check_string "no times"
    {|{"id":"r7","ok":true,"verdict":"accept","engine":"ll1","artifact":"hit","result":"miss"}|}
    (Protocol.response_to_json ~times:false resp);
  check_string "timeout shape"
    {|{"ok":false,"error":"timeout","after_ms":5}|}
    (Protocol.response_to_json ~times:false
       { resp with
         rid = None;
         outcome = Error (Protocol.Timeout { after_ms = 5. });
         artifact_cache = `None;
         result_cache = `None })

(* --- registry ----------------------------------------------------------- *)

let test_registry_caching () =
  let reg = Registry.create () in
  let cfg = Option.get (Builtin.find "dyck") in
  let a1, m1 = Registry.get reg cfg in
  let a2, m2 = Registry.get reg cfg in
  check_bool "first is a miss" true (m1 = `Miss);
  check_bool "second is a hit" true (m2 = `Hit);
  check_bool "hit returns the same artifact" true (a1 == a2);
  check_string "digest stable" a1.Registry.digest (Registry.digest_cfg cfg)

let test_registry_digest_structural () =
  (* the same structure sent inline digests identically to the builtin *)
  let inline =
    Cfg.make ~start:"D"
      ~productions:
        [ ("D", []); ("D", [ Cfg.T '('; Cfg.N "D"; Cfg.T ')'; Cfg.N "D" ]) ]
  in
  let builtin = Option.get (Builtin.find "dyck") in
  check_string "structural digest" (Registry.digest_cfg builtin)
    (Registry.digest_cfg inline);
  check_bool "different grammar, different digest" true
    (Registry.digest_cfg builtin
    <> Registry.digest_cfg (Option.get (Builtin.find "expr")))

let test_registry_eviction () =
  let reg = Registry.create ~artifact_cap:1 ~result_cap:0 () in
  let d = Option.get (Builtin.find "dyck") in
  let e = Option.get (Builtin.find "expr") in
  ignore (Registry.get reg d);
  ignore (Registry.get reg e);
  (* dyck was evicted by expr *)
  let _, m = Registry.get reg d in
  check_bool "evicted artifact recompiles" true (m = `Miss);
  check_bool "evictions counted" true (Registry.artifact_evictions reg >= 1)

(* A small random CFG generator.  Every nonterminal gets at least one
   production by construction, so [Cfg.make] always accepts the result. *)
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

let random_word rng =
  String.init (Random.State.int rng 6) (fun _ ->
      if Random.State.bool rng then 'a' else 'b')

let info_string cs g = Fmt.str "%a" Charsets.pp_info (Charsets.info cs g)

(* The 100-grammar differential: for random grammars, the artifact served
   from the registry cache must be indistinguishable from one compiled
   fresh — same digest, same table existence, same charsets analysis,
   and same verdicts on random inputs. *)
let test_registry_differential () =
  let rng = Random.State.make [| 0x5e41ce |] in
  let reg = Registry.create ~artifact_cap:128 ~result_cap:0 () in
  for _ = 1 to 100 do
    let cfg = random_cfg rng in
    let fresh = Registry.compile cfg in
    (* small random space: a structurally equal grammar may have been
       drawn before, in which case the first get is already a hit *)
    let a, _ = Registry.get reg cfg in
    let cached, m2 = Registry.get reg cfg in
    check_bool "second get hits" true (m2 = `Hit);
    check_bool "cached is the compiled artifact" true (a == cached);
    check_string "digest" fresh.Registry.digest cached.Registry.digest;
    check_bool "ll1 existence" true
      (Option.is_some fresh.Registry.ll1 = Option.is_some cached.Registry.ll1);
    check_bool "slr existence" true
      (Option.is_some fresh.Registry.slr = Option.is_some cached.Registry.slr);
    check_string "charsets root analysis"
      (info_string fresh.Registry.cs fresh.Registry.grammar)
      (info_string cached.Registry.cs cached.Registry.grammar);
    (* verdict agreement through the cached artifact vs a cold registry *)
    for _ = 1 to 3 do
      let w = random_word rng in
      let req =
        { Protocol.id = None; cfg; gname = "random"; input = w;
          query = Protocol.Membership; engine = Protocol.Auto;
          weights = None; kbest = None; timeout_ms = None; trace = None }
      in
      let cold = Exec.run (Registry.create ~artifact_cap:0 ~result_cap:0 ()) req in
      let warm = Exec.run reg req in
      check_bool
        (Fmt.str "verdict agreement on %S" w)
        true
        (cold.Protocol.outcome = warm.Protocol.outcome)
    done
  done

(* --- exec: engine policy, deadlines, result cache ----------------------- *)

let run_line ?(reg = Registry.create ()) line =
  match Protocol.parse_request line with
  | Error e -> Alcotest.fail e
  | Ok req -> Exec.run reg req

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_engine_policy () =
  let engine line =
    (run_line line).Protocol.engine_used
  in
  check_string "LL(1) grammar uses ll1" "ll1"
    (engine {|{"grammar":"dyck","input":"()"}|});
  check_string "left-recursive grammar falls back to slr" "slr"
    (engine {|{"grammar":"expr_lr","input":"n+n"}|});
  check_string "no table falls back to earley" "earley"
    (engine {|{"grammar":"ss","input":"aa"}|});
  check_string "count always runs the forest" "forest"
    (engine {|{"grammar":"ss","input":"aaa","query":"count"}|});
  check_string "enum pin respected" "enum"
    (engine {|{"grammar":"dyck","input":"()","engine":"enum"}|});
  check_string "cyk pin respected" "cyk"
    (engine {|{"grammar":"dyck","input":"()","engine":"cyk"}|});
  (* the Auto crossover: density(ss) = 0.5, so short membership inputs
     stay on Earley and long ones flip to the dense chart *)
  check_string "auto stays on earley below the crossover" "earley"
    (engine {|{"grammar":"ss","input":"aaaa"}|});
  check_string "auto flips to cyk past the crossover" "cyk"
    (engine
       (Fmt.str {|{"grammar":"ss","input":"%s"}|} (String.make 64 'a')));
  (* parse queries never flip: cyk is a recognizer *)
  check_string "auto keeps parse queries on earley" "earley"
    (engine
       (Fmt.str {|{"grammar":"ss","input":"%s","query":"parse"}|}
          (String.make 64 'a')))

let test_engine_pin_errors () =
  let r = run_line {|{"grammar":"ss","input":"aa","engine":"ll1"}|} in
  (match r.Protocol.outcome with
  | Error (Protocol.Bad_request _) -> ()
  | _ -> Alcotest.fail "pinning ll1 on a non-LL(1) grammar must fail");
  let r = run_line {|{"grammar":"ss","input":"aa","engine":"slr"}|} in
  (match r.Protocol.outcome with
  | Error (Protocol.Bad_request _) -> ()
  | _ -> Alcotest.fail "pinning slr on a non-SLR(1) grammar must fail");
  (* cyk is a recognizer: a parse query under the pin is a bad request *)
  let r =
    run_line {|{"grammar":"dyck","input":"()","query":"parse","engine":"cyk"}|}
  in
  match r.Protocol.outcome with
  | Error (Protocol.Bad_request msg) ->
    check_bool "error names the engine" true
      (contains ~affix:"recognizer" msg)
  | _ -> Alcotest.fail "pinning cyk on a parse query must fail"

(* The binarization budget: a registry created with a tiny cyk budget
   still answers every non-cyk query, and the cyk pin degrades to the
   same bad-request shape as an absent LL(1)/SLR(1) table. *)
let test_cyk_budget_pin_error () =
  let reg = Registry.create ~cyk_nt_budget:2 () in
  let r = run_line ~reg {|{"grammar":"dyck","input":"()","engine":"cyk"}|} in
  (match r.Protocol.outcome with
  | Error (Protocol.Bad_request msg) ->
    check_bool "error names the budget" true
      (contains ~affix:"binarization budget" msg)
  | _ -> Alcotest.fail "over-budget cyk pin must be a bad request");
  (* the same grammar still serves everything else (auto never picks an
     absent cnf) *)
  let r = run_line ~reg {|{"grammar":"dyck","input":"()"}|} in
  check_bool "auto unaffected by the missing cnf" true
    (r.Protocol.outcome = Ok (Protocol.Accepted None));
  (* and a default-budget registry serves the same pin fine *)
  let r = run_line {|{"grammar":"dyck","input":"()","engine":"cyk"}|} in
  check_bool "default budget admits dyck" true
    (r.Protocol.outcome = Ok (Protocol.Accepted None))

let test_verdicts_across_engines () =
  (* all engines agree with each other on the same inputs *)
  let reg = Registry.create () in
  List.iter
    (fun (w, expect) ->
      List.iter
        (fun eng ->
          let r =
            run_line ~reg
              (Fmt.str {|{"grammar":"dyck","input":"%s","engine":"%s"}|} w eng)
          in
          let got =
            match r.Protocol.outcome with
            | Ok (Protocol.Accepted _) -> true
            | Ok Protocol.Rejected -> false
            | _ -> Alcotest.fail "unexpected failure"
          in
          check_bool (Fmt.str "%s on %S" eng w) expect got)
        [ "auto"; "ll1"; "slr"; "earley"; "cyk"; "enum" ])
    [ ("", true); ("()", true); ("(())()", true); ("(", false);
      ("())", false) ]

let test_count_query () =
  let r = run_line {|{"grammar":"ss","input":"aaaa","query":"count"}|} in
  match r.Protocol.outcome with
  | Ok (Protocol.Count { count; saturated }) ->
    check_int "catalan(3)" 5 count;
    check_bool "not saturated" false saturated
  | _ -> Alcotest.fail "expected a count"

let test_parse_query_tree () =
  let r = run_line {|{"grammar":"expr","input":"n+n","query":"parse"}|} in
  match r.Protocol.outcome with
  | Ok (Protocol.Accepted (Some tree)) ->
    check_bool "tree is non-empty" true (String.length tree > 0)
  | _ -> Alcotest.fail "expected a parse tree"

let test_timeout () =
  (* timeout_ms = 0: the deadline has always already passed *)
  let r = run_line {|{"grammar":"dyck","input":"()","timeout_ms":0}|} in
  match r.Protocol.outcome with
  | Error (Protocol.Timeout { after_ms }) ->
    check_bool "after_ms echoes budget" true (after_ms = 0.)
  | _ -> Alcotest.fail "expected a timeout"

(* Deeply left-nested sums on the right-biased expression grammar: the
   Earley tree walk is polynomial (it once doubled per nesting level), and
   a parse whose budget runs out answers timeout. *)
let test_deep_parse () =
  let rec nest d = if d = 0 then "n" else "(" ^ nest (d - 1) ^ ")+n" in
  let line ?timeout d =
    Fmt.str {|{"grammar":"expr_plain","input":"%s","query":"parse","engine":"earley"%s}|}
      (nest d)
      (match timeout with
      | Some ms -> Fmt.str {|,"timeout_ms":%d|} ms
      | None -> "")
  in
  (match (run_line (line 40)).Protocol.outcome with
  | Ok (Protocol.Accepted (Some tree)) ->
    check_bool "depth 40 tree" true (String.length tree > 0)
  | _ -> Alcotest.fail "expected a parse tree");
  match (run_line (line ~timeout:1 4000)).Protocol.outcome with
  | Error (Protocol.Timeout { after_ms }) ->
    check_bool "after_ms echoes budget" true (after_ms = 1.)
  | _ -> Alcotest.fail "expected a timeout"

let test_result_cache () =
  let reg = Registry.create () in
  let line = {|{"grammar":"dyck","input":"(())"}|} in
  let r1 = run_line ~reg line in
  let r2 = run_line ~reg line in
  check_bool "first result is a miss" true (r1.Protocol.result_cache = `Miss);
  check_bool "second result is a hit" true (r2.Protocol.result_cache = `Hit);
  check_bool "same verdict" true (r1.Protocol.outcome = r2.Protocol.outcome);
  (* a disabled result cache never hits *)
  let reg0 = Registry.create ~result_cap:0 () in
  let r1 = run_line ~reg:reg0 line in
  let r2 = run_line ~reg:reg0 line in
  check_bool "cap 0 never hits" true
    (r1.Protocol.result_cache = `Miss && r2.Protocol.result_cache = `Miss)

(* --- scheduler ----------------------------------------------------------- *)

let dyck_req input =
  match
    Protocol.parse_request
      (Fmt.str {|{"grammar":"dyck","input":"%s"}|} input)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* A 1-domain pool whose only worker is held inside a completion
   callback: whatever is submitted meanwhile provably sits queued until
   [release] is called. *)
let parked_pool ~queue_cap =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains:1 ~queue_cap ~registry:reg () in
  let mu = Mutex.create () and cv = Condition.create () in
  let parked = ref false and released = ref false in
  let park _ =
    Mutex.protect mu (fun () ->
        parked := true;
        Condition.broadcast cv;
        while not !released do
          Condition.wait cv mu
        done)
  in
  Scheduler.submit sched (dyck_req "()") park;
  Mutex.protect mu (fun () ->
      while not !parked do
        Condition.wait cv mu
      done);
  let release () =
    Mutex.protect mu (fun () ->
        released := true;
        Condition.broadcast cv)
  in
  (sched, release)

(* A full queue makes producers wait, and room wakes every one of them:
   one producer per connection may be blocked at once, and a worker
   popping from a full queue must not leave any of them asleep with room
   in the queue.  Here the first pop frees two slots for three waiting
   producers with one job each: a single signal woke one of them, whose
   job left the queue below cap, so no later pop woke the other two. *)
let test_scheduler_blocks () =
  let sched, release = parked_pool ~queue_cap:2 in
  let req = dyck_req "()" in
  let got = Atomic.make 0 in
  let submit () = Scheduler.submit sched req (fun _ -> Atomic.incr got) in
  submit ();
  submit ();
  check_int "queue at cap" 2 (Scheduler.depth sched);
  let producers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () -> try submit () with Invalid_argument _ -> ())
          ())
  in
  Unix.sleepf 0.05;
  check_int "producers wait while the queue is full" 2
    (Scheduler.depth sched);
  check_int "nothing answered while parked" 0 (Atomic.get got);
  release ();
  let t0 = Unix.gettimeofday () in
  while Atomic.get got < 5 && Unix.gettimeofday () -. t0 < 10. do
    Unix.sleepf 0.001
  done;
  let answered = Atomic.get got in
  (* shutdown wakes any producer still asleep, so a failure cannot hang *)
  Scheduler.shutdown sched;
  List.iter Thread.join producers;
  check_int "every blocked producer got in and was answered" 5 answered

(* domains = 0 runs on the caller: the callback has run before submit
   returns, nothing is ever queued, and the answer is the one a worker
   would give *)
let test_scheduler_inline () =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains:0 ~queue_cap:1 ~registry:reg () in
  let self = Thread.id (Thread.self ()) in
  let got = ref [] in
  let k r =
    check_bool "callback on the submitting thread" true
      (Thread.id (Thread.self ()) = self);
    got := r :: !got
  in
  Scheduler.submit sched (dyck_req "(())") k;
  check_int "submit answered before returning" 1 (List.length !got);
  for i = 1 to 5 do
    Scheduler.submit sched (dyck_req "()(") k;
    check_int "answered before returning, past the queue cap" (1 + i)
      (List.length !got)
  done;
  check_int "nothing queued" 0 (Scheduler.depth sched);
  (match !got with
  | last :: _ :: _ ->
    check_bool "rejects ()(" true
      (last.Protocol.outcome = Ok Protocol.Rejected)
  | _ -> Alcotest.fail "no responses");
  check_bool "accepts (())" true
    (match (List.nth !got 5).Protocol.outcome with
    | Ok (Protocol.Accepted _) -> true
    | _ -> false);
  let timed = ref None in
  (match
     Protocol.parse_request
       {|{"id":"z","grammar":"dyck","input":"()","timeout_ms":0}|}
   with
  | Ok r -> Scheduler.submit sched r (fun r -> timed := Some r)
  | Error e -> Alcotest.fail e);
  (match !timed with
  | Some { Protocol.outcome = Error (Protocol.Timeout _); _ } -> ()
  | _ -> Alcotest.fail "zero budget: expected an inline timeout");
  Scheduler.shutdown sched;
  check_bool "submit after shutdown raises" true
    (match Scheduler.submit sched (dyck_req "()") ignore with
    | () -> false
    | exception Invalid_argument _ -> true)

let mixed_requests () =
  List.filter_map
    (fun line ->
      match Protocol.parse_request line with
      | Ok r -> Some r
      | Error e -> Alcotest.fail e)
    (List.concat
       (List.init 25 (fun i ->
            [ Fmt.str
                {|{"id":"d%d","grammar":"dyck","input":"%s"}|}
                i
                (String.concat "" (List.init (i mod 7) (fun _ -> "()")));
              Fmt.str
                {|{"id":"e%d","grammar":"expr","input":"n%s","query":"parse"}|}
                i
                (String.concat "" (List.init (i mod 5) (fun _ -> "+n")));
              Fmt.str
                {|{"id":"l%d","grammar":"expr_lr","input":"n+n*1","query":"member"}|}
                i;
              Fmt.str
                {|{"id":"s%d","grammar":"ss","input":"%s","query":"count"}|}
                i
                (String.make (1 + (i mod 6)) 'a') ])))

(* The stress differential: 4 scheduler domains must produce exactly the
   responses the serial loop produces, byte for byte (modulo timing
   fields). *)
let test_scheduler_parallel_identical () =
  let reqs = mixed_requests () in
  let total = List.length reqs in
  let render rs =
    String.concat "\n"
      (List.map (Protocol.response_to_json ~times:false) rs)
  in
  let serial =
    let reg = Registry.create ~result_cap:0 () in
    List.map (Exec.run reg) reqs
  in
  let parallel =
    let reg = Registry.create ~result_cap:0 () in
    (* pre-warm so artifact hit/miss fields match the serial run's
       steady state is not needed: both runs compile on first touch in
       submission order for serial; for parallel, compilation order can
       differ, so warm both ways instead *)
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    let reg_serial = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg_serial r.Protocol.cfg)) reqs;
    let sched = Scheduler.create ~domains:4 ~queue_cap:32 ~registry:reg () in
    let out = Array.make total None in
    List.iteri
      (fun i r -> Scheduler.submit sched r (fun resp -> out.(i) <- Some resp))
      reqs;
    Scheduler.shutdown sched;
    Array.to_list (Array.map Option.get out)
  in
  let serial_warm =
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    List.map (Exec.run reg) reqs
  in
  check_int "every request answered" total (List.length parallel);
  check_string "parallel output identical to serial (warm)"
    (render serial_warm) (render parallel);
  (* verdicts (not cache fields) also match the fully cold serial run *)
  List.iter2
    (fun (a : Protocol.response) (b : Protocol.response) ->
      check_bool "verdict matches cold serial" true
        (a.Protocol.outcome = b.Protocol.outcome))
    serial parallel

let test_scheduler_shutdown_drains () =
  let reg = Registry.create () in
  let sched = Scheduler.create ~domains:2 ~queue_cap:128 ~registry:reg () in
  let req =
    match Protocol.parse_request {|{"grammar":"dyck","input":"(())"}|} with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let answered = Atomic.make 0 in
  for _ = 1 to 100 do
    Scheduler.submit sched req (fun _ -> Atomic.incr answered)
  done;
  Scheduler.shutdown sched;
  check_int "shutdown waits for every queued job" 100 (Atomic.get answered)

(* --- fault plane ---------------------------------------------------------- *)

module Fault = Sv.Fault
module Fuzz = Sv.Fuzz
module Probe = Lambekd_telemetry.Probe

let with_schedule s f =
  match Fault.parse s with
  | Error e -> Alcotest.failf "schedule %S: %s" s e
  | Ok cfg ->
    Fault.install cfg;
    Fun.protect ~finally:Fault.clear f

let test_fault_parse () =
  check_bool "empty schedule ok" true (Result.is_ok (Fault.parse ""));
  check_bool "full schedule ok" true
    (Result.is_ok
       (Fault.parse
          "seed=42;exec.run:fail:0.3;registry.get:corrupt:0.5,scheduler.claim:delay:0.1:2"));
  check_bool "not active before install" false (Fault.active ());
  with_schedule "seed=1;exec.run:fail:0.1" (fun () ->
      check_bool "active after install" true (Fault.active ()));
  check_bool "cleared" false (Fault.active ());
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true (Result.is_error (Fault.parse s)))
    [ "bogus.site:fail:0.1"; "exec.run:explode:0.1"; "exec.run:fail:nan";
      "exec.run:fail:1.5"; "exec.run:fail"; "seed=x;exec.run:fail:0.1";
      "exec.run:delay:0.1:-3"; "exec.run:delay:0.1:2:9" ]

(* The determinism contract: a schedule's draw stream is a pure function
   of (seed, site, sequence), so two installs produce the same pattern. *)
let test_fault_deterministic () =
  let pattern () =
    with_schedule "seed=9;exec.run:fail:0.5" (fun () ->
        List.init 200 (fun _ ->
            match Fault.disrupt Fault.Exec_run with
            | () -> false
            | exception Fault.Injected _ -> true))
  in
  let p1 = pattern () and p2 = pattern () in
  check_bool "same draw pattern on reinstall" true (p1 = p2);
  check_bool "some draws fail" true (List.mem true p1);
  check_bool "some draws pass" true (List.mem false p1);
  (* the consecutive-failure cap: never more than 3 fails in a row *)
  let worst, _ =
    List.fold_left
      (fun (worst, run) f ->
        let run = if f then run + 1 else 0 in
        (max worst run, run))
      (0, 0) p1
  in
  check_bool "at most 3 consecutive fails" true (worst <= 3)

(* Output invariance: with result caching off, responses under any fault
   schedule are byte-identical to an unfaulted run (the tentpole
   invariant; [lambekd fuzz] checks it at scale and under concurrency). *)
let test_fault_output_invariant () =
  let reqs = mixed_requests () in
  let render r = Protocol.response_to_json ~times:false r in
  let run_all () =
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    List.map (fun r -> render (Exec.run reg r)) reqs
  in
  let clean = run_all () in
  List.iter
    (fun s ->
      let faulted = with_schedule s run_all in
      check_bool ("byte-identical under " ^ s) true
        (List.equal String.equal clean faulted))
    [ "seed=1;exec.run:fail:0.5";
      "seed=2;registry.get:corrupt:0.5;registry.result:corrupt:0.5";
      "seed=3;exec.run:corrupt:0.3;registry.get:delay:0.05:1";
      "seed=4;exec.run:fail:0.5;registry.get:corrupt:0.5" ]

let test_fault_verdict_invariant_with_cache () =
  (* with result caching ON, corrupt may flip a result:"hit" to "miss",
     but verdicts still match the clean run *)
  let reqs = mixed_requests () in
  let verdicts reg =
    List.map (fun r -> (Exec.run reg r).Protocol.outcome) reqs
  in
  let clean = verdicts (Registry.create ()) in
  let faulted =
    with_schedule "seed=5;registry.result:corrupt:0.5" (fun () ->
        verdicts (Registry.create ()))
  in
  check_bool "verdicts invariant under result-cache corruption" true
    (clean = faulted)

(* --- scheduler: queued-deadline expiry ------------------------------------ *)

let test_queue_expiry () =
  (* the worker is parked, so the job provably sits queued past its
     deadline before the worker reaches it *)
  let was_enabled = Probe.enabled () in
  Probe.enable ();
  let c = Probe.counter "scheduler.expired_in_queue" in
  let before = Probe.value c in
  let sched, release = parked_pool ~queue_cap:4 in
  let req =
    match
      Protocol.parse_request
        {|{"id":"q1","grammar":"dyck","input":"(())","timeout_ms":5}|}
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let got = ref None in
  Scheduler.submit sched req (fun r -> got := Some r);
  Unix.sleepf 0.02;
  release ();
  Scheduler.shutdown sched;
  if not was_enabled then Probe.disable ();
  match !got with
  | Some r ->
    (match r.Protocol.outcome with
    | Error (Protocol.Timeout { after_ms }) ->
      check_bool "echoes the budget" true (after_ms = 5.)
    | _ -> Alcotest.fail "expected a timeout");
    check_string "no engine ever ran" "" r.Protocol.engine_used;
    check_string "response keeps the id" "q1"
      (Option.value ~default:"" r.Protocol.rid);
    check_bool "expiry counted" true (Probe.value c > before)
  | None -> Alcotest.fail "no response"

(* --- fuzz: the in-process differential ------------------------------------ *)

let test_fuzz_differential () =
  List.iter
    (fun (seed, schedule) ->
      let schedule =
        Option.map
          (fun s ->
            match Fault.parse s with
            | Ok cfg -> (cfg, s)
            | Error e -> Alcotest.failf "schedule %S: %s" s e)
          schedule
      in
      match
        Fuzz.differential ~domains:2 ?schedule ~seed ~requests:80 ()
      with
      | Ok r ->
        check_int "all lines generated" 80 r.Fuzz.lines;
        check_bool "responses produced" true (r.Fuzz.responses > 0)
      | Error msg -> Alcotest.failf "differential (seed %d): %s" seed msg)
    [ (7, None); (8, Some "seed=2;exec.run:fail:0.4;registry.get:corrupt:0.5") ]

(* Both sides now answer an engine exception the same way (a worker and
   the 0-domain serial path share [run_job]), so agreement alone would
   pass a crash: the verdict must fail on an internal error wherever it
   appears. *)
let test_fuzz_internal_error () =
  let render r = Protocol.response_to_json ~times:false r in
  let ok = render (Protocol.bad_request ~id:"a" "unknown grammar") in
  let crash =
    render (Protocol.bad_request ~id:"b" "internal error: Not_found")
  in
  (match Fuzz.compare_replays ~serial:[ ok; ok ] ~service:[ ok; ok ] with
  | Ok n -> check_int "clean round counts responses" 2 n
  | Error e -> Alcotest.failf "clean round failed: %s" e);
  let fails name ~serial ~service =
    match Fuzz.compare_replays ~serial ~service with
    | Ok _ -> Alcotest.failf "%s: round passed" name
    | Error e -> e
  in
  let e = fails "agreeing crash" ~serial:[ ok; crash ] ~service:[ ok; crash ] in
  check_bool "names the internal error" true
    (contains ~affix:"response 1 is an internal error" e);
  ignore (fails "serial-only crash" ~serial:[ crash ] ~service:[ ok ]);
  ignore (fails "service-only crash" ~serial:[ ok ] ~service:[ crash ]);
  ignore (fails "count mismatch" ~serial:[ ok ] ~service:[ ok; ok ]);
  (* the real rendering of a caught exception is what the check keys on *)
  check_bool "scheduler wording" true
    (contains ~affix:{|"error":"bad_request","message":"internal error: |}
       crash)

(* --- fuzz: the committed corpus ------------------------------------------- *)

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

(* Every corpus case replays against its committed golden through the
   serial reference — the regression net for protocol and engine output
   (regenerate with [lambekd fuzz --corpus test/data/fuzz --write-goldens]). *)
let test_fuzz_corpus () =
  let dir = "data/fuzz" in
  let cases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ndjson")
    |> List.sort String.compare
  in
  check_bool "at least 20 corpus cases" true (List.length cases >= 20);
  List.iter
    (fun case ->
      let lines = read_lines (Filename.concat dir case) in
      let golden =
        read_lines
          (Filename.concat dir (Filename.chop_suffix case ".ndjson" ^ ".expected"))
      in
      let reg = Registry.create ~result_cap:0 () in
      let got = Fuzz.reference reg lines in
      check_int (case ^ ": response count") (List.length golden)
        (List.length got);
      List.iteri
        (fun i (want, have) ->
          check_string (Fmt.str "%s: response %d" case i) want have)
        (List.combine golden got))
    cases

(* --- engine counters ------------------------------------------------------ *)

(* exec.engine.* records which machinery served each request (cache hits
   included: the engine was still the resolved choice). *)
let test_engine_counters () =
  let was_enabled = Probe.enabled () in
  Probe.enable ();
  let counter n = Probe.counter ("exec.engine." ^ n) in
  let names =
    [ "ll1"; "slr"; "earley"; "cyk"; "enum"; "forest"; "kbest"; "mass" ]
  in
  let before = List.map (fun n -> (n, Probe.value (counter n))) names in
  let reg = Registry.create ~result_cap:0 () in
  let run line =
    match Protocol.parse_request line with
    | Ok r -> ignore (Exec.run reg r)
    | Error e -> Alcotest.fail e
  in
  run {|{"grammar":"expr","input":"n"}|};
  (* auto → ll1 *)
  run {|{"grammar":"expr_lr","input":"n"}|};
  (* auto → slr *)
  run {|{"grammar":"expr_plain","input":"n+n","engine":"earley"}|};
  run {|{"grammar":"expr_plain","input":"n+n","engine":"earley","query":"parse"}|};
  run {|{"grammar":"dyck","input":"()","engine":"enum"}|};
  run {|{"grammar":"anbn","input":"ab","engine":"cyk"}|};
  run {|{"grammar":"ss","input":"aaa","query":"count"}|};
  (* count → forest *)
  run {|{"grammar":"ss","input":"aaa","query":"parse","kbest":2}|};
  run {|{"grammar":"ss","input":"aaa","query":"mass"}|};
  let grew n want =
    let b = List.assoc n before in
    check_int ("exec.engine." ^ n) (b + want) (Probe.value (counter n))
  in
  grew "ll1" 1;
  grew "slr" 1;
  grew "earley" 2;
  grew "cyk" 1;
  grew "enum" 1;
  grew "forest" 1;
  grew "kbest" 1;
  grew "mass" 1;
  if not was_enabled then Probe.disable ()

(* --- pooled scratch ------------------------------------------------------- *)

(* Requests that hammer the allocation-lean paths: Earley charts, Leo
   expansion + tree rendering from pooled charts, and the packed-chart
   pool behind count, k-best and mass — against a handful of artifacts
   with input sizes that grow and shrink, so a stale scratch entry from
   a longer earlier run would surface as a wrong verdict or a corrupt
   tree. *)
let scratch_requests () =
  List.filter_map
    (fun line ->
      match Protocol.parse_request line with
      | Ok r -> Some r
      | Error e -> Alcotest.fail e)
    (List.concat
       (List.init 30 (fun i ->
            [ Fmt.str
                {|{"id":"p%d","grammar":"expr_plain","input":"n%s","query":"parse","engine":"earley"}|}
                i
                (String.concat "" (List.init (i * 5 mod 23) (fun _ -> "+n")));
              Fmt.str
                {|{"id":"m%d","grammar":"anbn","input":"%s","engine":"earley","query":"%s"}|}
                i
                (String.make (i mod 9) 'a' ^ String.make (i mod 9) 'b')
                (if i mod 2 = 0 then "member" else "parse");
              Fmt.str
                {|{"id":"k%d","grammar":"ss","input":"%s",%s}|}
                i
                (String.make (1 + (i * 5 mod 11)) 'a')
                (if i mod 2 = 0 then {|"query":"mass"|}
                 else {|"query":"parse","kbest":3|});
              Fmt.str
                {|{"id":"c%d","grammar":"ss","input":"%s","query":"count"}|}
                i
                (String.make (1 + (i * 3 mod 14)) 'a');
              Fmt.str
                {|{"id":"d%d","grammar":"dyck","input":"%s","query":"parse","engine":"earley"}|}
                i
                (String.concat "" (List.init (i mod 11) (fun _ -> "()"))) ])))

(* Pooled scratch must never leak state across requests or domains: the
   4-domain run must be byte-identical to the serial reference, clean and
   under a committed fault schedule (faults retry requests, re-entering
   scratch checkout on the same worker). *)
let test_scratch_domain_stress () =
  let was_enabled = Probe.enabled () in
  Probe.enable ();
  let reuse = Probe.counter "earley.scratch_reuse" in
  let reuse_before = Probe.value reuse in
  let reqs = scratch_requests () in
  let total = List.length reqs in
  let render rs =
    String.concat "\n" (List.map (Protocol.response_to_json ~times:false) rs)
  in
  let serial =
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    render (List.map (Exec.run reg) reqs)
  in
  check_bool "serial run reuses pooled scratch" true
    (Probe.value reuse > reuse_before);
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
  check_string "4-domain scratch churn byte-identical to serial" serial
    (parallel ());
  let faulted =
    with_schedule "seed=11;exec.run:fail:0.4;registry.get:corrupt:0.4"
      (fun () -> parallel ())
  in
  check_string "identical under fault schedule too" serial faulted;
  if not was_enabled then Probe.disable ()

(* --- operations plane: admin lines, traces, cache stats ------------------- *)

module Trace = Sv.Trace

let test_parse_line_admin () =
  (match Protocol.parse_line {|{"op":"health"}|} with
  | Ok (Protocol.Admin { aid = None; op = Protocol.Op_health }) -> ()
  | _ -> Alcotest.fail "bare health op");
  (match Protocol.parse_line {|{"id":"a1","op":"metrics"}|} with
  | Ok (Protocol.Admin { aid = Some "a1"; op = Protocol.Op_metrics }) -> ()
  | _ -> Alcotest.fail "metrics op with id");
  (match Protocol.parse_line {|{"grammar":"dyck","input":"()"}|} with
  | Ok (Protocol.Request _) -> ()
  | _ -> Alcotest.fail "op-less lines still decode as requests");
  List.iter
    (fun line ->
      check_bool ("rejects " ^ line) true
        (Result.is_error (Protocol.parse_line line)))
    [ {|{"op":"frobnicate"}|}; {|{"op":7}|} ];
  (* normalized admin acks: no volatile fields, byte-reproducible *)
  check_string "ready" {|{"ok":true,"status":"ready"}|}
    (Protocol.health_response ~draining:false ~extra:[] ());
  check_string "draining, id mirrored"
    {|{"id":"a1","ok":true,"status":"draining"}|}
    (Protocol.health_response ~id:"a1" ~draining:true ~extra:[] ());
  check_string "metrics ack" {|{"id":"m","ok":true,"op":"metrics"}|}
    (Protocol.metrics_response ~id:"m" ~extra:[] ())

(* A front end in miniature: decode, assign the id, stamp the stages the
   serve loop and batch driver own, run, stamp written. *)
let run_traced ?(reg = Registry.create ()) line =
  match Protocol.parse_request line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let tr = Option.get r.Protocol.trace in
    Trace.set_id tr "t0";
    Trace.stamp_received tr;
    Trace.stamp_dequeued tr;
    let resp = Exec.run reg r in
    Trace.stamp_written tr;
    (tr, resp)

let test_trace_decode_and_render () =
  (match Protocol.parse_request {|{"grammar":"dyck","input":"()"}|} with
  | Ok r -> check_bool "no trace by default" true (r.Protocol.trace = None)
  | Error e -> Alcotest.fail e);
  (match
     Protocol.parse_request {|{"grammar":"dyck","input":"()","trace":false}|}
   with
  | Ok r -> check_bool "trace:false is no trace" true (r.Protocol.trace = None)
  | Error e -> Alcotest.fail e);
  check_bool "trace must be a boolean" true
    (Result.is_error
       (Protocol.parse_request {|{"grammar":"dyck","input":"()","trace":1}|}));
  let tr, resp =
    run_traced {|{"id":"r1","grammar":"dyck","input":"()","trace":true}|}
  in
  (* normalized: id + stage presence only — the fuzz differential's oracle *)
  check_string "normalized render"
    {|{"id":"r1","ok":true,"verdict":"accept","engine":"ll1","artifact":"miss","result":"miss","trace":{"id":"t0","stages":["received","dequeued","engine_start","engine_end","written"]}}|}
    (Protocol.response_to_json ~times:false ~trace:tr resp);
  (* timed: stage durations and fault count ride along *)
  match Json.parse (Protocol.response_to_json ~trace:tr resp) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let t = Option.get (Json.mem "trace" j) in
    List.iter
      (fun f ->
        check_bool ("timed trace has " ^ f) true (Json.mem f t <> None))
      [ "id"; "queue_ns"; "engine_ns"; "total_ns"; "compile_ns"; "faults" ]

let test_exec_trace_stages () =
  let reg = Registry.create () in
  let line = {|{"grammar":"dyck","input":"(())","trace":true}|} in
  let cold, cold_resp = run_traced ~reg line in
  check_bool "cold run reaches the engine" true
    (Trace.stages cold
    = [ "received"; "dequeued"; "engine_start"; "engine_end"; "written" ]);
  check_bool "cold run pays a compile" false (Float.is_nan cold.Trace.compile_ns);
  check_bool "cold result is a miss" true
    (cold_resp.Protocol.result_cache = `Miss);
  let warm, warm_resp = run_traced ~reg line in
  check_bool "result-cache hit skips the engine" true
    (Trace.stages warm = [ "received"; "dequeued"; "written" ]);
  check_bool "warm result is a hit" true
    (warm_resp.Protocol.result_cache = `Hit);
  check_bool "warm run pays no compile" true (Float.is_nan warm.Trace.compile_ns);
  let expired, expired_resp =
    run_traced ~reg {|{"grammar":"dyck","input":"()","timeout_ms":0,"trace":true}|}
  in
  check_bool "expired deadline never starts the engine" true
    (Trace.stages expired = [ "received"; "dequeued"; "written" ]);
  (match expired_resp.Protocol.outcome with
  | Error (Protocol.Timeout _) -> ()
  | _ -> Alcotest.fail "expected a timeout");
  check_int "no faults in a clean run" 0 cold.Trace.faults

let test_registry_stats () =
  let reg = Registry.create ~artifact_cap:1 ~result_cap:8 () in
  let d = Option.get (Builtin.find "dyck") in
  let e = Option.get (Builtin.find "expr") in
  ignore (Registry.get reg d);
  ignore (Registry.get reg d);
  let art, _ = Registry.get reg e in
  (* expr evicted dyck (cap 1) *)
  let s = Registry.stats reg in
  check_int "artifact size" 1 s.Registry.artifact_size;
  check_int "artifact cap" 1 s.Registry.artifact_cap;
  check_int "artifact evictions" 1 s.Registry.artifact_evictions;
  check_int "artifact hits" 1 s.Registry.artifact_hits;
  check_int "artifact misses" 2 s.Registry.artifact_misses;
  let digest = art.Registry.digest and key = "member:auto" in
  check_bool "result probe misses" true
    (Registry.find_result reg ~digest ~key ~input:"n" = None);
  Registry.put_result reg ~digest ~key ~input:"n" (Protocol.Accepted None);
  check_bool "result probe hits" true
    (Registry.find_result reg ~digest ~key ~input:"n"
    = Some (Protocol.Accepted None));
  let s = Registry.stats reg in
  check_int "result size" 1 s.Registry.result_size;
  check_int "result hits" 1 s.Registry.result_hits;
  check_int "result misses" 1 s.Registry.result_misses;
  Registry.with_scratch art (fun _ ->
      let s = Registry.stats reg in
      check_int "scratch checked out" 1 s.Registry.scratch_out);
  let s = Registry.stats reg in
  check_int "scratch checked back in" 0 s.Registry.scratch_out;
  check_bool "scratch parked" true (s.Registry.scratch_free >= 1)

(* A bundle is re-pooled only while its Earley scratch is small: a
   closed 256 KiB session's chart is dropped, a 5 KiB one is kept. *)
let test_scratch_pool_drops_oversized () =
  let reg = Registry.create () in
  let art, _ = Registry.get reg (Option.get (Builtin.find "dyck")) in
  let session_bundle bytes =
    let b = Registry.take_scratch art in
    let es =
      Lambekd_cfg.Earley.session ~scratch:b.Registry.es art.Registry.earley
    in
    let w = String.concat "" (List.init (bytes / 2) (fun _ -> "()")) in
    check_bool "session accepts" true
      (Lambekd_cfg.Earley.accepts (Lambekd_cfg.Earley.feed es w));
    b
  in
  let big = session_bundle (256 * 1024) in
  Registry.give_scratch art big;
  check_int "256 KiB bundle dropped" 0 (Registry.stats reg).Registry.scratch_free;
  let small = session_bundle (5 * 1024) in
  Registry.give_scratch art small;
  check_int "5 KiB bundle kept" 1 (Registry.stats reg).Registry.scratch_free

(* Satellite: trace determinism.  The same traced stream through the
   serial reference and a 4-domain scheduler — the service side under a
   committed fault schedule — must render byte-identically with times
   off: stage presence is a function of control flow, not of timing,
   domain count, or fault luck. *)
let test_trace_parallel_identical () =
  let lines =
    List.concat
      (List.init 12 (fun i ->
           [ Fmt.str
               {|{"id":"d%d","grammar":"dyck","input":"%s","trace":true}|} i
               (String.concat "" (List.init (i mod 5) (fun _ -> "()")));
             Fmt.str
               {|{"id":"e%d","grammar":"expr","input":"n%s","query":"parse","trace":true}|}
               i
               (String.concat "" (List.init (i mod 4) (fun _ -> "+n")));
             Fmt.str
               {|{"id":"s%d","grammar":"ss","input":"%s","query":"count","trace":true}|}
               i
               (String.make (1 + (i mod 4)) 'a') ]))
  in
  (* each run re-parses so each side stamps its own fresh traces *)
  let parse_all () =
    List.map
      (fun l ->
        match Protocol.parse_request l with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
      lines
  in
  let prep i (r : Protocol.request) =
    let tr = Option.get r.Protocol.trace in
    Trace.set_id tr (Fmt.str "t%d" i);
    Trace.stamp_received tr;
    tr
  in
  let render tr resp = Protocol.response_to_json ~times:false ~trace:tr resp in
  let serial =
    let reqs = parse_all () in
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    List.mapi
      (fun i r ->
        let tr = prep i r in
        Trace.stamp_dequeued tr;
        let resp = Exec.run reg r in
        Trace.stamp_written tr;
        render tr resp)
      reqs
  in
  let parallel () =
    let reqs = parse_all () in
    let reg = Registry.create ~result_cap:0 () in
    List.iter (fun r -> ignore (Registry.get reg r.Protocol.cfg)) reqs;
    let sched = Scheduler.create ~domains:4 ~queue_cap:64 ~registry:reg () in
    let out = Array.make (List.length reqs) None in
    List.iteri
      (fun i r ->
        let tr = prep i r in
        Scheduler.submit sched r (fun resp ->
            Trace.stamp_written tr;
            out.(i) <- Some (render tr resp)))
      reqs;
    Scheduler.shutdown sched;
    Array.to_list (Array.map Option.get out)
  in
  check_bool "4-domain traces identical to serial" true
    (List.equal String.equal serial (parallel ()));
  let faulted =
    with_schedule "seed=2;exec.run:fail:0.4;registry.get:corrupt:0.5"
      (fun () -> parallel ())
  in
  check_bool "identical under a committed fault schedule" true
    (List.equal String.equal serial faulted)

let test_slow_line_shape () =
  let tr = Trace.create ~id:"t9" () in
  tr.Trace.received_ns <- 1000.;
  tr.Trace.dequeued_ns <- 3000.;
  tr.Trace.engine_start_ns <- 4000.;
  tr.Trace.engine_end_ns <- 9000.;
  tr.Trace.written_ns <- 11000.;
  Trace.set_compile_ns tr 500.;
  Trace.add_fault tr;
  let resp =
    { Protocol.rid = Some "r9";
      outcome = Ok (Protocol.Accepted None);
      engine_used = "earley";
      artifact_cache = `Miss;
      result_cache = `Miss;
      dur_ns = 10000. }
  in
  check_string "slow record"
    {|{"ev":"slow","id":"r9","trace":"t9","ok":true,"engine":"earley","artifact":"miss","result":"miss","queue_ns":2000,"engine_ns":5000,"total_ns":10000,"compile_ns":500,"faults":1}|}
    (Protocol.slow_line tr resp);
  (* failure shape: no engine/cache fields, error tag instead *)
  let timeout_resp = Protocol.timeout ~id:"r10" ~after_ms:5. () in
  let tr2 = Trace.create ~id:"t10" () in
  tr2.Trace.received_ns <- 0.;
  tr2.Trace.written_ns <- 7000.;
  check_string "slow timeout record"
    {|{"ev":"slow","id":"r10","trace":"t10","ok":false,"error":"timeout","total_ns":7000,"faults":0}|}
    (Protocol.slow_line tr2 timeout_resp)

(* --- json: RFC 8259 numbers ----------------------------------------------- *)

let test_json_numbers () =
  let ok s v =
    match Json.parse s with
    | Ok (Json.Num f) -> check_bool (Fmt.str "%s parses" s) true (f = v)
    | Ok _ -> Alcotest.failf "%s: not a number" s
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let bad s =
    check_bool (Fmt.str "rejects %s" s) true
      (Result.is_error (Json.parse s))
  in
  List.iter (fun (s, v) -> ok s v)
    [ ("0", 0.); ("-0", 0.); ("0.5", 0.5); ("10", 10.); ("1e10", 1e10);
      ("1.25e-3", 1.25e-3); ("-120", -120.); ("0.0625", 0.0625) ];
  (* a leading zero in the integer part is not JSON: the part is "0" or
     starts with a nonzero digit (RFC 8259 §6) *)
  List.iter bad
    [ "01"; "00"; "-0042"; "0123.5"; {|{"timeout_ms":01}|}; {|[01]|} ];
  (match Json.parse "01" with
  | Error e ->
    check_bool "error names the leading zero" true
      (contains ~affix:"leading zero" e)
  | Ok _ -> Alcotest.fail "01 accepted");
  (* the usual non-JSON number spellings stay rejected *)
  List.iter bad
    [ "0x1p3"; "1_000"; "nan"; "inf"; "+1"; "1."; ".5"; "1e"; "-"; "--1" ]

(* --- protocol: session lines ----------------------------------------------- *)

let sline l =
  match Protocol.parse_line l with
  | Ok (Protocol.Session sq) -> sq
  | Ok _ -> Alcotest.failf "not a session line: %s" l
  | Error e -> Alcotest.failf "%s: %s" l e

let test_parse_session_lines () =
  let sq = sline {|{"op":"session_open","id":"o1","grammar":"dyck"}|} in
  check_string "open id" "o1" (Option.value ~default:"" sq.Protocol.sq_id);
  check_string "open carries no sid" "" sq.Protocol.sq_sid;
  (match sq.Protocol.sq_op with
  | Protocol.S_open { gname; _ } -> check_string "grammar name" "dyck" gname
  | _ -> Alcotest.fail "expected S_open");
  (match sline {|{"op":"append","session":"s0","chunk":"(("}|} with
  | { Protocol.sq_sid = "s0"; sq_op = Protocol.S_append { chunk = "((" }; _ }
    -> ()
  | _ -> Alcotest.fail "append decode");
  (* edit defaults: del = 0, ins = "" *)
  (match (sline {|{"op":"edit","session":"s0","at":3}|}).Protocol.sq_op with
  | Protocol.S_edit { at = 3; del = 0; ins = "" } -> ()
  | _ -> Alcotest.fail "edit defaults");
  (match
     (sline {|{"op":"query","session":"s0","timeout_ms":0}|}).Protocol.sq_op
   with
  | Protocol.S_query { q = Protocol.Membership } -> ()
  | _ -> Alcotest.fail "query defaults to member");
  (match (sline {|{"op":"query","session":"s0","query":"parse"}|}).Protocol.sq_op
   with
  | Protocol.S_query { q = Protocol.Parse } -> ()
  | _ -> Alcotest.fail "query parse");
  (match (sline {|{"op":"session_close","session":"s9"}|}).Protocol.sq_op with
  | Protocol.S_close -> ()
  | _ -> Alcotest.fail "close decode");
  (* inline grammars open sessions too *)
  (match
     (sline
        {|{"op":"session_open","grammar":{"start":"S","prods":[["S",[]],["S",["'a'","S","'b'"]]]}}|})
       .Protocol.sq_op
   with
  | Protocol.S_open { gname = "inline"; _ } -> ()
  | _ -> Alcotest.fail "inline open");
  let err l affix =
    match Protocol.parse_line l with
    | Error e ->
      check_bool (Fmt.str "%s -> %s" l affix) true (contains ~affix e)
    | Ok _ -> Alcotest.failf "decoded: %s" l
  in
  err {|{"op":"append","chunk":"x"}|} {|needs a "session" id|};
  err {|{"op":"append","session":"","chunk":"x"}|} "non-empty id string";
  err {|{"op":"append","session":"s0"}|} {|needs a "chunk" string|};
  err {|{"op":"edit","session":"s0"}|} {|needs an "at" position|};
  err {|{"op":"edit","session":"s0","at":-1}|} "non-negative integer";
  err {|{"op":"edit","session":"s0","at":0,"ins":7}|} {|"ins" must be a string|};
  err {|{"op":"query","session":"s0","query":"count"}|}
    {|unknown session query "count" (member|parse)|};
  err {|{"op":"session_open","grammar":"nosuch"}|} "unknown grammar";
  err {|{"op":"frobnicate"}|} "unknown op"

(* --- exec: a zero budget is decided before dispatch ------------------------ *)

let test_exec_zero_budget () =
  (* populate the result cache, then prove a zero budget answers before
     the cache could: the deadline gate runs before any registry or
     cache lookup, so the response shows no engine or cache involvement *)
  let reg = Registry.create () in
  let line = {|{"grammar":"dyck","input":"(())"}|} in
  let warm = run_line ~reg line in
  check_bool "warming run accepted" true
    (warm.Protocol.outcome = Ok (Protocol.Accepted None));
  let r = run_line ~reg {|{"grammar":"dyck","input":"(())","timeout_ms":0}|} in
  (match r.Protocol.outcome with
  | Error (Protocol.Timeout { after_ms }) ->
    check_bool "after_ms echoes the budget" true (after_ms = 0.)
  | _ -> Alcotest.fail "expected a timeout");
  check_string "no engine ran" "" r.Protocol.engine_used;
  check_bool "no artifact lookup" true (r.Protocol.artifact_cache = `None);
  check_bool "no result lookup" true (r.Protocol.result_cache = `None)

(* --- sessions: the service-level table ------------------------------------- *)

module Session = Sv.Session

let srun tab l = Session.exec (Session.route tab (sline l))

let session_state name (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok (Protocol.Session_state { len; accept; tree }) -> (len, accept, tree)
  | _ -> Alcotest.failf "%s: expected a session state" name

let session_sid name (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok (Protocol.Session_opened { sid }) -> sid
  | _ -> Alcotest.failf "%s: expected session_opened" name

let test_session_flow () =
  let reg = Registry.create ~result_cap:0 () in
  let tab = Session.create ~registry:reg () in
  check_string "first sid" "s0"
    (session_sid "open" (srun tab {|{"op":"session_open","grammar":"dyck"}|}));
  let r = srun tab {|{"op":"append","session":"s0","chunk":"(("}|} in
  check_string "session answers say so" "session" r.Protocol.engine_used;
  let len, accept, _ = session_state "append 1" r in
  check_int "len after append" 2 len;
  check_bool "(( rejected" false accept;
  let len, accept, _ =
    session_state "append 2"
      (srun tab {|{"op":"append","session":"s0","chunk":"))"}|})
  in
  check_int "len after second append" 4 len;
  check_bool "(()) accepted" true accept;
  (* a parse query returns the same tree a stateless parse of the
     buffer would *)
  let _, _, tree =
    session_state "query parse"
      (srun tab {|{"op":"query","session":"s0","query":"parse"}|})
  in
  let want =
    match
      (run_line ~reg {|{"grammar":"dyck","input":"(())","query":"parse"}|})
        .Protocol.outcome
    with
    | Ok (Protocol.Accepted t) -> t
    | _ -> Alcotest.fail "stateless parse failed"
  in
  check_bool "session tree = stateless tree" true
    (tree <> None && tree = want);
  let len, accept, _ =
    session_state "edit"
      (srun tab {|{"op":"edit","session":"s0","at":0,"del":4,"ins":"()"}|})
  in
  check_int "len after edit" 2 len;
  check_bool "() accepted" true accept;
  check_int "one live session" 1 (Session.live tab);
  (match
     (srun tab {|{"op":"session_close","session":"s0"}|}).Protocol.outcome
   with
  | Ok (Protocol.Session_closed { sid }) -> check_string "closed sid" "s0" sid
  | _ -> Alcotest.fail "expected session_closed");
  check_int "no live sessions" 0 (Session.live tab);
  (* a close unbinds the name at routing time *)
  (match
     (srun tab {|{"op":"append","session":"s0","chunk":"x"}|}).Protocol.outcome
   with
  | Error (Protocol.Bad_request e) ->
    check_bool "unknown after close" true (contains ~affix:"unknown session" e)
  | _ -> Alcotest.fail "expected a bad request")

let test_session_validation () =
  let reg = Registry.create () in
  let tab = Session.create ~max_buf:8 ~registry:reg () in
  ignore (srun tab {|{"op":"session_open","grammar":"dyck"}|});
  let bad name l affix =
    match (srun tab l).Protocol.outcome with
    | Error (Protocol.Bad_request e) -> check_bool name true (contains ~affix e)
    | _ -> Alcotest.failf "%s: expected a bad request" name
  in
  bad "edit beyond end" {|{"op":"edit","session":"s0","at":5,"ins":"x"}|}
    "beyond buffer length";
  bad "delete past end" {|{"op":"edit","session":"s0","at":0,"del":3}|}
    "beyond buffer length";
  bad "append over max_buf"
    {|{"op":"append","session":"s0","chunk":"((((((((("}|} "would exceed";
  bad "unknown sid" {|{"op":"append","session":"zzz","chunk":"x"}|}
    {|unknown session "zzz"|};
  (* a rejected op leaves the buffer untouched *)
  let len, _, _ =
    session_state "query" (srun tab {|{"op":"query","session":"s0"}|})
  in
  check_int "buffer unchanged by rejected ops" 0 len;
  (* a zero budget times out deterministically and mutates nothing *)
  (match
     (srun tab {|{"op":"append","session":"s0","chunk":"()","timeout_ms":0}|})
       .Protocol.outcome
   with
  | Error (Protocol.Timeout { after_ms }) ->
    check_bool "zero budget" true (after_ms = 0.)
  | _ -> Alcotest.fail "expected a timeout");
  let len, _, _ =
    session_state "query" (srun tab {|{"op":"query","session":"s0"}|})
  in
  check_int "buffer unchanged by a timed-out op" 0 len;
  (* a timed-out open still consumed its id at routing: the name exists
     but is never opened, and the next open does not reuse it *)
  (match
     (srun tab {|{"op":"session_open","grammar":"dyck","timeout_ms":0}|})
       .Protocol.outcome
   with
  | Error (Protocol.Timeout _) -> ()
  | _ -> Alcotest.fail "expected the open to time out");
  bad "ops on a timed-out open"
    {|{"op":"append","session":"s1","chunk":"x"}|} "is not open";
  check_string "ids are never reused" "s2"
    (session_sid "reopen" (srun tab {|{"op":"session_open","grammar":"dyck"}|}));
  Session.close_all tab;
  check_int "close_all empties the table" 0 (Session.live tab)

let test_session_eviction () =
  let reg = Registry.create () in
  let tab = Session.create ~cap:2 ~registry:reg () in
  let open_one () =
    session_sid "open" (srun tab {|{"op":"session_open","grammar":"dyck"}|})
  in
  let s0 = open_one () in
  let s1 = open_one () in
  (* touching s0 makes s1 the LRU victim of the third open *)
  ignore
    (srun tab (Fmt.str {|{"op":"append","session":"%s","chunk":"()"}|} s0));
  check_string "ids in open order" "s2" (open_one ());
  check_int "cap holds" 2 (Session.live tab);
  check_int "one eviction" 1 (Session.evictions tab);
  (match
     (srun tab (Fmt.str {|{"op":"append","session":"%s","chunk":"x"}|} s1))
       .Protocol.outcome
   with
  | Error (Protocol.Bad_request e) ->
    check_bool "evicted name unbound" true (contains ~affix:"unknown session" e)
  | _ -> Alcotest.fail "expected a bad request");
  let _, accept, _ =
    session_state "s0 survives"
      (srun tab (Fmt.str {|{"op":"query","session":"%s"}|} s0))
  in
  check_bool "s0 kept its buffer" true accept;
  Session.close_all tab;
  check_int "close_all empties the table" 0 (Session.live tab)

(* paranoid mode cross-checks every incremental answer against a
   from-scratch oracle; on agreement the answers are unchanged *)
let test_session_paranoid () =
  let reg = Registry.create () in
  let tab = Session.create ~paranoid:true ~registry:reg () in
  check_bool "flag readable" true (Session.paranoid tab);
  ignore (srun tab {|{"op":"session_open","grammar":"anbn"}|});
  List.iter
    (fun (l, want) ->
      let _, accept, _ = session_state l (srun tab l) in
      check_bool l want accept)
    [ ({|{"op":"append","session":"s0","chunk":"aab"}|}, false);
      ({|{"op":"append","session":"s0","chunk":"b"}|}, true);
      ({|{"op":"edit","session":"s0","at":1,"del":2,"ins":"abab"}|}, false);
      ({|{"op":"edit","session":"s0","at":0,"del":6,"ins":"aaabbb"}|}, true);
      ({|{"op":"query","session":"s0","query":"parse"}|}, true) ];
  Session.close_all tab

(* --- sessions: qcheck differential against the 4-domain scheduler ---------- *)

(* Deterministic wire scripts from op-code tuples: every generated open
   allocates the next "sN", so the script can name sessions that are
   guaranteed to decode (and sometimes ones already closed or never
   opened — those must fail identically on both sides). *)
let build_session_lines ops =
  let opened = ref 1 in
  let lines =
    List.map
      (fun (code, a, d, s) ->
        let sid = Fmt.str "s%d" (a mod !opened) in
        let chunk =
          String.init (s mod 5) (fun i ->
              match (a + s + i) mod 4 with
              | 0 -> '('
              | 1 -> ')'
              | 2 -> 'a'
              | _ -> 'b')
        in
        match code with
        | 0 ->
          incr opened;
          Fmt.str {|{"op":"session_open","grammar":"%s"}|}
            (if d mod 2 = 0 then "dyck" else "anbn")
        | 1 | 2 | 3 ->
          Fmt.str {|{"op":"append","session":"%s","chunk":"%s"}|} sid chunk
        | 4 | 5 ->
          Fmt.str {|{"op":"edit","session":"%s","at":%d,"del":%d,"ins":"%s"}|}
            sid (s mod 8) (d mod 3) chunk
        | 6 | 7 ->
          Fmt.str {|{"op":"query","session":"%s","query":"%s"}|} sid
            (if d mod 2 = 0 then "member" else "parse")
        | 8 -> Fmt.str {|{"op":"session_close","session":"%s"}|} sid
        | _ ->
          Fmt.str {|{"op":"append","session":"nosuch","chunk":"%s"}|} chunk)
      ops
  in
  {|{"op":"session_open","grammar":"dyck"}|} :: lines

(* both replays must see identical artifact hit/miss on opens, so both
   registries are pre-warmed with every grammar the script can name *)
let warm_session_reg reg =
  List.iter
    (fun g ->
      match Builtin.find g with
      | Some cfg -> ignore (Registry.get reg cfg)
      | None -> Alcotest.failf "builtin %s missing" g)
    [ "dyck"; "anbn" ]

let replay_sessions_parallel lines =
  let reg = Registry.create ~result_cap:0 () in
  warm_session_reg reg;
  let sched = Scheduler.create ~domains:4 ~queue_cap:64 ~registry:reg () in
  let tab = Session.create ~registry:reg () in
  let out = Array.make (List.length lines) "" in
  let pending = ref 0 in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  List.iteri
    (fun i l ->
      (* routing happens in the submit, on this thread in line order *)
      Mutex.protect mu (fun () -> incr pending);
      Scheduler.submit_session sched tab (sline l) (fun r ->
          out.(i) <- Protocol.response_to_json ~times:false r;
          Mutex.protect mu (fun () ->
              decr pending;
              Condition.signal cv)))
    lines;
  Mutex.protect mu (fun () ->
      while !pending > 0 do
        Condition.wait cv mu
      done);
  Session.close_all tab;
  Scheduler.shutdown sched;
  Array.to_list out

let prop_session_service_differential =
  QCheck.Test.make ~count:15
    ~name:"sessions: 4-domain replay identical to serial (clean and faulted)"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (build_session_lines ops))
       QCheck.Gen.(
         list_size (int_range 4 18)
           (quad (int_bound 9) (int_bound 9) (int_bound 4) (int_bound 99))))
    (fun ops ->
      let lines = build_session_lines ops in
      let serial =
        let reg = Registry.create ~result_cap:0 () in
        warm_session_reg reg;
        Fuzz.reference reg lines
      in
      let parallel = replay_sessions_parallel lines in
      let faulted =
        with_schedule "seed=3;scheduler.claim:fail:0.4;registry.get:delay:0.3:2"
          (fun () -> replay_sessions_parallel lines)
      in
      List.equal String.equal serial parallel
      && List.equal String.equal serial faulted)

let suite =
  [ Alcotest.test_case "lru: recency eviction" `Quick test_lru_basic;
    Alcotest.test_case "lru: replace" `Quick test_lru_replace;
    Alcotest.test_case "lru: cap 0 disables" `Quick test_lru_disabled;
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: errors" `Quick test_json_errors;
    Alcotest.test_case "json: escapes" `Quick test_json_escapes;
    Alcotest.test_case "protocol: full request" `Quick test_parse_request;
    Alcotest.test_case "protocol: defaults" `Quick test_parse_request_defaults;
    Alcotest.test_case "protocol: inline grammar" `Quick
      test_parse_request_inline;
    Alcotest.test_case "protocol: bad requests" `Quick
      test_parse_request_errors;
    Alcotest.test_case "protocol: response rendering" `Quick
      test_response_json;
    Alcotest.test_case "registry: artifact caching" `Quick
      test_registry_caching;
    Alcotest.test_case "registry: structural digest" `Quick
      test_registry_digest_structural;
    Alcotest.test_case "registry: eviction recompiles" `Quick
      test_registry_eviction;
    Alcotest.test_case "registry: 100-grammar differential vs fresh compile"
      `Quick test_registry_differential;
    Alcotest.test_case "exec: engine policy" `Quick test_engine_policy;
    Alcotest.test_case "exec: engine pin errors" `Quick
      test_engine_pin_errors;
    Alcotest.test_case "exec: cyk binarization budget" `Quick
      test_cyk_budget_pin_error;
    Alcotest.test_case "exec: engines agree on dyck" `Quick
      test_verdicts_across_engines;
    Alcotest.test_case "exec: count query" `Quick test_count_query;
    Alcotest.test_case "exec: parse query returns tree" `Quick
      test_parse_query_tree;
    Alcotest.test_case "exec: timeout" `Quick test_timeout;
    Alcotest.test_case "exec: result cache" `Quick test_result_cache;
    Alcotest.test_case "scheduler: full queue waits, wakes all" `Quick
      test_scheduler_blocks;
    Alcotest.test_case "scheduler: 4-domain output identical to serial"
      `Quick test_scheduler_parallel_identical;
    Alcotest.test_case "scheduler: shutdown drains" `Quick
      test_scheduler_shutdown_drains;
    Alcotest.test_case "exec: engine counters" `Quick test_engine_counters;
    Alcotest.test_case "scratch: 4-domain pooled-state stress" `Quick
      test_scratch_domain_stress;
    Alcotest.test_case "json: surrogate pairs" `Quick test_json_surrogates;
    QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
    Alcotest.test_case "fault: schedule parsing" `Quick test_fault_parse;
    Alcotest.test_case "fault: deterministic draws, bounded fail runs"
      `Quick test_fault_deterministic;
    Alcotest.test_case "fault: output byte-invariant" `Quick
      test_fault_output_invariant;
    Alcotest.test_case "fault: verdicts invariant with result cache on"
      `Quick test_fault_verdict_invariant_with_cache;
    Alcotest.test_case "scheduler: queued deadline expiry" `Quick
      test_queue_expiry;
    Alcotest.test_case "fuzz: differential (clean and faulted)" `Quick
      test_fuzz_differential;
    Alcotest.test_case "fuzz: committed corpus matches goldens" `Quick
      test_fuzz_corpus;
    Alcotest.test_case "protocol: admin lines" `Quick test_parse_line_admin;
    Alcotest.test_case "trace: decode and render" `Quick
      test_trace_decode_and_render;
    Alcotest.test_case "trace: exec stage presence" `Quick
      test_exec_trace_stages;
    Alcotest.test_case "registry: cache statistics" `Quick test_registry_stats;
    Alcotest.test_case "trace: 4-domain identical to serial under faults"
      `Quick test_trace_parallel_identical;
    Alcotest.test_case "protocol: slow-request record" `Quick
      test_slow_line_shape;
    Alcotest.test_case "json: rfc 8259 numbers" `Quick test_json_numbers;
    Alcotest.test_case "protocol: session lines" `Quick
      test_parse_session_lines;
    Alcotest.test_case "exec: zero budget answered before dispatch" `Quick
      test_exec_zero_budget;
    Alcotest.test_case "session: open/append/edit/query/close" `Quick
      test_session_flow;
    Alcotest.test_case "session: validation and zero budgets" `Quick
      test_session_validation;
    Alcotest.test_case "session: lru eviction" `Quick test_session_eviction;
    Alcotest.test_case "session: paranoid oracle agrees" `Quick
      test_session_paranoid;
    QCheck_alcotest.to_alcotest prop_session_service_differential;
    Alcotest.test_case "exec: deep parse, polynomial tree walk" `Quick
      test_deep_parse;
    Alcotest.test_case "scheduler: 0 domains answers before submit returns"
      `Quick test_scheduler_inline;
    Alcotest.test_case "fuzz: an internal error fails the round" `Quick
      test_fuzz_internal_error;
    Alcotest.test_case "registry: oversized scratch not re-pooled" `Quick
      test_scratch_pool_drops_oversized;
    QCheck_alcotest.to_alcotest prop_lru_matches_oracle;
    Alcotest.test_case "lru: a hit promotes nothing" `Quick
      test_lru_hit_promotes_nothing ]
