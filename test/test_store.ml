(* Tests for the persistent artifact store: validated round-trips,
   byte-identical responses with the store enabled / disabled /
   corrupted / mid-eviction, corruption fallback (never a crash or a
   changed response), concurrent same-digest write races, cap
   eviction, first-get loads after a restart, and startup rejection
   of unusable roots. *)

module Sv = Lambekd_service
module Store = Sv.Store
module Registry = Sv.Registry
module Protocol = Sv.Protocol
module Exec = Sv.Exec
module Builtin = Sv.Builtin
module Fuzz = Sv.Fuzz
module Cfg = Lambekd_cfg.Cfg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every test gets a private store root under the build temp dir. *)
let temp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "lambekd-store-test-%d-%d" (Unix.getpid ()) !n)
    in
    (* stale leftovers from a killed run must not leak entries in *)
    (match Sys.readdir dir with
    | names ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) names
    | exception Sys_error _ -> ());
    dir

let open_store ?max_entries ?max_bytes () =
  match Store.open_root ?max_entries ?max_bytes (temp_root ()) with
  | Ok st -> st
  | Error msg -> Alcotest.failf "open_root: %s" msg

(* A traffic mix spanning the artifact surface: every engine family,
   weighted/k-best/mass queries, counting, an inline grammar, a cyk
   pin, and a budget-overflow bad request. *)
let traffic =
  [ {|{"id":"a","grammar":"dyck","input":"(())","query":"member"}|};
    {|{"id":"b","grammar":"expr","input":"n+n","query":"parse"}|};
    {|{"id":"c","grammar":"ss","input":"aaaa","query":"count"}|};
    {|{"id":"d","grammar":"ss","input":"aaa","query":"parse","kbest":3}|};
    {|{"id":"e","grammar":"ss","input":"aa","query":"mass"}|};
    {|{"id":"f","grammar":"dyck","input":"(()","query":"member","engine":"cyk"}|};
    {|{"id":"g","grammar":{"start":"S","prods":[["S",[]],["S",["'a'","S","'b'"]]]},"input":"aabb"}|};
    {|{"id":"h","grammar":"expr","input":"n+n","query":"parse","weights":[3,1,1,2,1]}|};
    {|{"id":"i","grammar":"anbn","input":"aaabbb","query":"member","engine":"earley"}|} ]

let run_lines reg lines =
  List.map
    (fun line ->
      match Protocol.parse_request line with
      | Error msg ->
        Protocol.response_to_json ~times:false (Protocol.bad_request msg)
      | Ok req ->
        Protocol.response_to_json ~times:false (Exec.run reg req))
    lines

(* responses from a storeless registry: the reference every store
   configuration must be byte-identical to *)
let reference_responses lines =
  run_lines (Registry.create ~result_cap:0 ()) lines

let digest_of name = Registry.digest_cfg (Option.get (Builtin.find name))

let entry_path st digest = Filename.concat (Store.root st) (digest ^ ".lks")

(* --- round trip ----------------------------------------------------------- *)

let test_roundtrip () =
  let st = open_store () in
  let want = reference_responses traffic in
  (* first boot: compiles, writes entries *)
  let reg1 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical on the writing boot" true
    (run_lines reg1 traffic = want);
  let s = Store.stats st in
  (* dyck, expr, ss, inline-anbn (the builtin "anbn" shares the inline
     grammar's structural digest, so they are one artifact) *)
  check_int "entries written" 4 s.Store.s_entries;
  check_bool "no hits yet" true (s.Store.s_hits = 0);
  (* "restart": a fresh registry against the same root loads instead of
     compiling *)
  let reg2 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical on the warm boot" true
    (run_lines reg2 traffic = want);
  let s = Store.stats st in
  check_bool "warm boot hit the store" true (s.Store.s_hits >= 4);
  check_int "no invalids" 0 s.Store.s_invalid

(* --- corruption ------------------------------------------------------------ *)

(* Corrupt one entry in a given way; the next boot must fall back to a
   fresh compile with byte-identical responses, count an invalid, and
   rewrite the entry. *)
let corruption_case mutate () =
  let st = open_store () in
  let want = reference_responses traffic in
  let reg1 = Registry.create ~result_cap:0 ~store:st () in
  ignore (run_lines reg1 traffic);
  let digest = digest_of "dyck" in
  let path = entry_path st digest in
  check_bool "entry exists before corruption" true (Sys.file_exists path);
  mutate path;
  let reg2 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical after corruption" true
    (run_lines reg2 traffic = want);
  let s = Store.stats st in
  check_bool "invalid counted" true (s.Store.s_invalid >= 1);
  (* the fallback compile rewrote the entry, and it validates again *)
  let reg3 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical after rewrite" true
    (run_lines reg3 traffic = want)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_corrupt_flip_byte =
  corruption_case (fun path ->
      let c = Bytes.of_string (read_file path) in
      (* flip a payload byte (past the ~200-byte header) *)
      let i = min (Bytes.length c - 1) 300 in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x5a));
      write_file path (Bytes.to_string c))

let test_corrupt_truncate =
  corruption_case (fun path ->
      let c = read_file path in
      write_file path (String.sub c 0 (String.length c / 2)))

let test_corrupt_zero_length = corruption_case (fun path -> write_file path "")

let test_corrupt_wrong_version =
  corruption_case (fun path ->
      let c = read_file path in
      (* "LAMBEKD-STORE 1\n..." -> version 999: recognizably ours but
         undecodable by this build *)
      let nl = String.index c '\n' in
      write_file path
        ("LAMBEKD-STORE 999\n"
        ^ String.sub c (nl + 1) (String.length c - nl - 1)))

let test_corrupt_garbage_header =
  corruption_case (fun path ->
      let c = read_file path in
      write_file path ("not a store entry at all\n" ^ c))

(* a checksum-valid file whose *payload* is not a marshalled bundle:
   decode itself must fail closed *)
let test_corrupt_valid_frame_bad_payload () =
  let st = open_store () in
  let want = reference_responses traffic in
  let digest = digest_of "dyck" in
  check_bool "save accepts arbitrary payloads" true
    (Store.save st ~digest "definitely not a marshalled artifact");
  let reg = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical over undecodable payload" true
    (run_lines reg traffic = want);
  check_bool "invalid counted" true ((Store.stats st).Store.s_invalid >= 1)

(* wrong-digest entry: frame validates, but the bundle inside is for a
   different grammar — the structural-digest revalidation rejects it *)
let test_corrupt_digest_mismatch () =
  let st = open_store () in
  let want = reference_responses traffic in
  let reg1 = Registry.create ~result_cap:0 ~store:st () in
  ignore (run_lines reg1 traffic);
  let d_dyck = digest_of "dyck" and d_expr = digest_of "expr" in
  (* graft expr's *payload* under dyck's digest with a fresh frame: the
     header ends at the first blank line *)
  let expr_contents = read_file (entry_path st d_expr) in
  let payload_start =
    let rec go i =
      let j = String.index_from expr_contents i '\n' in
      if j = i then i + 1 else go (j + 1)
    in
    go 0
  in
  let expr_payload =
    String.sub expr_contents payload_start
      (String.length expr_contents - payload_start)
  in
  check_bool "grafted save accepted" true
    (Store.save st ~digest:d_dyck expr_payload);
  let reg2 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "responses identical over grafted entry" true
    (run_lines reg2 traffic = want);
  check_bool "invalid counted" true ((Store.stats st).Store.s_invalid >= 1)

(* --- concurrency ------------------------------------------------------------ *)

(* Two writers racing on the same digest: atomic rename makes
   last-writer-wins safe — afterwards the entry is one complete,
   validating bundle (never torn), and loads serve correct responses. *)
let test_write_race () =
  let st = open_store () in
  let cfg = Option.get (Builtin.find "dyck") in
  let digest = Registry.digest_cfg cfg in
  (* seed the entry once through the request path *)
  (let reg = Registry.create ~store:st () in
   let a, _ = Registry.get reg cfg in
   ignore (Registry.persist reg a));
  check_bool "seeded" true (Sys.file_exists (entry_path st digest));
  let racers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let reg = Registry.create ~store:st () in
            for _ = 1 to 10 do
              let a, _ = Registry.get reg cfg in
              ignore (Registry.persist reg a)
            done;
            true))
  in
  List.iter (fun d -> check_bool "racer ok" true (Domain.join d)) racers;
  (* the surviving entry is complete and valid *)
  let reg = Registry.create ~result_cap:0 ~store:st () in
  let want = reference_responses [ List.hd traffic ] in
  check_bool "entry valid after race" true
    (run_lines reg [ List.hd traffic ] = want);
  check_int "no invalids from the race" 0 (Store.stats st).Store.s_invalid

(* --- eviction --------------------------------------------------------------- *)

let test_eviction_by_count () =
  let st = open_store ~max_entries:2 () in
  let reg = Registry.create ~store:st () in
  let get name = ignore (Registry.get reg (Option.get (Builtin.find name))) in
  get "dyck";
  Unix.sleepf 0.02;
  get "expr";
  Unix.sleepf 0.02;
  get "ss";
  let s = Store.stats st in
  check_int "capped at two entries" 2 s.Store.s_entries;
  check_bool "evictions counted" true (s.Store.s_evictions >= 1);
  (* oldest (dyck) evicted; newest two remain *)
  check_bool "dyck gone" true
    (not (Sys.file_exists (entry_path st (digest_of "dyck"))));
  check_bool "ss present" true
    (Sys.file_exists (entry_path st (digest_of "ss")));
  (* an evicted entry is a plain miss-and-recompile on the next boot *)
  let want = reference_responses [ List.hd traffic ] in
  let reg2 = Registry.create ~result_cap:0 ~store:st () in
  check_bool "evicted entry recompiles identically" true
    (run_lines reg2 [ List.hd traffic ] = want)

let test_eviction_by_bytes () =
  let st = open_store ~max_bytes:1 () in
  let reg = Registry.create ~store:st () in
  ignore (Registry.get reg (Option.get (Builtin.find "dyck")));
  ignore (Registry.get reg (Option.get (Builtin.find "expr")));
  (* a 1-byte budget can hold at most... nothing; everything evicts *)
  let s = Store.stats st in
  check_int "byte cap enforced" 0 s.Store.s_entries;
  check_bool "evictions counted" true (s.Store.s_evictions >= 2)

(* --- restart ------------------------------------------------------------------ *)

(* A restarted registry starts empty in memory: each grammar's first
   get misses, is served by a store load (one store hit, no compile)
   and reports the `Miss a storeless boot would have; the second get is
   an in-memory `Hit. *)
let test_restart () =
  let st = open_store () in
  let reg1 = Registry.create ~store:st () in
  List.iter
    (fun name -> ignore (Registry.get reg1 (Option.get (Builtin.find name))))
    Builtin.names;
  check_int "all builtins stored"
    (List.length Builtin.names) (Store.stats st).Store.s_entries;
  let reg2 = Registry.create ~store:st () in
  List.iter
    (fun name ->
      let cfg = Option.get (Builtin.find name) in
      let hits = (Store.stats st).Store.s_hits in
      let _, first = Registry.get reg2 cfg in
      check_bool (name ^ ": first get misses") true (first = `Miss);
      check_int (name ^ ": first get loads from the store") (hits + 1)
        (Store.stats st).Store.s_hits;
      let _, second = Registry.get reg2 cfg in
      check_bool (name ^ ": second get hits") true (second = `Hit))
    Builtin.names

(* --- startup validation -------------------------------------------------------- *)

let test_open_rejects_file_root () =
  let path = Filename.temp_file "lambekd-store" ".notadir" in
  (match Store.open_root path with
  | Ok _ -> Alcotest.fail "opened a store rooted at a regular file"
  | Error msg -> check_bool "error is non-empty" true (String.length msg > 0));
  Sys.remove path

let test_open_creates_nested_root () =
  let dir =
    Filename.concat (temp_root ()) (Filename.concat "deep" "nested")
  in
  match Store.open_root dir with
  | Ok st ->
    check_bool "created" true (Sys.is_directory (Store.root st))
  | Error msg -> Alcotest.failf "open_root: %s" msg

(* stale-version files are garbage-collected at open, not decoded *)
let test_open_gc_stale () =
  let st = open_store () in
  let reg = Registry.create ~store:st () in
  ignore (Registry.get reg (Option.get (Builtin.find "dyck")));
  let digest = digest_of "dyck" in
  let path = entry_path st digest in
  let c = read_file path in
  let nl = String.index c '\n' in
  write_file path
    ("LAMBEKD-STORE 999\n" ^ String.sub c (nl + 1) (String.length c - nl - 1));
  (* reopening the same root GCs it silently *)
  (match Store.open_root (Store.root st) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "reopen: %s" msg);
  check_bool "stale entry removed" true (not (Sys.file_exists path))

(* --- the store is invisible: fuzz corpus under a populated store ------------- *)

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

(* Corpus case 30_store replays byte-identically to its committed golden
   through a store-armed registry in both store states: cold (writing)
   and warm (loading) — the goldens themselves are generated storeless,
   so this is a three-way identity. *)
let test_corpus_store_armed () =
  let dir = "data/fuzz" in
  let lines = read_lines (Filename.concat dir "30_store.ndjson") in
  let golden = read_lines (Filename.concat dir "30_store.expected") in
  let st = open_store () in
  let cold =
    Fuzz.reference (Registry.create ~result_cap:0 ~store:st ()) lines
  in
  let warm =
    Fuzz.reference (Registry.create ~result_cap:0 ~store:st ()) lines
  in
  check_int "cold store: response count" (List.length golden)
    (List.length cold);
  List.iteri
    (fun i (want, have) ->
      check_string (Fmt.str "cold store: response %d" i) want have)
    (List.combine golden cold);
  List.iteri
    (fun i (want, have) ->
      check_string (Fmt.str "warm store: response %d" i) want have)
    (List.combine golden warm);
  check_bool "warm replay actually loaded" true
    ((Store.stats st).Store.s_hits > 0)

let suite =
  [ Alcotest.test_case "store: artifact round trip across restarts" `Quick
      test_roundtrip;
    Alcotest.test_case "store: flipped payload byte falls back" `Quick
      test_corrupt_flip_byte;
    Alcotest.test_case "store: truncated entry falls back" `Quick
      test_corrupt_truncate;
    Alcotest.test_case "store: zero-length entry falls back" `Quick
      test_corrupt_zero_length;
    Alcotest.test_case "store: wrong-version entry falls back" `Quick
      test_corrupt_wrong_version;
    Alcotest.test_case "store: garbage header falls back" `Quick
      test_corrupt_garbage_header;
    Alcotest.test_case "store: checksum-valid undecodable payload" `Quick
      test_corrupt_valid_frame_bad_payload;
    Alcotest.test_case "store: grafted wrong-grammar payload rejected"
      `Quick test_corrupt_digest_mismatch;
    Alcotest.test_case "store: concurrent same-digest write race" `Quick
      test_write_race;
    Alcotest.test_case "store: eviction by entry count" `Quick
      test_eviction_by_count;
    Alcotest.test_case "store: eviction by byte budget" `Quick
      test_eviction_by_bytes;
    Alcotest.test_case "store: restart loads on first get" `Quick
      test_restart;
    Alcotest.test_case "store: non-directory root rejected" `Quick
      test_open_rejects_file_root;
    Alcotest.test_case "store: nested root created" `Quick
      test_open_creates_nested_root;
    Alcotest.test_case "store: stale version GC'd at open" `Quick
      test_open_gc_stale;
    Alcotest.test_case "store: corpus 30_store byte-identical store-armed"
      `Quick test_corpus_store_armed ]
