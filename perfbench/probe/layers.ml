(* Per-layer probe for the served benchmark.

   Replays a workload's NDJSON lines in process through the calls the
   TCP server makes for each line, and times every call from outside the
   library:

     request ─┬─ decode           Protocol.parse_line
              ├─ exec             Exec.run (registry digest and lookup inside)
              ├─ session.route    Session.route  (session lines)
              ├─ session.exec     Session.exec   (session lines)
              └─ encode           Protocol.response_to_json

   After a sizing pass, ROUNDS paired passes over the same lines, on
   fresh registries: each line runs bare (timed whole, no spans) and
   spanned, back to back.  The layer sum is checked against the bare
   total; the pass whose ratio of the two is the median is reported.
   Spans are kept in memory, and those of that pass are written out at
   the end, one JSON object per line.  Registry digest and lookup are timed in a pass of their
   own, outside any request span.  A summary object with the whole-run
   measurements (plain totals, registry, compile, store load and save,
   GC words per line, serial warm rate) is printed on standard output.

   usage: layers.exe LINES SPANS_OUT SCRATCH_DIR ARTIFACT_CAP USE_STORE(0|1)
                     BUDGET_S ROUNDS

   BUDGET_S sizes the replay: the lines a plain pass runs in that time.

   Registries are made as `lambekd serve` makes them: the given artifact
   cap, the default result cache, and a fresh store when USE_STORE is 1. *)

module Sv = Lambekd_service
module T = Lambekd_telemetry
module Clock = T.Clock

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | "" -> go acc
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

(* A fresh, empty store under [root]/[tag]. *)
let open_store root tag =
  let d = Filename.concat root tag in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  match Sv.Store.open_root d with
  | Ok s -> s
  | Error msg -> failwith ("store: " ^ msg)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | l -> List.nth l (List.length l / 2)

let time_us f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, (Clock.now_ns () -. t0) /. 1e3)

(* --- span recording ------------------------------------------------------ *)

type spans = {
  mutable n : int;
  name : string array;
  parent : int array;
  req : int array;
  t0 : Float.Array.t;
  t1 : Float.Array.t;
}

let spans cap =
  { n = 0;
    name = Array.make cap "";
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    t0 = Float.Array.make cap 0.;
    t1 = Float.Array.make cap 0. }

let open_span s ~req ~parent =
  let i = s.n in
  s.n <- i + 1;
  s.parent.(i) <- parent;
  s.req.(i) <- req;
  Float.Array.set s.t0 i (Clock.now_ns ());
  i

let close_span s i name =
  Float.Array.set s.t1 i (Clock.now_ns ());
  s.name.(i) <- name

let write_spans s path =
  let oc = open_out_bin path in
  for i = 0 to s.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%.0f,\"end_ns\":%.0f}\n"
      i s.parent.(i) s.req.(i) s.name.(i) (Float.Array.get s.t0 i)
      (Float.Array.get s.t1 i)
  done;
  close_out oc

(* --- the layered replay --------------------------------------------------- *)

(* Wraps one layer call in a span, or runs it bare. *)
type wrap = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* One line through the calls the TCP server makes for it, and no
   others: decode, then Exec.run (whose registry digest and lookup stay
   inside it) or Session.route + Session.exec, then encode. *)
let serve_line reg sessions w line =
  match w.span "decode" (fun () -> Sv.Protocol.parse_line line) with
  | Error msg -> failwith ("undecodable line: " ^ msg)
  | Ok (Sv.Protocol.Admin _) -> ()
  | Ok (Sv.Protocol.Request r) ->
    let resp = w.span "exec" (fun () -> Sv.Exec.run reg r) in
    ignore
      (w.span "encode" (fun () ->
           Sv.Protocol.response_to_json ~times:true resp))
  | Ok (Sv.Protocol.Session sq) ->
    let routed =
      w.span "session.route" (fun () -> Sv.Session.route sessions sq)
    in
    let resp = w.span "session.exec" (fun () -> Sv.Session.exec routed) in
    ignore
      (w.span "encode" (fun () ->
           Sv.Protocol.response_to_json ~times:true resp))

(* The first [n] lines, each run twice: bare on [plain] and with a span
   per layer call on [traced], two registries in the same state.  The
   two runs of a line are adjacent, so drift of the host cancels.  Which
   runs first is drawn per line from [rng], so that what one run leaves
   the other falls on either alike: warm caches, and the major GC slices
   that the lines' allocation sets off at the same points on every pass.
   Returns the spans, the bare wall time and the sum of the layer spans
   (ns). *)
let paired_replay lines ~n ~plain ~traced ~rng =
  Gc.full_major ();
  let bare = Sv.Session.create ~registry:plain () in
  let sessions = Sv.Session.create ~registry:traced () in
  let s = spans (n * 5) in
  let bare_ns = ref 0. in
  let req = ref 0 and root = ref 0 in
  let w =
    { span =
        (fun name f ->
          let i = open_span s ~req:!req ~parent:!root in
          let r = f () in
          close_span s i name;
          r) }
  in
  let run_plain k =
    let t0 = Clock.now_ns () in
    serve_line plain bare untimed lines.(k);
    bare_ns := !bare_ns +. (Clock.now_ns () -. t0)
  in
  let run_traced k =
    req := k;
    root := open_span s ~req:k ~parent:(-1);
    serve_line traced sessions w lines.(k);
    close_span s !root "request"
  in
  for k = 0 to n - 1 do
    if Random.State.bool rng then (run_plain k; run_traced k)
    else (run_traced k; run_plain k)
  done;
  Sv.Session.close_all bare;
  Sv.Session.close_all sessions;
  let layers = ref 0. in
  for i = 0 to s.n - 1 do
    if s.parent.(i) >= 0 then
      layers := !layers +. Float.Array.get s.t1 i -. Float.Array.get s.t0 i
  done;
  (s, !bare_ns, !layers)

(* The same calls with no spans, on a fresh registry: lines from the
   start until [deadline].  Returns the lines run and the minor-heap
   words they allocated. *)
let plain_replay lines ~deadline reg =
  Gc.full_major ();
  let sessions = Sv.Session.create ~registry:reg () in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let k = ref 0 in
  while !k < Array.length lines && Clock.now_ns () < deadline do
    serve_line reg sessions untimed lines.(!k);
    incr k
  done;
  let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  Sv.Session.close_all sessions;
  (!k, words)

(* Registry cost outside any request span, so it is not counted twice:
   per request line, Registry.digest_cfg, and a Registry.get that hits
   (its own digest included) after an untimed get has made it resident. *)
let registry_costs lines ~acap ~budget_ns =
  let reg = Sv.Registry.create ~artifact_cap:acap () in
  let deadline = Clock.now_ns () +. budget_ns in
  let digests = ref [] and lookups = ref [] in
  Array.iter
    (fun l ->
      if Clock.now_ns () < deadline then
        match Sv.Protocol.parse_line l with
        | Ok (Sv.Protocol.Request r) ->
          digests := snd (time_us (fun () -> Sv.Registry.digest_cfg r.cfg))
                      :: !digests;
          ignore (Sv.Registry.get reg r.cfg);
          lookups := snd (time_us (fun () -> Sv.Registry.get reg r.cfg))
                      :: !lookups
        | _ -> ())
    lines;
  (median !digests, median !lookups)

(* The distinct grammars the lines name, first occurrence first. *)
let distinct_cfgs lines ~cap =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc l ->
      let cfg =
        match Sv.Protocol.parse_line l with
        | Ok (Sv.Protocol.Request r) -> Some r.cfg
        | Ok (Sv.Protocol.Session { sq_op = Sv.Protocol.S_open o; _ }) ->
          Some o.cfg
        | _ -> None
      in
      match cfg with
      | Some c when List.length acc < cap ->
        let d = Sv.Registry.digest_cfg c in
        if Hashtbl.mem seen d then acc
        else (
          Hashtbl.add seen d ();
          c :: acc)
      | _ -> acc)
    [] lines
  |> List.rev

(* The best simple alternative to the served path: requests decoded up
   front, executed one after another on a storeless registry whose
   artifacts are warm.  One pass, so the result cache hits only where
   the lines repeat, as it does for the server. *)
type decoded = Req of Sv.Protocol.request | Sess of Sv.Protocol.session_req

let serial_warm_rps lines ~acap =
  let decoded =
    Array.to_list lines
    |> List.filter_map (fun l ->
           match Sv.Protocol.parse_line l with
           | Ok (Sv.Protocol.Request r) -> Some (Req r)
           | Ok (Sv.Protocol.Session s) -> Some (Sess s)
           | Ok (Sv.Protocol.Admin _) | Error _ -> None)
  in
  let reg = Sv.Registry.create ~artifact_cap:acap () in
  List.iter
    (fun c -> ignore (Sv.Registry.get reg c))
    (distinct_cfgs lines ~cap:acap);
  let sessions = Sv.Session.create ~registry:reg () in
  let t0 = Clock.now_ns () in
  List.iter
    (function
      | Req r -> ignore (Sv.Exec.run reg r)
      | Sess s -> ignore (Sv.Session.exec (Sv.Session.route sessions s)))
    decoded;
  let dt = Clock.now_ns () -. t0 in
  Sv.Session.close_all sessions;
  float_of_int (List.length decoded) /. (dt /. 1e9)

(* Store cost through a store-armed registry: save = re-persisting a
   compiled artifact, load = a fresh registry's miss served from the
   store. *)
let store_costs cfgs scratch =
  let st = open_store scratch "store-costs" in
  let reg = Sv.Registry.create ~store:st () in
  let saves =
    List.map
      (fun c ->
        let a, _ = Sv.Registry.get reg c in
        snd (time_us (fun () -> Sv.Registry.persist reg a)))
      cfgs
  in
  let reg2 = Sv.Registry.create ~store:st () in
  let loads =
    List.map (fun c -> snd (time_us (fun () -> Sv.Registry.get reg2 c))) cfgs
  in
  (median loads, median saves)

let () =
  match Sys.argv with
  | [| _; lines; spans_out; scratch; acap; use_store; budget; rounds |] ->
    let acap = int_of_string acap in
    let rounds = int_of_string rounds in
    let budget_ns = float_of_string budget *. 1e9 in
    let lines = read_lines lines in
    let store tag =
      if use_store = "1" then Some (open_store scratch tag) else None
    in
    (* the server runs with both enabled; so does the replay *)
    T.Metrics.enable ();
    T.Probe.enable ();
    let reg ?store () = Sv.Registry.create ~artifact_cap:acap ?store () in
    (* A plain pass sizes the replay (the lines that fit the budget)
       and counts GC words; then ROUNDS paired passes over the same
       lines, each on fresh registries.  The pass with the median ratio
       of layer sum to bare total is the one reported, spans and all. *)
    let n, words =
      plain_replay lines ~deadline:(Clock.now_ns () +. budget_ns)
        (reg ?store:(store "size") ())
    in
    let rounds =
      List.init rounds (fun r ->
          paired_replay lines ~n
            ~plain:(reg ?store:(store (Printf.sprintf "plain-%d" r)) ())
            ~traced:(reg ?store:(store (Printf.sprintf "traced-%d" r)) ())
            ~rng:(Random.State.make [| r |]))
    in
    let ratio (_, bare, layers) = layers /. bare in
    let by_ratio = List.sort (fun a b -> compare (ratio a) (ratio b)) rounds in
    let spans, plain_ns, layers_ns =
      List.nth by_ratio (List.length by_ratio / 2)
    in
    write_spans spans spans_out;
    let lines = Array.sub lines 0 n in
    let digest_us, lookup_us =
      registry_costs lines ~acap ~budget_ns:(budget_ns /. 3.)
    in
    let rps = serial_warm_rps lines ~acap in
    let cfgs = distinct_cfgs lines ~cap:32 in
    let compile_us =
      median
        (List.map (fun c -> snd (time_us (fun () -> Sv.Registry.compile c))) cfgs)
    in
    let load_us, save_us = store_costs cfgs scratch in
    Printf.printf
      "{\"replayed\":%d,\"rounds\":%d,\"plain_us\":%.3f,\"layers_us\":%.3f,\"digest_us\":%.3f,\"lookup_us\":%.3f,\"compile_us\":%.3f,\"store_load_us\":%.3f,\"store_save_us\":%.3f,\"gc_minor_words_per_req\":%.3f,\"serial_warm_rps\":%.3f}\n"
      n (List.length rounds) (plain_ns /. 1e3) (layers_ns /. 1e3) digest_us lookup_us compile_us
      load_us save_us
      (words /. float_of_int (max 1 n))
      rps
  | _ ->
    prerr_endline
      "usage: layers.exe LINES SPANS_OUT SCRATCH_DIR ARTIFACT_CAP USE_STORE \
       BUDGET_S ROUNDS";
    exit 2
