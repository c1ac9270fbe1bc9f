module Cfg = Lambekd_cfg.Cfg

let default_max_line_bytes = 8192

(* --- stream generation ------------------------------------------------------ *)

let utf8_of_cp b cp =
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
  end

(* The characters a grammar can actually consume: random inputs over
   them hit accept and reject paths in useful proportion, where pure
   ASCII noise would reject at the first character every time. *)
let terminals (cfg : Cfg.t) =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (p : Cfg.production) ->
      List.iter
        (function Cfg.T c -> Hashtbl.replace seen c () | Cfg.N _ -> ())
        p.rhs)
    cfg.productions;
  let cs = Hashtbl.fold (fun c () acc -> c :: acc) seen [] in
  match List.sort Char.compare cs with [] -> [ 'a' ] | cs -> cs

let gen_lines ~seed ~requests =
  let rng = Random.State.make [| 0xfacade; seed |] in
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let builtins = Builtin.names in
  let word alphabet len =
    String.init len (fun _ -> pick alphabet)
  in
  let field k v = (k, Json.Str v) in
  let obj fields = Json.to_string (Json.Obj fields) in
  let astral_word () =
    let b = Buffer.create 16 in
    for _ = 0 to int 4 do
      utf8_of_cp b
        (pick [ 0x1F600; 0x1F680; 0x10348; 0x2713; 0x3B1; 0x1D11E ])
    done;
    Buffer.contents b
  in
  let valid i =
    let gname = pick builtins in
    let cfg = Option.get (Builtin.find gname) in
    let query =
      match int 10 with
      | 0 | 1 -> "parse"
      | 2 -> "count"
      | 3 -> "mass"
      | _ -> "member"
    in
    let maxlen = if query = "count" then 10 else 24 in
    let input = word (terminals cfg) (int (maxlen + 1)) in
    (* weighted traffic: some parse queries carry "kbest" and/or raw
       "weights" (always well-formed here — strictly positive, one per
       production — malformed tables live in [bad_field]), some mass
       queries ship a table instead of the builtin default *)
    let raw_weights () =
      let np = Array.length cfg.Cfg.productions in
      ( "weights",
        Json.Arr
          (List.init np (fun _ ->
               Json.Num (float_of_int (1 + int 4) /. 4.))) )
    in
    let weighted =
      match query with
      | "parse" -> (
        match int 6 with
        | 0 -> [ ("kbest", Json.Num (float_of_int (1 + int 6))) ]
        | 1 ->
          raw_weights ()
          :: (if int 2 = 0 then
                [ ("kbest", Json.Num (float_of_int (1 + int 4))) ]
              else [])
        | _ -> [])
      | "mass" -> if int 3 = 0 then [ raw_weights () ] else []
      | _ -> []
    in
    let extras =
      match int 10 with
      | 0 ->
        (* engine pins: earley/enum always apply; ll1/slr may be a
           (deterministic) bad request on grammars without the table,
           cyk on parse queries (it is a recognizer) *)
        [ field "engine" (pick [ "ll1"; "slr"; "earley"; "cyk"; "enum" ]) ]
      | 1 | 2 ->
        (* an already-expired deadline: exercises the queued-expiry
           path; only with the auto engine, whose resolution cannot
           fail (a failed pin wins over the deadline in the serial
           reference) *)
        [ ("timeout_ms", Json.Num 0.) ]
      | _ -> []
    in
    let id = if int 10 < 8 then [ field "id" (Fmt.str "r%d" i) ] else [] in
    (* ~1/5 of valid requests opt into tracing: the response then
       carries a normalized trace object whose stage-presence list must
       be identical serial vs multi-domain *)
    let traced = if int 5 = 0 then [ ("trace", Json.Bool true) ] else [] in
    obj (id @ [ field "grammar" gname; field "input" input;
                field "query" query ] @ weighted @ extras @ traced)
  in
  let admin i =
    let id = if int 10 < 8 then [ field "id" (Fmt.str "r%d" i) ] else [] in
    match int 6 with
    | 0 | 1 -> obj (id @ [ field "op" "health" ])
    | 2 | 3 | 4 -> obj (id @ [ field "op" "metrics" ])
    | _ ->
      (* unknown op: a deterministic bad request *)
      obj (id @ [ field "op" (Fmt.str "op%d" (int 3)) ])
  in
  let inline i =
    let nts = 1 + int 3 in
    let nt k = Fmt.str "N%d" k in
    let sym () =
      match int 4 with
      | 0 -> "'a'"
      | 1 -> "'b'"
      | _ ->
        (* out-of-range index ~10% of the time: an undefined
           nonterminal is a deterministic bad request *)
        nt (int (nts + if int 10 = 0 then 1 else 0))
    in
    let prods =
      List.concat_map
        (fun k ->
          List.init (1 + int 2) (fun _ ->
              Json.Arr
                [ Json.Str (nt k);
                  Json.Arr (List.init (int 4) (fun _ -> Json.Str (sym ()))) ]))
        (List.init nts Fun.id)
    in
    obj
      [ field "id" (Fmt.str "r%d" i);
        ("grammar",
         Json.Obj [ field "start" (nt 0); ("prods", Json.Arr prods) ]);
        field "input" (word [ 'a'; 'b' ] (int 8)) ]
  in
  let malformed i =
    let base = valid i in
    match int 5 with
    | 0 ->
      (* truncated line: always drops at least the closing brace *)
      String.sub base 0 (1 + int (String.length base - 1))
    | 1 -> "}" ^ base
    | 2 -> String.concat "" (List.init (1 + int 6) (fun _ -> pick [ "{"; "["; "\""; ":"; "nul"; "tru" ]))
    | 3 ->
      (* lone surrogates in a string are rejected by the decoder *)
      obj [ field "id" (Fmt.str "r%d" i); field "grammar" "dyck" ]
      |> fun s -> String.sub s 0 (String.length s - 1)
         ^ {|,"input":"\ud800x"}|}
    | _ ->
      let b = Bytes.of_string base in
      Bytes.set b (int (Bytes.length b)) (pick [ '}'; '{'; '"'; '\001' ]);
      Bytes.to_string b
  in
  let bad_field i =
    let id = field "id" (Fmt.str "r%d" i) in
    match int 8 with
    | 0 -> obj [ id; field "grammar" (Fmt.str "nosuch%d" (int 5)); field "input" "x" ]
    | 1 -> obj [ id; field "grammar" "dyck"; field "input" "()"; field "query" "frobnicate" ]
    | 2 -> obj [ id; field "grammar" "dyck"; field "input" "()"; field "engine" "glr" ]
    | 3 -> obj [ id; field "grammar" "dyck"; field "input" "()"; ("timeout_ms", Json.Num (-5.)) ]
    | 4 ->
      (* wrong arity: ss has two productions *)
      obj [ id; field "grammar" "ss"; field "input" "aa";
            field "query" "parse"; ("weights", Json.Arr [ Json.Num 1. ]) ]
    | 5 ->
      (* a negative weight fails registry normalization *)
      obj [ id; field "grammar" "ss"; field "input" "aa";
            field "query" "parse";
            ("weights", Json.Arr [ Json.Num (-1.); Json.Num 1. ]) ]
    | 6 ->
      (* kbest off a parse query is a decode-time bad request *)
      obj [ id; field "grammar" "dyck"; field "input" "()";
            field "query" "member"; ("kbest", Json.Num 3.) ]
    | _ ->
      (* kbest out of [1, 256] *)
      obj [ id; field "grammar" "ss"; field "input" "aa";
            field "query" "parse";
            ("kbest", Json.Num (float_of_int (pick [ 0; 500 ]))) ]
  in
  let unicode i =
    match int 4 with
    | 0 ->
      (* raw astral bytes straight through the JSON escaper *)
      obj [ field "id" (Fmt.str "r%d" i); field "grammar" "dyck";
            field "input" (astral_word () ^ word [ '('; ')' ] (int 6)) ]
    | 1 ->
      (* the same U+1F600 as an escaped UTF-16 surrogate pair *)
      Fmt.str {|{"id":"r%d","grammar":"dyck","input":"😀%s"}|} i
        (word [ '('; ')' ] (int 6))
    | 2 -> obj [ field "id" (astral_word ()); field "grammar" "expr"; field "input" "n+n" ]
    | _ ->
      Fmt.str {|{"id":"r%d","grammar":"anbn","input":"ab"}|} i
  in
  let oversized i =
    obj [ field "id" (Fmt.str "r%d" i); field "grammar" "dyck";
          field "input" (String.make (default_max_line_bytes + 512 + int 1024) '(') ]
  in
  (* Session traffic.  Ids are predictable — the table names sessions
     "s0","s1",... in open order and every generated open decodes, so a
     counter tracks them.  Ops target known ids (live, closed, or
     evicted — all deterministic), plus unknown ones.  Timeouts on
     session ops are only ever 0 (an immediate deterministic timeout):
     a positive budget could abort mid-parse at a wall-clock-dependent
     point and diverge between replays. *)
  let opened = ref 0 in
  let session_chars = [ '('; ')'; 'a'; 'b'; 'n'; '+' ] in
  let session i =
    let id = if int 10 < 8 then [ field "id" (Fmt.str "r%d" i) ] else [] in
    let traced = if int 6 = 0 then [ ("trace", Json.Bool true) ] else [] in
    let tmo = if int 12 = 0 then [ ("timeout_ms", Json.Num 0.) ] else [] in
    let sid_field () =
      let sid =
        if int 10 = 0 || !opened = 0 then Fmt.str "nosuch%d" (int 3)
        else Fmt.str "s%d" (int !opened)
      in
      field "session" sid
    in
    let num k v = (k, Json.Num (float_of_int v)) in
    match int 12 with
    | 0 | 1 ->
      incr opened;
      obj
        (id
        @ [ field "op" "session_open";
            field "grammar" (pick [ "dyck"; "anbn"; "expr"; "ss" ]) ]
        @ tmo @ traced)
    | 2 | 3 | 4 ->
      obj
        (id
        @ [ field "op" "append"; sid_field ();
            field "chunk" (word session_chars (int 7)) ]
        @ tmo @ traced)
    | 5 | 6 ->
      (* [at]/[del] range past plausible buffer lengths: out-of-range
         splices are deterministic bad requests *)
      obj
        (id
        @ [ field "op" "edit"; sid_field (); num "at" (int 10);
            num "del" (int 5); field "ins" (word session_chars (int 5)) ]
        @ tmo @ traced)
    | 7 | 8 ->
      obj
        (id
        @ [ field "op" "query"; sid_field ();
            field "query" (pick [ "member"; "parse" ]) ]
        @ tmo @ traced)
    | 9 -> obj (id @ [ field "op" "session_close"; sid_field () ] @ traced)
    | 10 ->
      (* decode-time rejects: bad splice fields, bad session query,
         missing chunk *)
      pick
        [ obj (id @ [ field "op" "edit"; sid_field ();
                      ("at", Json.Num (-1.)); field "ins" "a" ]);
          obj (id @ [ field "op" "query"; sid_field ();
                      field "query" "count" ]);
          obj (id @ [ field "op" "append"; sid_field () ]);
          obj (id @ [ field "op" "append"; field "chunk" "ab" ]) ]
    | _ ->
      (* an inline-grammar open: sessions are not builtin-only *)
      incr opened;
      obj
        (id
        @ [ field "op" "session_open";
            ("grammar",
             Json.Obj
               [ field "start" "S";
                 ("prods",
                  Json.Arr
                    [ Json.Arr [ Json.Str "S"; Json.Arr [] ];
                      Json.Arr
                        [ Json.Str "S";
                          Json.Arr
                            [ Json.Str "'a'"; Json.Str "S"; Json.Str "'b'" ] ]
                    ]) ]) ]
        @ tmo @ traced)
  in
  List.init requests (fun i ->
      match int 100 with
      | n when n < 46 -> valid i
      | n when n < 54 -> inline i
      | n when n < 66 -> malformed i
      | n when n < 73 -> bad_field i
      | n when n < 82 -> unicode i
      | n when n < 87 -> oversized i
      | n when n < 91 -> admin i
      | n when n < 97 -> session i
      | _ -> pick [ ""; "   "; "\t" ])

(* --- replays: the serve loop over a list ------------------------------------- *)

(* One replay is the front end's own loop over the lines, with timing
   fields off; [domains = 0] answers every line on this thread, the
   serial reference. *)
let replay ?(paranoid = false) ~max_line_bytes ~domains reg lines =
  let sched = Scheduler.create ~domains ~queue_cap:64 ~registry:reg () in
  let sessions = Session.create ~paranoid ~registry:reg () in
  let out = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched;
      Session.close_all sessions)
    (fun () ->
      ignore
        (Server.serve_lines ~max_line_bytes ~sessions ~sched ~times:false
           (Server.list_source lines)
           (Server.line_sink (fun l -> out := l :: !out))));
  List.rev !out

let reference ?(max_line_bytes = default_max_line_bytes) reg lines =
  replay ~max_line_bytes ~domains:0 reg lines

(* --- the differential -------------------------------------------------------- *)

type report = {
  lines : int;
  responses : int;
  schedule : string option;
}

(* Every grammar the stream names, so both registries can be warmed and
   artifact hit/miss fields do not depend on which side compiled a
   grammar first. *)
let grammars ~max_line_bytes lines =
  List.filter_map
    (fun l ->
      if String.length l > max_line_bytes then None
      else
        match Protocol.parse_line l with
        | Ok (Protocol.Request r) -> Some r.Protocol.cfg
        | Ok
            (Protocol.Session
              { Protocol.sq_op = Protocol.S_open { cfg; _ }; _ }) ->
          Some cfg
        | Ok (Protocol.Admin _ | Protocol.Session _) | Error _ -> None)
    lines

let warm reg cfgs = List.iter (fun c -> ignore (Registry.get reg c)) cfgs

(* result caching is off so repeated identical requests do not depend
   on execution order *)
let fresh_registry ?store () =
  Registry.create ~artifact_cap:2048 ~result_cap:0 ?store ()

let internal_error = {|"error":"bad_request","message":"internal error: |}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let compare_replays ~serial ~service =
  let rec go i a b =
    match (a, b) with
    | [], [] -> Ok i
    | x :: xs, y :: ys ->
      if not (String.equal x y) then
        Error
          (Fmt.str "response %d differs\n  serial:  %s\n  service: %s" i x y)
      else if contains x internal_error then
        (* both sides agree, but an engine raised: a crash is a failure
           even when it is reproducible *)
        Error (Fmt.str "response %d is an internal error\n  %s" i x)
      else go (i + 1) xs ys
    | _ ->
      Error
        (Fmt.str "response count differs: serial %d, service %d"
           (List.length serial) (List.length service))
  in
  go 0 serial service

let differential ?(domains = 4) ?(max_line_bytes = default_max_line_bytes)
    ?schedule ?store ~seed ~requests () =
  let domains = max 1 domains in
  Fault.clear ();
  let lines = gen_lines ~seed ~requests in
  let cfgs = grammars ~max_line_bytes lines in
  let guard side f =
    match f () with
    | v -> Ok v
    | exception exn ->
      Fault.clear ();
      Error (Fmt.str "%s replay crashed: %s" side (Printexc.to_string exn))
  in
  let ( let* ) = Result.bind in
  (* the serial side runs its sessions paranoid: every incremental
     answer is cross-checked against a from-scratch parse, so a
     chart-reuse bug surfaces as a serial-vs-service divergence even
     when both replays would have computed the same wrong answer *)
  let* serial =
    guard "serial" (fun () ->
        let reg = fresh_registry () in
        warm reg cfgs;
        replay ~paranoid:true ~max_line_bytes ~domains:0 reg lines)
  in
  let* service =
    guard "service" (fun () ->
        (* store-armed replay: a scratch registry compiles every grammar
           in the stream into the store first, so the replay registry's
           warm pass serves each artifact from disk — the whole round
           then runs over store-loaded artifacts, and any byte the store
           changed in them shows up as a divergence from the storeless
           serial reference *)
        Option.iter (fun st -> warm (fresh_registry ~store:st ()) cfgs) store;
        let reg = fresh_registry ?store () in
        warm reg cfgs;
        (match schedule with Some (cfg, _) -> Fault.install cfg | None -> ());
        Fun.protect ~finally:Fault.clear @@ fun () ->
        replay ~max_line_bytes ~domains reg lines)
  in
  let* responses = compare_replays ~serial ~service in
  Ok
    { lines = List.length lines;
      responses;
      schedule = Option.map snd schedule }
