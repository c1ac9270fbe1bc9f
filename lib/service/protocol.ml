open Lambekd_cfg

type query = Membership | Parse | Count | Mass

type engine_choice = Auto | Ll1 | Slr | Earley | Cyk | Enum

let engine_choice_name = function
  | Auto -> "auto"
  | Ll1 -> "ll1"
  | Slr -> "slr"
  | Earley -> "earley"
  | Cyk -> "cyk"
  | Enum -> "enum"

let engine_choice_of_name = function
  | "auto" -> Ok Auto
  | "ll1" -> Ok Ll1
  | "slr" -> Ok Slr
  | "earley" -> Ok Earley
  | "cyk" -> Ok Cyk
  | "enum" -> Ok Enum
  | e -> Error (Fmt.str "unknown engine %S (auto|ll1|slr|earley|cyk|enum)" e)

type request = {
  id : string option;
  cfg : Cfg.t;
  gname : string;
  input : string;
  query : query;
  engine : engine_choice;
  weights : float array option;
  kbest : int option;
  timeout_ms : float option;
  trace : Trace.t option;
}

type admin_op = Op_metrics | Op_health

(* Session ops are stateful: the service routes them to a per-session
   entry (ticketed, so edits never race) instead of the stateless
   request path.  [S_open] carries the grammar; every other op names an
   existing session on the wire. *)
type session_op =
  | S_open of { cfg : Cfg.t; gname : string }
  | S_append of { chunk : string }
  | S_edit of { at : int; del : int; ins : string }
  | S_query of { q : query }  (** [Membership] or [Parse] only *)
  | S_close

type session_req = {
  sq_id : string option;
  sq_sid : string;  (** target session id; [""] for [S_open] *)
  sq_op : session_op;
  sq_timeout_ms : float option;
  sq_trace : Trace.t option;
}

type line =
  | Admin of { aid : string option; op : admin_op }
  | Request of request
  | Session of session_req

(* --- request decoding ---------------------------------------------------- *)

let ( let* ) = Result.bind

let symbol_of_string s =
  let n = String.length s in
  if n = 3 && s.[0] = '\'' && s.[2] = '\'' then Ok (Cfg.T s.[1])
  else if n > 0 && s.[0] <> '\'' then Ok (Cfg.N s)
  else Error (Fmt.str "bad symbol %S (terminals are 'c', nonterminals bare)" s)

let inline_cfg j =
  let* start =
    match Option.bind (Json.mem "start" j) Json.str with
    | Some s -> Ok s
    | None -> Error "inline grammar needs a \"start\" string"
  in
  let* prods =
    match Option.bind (Json.mem "prods" j) Json.arr with
    | Some ps -> Ok ps
    | None -> Error "inline grammar needs a \"prods\" array"
  in
  let* productions =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        match Json.arr p with
        | Some [ lhs; rhs ] -> (
          match (Json.str lhs, Json.arr rhs) with
          | Some lhs, Some syms ->
            let* syms =
              List.fold_left
                (fun acc s ->
                  let* acc = acc in
                  match Json.str s with
                  | Some s ->
                    let* sym = symbol_of_string s in
                    Ok (sym :: acc)
                  | None -> Error "production symbols must be strings")
                (Ok []) syms
            in
            Ok ((lhs, List.rev syms) :: acc)
          | _ -> Error "a production is [\"Lhs\", [symbols...]]")
        | _ -> Error "a production is [\"Lhs\", [symbols...]]")
      (Ok []) prods
  in
  let productions = List.rev productions in
  if productions = [] then Error "inline grammar needs at least one production"
  else
    match Cfg.make ~start ~productions with
    | cfg -> Ok cfg
    | exception (Invalid_argument msg | Failure msg) ->
      Error (Fmt.str "invalid grammar: %s" msg)

let decode_grammar j =
  match Json.mem "grammar" j with
  | Some (Json.Str name) -> (
    match Builtin.find name with
    | Some cfg -> Ok (name, cfg)
    | None ->
      Error
        (Fmt.str "unknown grammar %S (builtins: %s)" name
           (String.concat ", " Builtin.names)))
  | Some (Json.Obj _ as g) ->
    let* cfg = inline_cfg g in
    Ok ("inline", cfg)
  | Some _ -> Error "\"grammar\" must be a builtin name or an inline object"
  | None -> Error "request needs a \"grammar\""

let decode_timeout_ms j =
  match Json.mem "timeout_ms" j with
  | None -> Ok None
  | Some v -> (
    match Json.num v with
    | Some ms when ms >= 0. -> Ok (Some ms)
    | _ -> Error "\"timeout_ms\" must be a non-negative number")

let decode_trace j =
  match Json.mem "trace" j with
  | None -> Ok None
  | Some v -> (
    match Json.bool_ v with
    | Some true -> Ok (Some (Trace.create ()))
    | Some false -> Ok None
    | None -> Error "\"trace\" must be a boolean")

let decode_request j =
  let id = Option.bind (Json.mem "id" j) Json.str in
  let* gname, cfg = decode_grammar j in
  let* input =
    match Option.bind (Json.mem "input" j) Json.str with
    | Some s -> Ok s
    | None -> Error "request needs an \"input\" string"
  in
  let* query =
    match Option.bind (Json.mem "query" j) Json.str with
    | None -> Ok Membership
    | Some "member" -> Ok Membership
    | Some "parse" -> Ok Parse
    | Some "count" -> Ok Count
    | Some "mass" -> Ok Mass
    | Some q -> Error (Fmt.str "unknown query %S (member|parse|count|mass)" q)
  in
  let* engine =
    match Option.bind (Json.mem "engine" j) Json.str with
    | None -> Ok Auto
    | Some e -> engine_choice_of_name e
  in
  let* weights =
    match Json.mem "weights" j with
    | None -> Ok None
    | Some v -> (
      match Json.arr v with
      | Some xs ->
        let* ws =
          List.fold_left
            (fun acc x ->
              let* acc = acc in
              match Json.num x with
              | Some w -> Ok (w :: acc)
              | None -> Error "\"weights\" must be an array of numbers")
            (Ok []) xs
        in
        Ok (Some (Array.of_list (List.rev ws)))
      | None -> Error "\"weights\" must be an array of numbers")
  in
  let* kbest =
    match Json.mem "kbest" j with
    | None -> Ok None
    | Some v -> (
      match Json.num v with
      | Some k when Float.is_integer k && k >= 1. && k <= 256. ->
        Ok (Some (int_of_float k))
      | _ -> Error "\"kbest\" must be an integer between 1 and 256")
  in
  let* () =
    if kbest <> None && query <> Parse then
      Error "\"kbest\" requires a \"parse\" query"
    else if weights <> None && not (query = Parse || query = Mass) then
      Error "\"weights\" requires a \"parse\" or \"mass\" query"
    else Ok ()
  in
  let* timeout_ms = decode_timeout_ms j in
  let* trace = decode_trace j in
  Ok
    { id; cfg; gname; input; query; engine; weights; kbest; timeout_ms; trace }

(* --- session decoding ----------------------------------------------------- *)

let decode_nonneg_int j name =
  match Json.mem name j with
  | None -> Ok None
  | Some v -> (
    match Json.num v with
    | Some x when Float.is_integer x && x >= 0. && x <= 1073741823. ->
      Ok (Some (int_of_float x))
    | _ -> Error (Fmt.str "%S must be a non-negative integer" name))

let decode_session kind j =
  let sq_id = Option.bind (Json.mem "id" j) Json.str in
  let* sq_sid =
    if kind = `Open then Ok ""
    else
      match Option.bind (Json.mem "session" j) Json.str with
      | Some s when s <> "" -> Ok s
      | Some _ -> Error "\"session\" must be a non-empty id string"
      | None -> Error "session op needs a \"session\" id"
  in
  let* sq_op =
    match kind with
    | `Open ->
      let* gname, cfg = decode_grammar j in
      Ok (S_open { cfg; gname })
    | `Append -> (
      match Option.bind (Json.mem "chunk" j) Json.str with
      | Some chunk -> Ok (S_append { chunk })
      | None -> Error "append needs a \"chunk\" string")
    | `Edit ->
      let* at =
        match decode_nonneg_int j "at" with
        | Ok (Some at) -> Ok at
        | Ok None -> Error "edit needs an \"at\" position"
        | Error _ as e -> e
      in
      let* del = Result.map (Option.value ~default:0) (decode_nonneg_int j "del") in
      let ins =
        Option.value ~default:""
          (Option.bind (Json.mem "ins" j) Json.str)
      in
      let* () =
        match Json.mem "ins" j with
        | Some v when Json.str v = None -> Error "\"ins\" must be a string"
        | _ -> Ok ()
      in
      Ok (S_edit { at; del; ins })
    | `Query -> (
      match Option.bind (Json.mem "query" j) Json.str with
      | None | Some "member" -> Ok (S_query { q = Membership })
      | Some "parse" -> Ok (S_query { q = Parse })
      | Some q ->
        Error (Fmt.str "unknown session query %S (member|parse)" q))
    | `Close -> Ok S_close
  in
  let* sq_timeout_ms = decode_timeout_ms j in
  let* sq_trace = decode_trace j in
  Ok (Session { sq_id; sq_sid; sq_op; sq_timeout_ms; sq_trace })

let parse_request line =
  let* j = Json.parse line in
  let* () =
    match j with Json.Obj _ -> Ok () | _ -> Error "request must be an object"
  in
  decode_request j

let parse_line line =
  let* j = Json.parse line in
  let* () =
    match j with Json.Obj _ -> Ok () | _ -> Error "request must be an object"
  in
  match Json.mem "op" j with
  | None ->
    let* r = decode_request j in
    Ok (Request r)
  | Some op -> (
    let aid = Option.bind (Json.mem "id" j) Json.str in
    match Json.str op with
    | Some "metrics" -> Ok (Admin { aid; op = Op_metrics })
    | Some "health" -> Ok (Admin { aid; op = Op_health })
    | Some "session_open" -> decode_session `Open j
    | Some "append" -> decode_session `Append j
    | Some "edit" -> decode_session `Edit j
    | Some "query" -> decode_session `Query j
    | Some "session_close" -> decode_session `Close j
    | Some other ->
      Error
        (Fmt.str
           "unknown op %S \
            (metrics|health|session_open|append|edit|query|session_close)"
           other)
    | None -> Error "\"op\" must be a string")

(* --- responses ----------------------------------------------------------- *)

type verdict =
  | Accepted of string option
  | Rejected
  | Count of { count : int; saturated : bool }
  | Ranked of { parses : (float * string) list }
      (** best-first (log-probability, rendered tree) pairs; weights
          non-increasing, ties broken on item order *)
  | Mass of { log_mass : float }
      (** inside log-probability of the input under the request's
          weight table; [neg_infinity] = no parse, mass 0 *)
  | Session_opened of { sid : string }
  | Session_closed of { sid : string }
  | Session_state of { len : int; accept : bool; tree : string option }
      (** acceptance of the whole session buffer after an
          append/edit/query — the streaming accepts-as-you-go answer *)

type failure =
  | Bad_request of string
  | Timeout of { after_ms : float }
  | Overloaded of { retry_after_ms : int }

type response = {
  rid : string option;
  outcome : (verdict, failure) result;
  engine_used : string;
  artifact_cache : [ `Hit | `Miss | `None ];
  result_cache : [ `Hit | `Miss | `None ];
  dur_ns : float;
}

let cache_field name = function
  | `Hit -> [ (name, Json.Str "hit") ]
  | `Miss -> [ (name, Json.Str "miss") ]
  | `None -> []

let response_to_json ?(times = true) ?trace r =
  let id = match r.rid with Some id -> [ ("id", Json.Str id) ] | None -> [] in
  let body =
    match r.outcome with
    | Ok v ->
      let verdict =
        match v with
        | Accepted _ -> [ ("verdict", Json.Str "accept") ]
        | Rejected -> [ ("verdict", Json.Str "reject") ]
        | Count { count; saturated } ->
          [ ("verdict", Json.Str "count");
            ("count", Json.Num (float_of_int count)) ]
          @ (if saturated then [ ("saturated", Json.Bool true) ] else [])
        | Ranked { parses } ->
          [ ("verdict", Json.Str "ranked");
            ("k", Json.Num (float_of_int (List.length parses)));
            ("parses",
             Json.Arr
               (List.map
                  (fun (logp, tree) ->
                    (* JSON has no -inf: a zero-probability derivation
                       (possible under zero raw weights) omits "logp" *)
                    Json.Obj
                      ((if Float.is_finite logp then
                          [ ("logp", Json.Num logp) ]
                        else [])
                      @ [ ("tree", Json.Str tree) ]))
                  parses)) ]
        | Mass { log_mass } ->
          [ ("verdict", Json.Str "mass");
            ("mass", Json.Num (Float.exp log_mass)) ]
          @
          if Float.is_finite log_mass then
            [ ("log_mass", Json.Num log_mass) ]
          else []
        | Session_opened { sid } ->
          [ ("verdict", Json.Str "session_opened");
            ("session", Json.Str sid) ]
        | Session_closed { sid } ->
          [ ("verdict", Json.Str "session_closed");
            ("session", Json.Str sid) ]
        | Session_state { len; accept; tree = _ } ->
          [ ("verdict", Json.Str (if accept then "accept" else "reject"));
            ("len", Json.Num (float_of_int len)) ]
      in
      let tree =
        match v with
        | Accepted (Some t) | Session_state { tree = Some t; _ } ->
          [ ("tree", Json.Str t) ]
        | _ -> []
      in
      [ ("ok", Json.Bool true) ]
      @ verdict @ tree
      @ [ ("engine", Json.Str r.engine_used) ]
      @ cache_field "artifact" r.artifact_cache
      @ cache_field "result" r.result_cache
    | Error f ->
      [ ("ok", Json.Bool false) ]
      @ (match f with
        | Bad_request msg ->
          [ ("error", Json.Str "bad_request"); ("message", Json.Str msg) ]
        | Timeout { after_ms } ->
          [ ("error", Json.Str "timeout"); ("after_ms", Json.Num after_ms) ]
        | Overloaded { retry_after_ms } ->
          [ ("error", Json.Str "overloaded");
            ("retry_after_ms", Json.Num (float_of_int retry_after_ms)) ])
  in
  let trace_field =
    match trace with
    | Some tr -> [ ("trace", Trace.to_json ~times tr) ]
    | None -> []
  in
  let times =
    if times then [ ("ns", Json.Num (Float.round r.dur_ns)) ] else []
  in
  Json.to_string (Json.Obj (id @ body @ trace_field @ times))

(* --- admin responses ------------------------------------------------------ *)

let id_field = function Some id -> [ ("id", Json.Str id) ] | None -> []

let health_response ?id ~draining ~extra () =
  Json.to_string
    (Json.Obj
       (id_field id
       @ [ ("ok", Json.Bool true);
           ("status", Json.Str (if draining then "draining" else "ready")) ]
       @ extra))

let metrics_response ?id ~extra () =
  Json.to_string
    (Json.Obj
       (id_field id
       @ [ ("ok", Json.Bool true); ("op", Json.Str "metrics") ]
       @ extra))

(* --- the slow-request log ------------------------------------------------- *)

let slow_line (tr : Trace.t) r =
  let dur name a b =
    if Float.is_nan a || Float.is_nan b then []
    else [ (name, Json.Num (Float.round (b -. a))) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("ev", Json.Str "slow") ]
       @ id_field r.rid
       @ [ ("trace", Json.Str tr.Trace.id) ]
       @ (match r.outcome with
         | Ok _ -> [ ("ok", Json.Bool true) ]
         | Error (Bad_request _) ->
           [ ("ok", Json.Bool false); ("error", Json.Str "bad_request") ]
         | Error (Timeout _) ->
           [ ("ok", Json.Bool false); ("error", Json.Str "timeout") ]
         | Error (Overloaded _) ->
           [ ("ok", Json.Bool false); ("error", Json.Str "overloaded") ])
       @ (if r.engine_used <> "" then
            [ ("engine", Json.Str r.engine_used) ]
          else [])
       @ cache_field "artifact" r.artifact_cache
       @ cache_field "result" r.result_cache
       @ dur "queue_ns" tr.Trace.received_ns tr.Trace.dequeued_ns
       @ dur "engine_ns" tr.Trace.engine_start_ns tr.Trace.engine_end_ns
       @ dur "total_ns" tr.Trace.received_ns tr.Trace.written_ns
       @ (if not (Float.is_nan tr.Trace.compile_ns) then
            [ ("compile_ns", Json.Num (Float.round tr.Trace.compile_ns)) ]
          else [])
       @ [ ("faults", Json.Num (float_of_int tr.Trace.faults)) ]))

let bad_request ?id msg =
  { rid = id;
    outcome = Error (Bad_request msg);
    engine_used = "";
    artifact_cache = `None;
    result_cache = `None;
    dur_ns = 0. }

let timeout ?id ~after_ms () =
  { rid = id;
    outcome = Error (Timeout { after_ms });
    engine_used = "";
    artifact_cache = `None;
    result_cache = `None;
    dur_ns = 0. }

let overloaded ~retry_after_ms () =
  { rid = None;
    outcome = Error (Overloaded { retry_after_ms });
    engine_used = "";
    artifact_cache = `None;
    result_cache = `None;
    dur_ns = 0. }
