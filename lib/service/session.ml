open Lambekd_cfg
module Clock = Lambekd_telemetry.Clock
module Probe = Lambekd_telemetry.Probe

let c_opened = Probe.counter "session.opened"
let c_closed = Probe.counter "session.closed"
let c_evicted = Probe.counter "session.evicted"
let c_ops = Probe.counter "session.ops"
let c_reused_sets = Probe.counter "session.reused_sets"

(* A session entry.  The id, the ticket counters and the table
   membership are managed by {!route} on the submitting thread under the
   table mutex — that is what makes a serial replay and a multi-domain
   replay byte-identical: every stateful naming decision (id allocation,
   LRU eviction, close-unbinding, unknown-session rejection) happens in
   line order, in the same step that queues the op.  The buffer and
   chart are only touched by {!exec} while holding the entry's turn, so
   edits against one session serialize in submission order however many
   workers race. *)

type state =
  | Unopened of { cfg : Cfg.t }
      (** created by route; the open op itself compiles and takes scratch *)
  | Opened of {
      artifact : Registry.artifact;
      bundle : Registry.scratch;
      es : Earley.session;
    }
  | Dead  (** the scratch has been returned *)

type entry = {
  sid : string;
  emu : Mutex.t;
  cv : Condition.t;
  mutable state : state;  (** written only while holding the turn *)
  mutable next_ticket : int;  (** table mutex *)
  mutable turn : int;  (** [emu] *)
  mutable final_ticket : int;
      (** set (under [emu]) when the entry leaves the table: no ticket at
          or beyond this will ever be issued, so reaching it releases the
          scratch.  [-1] while still in the table. *)
  mutable used_seq : int;  (** logical recency for deterministic LRU *)
  mutable last_used_ns : float;  (** wall clock, for idle eviction only *)
}

type t = {
  mu : Mutex.t;
  registry : Registry.t;
  tbl : (string, entry) Hashtbl.t;
  cap : int;
  idle_ns : float;
  max_buf : int;
  paranoid : bool;
  mutable next_id : int;
  mutable seq : int;
  mutable evictions : int;
}

let default_cap = 64
let default_idle_ms = 600_000.
let default_max_buf = 1 lsl 20

let create ?(cap = default_cap) ?(idle_ms = default_idle_ms)
    ?(max_buf = default_max_buf) ?(paranoid = false) ~registry () =
  { mu = Mutex.create ();
    registry;
    tbl = Hashtbl.create 16;
    cap = max 1 cap;
    idle_ns = idle_ms *. 1e6;
    max_buf;
    paranoid;
    next_id = 0;
    seq = 0;
    evictions = 0 }

let live t = Mutex.protect t.mu (fun () -> Hashtbl.length t.tbl)
let evictions t = Mutex.protect t.mu (fun () -> t.evictions)
let paranoid t = t.paranoid

(* --- turn bookkeeping ----------------------------------------------------

   Tickets are issued at route time; workers execute an entry's ops in
   ticket order, waiting on [cv] until [turn] reaches their ticket.
   Every routed op is executed (the scheduler never sheds one), so the
   turn reaches every ticket.  Whoever advances [turn] to
   [final_ticket] returns the scratch bundle. *)

let release_locked e =
  match e.state with
  | Opened { artifact; bundle; _ } ->
    e.state <- Dead;
    Registry.give_scratch artifact bundle
  | Unopened _ | Dead -> e.state <- Dead

(* [emu] held *)
let advance_locked e =
  e.turn <- e.turn + 1;
  if e.final_ticket >= 0 && e.turn >= e.final_ticket then release_locked e;
  Condition.broadcast e.cv

(* --- routing (submitting thread, line order) ----------------------------- *)

type target =
  | T_entry of entry * int  (** ticket *)
  | T_unknown

type routed = { tab : t; sreq : Protocol.session_req; target : target }

let sreq r = r.sreq

(* table mutex held; marks the entry finished for ticket purposes *)
let detach_locked e =
  Mutex.protect e.emu (fun () ->
      e.final_ticket <- e.next_ticket;
      if e.turn >= e.final_ticket then release_locked e)

let evict_locked t e =
  Hashtbl.remove t.tbl e.sid;
  t.evictions <- t.evictions + 1;
  Probe.bump c_evicted;
  detach_locked e

(* idle sweep then (at open) LRU eviction, both deterministic: recency is
   a logical sequence bumped in route order, so a serial and a parallel
   replay of the same line sequence evict the same sessions. *)
let sweep_idle_locked t now =
  if t.idle_ns > 0. then begin
    let idle =
      Hashtbl.fold
        (fun _ e acc ->
          if now -. e.last_used_ns > t.idle_ns then e :: acc else acc)
        t.tbl []
    in
    List.iter (evict_locked t)
      (List.sort (fun a b -> compare a.used_seq b.used_seq) idle)
  end

let evict_lru_locked t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some v when v.used_seq <= e.used_seq -> acc
        | _ -> Some e)
      t.tbl None
  in
  Option.iter (evict_locked t) victim

let route t (sq : Protocol.session_req) =
  Probe.bump c_ops;
  Mutex.protect t.mu (fun () ->
      let now = Clock.now_ns () in
      sweep_idle_locked t now;
      let touch e =
        t.seq <- t.seq + 1;
        e.used_seq <- t.seq;
        e.last_used_ns <- now
      in
      match sq.Protocol.sq_op with
      | Protocol.S_open { cfg; _ } ->
        if Hashtbl.length t.tbl >= t.cap then evict_lru_locked t;
        let sid = "s" ^ string_of_int t.next_id in
        t.next_id <- t.next_id + 1;
        let e =
          { sid;
            emu = Mutex.create ();
            cv = Condition.create ();
            state = Unopened { cfg };
            next_ticket = 1;
            turn = 0;
            final_ticket = -1;
            used_seq = 0;
            last_used_ns = now }
        in
        touch e;
        Hashtbl.add t.tbl sid e;
        { tab = t; sreq = sq; target = T_entry (e, 0) }
      | _ -> (
        match Hashtbl.find_opt t.tbl sq.Protocol.sq_sid with
        | None -> { tab = t; sreq = sq; target = T_unknown }
        | Some e ->
          touch e;
          let ticket = e.next_ticket in
          e.next_ticket <- ticket + 1;
          (match sq.Protocol.sq_op with
          | Protocol.S_close ->
            (* unbind the name now: later lines deterministically see
               "unknown session" whether or not the close has executed *)
            Hashtbl.remove t.tbl sq.Protocol.sq_sid;
            Mutex.protect e.emu (fun () -> e.final_ticket <- e.next_ticket)
          | _ -> ());
          { tab = t; sreq = sq; target = T_entry (e, ticket) }))

(* --- op execution (worker side) ------------------------------------------ *)

let splice buf ~at ~del ~ins =
  let n = String.length buf in
  if at > n then Error (Fmt.str "edit position %d beyond buffer length %d" at n)
  else if at + del > n then
    Error (Fmt.str "edit deletes %d bytes at %d beyond buffer length %d" del at n)
  else
    Ok (String.sub buf 0 at ^ ins ^ String.sub buf (at + del) (n - at - del))

let ok_response ?id ~verdict ~engine_used ~artifact_cache ~dur_ns () =
  { Protocol.rid = id;
    outcome = Ok verdict;
    engine_used;
    artifact_cache;
    result_cache = `None;
    dur_ns }

(* the from-scratch oracle: --paranoid re-parses the whole buffer with a
   pooled scratch and cross-checks acceptance (and the tree, on parse) *)
let paranoid_check artifact ~buf ~accept ~tree =
  Registry.with_scratch artifact (fun sc ->
      let ch =
        Earley.run_compiled ~scratch:sc.Registry.es artifact.Registry.earley buf
      in
      let accept' = Earley.accepts ch in
      let tree' =
        if accept' && tree <> None then
          Option.map Exec.tree_string (Earley.parse_tree ch)
        else None
      in
      if accept <> accept' then
        Error
          (Fmt.str "paranoid: incremental accept=%b, from-scratch accept=%b"
             accept accept')
      else if tree <> None && tree <> tree' then
        Error "paranoid: incremental tree differs from from-scratch tree"
      else Ok ())

(* runs with the turn held; must not raise except through [Fun.protect]
   in [exec] (the turn still advances, so the session stays live) *)
let run_op t e (sq : Protocol.session_req) ~deadline_ns ~t0 =
  let id = sq.Protocol.sq_id in
  let timeout () =
    { (Protocol.timeout ?id
         ~after_ms:(Option.value sq.Protocol.sq_timeout_ms ~default:0.) ())
      with dur_ns = Clock.now_ns () -. t0 }
  in
  let finish verdict ~artifact_cache =
    let dur_ns = Clock.now_ns () -. t0 in
    Exec.observe_latency ~engine_used:"session" dur_ns;
    ok_response ?id ~verdict ~engine_used:"session" ~artifact_cache ~dur_ns ()
  in
  (* zero/expired budget: deterministic timeout before any state change,
     exactly like queue expiry and Exec.run_once's entry check *)
  if
    (match sq.Protocol.sq_timeout_ms with Some ms -> ms <= 0. | None -> false)
    || match deadline_ns with Some d -> Clock.now_ns () > d | None -> false
  then timeout ()
  else
    match (e.state, sq.Protocol.sq_op) with
    | Unopened { cfg }, Protocol.S_open _ ->
      let artifact, hm =
        Registry.get ?trace:sq.Protocol.sq_trace t.registry cfg
      in
      let bundle = Registry.take_scratch artifact in
      let es =
        Earley.session ~scratch:bundle.Registry.es artifact.Registry.earley
      in
      e.state <- Opened { artifact; bundle; es };
      Probe.bump c_opened;
      finish
        (Protocol.Session_opened { sid = e.sid })
        ~artifact_cache:(hm :> [ `Hit | `Miss | `None ])
    | (Unopened _ | Dead), _ ->
      Protocol.bad_request ?id (Fmt.str "session %S is not open" e.sid)
    | Opened _, Protocol.S_open _ ->
      (* unreachable: open is always ticket 0 of a fresh entry *)
      Protocol.bad_request ?id "session already open"
    | Opened { artifact; es; _ }, op -> (
      let answer ?(tree = false) buf =
        let poll = Exec.make_poll deadline_ns in
        let feed () =
          let ch = Earley.feed ?poll es buf in
          Probe.add c_reused_sets (Earley.session_reused es);
          let accept = Earley.accepts ch in
          let tr =
            if accept && tree then
              Option.map Exec.tree_string (Earley.parse_tree ?poll ch)
            else None
          in
          (accept, tr)
        in
        match
          match sq.Protocol.sq_trace with
          | None -> feed ()
          | Some tr ->
            Trace.stamp_engine_start tr;
            Fun.protect ~finally:(fun () -> Trace.stamp_engine_end tr) feed
        with
        | accept, tr ->
          let verdict =
            Protocol.Session_state
              { len = String.length buf; accept; tree = tr }
          in
          if t.paranoid then
            match paranoid_check artifact ~buf ~accept ~tree:tr with
            | Ok () -> finish verdict ~artifact_cache:`None
            | Error msg -> Protocol.bad_request ?id msg
          else finish verdict ~artifact_cache:`None
        | exception Exec.Deadline -> timeout ()
      in
      match op with
      | Protocol.S_open _ -> assert false
      | Protocol.S_append { chunk } ->
        let buf = Earley.session_text es in
        if String.length buf + String.length chunk > t.max_buf then
          Protocol.bad_request ?id
            (Fmt.str "session buffer would exceed %d bytes" t.max_buf)
        else answer (buf ^ chunk)
      | Protocol.S_edit { at; del; ins } -> (
        let buf = Earley.session_text es in
        match splice buf ~at ~del ~ins with
        | Error msg -> Protocol.bad_request ?id msg
        | Ok buf' ->
          if String.length buf' > t.max_buf then
            Protocol.bad_request ?id
              (Fmt.str "session buffer would exceed %d bytes" t.max_buf)
          else answer buf')
      | Protocol.S_query { q } ->
        answer ~tree:(q = Protocol.Parse) (Earley.session_text es)
      | Protocol.S_close ->
        Probe.bump c_closed;
        finish (Protocol.Session_closed { sid = e.sid }) ~artifact_cache:`None)

let exec ?deadline_ns r =
  match r.target with
  | T_unknown ->
    Protocol.bad_request ?id:r.sreq.Protocol.sq_id
      (Fmt.str "unknown session %S" r.sreq.Protocol.sq_sid)
  | T_entry (e, ticket) ->
    let t0 = Clock.now_ns () in
    let deadline_ns =
      match (deadline_ns, r.sreq.Protocol.sq_timeout_ms) with
      | (Some _ as d), _ -> d
      | None, Some ms -> Some (t0 +. (ms *. 1e6))
      | None, None -> None
    in
    Mutex.lock e.emu;
    while e.turn <> ticket do
      Condition.wait e.cv e.emu
    done;
    Fun.protect
      ~finally:(fun () ->
        advance_locked e;
        Mutex.unlock e.emu)
      (fun () -> run_op r.tab e r.sreq ~deadline_ns ~t0)

(* close every live session and return its scratch — shutdown hygiene so
   the fd/scratch gates can assert a clean end state *)
let close_all t =
  let entries =
    Mutex.protect t.mu (fun () ->
        let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [] in
        List.iter (fun e -> Hashtbl.remove t.tbl e.sid) es;
        es)
  in
  List.iter detach_locked entries
