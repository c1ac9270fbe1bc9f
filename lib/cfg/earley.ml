module Probe = Lambekd_telemetry.Probe
module Ev = Lambekd_telemetry.Event

let c_items = Probe.counter "earley.items"
let c_completed = Probe.counter "earley.completed"
let c_leo_items = Probe.counter "earley.leo_items"
let c_leo_uses = Probe.counter "earley.leo_uses"

(* An Earley item (production, dot position, origin) is packed into one
   int — [((origin * nprods) + prod) * maxdot + dot] — so chart and queue
   membership hash a word instead of walking a record, and advancing the
   dot is [enc + 1].  Completed constituents (origin, end, production)
   pack the same way.  The tables are int-keyed with an inline
   multiplicative hash: no generic-hash C call per probe. *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x01000193) land max_int
end)

(* --- compiled grammars ---------------------------------------------------

   Everything [run] needs that depends only on the grammar — dense
   nonterminal ids, per-(production, dot) symbol tables, prediction
   lists, the nullable set — computed once.  The service registry owns
   one [compiled] per artifact so the per-request cost is the chart
   walk, not grammar preprocessing. *)

type compiled = {
  cfg : Cfg.t;
  nprods : int;
  maxdot : int;  (** 1 + longest right-hand side *)
  nnts : int;  (** dense nonterminal ids: 0 .. nnts-1 *)
  rhs_len : int array;  (** production -> |rhs| *)
  term_at : int array;
      (** (prod * maxdot + dot) -> terminal char code, or -1 *)
  await_at : int array;
      (** (prod * maxdot + dot) -> awaited nonterminal id, or -1 *)
  lhs_id : int array;  (** production -> nonterminal id of its lhs *)
  preds : int array array;  (** nonterminal id -> its production indices *)
  nullable_nt : bool array;  (** nonterminal id -> derives ε? *)
  start_nt : int;
}

let compile (cfg : Cfg.t) =
  let prods = cfg.Cfg.productions in
  let nprods = Array.length prods in
  let rhs_arr = Array.map (fun p -> Array.of_list p.Cfg.rhs) prods in
  let maxdot =
    1 + Array.fold_left (fun m r -> max m (Array.length r)) 0 rhs_arr
  in
  let nt_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      if not (Hashtbl.mem nt_tbl p.Cfg.lhs) then
        Hashtbl.add nt_tbl p.Cfg.lhs (Hashtbl.length nt_tbl))
    prods;
  let nnts = Hashtbl.length nt_tbl in
  let lhs_id = Array.map (fun p -> Hashtbl.find nt_tbl p.Cfg.lhs) prods in
  let rhs_len = Array.map Array.length rhs_arr in
  let term_at = Array.make (nprods * maxdot) (-1) in
  let await_at = Array.make (nprods * maxdot) (-1) in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun d sym ->
          match sym with
          | Cfg.T c -> term_at.((i * maxdot) + d) <- Char.code c
          | Cfg.N m -> (
            (* a nonterminal without productions keeps -1: nothing can
               ever complete it, so the item is simply never advanced *)
            match Hashtbl.find_opt nt_tbl m with
            | Some id -> await_at.((i * maxdot) + d) <- id
            | None -> ()))
        r)
    rhs_arr;
  let buckets = Array.make nnts [] in
  Array.iteri (fun i _ -> buckets.(lhs_id.(i)) <- i :: buckets.(lhs_id.(i))) prods;
  let preds = Array.map (fun l -> Array.of_list (List.rev l)) buckets in
  let nl = Nullable.compute cfg in
  let nullable_nt = Array.make nnts false in
  Hashtbl.iter
    (fun name id -> nullable_nt.(id) <- Nullable.mem nl name)
    nt_tbl;
  let start_nt =
    match Hashtbl.find_opt nt_tbl cfg.Cfg.start with
    | Some id -> id
    | None -> -1 (* unreachable: Cfg.make validates the start symbol *)
  in
  { cfg; nprods; maxdot; nnts; rhs_len; term_at; await_at; lhs_id; preds;
    nullable_nt; start_nt }

(* --- reusable scratch ----------------------------------------------------

   All per-run storage, reusable across runs: chart hash tables keep
   their bucket arrays across [IntTbl.clear], the flat waiting/Leo
   arrays and the two work queues are grow-only.  A scratch belongs to
   exactly one run at a time (the service pools one per worker domain);
   the returned chart aliases its tables, so a chart is only valid until
   the scratch's next run. *)

type scratch = {
  mutable s_charts : unit IntTbl.t array;
  mutable s_compl : unit IntTbl.t array;
      (** per end position: completed (origin * nprods + prod) facts *)
  mutable s_uses : (int * int) list array;
      (** per end position: (origin, nt id) Leo shortcut uses *)
  mutable s_waiting : int list array;  (** flat (pos * nnts + nt) *)
  mutable s_leo_top : int array;  (** 0 unknown, 1 none, enc+2 topmost *)
  mutable s_leo_link : int array;  (** 0 none, enc+2 the unique awaiter *)
  s_qa : int Queue.t;
  s_qb : int Queue.t;
  mutable s_nnts : int;  (** stride the flat arrays were laid out for *)
  mutable s_used : int;  (** position slots dirtied by the last run *)
}

let scratch () =
  { s_charts = [||];
    s_compl = [||];
    s_uses = [||];
    s_waiting = [||];
    s_leo_top = [||];
    s_leo_link = [||];
    s_qa = Queue.create ();
    s_qb = Queue.create ();
    s_nnts = 0;
    s_used = 0 }

let grow_tables arr slots =
  let old = Array.length arr in
  if old >= slots then arr
  else Array.init slots (fun i -> if i < old then arr.(i) else IntTbl.create 16)

(* Reset-and-grow.  The dirty region of the previous run is bounded by
   [s_used] × [s_nnts]; if the stride changed (a different grammar took
   the scratch) the flat arrays are relaid instead of cleared, because a
   stale entry under a new stride would land at a valid index. *)
let prepare sc ~slots ~nnts =
  let old = Array.length sc.s_charts in
  for i = 0 to min sc.s_used old - 1 do
    IntTbl.clear sc.s_charts.(i);
    IntTbl.clear sc.s_compl.(i);
    sc.s_uses.(i) <- []
  done;
  if old < slots then begin
    sc.s_charts <- grow_tables sc.s_charts slots;
    sc.s_compl <- grow_tables sc.s_compl slots;
    sc.s_uses <-
      Array.init slots (fun i ->
          if i < old then sc.s_uses.(i) else [])
  end;
  let need = slots * nnts in
  if sc.s_nnts <> nnts || Array.length sc.s_waiting < need then begin
    let cap = max need (Array.length sc.s_waiting) in
    sc.s_waiting <- Array.make cap [];
    sc.s_leo_top <- Array.make cap 0;
    sc.s_leo_link <- Array.make cap 0;
    sc.s_nnts <- nnts
  end
  else begin
    let dirty = min (sc.s_used * nnts) (Array.length sc.s_waiting) in
    Array.fill sc.s_waiting 0 dirty [];
    Array.fill sc.s_leo_top 0 dirty 0;
    Array.fill sc.s_leo_link 0 dirty 0
  end;
  Queue.clear sc.s_qa;
  Queue.clear sc.s_qb;
  sc.s_used <- slots

(* Suffix reset for incremental re-parses: chart sets [0..keep] stay
   live, everything above is cleared (tables, waiting/Leo rows), then
   the arrays grow to [slots].  Only valid when the stride is unchanged
   — a session owns its scratch, so it always is.  Returns the number
   of chart items dropped. *)
let invalidate_suffix sc ~slots ~nnts ~keep =
  let old_used = sc.s_used in
  let removed = ref 0 in
  let hi = min old_used (Array.length sc.s_charts) in
  for i = keep + 1 to hi - 1 do
    removed := !removed + IntTbl.length sc.s_charts.(i);
    IntTbl.clear sc.s_charts.(i);
    IntTbl.clear sc.s_compl.(i);
    sc.s_uses.(i) <- []
  done;
  let old = Array.length sc.s_charts in
  if old < slots then begin
    sc.s_charts <- grow_tables sc.s_charts slots;
    sc.s_compl <- grow_tables sc.s_compl slots;
    sc.s_uses <-
      Array.init slots (fun i -> if i < old then sc.s_uses.(i) else [])
  end;
  let lo = (keep + 1) * nnts in
  let fhi = min (old_used * nnts) (Array.length sc.s_waiting) in
  if fhi > lo then begin
    Array.fill sc.s_waiting lo (fhi - lo) [];
    Array.fill sc.s_leo_top lo (fhi - lo) 0;
    Array.fill sc.s_leo_link lo (fhi - lo) 0
  end;
  let need = slots * nnts in
  if Array.length sc.s_waiting < need then begin
    let cap = max need (2 * Array.length sc.s_waiting) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    sc.s_waiting <- grow sc.s_waiting [];
    sc.s_leo_top <- grow sc.s_leo_top 0;
    sc.s_leo_link <- grow sc.s_leo_link 0
  end;
  Queue.clear sc.s_qa;
  Queue.clear sc.s_qb;
  sc.s_used <- slots;
  !removed

(* --- charts --------------------------------------------------------------

   One recognizer run: the item count, the chart tables (slots 0..n of
   possibly longer scratch-owned arrays), the completed-constituent
   facts, and — under Leo — the reduction memos and the shortcut uses,
   from which {!parse_tree} reconstructs the skipped intermediate
   completions on demand. *)
type chart = {
  comp : compiled;
  input : string;
  charts : unit IntTbl.t array;
  compl : unit IntTbl.t array;
      (* per end position: (origin * nprods + prod) completed facts.
         Keys are independent of the input length, so a retained chart
         prefix stays valid across session edits. *)
  items : int;
  leo_top : int array;
  leo_link : int array;
  uses : (int * int) list array;  (* per end position: (origin, nt id) *)
  mutable expanded : bool;
}

(* Is (origin, end = pos, production) a completed constituent?  The
   constituent's nonterminal is implied by the production. *)
let fact ch origin pos prod =
  IntTbl.mem ch.compl.(pos) ((origin * ch.comp.nprods) + prod)

(* The completer has two implementations:

   - [indexed = true] (default): every enqueued item whose dot is before a
     nonterminal is registered, at its end position, under that awaited
     nonterminal.  Completing (lhs, origin → pos) then advances exactly
     the parents waiting on [lhs] at [origin] — O(matching parents).
     Prediction is nullable-aware: the dot advances over a nullable
     nonterminal immediately (the Aycock–Horspool refinement), so ε-chains
     resolve without same-set completion round-trips.  With [leo] (default
     on), right-recursive completions additionally chain through Leo's
     deterministic-reduction memo in O(1) — see below.

   - [indexed = false]: the seed behaviour, kept as the bench baseline —
     scan {e every} item of the origin chart and test its next symbol,
     which is quadratic in chart width for each completion, with the
     dynamic ε-completion check at prediction time.

   Indexed (Leo off) and scan produce the identical item set: the static
   nullable advance adds [A → α m • β] exactly when the dynamic engine's
   ε-completion of [m] over (pos, pos) would — a nullable nonterminal
   predicted at [pos] always completes there — and the waiting index is
   complete because items are only added to chart [x] while the scan
   position is at [x], so by the time a longer constituent completes
   back into [x] the index over [x] is final.  Same-position completions
   are of nullable nonterminals by definition, so their late-registered
   parents are covered by the static advance.

   Leo's optimization: when set [k] holds {e exactly one} item awaiting
   [B] and that item's dot sits before its final symbol — a deterministic
   reduction [A → α • B, o] — completing [B] over (k, pos) can skip the
   whole reduction chain and enqueue the {e topmost} transitive item
   directly (itself found by chasing the unique-awaiter condition upward
   through (o, A), memoized per (set, nonterminal)).  Right-recursive
   tails then cost O(1) per completion instead of O(chain), and the chart
   stays linear for LR-regular grammars.  The facts a shortcut skips are
   recoverable: every shortcut records its (origin, nonterminal, end),
   and {!expand_walk} re-walks the memoized links to materialize them on
   demand — in full for [parse_tree], and only for the chains ending at
   the last position for [accepts]. *)
(* The position loop shared by one-shot runs and session feeds.  The
   scratch has been prepared (or suffix-invalidated); [start] either
   seeds the initial predictions ([`Fresh]) or re-scans the retained set
   [k] over the (possibly new) character at [k] to seed set [k+1]'s
   queue ([`Rescan k]) — set [k+1] receives items only through scans
   from set [k], so that is exactly the fresh run's contribution and the
   loop regenerates the rest. *)
let run_core ~indexed ~leo ?poll comp sc w ~start ~chart_items ~peak =
  let n = String.length w in
  let { nprods; maxdot; nnts; rhs_len; term_at; await_at; lhs_id; preds;
        nullable_nt; start_nt; _ } =
    comp
  in
  let charts = sc.s_charts in
  let compl = sc.s_compl in
  let uses = sc.s_uses in
  let waiting = sc.s_waiting in
  let leo_top = sc.s_leo_top in
  let leo_link = sc.s_leo_link in
  let encode origin prod dot = (((origin * nprods) + prod) * maxdot) + dot in
  let packc origin prod = (origin * nprods) + prod in
  let enqueue pos enc queue =
    if not (IntTbl.mem charts.(pos) enc) then begin
      Probe.bump c_items;
      incr chart_items;
      IntTbl.add charts.(pos) enc ();
      if indexed then begin
        let dot = enc mod maxdot in
        let prod = enc / maxdot mod nprods in
        let aw = await_at.((prod * maxdot) + dot) in
        if aw >= 0 then
          waiting.((pos * nnts) + aw) <- enc :: waiting.((pos * nnts) + aw)
      end;
      Queue.add enc queue
    end
  in
  (* Leo memo: topmost transitive item for (set k, nonterminal b), or -1.
     Encoded in the flat arrays as value+2 with 0 = not yet computed and
     the in-progress slot pre-set to "none" — a re-entrant read (only
     possible through degenerate unit cycles) then conservatively falls
     back to regular completion, which terminates by chart dedup. *)
  let rec leo_of k b =
    let idx = (k * nnts) + b in
    let v = leo_top.(idx) in
    if v <> 0 then v - 2
    else begin
      leo_top.(idx) <- 1;
      let result =
        match waiting.(idx) with
        | [ enc ] ->
          let dot = enc mod maxdot in
          let pd = enc / maxdot in
          let prod = pd mod nprods in
          let o = pd / nprods in
          if dot + 1 <> rhs_len.(prod) then -1 (* b is not the final symbol *)
          else begin
            leo_link.(idx) <- enc + 2;
            match leo_of o lhs_id.(prod) with
            | t when t >= 0 -> t
            | _ -> enc + 1
          end
        | _ -> -1
      in
      if result >= 0 then Probe.bump c_leo_items;
      leo_top.(idx) <- result + 2;
      result
    end
  in
  let from =
    match start with
    | `Fresh ->
      Array.iter
        (fun i -> enqueue 0 (encode 0 i 0) sc.s_qa)
        (if start_nt >= 0 then preds.(start_nt) else [||]);
      0
    | `Rescan k ->
      if k < n then begin
        let c = Char.code w.[k] in
        let nq = if (k + 1) land 1 = 0 then sc.s_qa else sc.s_qb in
        IntTbl.iter
          (fun enc () ->
            let dot = enc mod maxdot in
            let prod = enc / maxdot mod nprods in
            if term_at.((prod * maxdot) + dot) = c then
              enqueue (k + 1) (enc + 1) nq)
          charts.(k)
      end;
      k + 1
  in
  for pos = from to n do
    (* two queues, swapped per position: scans feed the next one,
       prediction and completion the current one *)
    let queue, next_queue =
      if pos land 1 = 0 then (sc.s_qa, sc.s_qb) else (sc.s_qb, sc.s_qa)
    in
    if Probe.enabled () then peak := max !peak (IntTbl.length charts.(pos));
    while not (Queue.is_empty queue) do
      (match poll with Some p -> p () | None -> ());
      let enc = Queue.pop queue in
      let dot = enc mod maxdot in
      let pd = enc / maxdot in
      let prod = pd mod nprods in
      let origin = pd / nprods in
      if dot >= rhs_len.(prod) then begin
        (* complete *)
        Probe.bump c_completed;
        IntTbl.replace compl.(pos) (packc origin prod) ();
        let b = lhs_id.(prod) in
        if indexed then begin
          let top = if leo && origin < pos then leo_of origin b else -1 in
          if top >= 0 then begin
            Probe.bump c_leo_uses;
            uses.(pos) <- (origin, b) :: uses.(pos);
            enqueue pos top queue
          end
          else
            (* the list read is a snapshot: parents registered during
               these enqueues are same-position items awaiting a nullable
               nonterminal, covered by the static advance at their pop *)
            List.iter
              (fun parent -> enqueue pos (parent + 1) queue)
              waiting.((origin * nnts) + b)
        end
        else
          (* seed behaviour, kept as the bench baseline: scan every item
             of the origin chart and test its next symbol *)
          IntTbl.iter
            (fun parent () ->
              let pdot = parent mod maxdot in
              let pprod = parent / maxdot mod nprods in
              if
                pdot < rhs_len.(pprod)
                && await_at.((pprod * maxdot) + pdot) = b
              then enqueue pos (parent + 1) queue)
            charts.(origin)
      end
      else begin
        let slot = (prod * maxdot) + dot in
        let t = term_at.(slot) in
        if t >= 0 then begin
          if pos < n && Char.code w.[pos] = t then
            enqueue (pos + 1) (enc + 1) next_queue
        end
        else
          let m = await_at.(slot) in
          if m >= 0 then begin
            Array.iter
              (fun i -> enqueue pos (encode pos i 0) queue)
              preds.(m);
            if indexed then begin
              (* nullable-aware prediction: advance over a nullable
                 nonterminal directly *)
              if nullable_nt.(m) then enqueue pos (enc + 1) queue
            end
            else
              (* seed: if m has already been completed over (pos, pos) —
                 ε — advance *)
              Array.iter
                (fun i ->
                  if IntTbl.mem compl.(pos) (packc pos i) then
                    enqueue pos (enc + 1) queue)
                preds.(m)
          end
      end
    done
  done

let chart_of comp sc w ~items =
  { comp;
    input = w;
    charts = sc.s_charts;
    compl = sc.s_compl;
    items;
    leo_top = sc.s_leo_top;
    leo_link = sc.s_leo_link;
    uses = sc.s_uses;
    expanded = false }

let run_compiled ?(indexed = true) ?(leo = true) ?scratch:sc ?poll comp w =
  let leo = leo && indexed in
  let chart_items = ref 0 in
  let peak = ref 0 in
  Probe.with_span "earley.run"
    ~fields:(fun () ->
      [ ("len", Ev.Int (String.length w));
        ("chart_items", Ev.Int !chart_items);
        ("chart_peak", Ev.Int !peak) ])
  @@ fun () ->
  let n = String.length w in
  let sc = match sc with Some sc -> sc | None -> scratch () in
  prepare sc ~slots:(n + 1) ~nnts:comp.nnts;
  run_core ~indexed ~leo ?poll comp sc w ~start:`Fresh ~chart_items ~peak;
  chart_of comp sc w ~items:!chart_items

let run ?indexed ?leo ?poll (cfg : Cfg.t) w =
  run_compiled ?indexed ?leo ?poll (compile cfg) w

(* --- incremental sessions ------------------------------------------------

   A session retains the scratch (and therefore the chart) of its last
   run and re-parses only the suffix affected by an edit.  Earley set
   [p] is fully determined by characters [0..p-1]: prediction and
   completion within a set never read the input, scans {e from} set [p]
   consume character [p] feeding set [p+1], and items are only added to
   chart [x] while the scan position is at [x].  So after replacing the
   buffer with one sharing a prefix of length [lcp], sets
   [0..min lcp valid] are exactly what a from-scratch run would build —
   including the Leo memos and waiting lists over those positions, which
   depend only on sets at or below their own index.  {!feed} clears
   everything above the reuse point, re-scans the boundary set over the
   new character, and resumes the ordinary position loop.

   A feed aborted by [poll] (deadline) leaves the scratch mid-build:
   the session marks itself invalid and the next feed recomputes from
   scratch.  Charts returned by earlier feeds alias the scratch and are
   invalidated by the next feed, exactly like {!run_compiled} with a
   reused scratch. *)

type session = {
  ss_comp : compiled;
  ss_sc : scratch;
  mutable ss_buf : string;
  mutable ss_valid : int;  (* last position with a final chart set; -1 none *)
  mutable ss_items : int;  (* live items across sets 0..ss_valid *)
  mutable ss_reused : int;  (* sets kept by the most recent feed *)
}

let session ?scratch:sc comp =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  { ss_comp = comp;
    ss_sc = sc;
    ss_buf = "";
    ss_valid = -1;
    ss_items = 0;
    ss_reused = 0 }

let session_text s = s.ss_buf
let session_reused s = s.ss_reused

let feed ?poll s w =
  let comp = s.ss_comp in
  let sc = s.ss_sc in
  let n = String.length w in
  let keep =
    if s.ss_valid < 0 then -1
    else begin
      let old = s.ss_buf in
      let m = min (String.length old) n in
      let i = ref 0 in
      while
        !i < m && Char.equal (String.unsafe_get old !i) (String.unsafe_get w !i)
      do
        incr i
      done;
      min !i s.ss_valid
    end
  in
  s.ss_buf <- w;
  s.ss_valid <- -1;
  s.ss_reused <- keep + 1;
  let chart_items = ref 0 in
  let peak = ref 0 in
  Probe.with_span "earley.feed"
    ~fields:(fun () ->
      [ ("len", Ev.Int n);
        ("reused_sets", Ev.Int s.ss_reused);
        ("chart_items", Ev.Int !chart_items) ])
  @@ fun () ->
  if keep < 0 then begin
    prepare sc ~slots:(n + 1) ~nnts:comp.nnts;
    s.ss_items <- 0;
    run_core ~indexed:true ~leo:true ?poll comp sc w ~start:`Fresh
      ~chart_items ~peak
  end
  else begin
    let removed = invalidate_suffix sc ~slots:(n + 1) ~nnts:comp.nnts ~keep in
    s.ss_items <- s.ss_items - removed;
    run_core ~indexed:true ~leo:true ?poll comp sc w ~start:(`Rescan keep)
      ~chart_items ~peak
  end;
  s.ss_items <- s.ss_items + !chart_items;
  s.ss_valid <- n;
  chart_of comp sc w ~items:s.ss_items

(* Leo expansion: re-walk a shortcut's memoized link chain and insert the
   completed-constituent facts the shortcut skipped.  A chain node's
   link is the unique awaiter [A → α • B, o]; its advance completes A
   over (o, end).  The walk continues exactly while the memoized topmost
   lies strictly above the link's own advance. *)
let expand_at ch pos =
  let { nprods; maxdot; nnts; lhs_id; _ } = ch.comp in
  let seen = Hashtbl.create 16 in
  let rec walk k b =
    if not (Hashtbl.mem seen (k, b)) then begin
      Hashtbl.add seen (k, b) ();
      let idx = (k * nnts) + b in
      let link = ch.leo_link.(idx) - 2 in
      if link >= 0 then begin
        let pd = link / maxdot in
        let prod = pd mod nprods in
        let o = pd / nprods in
        IntTbl.replace ch.compl.(pos) ((o * nprods) + prod) ();
        if ch.leo_top.(idx) - 2 <> link + 1 then walk o lhs_id.(prod)
      end
    end
  in
  List.iter (fun (k, b) -> walk k b) ch.uses.(pos)

let expand ch =
  if not ch.expanded then begin
    ch.expanded <- true;
    for pos = 0 to String.length ch.input do
      expand_at ch pos
    done
  end

let accepts ch =
  let n = String.length ch.input in
  (* a start-production fact over (0, n) may sit inside a skipped chain;
     materialize just the chains ending at [n] — bounded by the work the
     classical engine spends on its final item set alone *)
  if not ch.expanded then expand_at ch n;
  ch.comp.start_nt >= 0
  && Array.exists
       (fun i -> fact ch 0 n i)
       ch.comp.preds.(ch.comp.start_nt)

let size ch = ch.items

type tree =
  | Leaf of char
  | Node of string * int * tree list

(* Derivation reconstruction over the completed-constituent facts, with an
   active set to avoid looping through nullable/left-recursive cycles.
   Spans nest, so a cut only hits ancestors over the same span: a [top]
   key (its parent spans a strictly larger range) cannot depend on the
   stack and is memoized per (nt, i, j).  Without the memo every split
   the sequence walk rejects rebuilds the constituent it tried —
   exponential in the nesting depth of left-nested sums. *)
let parse_tree ?poll ch =
  expand ch;
  let c = ch.comp and w = ch.input in
  let n = String.length w in
  let active = IntTbl.create 16 and memo = IntTbl.create 64 in
  let rec build_nt ~top nt i j =
    let key = (((nt * (n + 1)) + i) * (n + 1)) + j in
    match if top then IntTbl.find_opt memo key else None with
    | Some result -> result
    | None ->
      if IntTbl.mem active key then None
      else begin
        (match poll with Some f -> f () | None -> ());
        IntTbl.add active key ();
        let result =
          Array.find_map
            (fun pi ->
              if fact ch i j pi then
                Option.map
                  (fun children ->
                    Node (c.cfg.Cfg.productions.(pi).Cfg.lhs, pi, children))
                  (build_seq i j pi 0 i j)
              else None)
            c.preds.(nt)
        in
        IntTbl.remove active key;
        if top then IntTbl.replace memo key result;
        result
      end
  (* production [pi] from dot [d] over [i, j); [si, sj) is the span of
     the constituent it derives *)
  and build_seq si sj pi d i j =
    let at = (pi * c.maxdot) + d in
    if d = c.rhs_len.(pi) then if i = j then Some [] else None
    else if c.term_at.(at) >= 0 then
      if i < j && Char.code w.[i] = c.term_at.(at) then
        Option.map
          (fun ts -> Leaf w.[i] :: ts)
          (build_seq si sj pi (d + 1) (i + 1) j)
      else None
    else
      let m = c.await_at.(at) in
      let sub k =
        if m < 0 then None else build_nt ~top:(i <> si || k <> sj) m i k
      in
      if d + 1 = c.rhs_len.(pi) then
        (* the final symbol must span exactly to [j]; scanning earlier
           split points would rebuild (and discard) every shorter
           constituent — exponentially, on right-recursive grammars *)
        Option.map (fun t -> [ t ]) (sub j)
      else
        let rec split k =
          if k > j then None
          else
            match sub k with
            | Some t -> (
              match build_seq si sj pi (d + 1) k j with
              | Some ts -> Some (t :: ts)
              | None -> split (k + 1))
            | None -> split (k + 1)
        in
        split i
  in
  if c.start_nt < 0 then None else build_nt ~top:true c.start_nt 0 n

(* One-shot conveniences; callers wanting more than one answer should
   [run] once and interrogate the chart. *)
let recognizes cfg w = accepts (run cfg w)
let chart_size cfg w = size (run cfg w)
let parse cfg w = parse_tree (run cfg w)

let rec tree_yield = function
  | Leaf c -> String.make 1 c
  | Node (_, _, children) -> String.concat "" (List.map tree_yield children)

module P = Lambekd_grammar.Ptree
module I = Lambekd_grammar.Index

let rec tree_to_ptree = function
  | Leaf c -> P.Tok c
  | Node (_, prod, children) ->
    let rec payload = function
      | [] -> P.Eps
      | [ t ] -> tree_to_ptree t
      | t :: rest -> P.Pair (tree_to_ptree t, payload rest)
    in
    P.Roll ("cfg", P.Inj (I.N prod, payload children))
