module Probe = Lambekd_telemetry.Probe
module Ev = Lambekd_telemetry.Event

let c_items = Probe.counter "earley.items"
let c_completed = Probe.counter "earley.completed"
let c_leo_items = Probe.counter "earley.leo_items"
let c_leo_uses = Probe.counter "earley.leo_uses"

(* An Earley item (production, dot position, origin) is packed into one
   int — [((origin * nprods) + prod) * maxdot + dot] — so the chart is a
   flat int array, membership hashes a word instead of walking a record,
   and advancing the dot is [enc + 1].  Completed constituents (origin,
   end, production) pack the same way.  {!parse_tree}'s memo tables are
   int-keyed with an inline multiplicative hash: no generic-hash C call
   per probe. *)
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

   All per-run storage lives in flat int arrays that grow by doubling
   and are never shrunk, so a warm scratch serves a request without
   allocating.  Sets are laid out one after another:

   - [items]: every set's items, contiguous; set [p] is
     [set_lo.(p) .. set_lo.(p+1) - 1].  The open set's unprocessed tail
     is the FIFO work list.  Items scanned into [p+1] wait in [next]
     until that set opens.
   - [whead]/[wnext]: the waiting index.  [whead.(p * nnts + nt)] is the
     newest item of set [p] awaiting [nt] (-1 none), [wnext] chains the
     older ones, parallel to [items].
   - [facts]: completed (origin * nprods + prod) constituents, set [p]'s
     at [fact_lo.(p) ..], sorted when the set closes.
   - [uses]: Leo shortcut uses (origin * nnts + nt), set [p]'s at
     [use_lo.(p) ..].
   - [leo]: the Leo memo per (set, nt), see [run_core].
   - [h_idx]/[h_gen]: membership of the open set only — open addressing
     over item indices, a slot live iff its stamp is the current [gen],
     so opening a set clears the table in O(1).

   A set's [whead]/[leo] rows are cleared when it opens, so a run never
   reads another run's rows and a stride change (another grammar took
   the scratch) needs no relayout.  A scratch belongs to exactly one run
   at a time (the service pools them per artifact); the returned chart
   aliases it, so a chart is only valid until the scratch's next run. *)

type scratch = {
  mutable items : int array;
  mutable wnext : int array;
  mutable n_items : int;
  mutable set_lo : int array;
  mutable facts : int array;
  mutable n_facts : int;
  mutable fact_lo : int array;
  mutable uses : int array;
  mutable n_uses : int;
  mutable use_lo : int array;
  mutable whead : int array;
  mutable leo : int array;
  mutable next : int array;
  mutable n_next : int;
  mutable h_idx : int array;
  mutable h_gen : int array;
  mutable h_bits : int;
  mutable gen : int;
}

let scratch () =
  { items = [||];
    wnext = [||];
    n_items = 0;
    set_lo = [||];
    facts = [||];
    n_facts = 0;
    fact_lo = [||];
    uses = [||];
    n_uses = 0;
    use_lo = [||];
    whead = [||];
    leo = [||];
    next = [||];
    n_next = 0;
    h_idx = Array.make 64 0;
    h_gen = Array.make 64 0;
    h_bits = 6;
    gen = 0 }

let scratch_positions sc = Array.length sc.set_lo

(* [a] with room for [need] entries: doubled (at least) when short *)
let reserve a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (max 64 (2 * Array.length a))) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Keep sets [0..keep] (none for [keep = -1]) and drop every set above
   by moving the fill marks back to the end of set [keep]; make room for
   the per-position arrays of an [n]-character input. *)
let truncate sc ~n ~nnts ~keep =
  sc.set_lo <- reserve sc.set_lo (n + 2);
  sc.fact_lo <- reserve sc.fact_lo (n + 2);
  sc.use_lo <- reserve sc.use_lo (n + 2);
  sc.whead <- reserve sc.whead ((n + 1) * nnts);
  sc.leo <- reserve sc.leo ((n + 1) * nnts);
  if keep < 0 then begin
    sc.set_lo.(0) <- 0;
    sc.fact_lo.(0) <- 0;
    sc.use_lo.(0) <- 0
  end;
  sc.n_items <- sc.set_lo.(keep + 1);
  sc.n_facts <- sc.fact_lo.(keep + 1);
  sc.n_uses <- sc.use_lo.(keep + 1);
  sc.n_next <- 0

(* Fibonacci hashing: the top [h_bits] bits of the product, so items
   differing only in their origin (a multiple of nprods * maxdot) still
   spread *)
let slot_of sc enc = (enc * 0x278DDE6E5FD29F05) lsr (63 - sc.h_bits)

(* The slot holding [enc] in the open set's table, or the free slot
   where it belongs. *)
let find_slot sc enc =
  let mask = (1 lsl sc.h_bits) - 1 in
  let h = ref (slot_of sc enc) in
  while
    sc.h_gen.(!h) = sc.gen && sc.items.(sc.h_idx.(!h)) <> enc
  do
    h := (!h + 1) land mask
  done;
  !h

(* Rehash the open set (items [lo .. n_items - 1]) into a table twice as
   large. *)
let grow_table sc lo =
  sc.h_bits <- sc.h_bits + 1;
  sc.h_idx <- Array.make (1 lsl sc.h_bits) 0;
  sc.h_gen <- Array.make (1 lsl sc.h_bits) 0;
  for i = lo to sc.n_items - 1 do
    let h = find_slot sc sc.items.(i) in
    sc.h_gen.(h) <- sc.gen;
    sc.h_idx.(h) <- i
  done

(* Index of [enc] in the open set, or -1. *)
let index_of sc enc =
  let h = find_slot sc enc in
  if sc.h_gen.(h) = sc.gen then sc.h_idx.(h) else -1

(* In-place heapsort of [a.(lo .. hi - 1)]. *)
let sort_slice a lo hi =
  let swap i j =
    let t = a.(lo + i) in
    a.(lo + i) <- a.(lo + j);
    a.(lo + j) <- t
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c =
        if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l
      in
      if a.(lo + c) > a.(lo + i) then begin
        swap i c;
        sift c len
      end
    end
  in
  let len = hi - lo in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for e = len - 1 downto 1 do
    swap 0 e;
    sift 0 e
  done

(* Is [key] among the sorted [a.(lo .. hi - 1)]? *)
let bsearch a key lo hi =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) lsr 1 in
    if a.(mid) < key then l := mid + 1 else h := mid
  done;
  !l < hi && a.(!l) = key

(* --- charts --------------------------------------------------------------

   One recognizer run: the scratch it aliases, whose sets 0..n are
   final. *)
type chart = {
  comp : compiled;
  input : string;
  sc : scratch;
  mutable skipped : unit IntTbl.t option array;
      (* per end position: the facts Leo shortcuts skipped, see
         [skipped_at] *)
}

(* Is (origin, end = pos, production) a completed constituent that the
   recognizer recorded?  The constituent's nonterminal is implied by the
   production. *)
let fact ch origin pos prod =
  let sc = ch.sc in
  bsearch sc.facts
    ((origin * ch.comp.nprods) + prod)
    sc.fact_lo.(pos) sc.fact_lo.(pos + 1)

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
   recoverable: every shortcut records its (origin, nonterminal) at its
   end position, the chain's links are the unique awaiters, and
   {!parse_tree} re-walks them.  {!accepts} does not need to: the memo
   also records whether a chain completes the start symbol from origin 0.

   The position loop is shared by one-shot runs and session feeds.  The
   scratch has been truncated to sets [0..keep]; with none kept the run
   seeds the initial predictions, otherwise it re-scans the retained set
   [keep] over the (possibly new) character at [keep] to seed set
   [keep+1] — which receives items only through scans from set [keep],
   so that is exactly the fresh run's contribution and the loop
   regenerates the rest. *)
let run_core ~indexed ~leo ?poll comp sc w ~keep ~peak =
  let n = String.length w in
  let { nprods; maxdot; nnts; rhs_len; term_at; await_at; lhs_id; preds;
        nullable_nt; start_nt; _ } =
    comp
  in
  let pm = nprods * maxdot in
  let encode origin prod dot = (((origin * nprods) + prod) * maxdot) + dot in
  (* add [enc] to the open set [pos] (which starts at item [lo]) unless
     present *)
  let add pos lo enc =
    let h = find_slot sc enc in
    if sc.h_gen.(h) <> sc.gen then begin
      Probe.bump c_items;
      let i = sc.n_items in
      if i = Array.length sc.items then begin
        sc.items <- reserve sc.items (i + 1);
        sc.wnext <- reserve sc.wnext (i + 1)
      end;
      sc.items.(i) <- enc;
      sc.n_items <- i + 1;
      sc.h_gen.(h) <- sc.gen;
      sc.h_idx.(h) <- i;
      if 2 * (i + 1 - lo) > 1 lsl sc.h_bits then grow_table sc lo;
      if indexed then begin
        let aw = await_at.(enc mod pm) in
        if aw >= 0 then begin
          let row = (pos * nnts) + aw in
          sc.wnext.(i) <- sc.whead.(row);
          sc.whead.(row) <- i
        end
      end
    end
  in
  let scan enc =
    let j = sc.n_next in
    if j = Array.length sc.next then sc.next <- reserve sc.next (j + 1);
    sc.next.(j) <- enc;
    sc.n_next <- j + 1
  in
  (* Leo memo for (set k, nonterminal b): 0 not yet computed, else
     [((top + 2) lsl 1) lor accept] — [top] the topmost transitive item
     (-1 none), [accept] whether the chain's skipped completions include
     a start-symbol constituent from origin 0.  The in-progress slot is
     pre-set to "none", so a re-entrant read (only possible through
     degenerate unit cycles) conservatively falls back to regular
     completion, which terminates by chart dedup.  The chain's link is
     the set's unique awaiter of [b], so it needs no slot of its own. *)
  let rec leo_of k b =
    let idx = (k * nnts) + b in
    let v = sc.leo.(idx) in
    if v <> 0 then (v lsr 1) - 2
    else begin
      sc.leo.(idx) <- 2;
      let link = sc.whead.(idx) in
      let enc =
        if link >= 0 && sc.wnext.(link) < 0 then sc.items.(link) else -1
      in
      let prod = if enc >= 0 then enc mod pm / maxdot else 0 in
      let v =
        if enc < 0 || (enc mod maxdot) + 1 <> rhs_len.(prod) then 2
          (* no unique awaiter, or b is not its final symbol *)
        else begin
          let o = enc / pm and a = lhs_id.(prod) in
          let own = if o = 0 && a = start_nt then 1 else 0 in
          let t = leo_of o a in
          if t >= 0 && t <> enc + 1 then
            ((t + 2) lsl 1) lor own lor (sc.leo.((o * nnts) + a) land 1)
          else ((enc + 3) lsl 1) lor own
        end
      in
      if v > 3 then Probe.bump c_leo_items;
      sc.leo.(idx) <- v;
      (v lsr 1) - 2
    end
  in
  let open_set pos =
    let lo = sc.n_items in
    sc.set_lo.(pos) <- lo;
    sc.gen <- sc.gen + 1;
    Array.fill sc.whead (pos * nnts) nnts (-1);
    Array.fill sc.leo (pos * nnts) nnts 0;
    if Probe.enabled () then peak := max !peak sc.n_next;
    let m = sc.n_next in
    sc.n_next <- 0;
    for j = 0 to m - 1 do
      add pos lo sc.next.(j)
    done;
    lo
  in
  let close_set pos =
    sort_slice sc.facts sc.fact_lo.(pos) sc.n_facts;
    sc.set_lo.(pos + 1) <- sc.n_items;
    sc.fact_lo.(pos + 1) <- sc.n_facts;
    sc.use_lo.(pos + 1) <- sc.n_uses
  in
  if keep < 0 then begin
    if start_nt >= 0 then
      Array.iter (fun i -> scan (encode 0 i 0)) preds.(start_nt)
  end
  else if keep < n then begin
    let c = Char.code w.[keep] in
    for i = sc.set_lo.(keep) to sc.set_lo.(keep + 1) - 1 do
      let enc = sc.items.(i) in
      if term_at.(enc mod pm) = c then scan (enc + 1)
    done
  end;
  let rec loop pos =
    let lo = open_set pos in
    let head = ref lo in
    while !head < sc.n_items do
      (match poll with Some p -> p () | None -> ());
      let me = !head in
      incr head;
      let enc = sc.items.(me) in
      let slot = enc mod pm in
      let dot = slot mod maxdot in
      let prod = slot / maxdot in
      let origin = enc / pm in
      if dot >= rhs_len.(prod) then begin
        (* complete *)
        Probe.bump c_completed;
        let f = sc.n_facts in
        if f = Array.length sc.facts then sc.facts <- reserve sc.facts (f + 1);
        sc.facts.(f) <- (origin * nprods) + prod;
        sc.n_facts <- f + 1;
        let b = lhs_id.(prod) in
        if indexed then begin
          let top = if leo && origin < pos then leo_of origin b else -1 in
          if top >= 0 then begin
            Probe.bump c_leo_uses;
            let u = sc.n_uses in
            if u = Array.length sc.uses then sc.uses <- reserve sc.uses (u + 1);
            sc.uses.(u) <- (origin * nnts) + b;
            sc.n_uses <- u + 1;
            add pos lo top
          end
          else begin
            (* the chain read starts from a snapshot of its head:
               parents registered during these adds are same-position
               items awaiting a nullable nonterminal, covered by the
               static advance at their pop *)
            let p = ref sc.whead.((origin * nnts) + b) in
            while !p >= 0 do
              add pos lo (sc.items.(!p) + 1);
              p := sc.wnext.(!p)
            done
          end
        end
        else begin
          (* seed behaviour, kept as the bench baseline: scan every item
             of the origin chart and test its next symbol *)
          let hi =
            if origin = pos then sc.n_items else sc.set_lo.(origin + 1)
          in
          for i = sc.set_lo.(origin) to hi - 1 do
            let parent = sc.items.(i) in
            let ps = parent mod pm in
            if
              ps mod maxdot < rhs_len.(ps / maxdot) && await_at.(ps) = b
            then add pos lo (parent + 1)
          done
        end
      end
      else begin
        let t = term_at.(slot) in
        if t >= 0 then begin
          if pos < n && Char.code (String.unsafe_get w pos) = t then
            scan (enc + 1)
        end
        else
          let m = await_at.(slot) in
          if m >= 0 then begin
            Array.iter (fun i -> add pos lo (encode pos i 0)) preds.(m);
            if indexed then begin
              (* nullable-aware prediction: advance over a nullable
                 nonterminal directly *)
              if nullable_nt.(m) then add pos lo (enc + 1)
            end
            else if
              (* seed: if m has already been completed over (pos, pos) —
                 ε — advance; its completed item was popped before this
                 one iff it sits earlier in the set *)
              Array.exists
                (fun i ->
                  let c = index_of sc (encode pos i rhs_len.(i)) in
                  c >= 0 && c < me)
                preds.(m)
            then add pos lo (enc + 1)
          end
      end
    done;
    close_set pos;
    if sc.n_items > lo then (if pos < n then loop (pos + 1))
    else
      (* an empty set scans nothing, so every later set is empty too *)
      for p = pos + 2 to n + 1 do
        sc.set_lo.(p) <- sc.n_items;
        sc.fact_lo.(p) <- sc.n_facts;
        sc.use_lo.(p) <- sc.n_uses
      done
  in
  if keep < n then loop (keep + 1)

let chart_of comp sc w =
  { comp; input = w; sc; skipped = [||] }

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
  let sc = match sc with Some sc -> sc | None -> scratch () in
  truncate sc ~n:(String.length w) ~nnts:comp.nnts ~keep:(-1);
  run_core ~indexed ~leo ?poll comp sc w ~keep:(-1) ~peak;
  chart_items := sc.n_items;
  chart_of comp sc w

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
   including the Leo memos and waiting chains over those positions,
   which depend only on sets at or below their own index.  {!feed}
   truncates everything above the reuse point, re-scans the boundary set
   over the new character, and resumes the ordinary position loop, so
   an append costs only the new sets.

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
  mutable ss_reused : int;  (* sets kept by the most recent feed *)
}

let session ?scratch:sc comp =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  { ss_comp = comp; ss_sc = sc; ss_buf = ""; ss_valid = -1; ss_reused = 0 }

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
      (* eight bytes a compare, then byte by byte *)
      while
        !i + 8 <= m
        && (String.get_int64_ne old !i : int64) = String.get_int64_ne w !i
      do
        i := !i + 8
      done;
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
  truncate sc ~n ~nnts:comp.nnts ~keep;
  let before = sc.n_items in
  run_core ~indexed:true ~leo:true ?poll comp sc w ~keep ~peak;
  chart_items := sc.n_items - before;
  s.ss_valid <- n;
  chart_of comp sc w

let accepts ch =
  let { comp; sc; input; _ } = ch in
  let n = String.length input in
  (* a start-production fact over (0, n) is either recorded at [n] or
     inside a chain a Leo shortcut ending at [n] skipped, which the
     memo's accept bit answers without walking the chain *)
  comp.start_nt >= 0
  && (Array.exists (fun i -> fact ch 0 n i) comp.preds.(comp.start_nt)
     ||
     let rec any u =
       u < sc.use_lo.(n + 1)
       && (sc.leo.(sc.uses.(u)) land 1 = 1 || any (u + 1))
     in
     any sc.use_lo.(n))

let size ch = ch.sc.set_lo.(String.length ch.input + 1)

(* Leo expansion for {!parse_tree}: the completed-constituent facts the
   shortcuts ending at [pos] skipped, keyed (origin * nprods + prod).  A
   chain node (k, b) has the unique awaiter [A → α • B, o] of set [k] as
   its link; its advance completes A over (o, pos).  The walk continues
   exactly while the memoized topmost lies strictly above the link's own
   advance.  Built on the first query at [pos] and kept on the chart: a
   derivation walk only asks about the end positions of its
   constituents, so a right-recursive chart never pays for the chains
   of positions no constituent ends at. *)
let skipped_at ch pos =
  if Array.length ch.skipped = 0 then
    ch.skipped <- Array.make (String.length ch.input + 1) None;
  match ch.skipped.(pos) with
  | Some t -> t
  | None ->
    let { nprods; maxdot; nnts; lhs_id; _ } = ch.comp in
    let sc = ch.sc in
    let pm = nprods * maxdot in
    let t = IntTbl.create 16 and seen = IntTbl.create 16 in
    let rec walk idx =
      if not (IntTbl.mem seen idx) then begin
        IntTbl.add seen idx ();
        let link = sc.items.(sc.whead.(idx)) in
        let o = link / pm and prod = link mod pm / maxdot in
        IntTbl.replace t ((o * nprods) + prod) ();
        if (sc.leo.(idx) lsr 1) - 2 <> link + 1 then
          walk ((o * nnts) + lhs_id.(prod))
      end
    in
    for u = sc.use_lo.(pos) to sc.use_lo.(pos + 1) - 1 do
      walk sc.uses.(u)
    done;
    ch.skipped.(pos) <- Some t;
    t

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
  let c = ch.comp and w = ch.input in
  let n = String.length w in
  let { facts; fact_lo; use_lo; _ } = ch.sc in
  let fact i j pi =
    let key = (i * c.nprods) + pi in
    bsearch facts key fact_lo.(j) fact_lo.(j + 1)
    || (use_lo.(j) < use_lo.(j + 1) && IntTbl.mem (skipped_at ch j) key)
  in
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
              if fact i j pi then
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
