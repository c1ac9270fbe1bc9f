module Probe = Lambekd_telemetry.Probe
module Ev = Lambekd_telemetry.Event

(* Aggregate counters across all engines; see DESIGN.md §6.
   An "item" is an occurrence of an indexed definition at a span — a [Ref]
   visit, i.e. one probe of the memo [Key] space.  Counting at [Ref] nodes
   only keeps the cheap leaf cases (Chr/Eps/...) probe-free, so the
   disabled-telemetry build measures identically to an uninstrumented one.
   [enum.fixpoint_iters] counts membership solver runs (the seed engine
   bumped it once per full recomputation pass; the worklist solver makes
   one pass plus targeted re-propagations, counted by
   [enum.worklist_pops]). *)
let c_items = Probe.counter "enum.items"
let c_memo_hit = Probe.counter "enum.memo_hit"
let c_memo_miss = Probe.counter "enum.memo_miss"
let c_fix_iters = Probe.counter "enum.fixpoint_iters"
let c_worklist_pops = Probe.counter "enum.worklist_pops"
let c_intern_cutoff = Probe.counter "enum.intern_cutoff"

let len_field s () = [ ("len", Ev.Int (String.length s)) ]

(* Keys identify an occurrence of an indexed definition at a span. *)
module Key = struct
  type t = int * Index.t * int * int

  let equal (d, x, i, j) (d', x', i', j') =
    d = d' && i = i' && j = j' && Index.equal x x'

  (* FNV-style mix without the tuple allocation of [Hashtbl.hash] *)
  let hash (d, x, i, j) =
    let h = (d * 0x01000193) lxor Index.hash x in
    let h = (h * 0x01000193) lxor i in
    (h * 0x01000193) lxor j
end

module Tbl = Hashtbl.Make (Key)

(* The worklist solver keys on the instance's dense [Charsets] uid instead
   of (def, index): one-word hashing and comparison in the hot path. *)
module IKey = struct
  type t = int * int * int

  let equal (u, i, j) (u', i', j') = u = u' && i = i' && j = j'

  let hash (u, i, j) =
    let h = (u * 0x01000193) lxor i in
    (h * 0x01000193) lxor j
end

module ITbl = Hashtbl.Make (IKey)

(* --- enumeration: thin wrappers over the packed chart --------------------- *)

let parses_span g s i j =
  List.of_seq (Chart.enumerate (Chart.build_span g s i j))

let parses g s =
  Probe.with_span "enum.parses" ~fields:(len_field s) (fun () ->
      parses_span g s 0 (String.length s))

let count g s = List.length (parses g s)

let count_fast g s =
  Probe.with_span "enum.count_fast" ~fields:(len_field s) @@ fun () ->
  Chart.count (Chart.build g s)

let first_parse g s = Chart.first_parse (Chart.build g s)

(* --- terminal interning --------------------------------------------------- *)

(* The terminal alphabet of a grammar is tiny and fixed; the input is
   arbitrary bytes.  Interning maps each byte to a dense terminal-class
   id once per grammar (256-entry table, [-1] = not a terminal), so a
   membership run encodes the input to class codes in one O(n) pass and
   the [Chr] hot path compares those ints.  When the walk proves the
   alphabet {e complete} — no [Top] or [Atom] in the definition closure,
   every reachable body resolved within budget — an input byte with no
   class refutes membership outright: the whole solver is skipped
   ([enum.intern_cutoff] counts these). *)
type intern = {
  classes : int array;  (* 256 entries: byte -> class id, -1 = unknown *)
  n_classes : int;
  exact : bool;  (* alphabet is complete: unknown byte => no parse *)
}

(* Bounds the definition-closure walk for pathological instance sets
   (counter automata reference unboundedly many indices); exhaustion
   only costs exactness, never soundness. *)
let intern_ref_budget = 4096

let intern ?cs g =
  let cs = match cs with Some cs -> cs | None -> Charsets.shared () in
  let classes = Array.make 256 (-1) in
  let next = ref 0 in
  let exact = ref true in
  let seen = Hashtbl.create 64 in
  let budget = ref intern_ref_budget in
  let rec go (a : Charsets.ann) =
    match a.view with
    | AChr c ->
      let k = Char.code c in
      if classes.(k) < 0 then begin
        classes.(k) <- !next;
        incr next
      end
    | AEps | AVoid -> ()
    | ATop | AAtom _ -> exact := false
    | ASeq (x, y) ->
      go x;
      go y
    | AAlt comps | AAnd comps -> List.iter (fun (_, k) -> go k) comps
    | ARef r ->
      if not (Hashtbl.mem seen r.Charsets.ruid) then
        if !budget = 0 then exact := false
        else begin
          decr budget;
          Hashtbl.add seen r.Charsets.ruid ();
          match Charsets.ref_body cs r with
          | body -> go body
          | exception _ ->
            (* uninstalled rule: the solver would raise where we give up;
               conservatively drop both exactness claims *)
            exact := false
        end
  in
  go (Charsets.annotate cs g);
  { classes; n_classes = !next; exact = !exact }

let intern_classes t = t.n_classes
let intern_exact t = t.exact

(* --- membership: semi-naive worklist over the item graph ------------------ *)

(* Membership is the least fixpoint of the monotone system whose unknowns
   are items (definition instance × span).  The seed engine iterated
   whole recomputation passes to convergence — every reachable item
   re-evaluated every pass, with [passes] as large as the longest
   false→true chain through item cycles.  Here we solve it semi-naively:

   - an unseen item is evaluated depth-first, exactly like a seed pass —
     full short-circuiting, recursing into unseen [Ref]s.  The item's
     value is set to a provisional [false] {e before} its body runs, so a
     re-entrant occurrence (an ε-cycle) reads [false] instead of looping;
   - a [Ref] read that returns [false] records a dependency edge
     reader ← read.  [true] reads record nothing — values are monotone,
     a [true] can never be invalidated;
   - when an item flips [false → true], exactly its recorded readers are
     re-queued and re-evaluated.

   On a cycle-free instance every depth-first evaluation is already
   exact, no edge ever fires, and the whole run is a single seed pass —
   where the seed always pays at least one more full pass to detect
   convergence.  With cycles, each edge fires at most once (values flip
   once), so repair work is O(false-edges · body-cost) instead of
   O(passes · items · body-cost).  Short-circuit evaluation stays safe:
   a [false] verdict is witnessed by the premises actually read, so any
   flip that could change it must flip a recorded premise first.

   Split points are pruned with the {!Charsets} first/last/nullability
   analysis — an over-approximation, so a refuted item is [false] in the
   least fixpoint and can be cut without recording anything. *)
type item = {
  ibody : Charsets.ann;
  ii : int;
  ij : int;
  mutable ival : bool;
  mutable ireaders : item list;
      (* items whose last evaluation read this one as [false] *)
  mutable iqueued : bool;
}

let accepts ?cs ?intern:it ?poll g s =
  Probe.with_span "enum.accepts" ~fields:(len_field s) @@ fun () ->
  let cs = match cs with Some cs -> cs | None -> Charsets.shared () in
  let n = String.length s in
  (* encode the input to terminal-class codes once; with a complete
     alphabet an out-of-alphabet byte refutes membership before the
     solver allocates anything *)
  let codes =
    match it with
    | None -> [||]
    | Some t ->
      let codes = Array.make n 0 in
      for i = 0 to n - 1 do
        codes.(i) <- Array.unsafe_get t.classes (Char.code (String.unsafe_get s i))
      done;
      codes
  in
  (* [Chr] hot-path comparison: interned class ids when the terminal was
     seen by the closure walk, raw bytes otherwise (possible only under
     walk-budget exhaustion, where [exact] is false anyway) *)
  let chr =
    match it with
    | Some t ->
      fun i c ->
        let cc = Array.unsafe_get t.classes (Char.code c) in
        if cc >= 0 then Array.unsafe_get codes i = cc else Char.equal s.[i] c
    | None -> fun i c -> Char.equal s.[i] c
  in
  match it with
  | Some t when t.exact && Array.exists (fun c -> c < 0) codes ->
    Probe.bump c_intern_cutoff;
    false
  | _ ->
  Probe.bump c_fix_iters;
  let ag = Charsets.annotate cs g in
  let items : item ITbl.t = ITbl.create (16 + n) in
  let queue : item Queue.t = Queue.create () in
  let add_reader it reader =
    if not (List.memq reader it.ireaders) then
      it.ireaders <- reader :: it.ireaders
  in
  let flip it =
    it.ival <- true;
    List.iter
      (fun r ->
        if (not r.ival) && not r.iqueued then begin
          r.iqueued <- true;
          Queue.push r queue
        end)
      it.ireaders;
    it.ireaders <- []
  in
  let rec mem ~reader (a : Charsets.ann) i j =
    (* leaves are exact checks already — the [admits] filter and the
       [sure_null] empty-span fast path only pay off on composite nodes *)
    match a.view with
    | AChr c -> j = i + 1 && chr i c
    | AEps -> i = j
    | AVoid -> false
    | ATop -> true
    | AAtom at ->
      Charsets.admits a.ainfo s i j
      &&
      let w = String.sub s i (j - i) in
      List.exists
        (fun t -> String.equal (Ptree.yield t) w)
        (at.Grammar.atom_parses w)
    | ASeq (ka, kb) ->
      (* [sure_null] is exact: an empty-span query needs no evaluation *)
      (i = j && a.ainfo.Charsets.sure_null)
      || Charsets.admits a.ainfo s i j
         &&
         (* the width window cuts the scan range up front; the right
            component's [admits] is checked before the left is evaluated
            so an impossible right side costs one bit test, not a memo
            item *)
         let lo, hi = Charsets.split_bounds ka.ainfo kb.ainfo i j in
         split ~reader ka kb i j lo hi
    | AAlt comps ->
      (i = j && a.ainfo.Charsets.sure_null)
      || (Charsets.admits a.ainfo s i j && alt_any ~reader comps i j)
    | AAnd comps ->
      (i = j && a.ainfo.Charsets.sure_null)
      || (Charsets.admits a.ainfo s i j && and_all ~reader comps i j)
    | ARef r ->
      (i = j && a.ainfo.Charsets.sure_null)
      || Charsets.admits a.ainfo s i j
         && ((match poll with Some p -> p () | None -> ());
             Probe.bump c_items;
             let key = (r.Charsets.ruid, i, j) in
             match ITbl.find_opt items key with
             | Some it ->
               Probe.bump c_memo_hit;
               if it.ival then true
               else begin
                 add_reader it reader;
                 false
               end
             | None ->
               (* unseen: evaluate depth-first, exactly like a seed pass;
                  the provisional [false] stored before the body runs is
                  the ε-cycle cut *)
               Probe.bump c_memo_miss;
               let it =
                 { ibody = Charsets.ref_body cs r; ii = i; ij = j;
                   ival = false; ireaders = []; iqueued = false }
               in
               ITbl.add items key it;
               if mem ~reader:it it.ibody i j then begin
                 flip it;
                 true
               end
               else begin
                 add_reader it reader;
                 false
               end)
  (* the structural walkers are mutually recursive with [mem] instead of
     local closures so hot-loop visits allocate nothing *)
  and split ~reader ka kb i j k hi =
    k <= hi
    && ((Charsets.admits kb.Charsets.ainfo s k j
        && mem ~reader ka i k && mem ~reader kb k j)
       || split ~reader ka kb i j (k + 1) hi)
  and alt_any ~reader comps i j =
    match comps with
    | [] -> false
    | (_, k) :: rest -> mem ~reader k i j || alt_any ~reader rest i j
  and and_all ~reader comps i j =
    match comps with
    | [] -> true
    | (_, k) :: rest -> mem ~reader k i j && and_all ~reader rest i j
  in
  (* the query itself is a pseudo-item so it re-evaluates when its
     premises flip *)
  let root =
    { ibody = ag; ii = 0; ij = n; ival = false; ireaders = [];
      iqueued = false }
  in
  if mem ~reader:root ag 0 n then root.ival <- true;
  while not (Queue.is_empty queue) do
    let it = Queue.pop queue in
    Probe.bump c_worklist_pops;
    it.iqueued <- false;
    if (not it.ival) && mem ~reader:it it.ibody it.ii it.ij then flip it
  done;
  root.ival

(* Seed membership algorithm, kept as the reference implementation and the
   bench baseline for the worklist solver: iterate full recomputation
   passes to convergence, re-entrant items reading the previous pass's
   value.  Satellite fix applied: [cur]/[on_stack] are allocated once and
   [Tbl.reset] between passes instead of rebuilt. *)
let accepts_fixpoint g s =
  Probe.with_span "enum.accepts_fixpoint" ~fields:(len_field s) @@ fun () ->
  let prev : bool Tbl.t = Tbl.create 64 in
  let cur : bool Tbl.t = Tbl.create 64 in
  let on_stack : unit Tbl.t = Tbl.create 16 in
  let changed = ref true in
  let result = ref false in
  while !changed do
    changed := false;
    Probe.bump c_fix_iters;
    Tbl.reset cur;
    Tbl.reset on_stack;
    let rec mem g i j =
      match (g : Grammar.t) with
      | Chr c -> j = i + 1 && Char.equal s.[i] c
      | Eps -> i = j
      | Void -> false
      | Top -> true
      | Atom a ->
        let w = String.sub s i (j - i) in
        List.exists
          (fun t -> String.equal (Ptree.yield t) w)
          (a.atom_parses w)
      | Seq (a, b) ->
        let rec split k = k <= j && ((mem a i k && mem b k j) || split (k + 1)) in
        split i
      | Alt comps -> List.exists (fun (_, g') -> mem g' i j) comps
      | And comps -> List.for_all (fun (_, g') -> mem g' i j) comps
      | Ref (d, ix) -> (
        Probe.bump c_items;
        let key = (Grammar.def_id d, ix, i, j) in
        match Tbl.find_opt cur key with
        | Some b ->
          Probe.bump c_memo_hit;
          b
        | None ->
          if Tbl.mem on_stack key then
            Option.value (Tbl.find_opt prev key) ~default:false
          else begin
            Probe.bump c_memo_miss;
            Tbl.add on_stack key ();
            let b = mem (Grammar.def_body d ix) i j in
            Tbl.remove on_stack key;
            Tbl.replace cur key b;
            b
          end)
    in
    result := mem g 0 (String.length s);
    Tbl.iter
      (fun key b ->
        match Tbl.find_opt prev key with
        | Some b' when Bool.equal b b' -> ()
        | _ ->
          changed := true;
          Tbl.replace prev key b)
      cur
  done;
  !result
