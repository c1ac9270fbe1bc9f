(* The packed parse chart of a Grammar over one input span (semantics in
   chart.mli).  Where a materializing enumerator memoizes a [Ptree.t
   list] per definition-instance span, the chart memoizes a node id.

   Storage is flat and pooled: node [v]'s edges are [first.(v) ..
   first.(v+1) - 1], edge [e]'s tails are [tails.(tfirst.(e) ..
   tfirst.(e+1) - 1]].  A node's alternatives are discovered while its
   children are still being built, so they wait on a pending stack (one
   frame per node under construction, children's frames above the
   parent's) and are appended contiguously when the node closes — after
   every child, which makes ids a topological order. *)

module Probe = Lambekd_telemetry.Probe

let c_nodes = Probe.counter "weighted.nodes"
let c_edges = Probe.counter "weighted.edges"

(* The chart is the implementation behind Enum.parses/count_fast, so it
   bumps the same enum.* item/memo counters at Ref visits. *)
let c_items = Probe.counter "enum.items"
let c_memo_hit = Probe.counter "enum.memo_hit"
let c_memo_miss = Probe.counter "enum.memo_miss"

type label =
  | LTok of char
  | LEps
  | LTop of string
  | LAtom of Ptree.t
  | LPair
  | LInj of Index.t
  | LTuple of Index.t array
  | LRoll of string

(* A memo key packs (instance uid, i, j) into one int — the uid is the
   dense [Charsets] alias for (definition, index) — so a probe hashes
   and compares a word and allocates nothing. *)
module Key = struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x01000193) land max_int
end

module Tbl = Hashtbl.Make (Key)

(* A span memo entry.  [Building d]: open on the recursion stack at ref
   depth [d].  [Built id]: settled.  [Empty_under i]: found empty while
   assuming an open ref empty — a same-span cycle cut — where [i] is the
   shallowest ref instance so assumed; it stays valid until that
   instance's component closes, which settles it (below). *)
type status = Building of int | Built of int | Empty_under of int

type pool = {
  memo : status Tbl.t;
  mutable first : int array;  (* node -> first edge; [n + 1] entries live *)
  mutable lab : label array;  (* edge -> label *)
  mutable tfirst : int array;  (* edge -> first tail; [ne + 1] entries live *)
  mutable tails : int array;
  mutable n : int;
  mutable ne : int;
  mutable nt : int;
  (* pending alternatives: a label and up to two tails ([pt.(2s)],
     [pt.(2s+1)]) each *)
  mutable plab : label array;
  mutable pt : int array;
  mutable sp : int;
  mutable cnt : int array;  (* count sweep scratch *)
  (* cycle-cut bookkeeping (see [build_span]) *)
  mutable stk : int array;
      (* per open ref depth: its instance, [prov] mark, assumed-empty flag *)
  mutable inst : int array;
      (* per ref instance: its depth, the instance it merged into *)
  mutable prov : int array;  (* keys of [Empty_under] entries, in order *)
}

(* storage is allocated by the first build: a scratch bundle whose
   requests never need a chart pays nothing for its pool.  [first.(0)]
   and [tfirst.(0)] are 0 for good — builds only write higher slots *)
let pool () =
  { memo = Tbl.create 16;
    first = [| 0 |];
    lab = [||];
    tfirst = [| 0 |];
    tails = [||];
    n = 0;
    ne = 0;
    nt = 0;
    plab = [||];
    pt = [||];
    sp = 0;
    cnt = [||];
    stk = [||];
    inst = [||];
    prov = [||] }

type t = { p : pool; nodes : int; edges : int; root : int }

let grow a need fill =
  if need < Array.length a then a
  else begin
    let b = Array.make (max (need + 1) (max 64 (2 * Array.length a))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let reserve p ~edges ~tails =
  let e = p.ne + edges in
  if e >= Array.length p.lab then begin
    p.lab <- grow p.lab e LEps;
    p.tfirst <- grow p.tfirst e 0
  end;
  if p.nt + tails > Array.length p.tails then
    p.tails <- grow p.tails (p.nt + tails) 0

let end_node p =
  let v = p.n in
  if v + 1 >= Array.length p.first then p.first <- grow p.first (v + 1) 0;
  p.n <- v + 1;
  p.first.(v + 1) <- p.ne;
  v

let push p l t0 t1 =
  let s = p.sp in
  if s >= Array.length p.plab then p.plab <- grow p.plab s LEps;
  if (2 * s) + 1 >= Array.length p.pt then p.pt <- grow p.pt ((2 * s) + 1) 0;
  p.plab.(s) <- l;
  p.pt.(2 * s) <- t0;
  p.pt.((2 * s) + 1) <- t1;
  p.sp <- s + 1

(* Turn the pending frame [base .. sp) into a node (-1 when empty), each
   entry an edge with its first [arity] tails.  [rev] emits the frame
   top-down: the split loop discovers alternatives in descending split
   order and stores them ascending. *)
let close_pending p base ~arity ~rev =
  let top = p.sp in
  let m = top - base in
  if m = 0 then -1
  else begin
    reserve p ~edges:m ~tails:(arity * m);
    let lab = p.lab and tfirst = p.tfirst and tails = p.tails in
    let e = ref p.ne and t = ref p.nt in
    for x = 0 to m - 1 do
      let s = if rev then top - 1 - x else base + x in
      if arity > 0 then begin
        tails.(!t) <- p.pt.(2 * s);
        incr t;
        if arity > 1 then begin
          tails.(!t) <- p.pt.((2 * s) + 1);
          incr t
        end
      end;
      lab.(!e) <- p.plab.(s);
      incr e;
      tfirst.(!e) <- !t
    done;
    p.ne <- !e;
    p.nt <- !t;
    p.sp <- base;
    end_node p
  end

(* a node with one edge: [l] over the [arity] tails [t0] *)
let node p l ~arity t0 =
  let base = p.sp in
  push p l t0 0;
  close_pending p base ~arity ~rev:false

(* -1 is the empty pseudo-node: it has no derivations, no edge names it
   as a tail, and alternatives are only recorded when every child is
   non-empty — so every recorded node has at least one parse.

   A ref met again over the same span while it is still being built is
   cut (answered empty), as in the seed engines.  A result that is empty
   only because of such a cut must not be memoized as settled: a visit
   after the cut ref closes non-empty may succeed.  So it is recorded as
   [Empty_under i], [i] being the shallowest open ref instance it
   assumed empty (directly or through another such entry), and every
   ref tracks whether anything assumed it empty.  When a ref closes:
   - non-empty and assumed empty by someone: the entries recorded since
     it opened are dropped, to be rebuilt on their next visit;
   - empty with no assumption about an enclosing ref (the root of its
     same-span component): the entries recorded since it opened are
     empty for good — the assumptions were consistent, so no finite
     derivation exists — and become [Built (-1)];
   - empty under an enclosing ref's cut: it is itself [Empty_under], and
     entries naming it now name that enclosing instance.
   Every entry is settled at most once, and a rebuild follows only a ref
   first found non-empty, so the cost stays polynomial in the component
   size (re-exploring instead of memoizing is factorial in it). *)
let build_span ?cs ?pool:p ?poll g s i0 j0 =
  let cs = match cs with Some cs -> cs | None -> Charsets.shared () in
  let ag = Charsets.annotate cs g in
  let p = match p with Some p -> p | None -> pool () in
  let span = String.length s + 1 in
  (* keys are exact (collision-free) for uids up to [max_uid] *)
  let max_uid = max_int / (span * span) in
  Tbl.clear p.memo;
  p.n <- 0;
  p.ne <- 0;
  p.nt <- 0;
  p.sp <- 0;
  let depth = ref 0 and serial = ref 0 and np = ref 0 in
  (* the shallowest open ref depth the current subtree assumed empty *)
  let low = ref max_int in
  let assume e =
    p.stk.((3 * e) + 2) <- 1;
    if e < !low then low := e
  in
  let rec resolve i =
    let e = p.inst.(2 * i) in
    if e < !depth && p.stk.(3 * e) = i then e else resolve p.inst.((2 * i) + 1)
  in
  let settle mark f =
    for q = mark to !np - 1 do
      let k = p.prov.(q) in
      match Tbl.find_opt p.memo k with Some (Empty_under _) -> f k | _ -> ()
    done;
    np := mark
  in
  let rec go (a : Charsets.ann) i j =
    if not (Charsets.admits a.ainfo s i j) then -1
    else
      match a.view with
      | AChr c ->
        if j = i + 1 && Char.equal s.[i] c then node p (LTok c) ~arity:0 0
        else -1
      | AEps -> if i = j then node p LEps ~arity:0 0 else -1
      | AVoid -> -1
      | ATop -> node p (LTop (String.sub s i (j - i))) ~arity:0 0
      | AAtom at ->
        let w = String.sub s i (j - i) in
        let base = p.sp in
        List.iter
          (fun t -> if String.equal (Ptree.yield t) w then push p (LAtom t) 0 0)
          (at.Grammar.atom_parses w);
        close_pending p base ~arity:0 ~rev:false
      | ASeq (ka, kb) ->
        (* the width window cuts the scan range up front; the right
           component's [admits] is checked before building the left so an
           impossible right side costs one bit test, not a subtree *)
        let lo, hi = Charsets.split_bounds ka.ainfo kb.ainfo i j in
        let base = p.sp in
        for k = hi downto lo do
          if Charsets.admits kb.ainfo s k j then begin
            let ln = go ka i k in
            if ln >= 0 then begin
              let rn = go kb k j in
              if rn >= 0 then push p LPair ln rn
            end
          end
        done;
        close_pending p base ~arity:2 ~rev:true
      | AAlt comps ->
        let base = p.sp in
        List.iter
          (fun (tag, k) ->
            let c = go k i j in
            if c >= 0 then push p (LInj tag) c 0)
          comps;
        close_pending p base ~arity:1 ~rev:false
      | AAnd comps -> (
        let rec all acc = function
          | [] -> Some (List.rev acc)
          | (tag, k) :: rest ->
            let c = go k i j in
            if c < 0 then None else all ((tag, c) :: acc) rest
        in
        match all [] comps with
        | None -> -1
        | Some ns ->
          (* tails pushed ahead of [node] belong to the edge it closes *)
          reserve p ~edges:0 ~tails:(List.length ns);
          List.iter
            (fun (_, c) ->
              p.tails.(p.nt) <- c;
              p.nt <- p.nt + 1)
            ns;
          node p (LTuple (Array.of_list (List.map fst ns))) ~arity:0 0)
      | ARef r -> (
        (match poll with Some f -> f () | None -> ());
        Probe.bump c_items;
        if r.Charsets.ruid > max_uid then
          invalid_arg "Chart.build: input too long";
        let key = (((r.Charsets.ruid * span) + i) * span) + j in
        match Tbl.find_opt p.memo key with
        | Some (Built id) ->
          Probe.bump c_memo_hit;
          id
        | Some (Empty_under inst) ->
          Probe.bump c_memo_hit;
          assume (resolve inst);
          -1
        | Some (Building e) ->
          assume e;
          -1
        | None ->
          Probe.bump c_memo_miss;
          let d = !depth and me = !serial in
          incr serial;
          p.stk <- grow p.stk ((3 * d) + 2) 0;
          p.inst <- grow p.inst ((2 * me) + 1) 0;
          p.stk.(3 * d) <- me;
          p.stk.((3 * d) + 1) <- !np;
          p.stk.((3 * d) + 2) <- 0;
          p.inst.(2 * me) <- d;
          p.inst.((2 * me) + 1) <- -1;
          Tbl.replace p.memo key (Building d);
          let outer = !low in
          low := max_int;
          depth := d + 1;
          let bn = go (Charsets.ref_body cs r) i j in
          depth := d;
          let id =
            if bn < 0 then -1
            else node p (LRoll (Grammar.def_name r.Charsets.rdef)) ~arity:1 bn
          in
          let l = !low and mark = p.stk.((3 * d) + 1) in
          if id < 0 && l < d then begin
            let up = p.stk.(3 * l) in
            p.inst.((2 * me) + 1) <- up;
            Tbl.replace p.memo key (Empty_under up);
            p.prov <- grow p.prov !np 0;
            p.prov.(!np) <- key;
            incr np
          end
          else begin
            Tbl.replace p.memo key (Built id);
            if id < 0 then settle mark (fun k -> Tbl.replace p.memo k (Built (-1)))
            else if p.stk.((3 * d) + 2) = 1 then settle mark (Tbl.remove p.memo)
          end;
          low := min outer l;
          id)
  in
  let root = go ag i0 j0 in
  Probe.add c_nodes p.n;
  Probe.add c_edges p.ne;
  { p; nodes = p.n; edges = p.ne; root }

let build ?cs ?pool ?poll g s =
  build_span ?cs ?pool ?poll g s 0 (String.length s)

let nodes h = h.nodes
let edges h = h.edges
let root h = h.root
let accepts h = h.root >= 0
let first_edge h v = h.p.first.(v)
let label h e = h.p.lab.(e)
let arity h e = h.p.tfirst.(e + 1) - h.p.tfirst.(e)
let tail h e q = h.p.tails.(h.p.tfirst.(e) + q)

(* --- counting: one forward sweep ----------------------------------------- *)

let sat_add a b =
  let c = a + b in
  if c < 0 then max_int else c

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let count h =
  if h.root < 0 then 0
  else begin
    let p = h.p in
    p.cnt <- grow p.cnt h.nodes 0;
    let cnt = p.cnt and first = p.first and tfirst = p.tfirst
    and tails = p.tails in
    for v = 0 to h.root do
      let acc = ref 0 in
      for e = first.(v) to first.(v + 1) - 1 do
        let prod = ref 1 in
        for q = tfirst.(e) to tfirst.(e + 1) - 1 do
          prod := sat_mul !prod cnt.(tails.(q))
        done;
        acc := sat_add !acc !prod
      done;
      cnt.(v) <- !acc
    done;
    cnt.(h.root)
  end

let is_saturated c = c = max_int

(* --- on-demand unpacking ------------------------------------------------- *)

let tree_of_edge h e sub =
  match label h e with
  | LTok c -> Ptree.Tok c
  | LEps -> Ptree.Eps
  | LTop w -> Ptree.TopP w
  | LAtom t -> t
  | LPair -> Ptree.Pair (sub 0, sub 1)
  | LInj tag -> Ptree.Inj (tag, sub 0)
  | LTuple tags ->
    Ptree.Tuple (List.mapi (fun q tag -> (tag, sub q)) (Array.to_list tags))
  | LRoll name -> Ptree.Roll (name, sub 0)

let rec first_tree h v =
  let e = first_edge h v in
  tree_of_edge h e (fun q -> first_tree h (tail h e q))

let first_parse h = if h.root < 0 then None else Some (first_tree h h.root)

(* a node's trees: its edges in stored order; an edge's trees: the
   product of its tails' trees, leftmost tail outermost *)
let rec enum_node h v : Ptree.t Seq.t =
  let lo = first_edge h v in
  Seq.concat_map (enum_edge h) (Seq.init (first_edge h (v + 1) - lo) (( + ) lo))

and enum_edge h e =
  match label h e with
  | LPair ->
    let r = tail h e 1 in
    Seq.concat_map
      (fun l -> Seq.map (fun r -> Ptree.Pair (l, r)) (enum_node h r))
      (enum_node h (tail h e 0))
  | LInj tag -> Seq.map (fun t -> Ptree.Inj (tag, t)) (enum_node h (tail h e 0))
  | LRoll name ->
    Seq.map (fun t -> Ptree.Roll (name, t)) (enum_node h (tail h e 0))
  | LTuple tags ->
    let rec prod q =
      if q = Array.length tags then Seq.return []
      else
        Seq.concat_map
          (fun t -> Seq.map (fun ts -> (tags.(q), t) :: ts) (prod (q + 1)))
          (enum_node h (tail h e q))
    in
    Seq.map (fun comps -> Ptree.Tuple comps) (prod 0)
  | LTok _ | LEps | LTop _ | LAtom _ ->
    Seq.return (tree_of_edge h e (first_tree h))

let enumerate ?max_trees h =
  let seq = if h.root < 0 then Seq.empty else enum_node h h.root in
  match max_trees with None -> seq | Some k -> Seq.take k seq
