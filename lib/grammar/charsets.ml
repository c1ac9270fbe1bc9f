(* Per-subgrammar nullability, first/last character sets and width bounds,
   plus annotated grammar terms that carry them — the split-pruning oracle
   of the enumeration engines (Enum.accepts, Chart.build).

   The analysis is the classical nullable/FIRST computation of
   lib/cfg/first_follow.ml lifted from production CFGs to Grammar.t terms,
   extended with LAST sets (the engines split [Seq] on both endpoints),
   with derivation-width bounds (a [Chr]-headed [Seq] splits at exactly
   one point), and with a [⊤] element for the constructs whose character
   behaviour is not statically known (Top, Atom, over-budget or failing
   definitions).  [nullable]/[first]/[last]/[wmin]/[wmax] are
   over-approximations: if a parse of [g] over [s.[i..j)] exists then
   [admits (info g) s i j] holds — so skipping a split point the analysis
   rejects never loses a parse.  [sure_null] is the one
   under-approximation: when it holds an ε-parse definitely exists, so a
   membership query on an empty span can answer [true] without touching
   the memo table. *)

(* Character sets as 256-bit vectors stored in a 32-byte string, so the
   per-split [admits] checks in the engine hot loops are a byte load, a
   shift and a mask — no balanced-tree walk, and no integer division
   (which ocamlopt does not strength-reduce for a non-power-of-two word
   size).  Membership is the hot operation; union/inter/equal only run
   during the analysis fixpoint. *)
module Cset = struct
  type t = string (* 32 bytes, little-endian bit order within each byte *)

  let width = 32
  let empty = String.make width '\000'

  let singleton c =
    let i = Char.code c in
    let b = Bytes.make width '\000' in
    Bytes.set b (i lsr 3) (Char.chr (1 lsl (i land 7)));
    Bytes.unsafe_to_string b

  let mem c s =
    let i = Char.code c in
    Char.code (String.unsafe_get s (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let map2 f a b =
    String.init width (fun k ->
        Char.chr (f (Char.code a.[k]) (Char.code b.[k]) land 0xff))

  let union = map2 ( lor )
  let inter = map2 ( land )
  let equal = String.equal

  let elements s =
    let out = ref [] in
    for i = 255 downto 0 do
      let c = Char.chr i in
      if mem c s then out := c :: !out
    done;
    !out
end

type cset = Any | Chars of Cset.t

let cset_empty = Chars Cset.empty
let cset_single c = Chars (Cset.singleton c)
let cset_mem c = function Any -> true | Chars s -> Cset.mem c s

let cset_union a b =
  match a, b with
  | Any, _ | _, Any -> Any
  | Chars x, Chars y -> Chars (Cset.union x y)

let cset_inter a b =
  match a, b with
  | Any, s | s, Any -> s
  | Chars x, Chars y -> Chars (Cset.inter x y)

let cset_equal a b =
  match a, b with
  | Any, Any -> true
  | Chars x, Chars y -> Cset.equal x y
  | (Any | Chars _), _ -> false

let pp_cset ppf = function
  | Any -> Fmt.string ppf "Σ*"
  | Chars s ->
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma char) (Cset.elements s)

type info = {
  nullable : bool;
  sure_null : bool;
  first : cset;
  last : cset;
  wmin : int;
  wmax : int; (* [max_int] = unbounded *)
}

(* [bottom] starts the fixpoint (the empty language: impossible width
   window).  [top] is the "no information" element used for Atom and as
   the sound fallback — its [sure_null] stays [false] because nothing is
   sure about it.  [all] is the ⊤ grammar, which definitely contains ε. *)
let bottom =
  {
    nullable = false;
    sure_null = false;
    first = cset_empty;
    last = cset_empty;
    wmin = max_int;
    wmax = -1;
  }

let top =
  { nullable = true; sure_null = false; first = Any; last = Any; wmin = 0;
    wmax = max_int }

let all = { top with sure_null = true }
let is_bot i = i.wmin > i.wmax

let info_equal a b =
  Bool.equal a.nullable b.nullable
  && Bool.equal a.sure_null b.sure_null
  && cset_equal a.first b.first
  && cset_equal a.last b.last
  && a.wmin = b.wmin && a.wmax = b.wmax

let pp_info ppf i =
  let pp_w ppf w =
    if w = max_int then Fmt.string ppf "∞" else Fmt.int ppf w
  in
  Fmt.pf ppf "{null=%b%s; first=%a; last=%a; w=[%a,%a]}" i.nullable
    (if i.sure_null then "!" else "")
    pp_cset i.first pp_cset i.last pp_w i.wmin pp_w i.wmax

let sat_add a b = if a = max_int || b = max_int then max_int else a + b

let seq_info a b =
  if is_bot a || is_bot b then bottom
  else
    {
      nullable = a.nullable && b.nullable;
      sure_null = a.sure_null && b.sure_null;
      first = (if a.nullable then cset_union a.first b.first else a.first);
      last = (if b.nullable then cset_union a.last b.last else b.last);
      wmin = sat_add a.wmin b.wmin;
      wmax = sat_add a.wmax b.wmax;
    }

let alt_info a b =
  {
    nullable = a.nullable || b.nullable;
    sure_null = a.sure_null || b.sure_null;
    first = cset_union a.first b.first;
    last = cset_union a.last b.last;
    wmin = min a.wmin b.wmin;
    wmax = max a.wmax b.wmax;
  }

(* A parse of [&] is one parse per component, all of the same string, so
   every component constrains the endpoints and the width.  If every
   component surely has an ε-parse then so does the intersection. *)
let and_info a b =
  {
    nullable = a.nullable && b.nullable;
    sure_null = a.sure_null && b.sure_null;
    first = cset_inter a.first b.first;
    last = cset_inter a.last b.last;
    wmin = max a.wmin b.wmin;
    wmax = min a.wmax b.wmax;
  }

let chr_info c =
  {
    nullable = false;
    sure_null = false;
    first = cset_single c;
    last = cset_single c;
    wmin = 1;
    wmax = 1;
  }

let eps_info =
  { nullable = true; sure_null = true; first = cset_empty; last = cset_empty;
    wmin = 0; wmax = 0 }

let admits info s i j =
  let w = j - i in
  w >= info.wmin && w <= info.wmax
  &&
  if i = j then info.nullable
  else cset_mem s.[i] info.first && cset_mem s.[j - 1] info.last

(* Split-point window for [Seq (a, b)] over [s.[i..j)]: [k] must leave a
   realizable width on both sides.  [Chr]-headed sequences collapse to a
   single candidate. *)
let split_bounds ia ib i j =
  let lo =
    if ia.wmin = max_int then max_int
    else
      let lo = i + ia.wmin in
      if ib.wmax = max_int || j - ib.wmax <= lo then lo else j - ib.wmax
  in
  let hi =
    if ib.wmin = max_int then min_int
    else
      let hi = j - ib.wmin in
      if ia.wmax = max_int || i + ia.wmax >= hi then hi else i + ia.wmax
  in
  (lo, hi)

(* --- per-definition-instance fixpoint ----------------------------------- *)

module IKey = struct
  type t = int * Index.t

  let equal (d, x) (d', x') = d = d' && Index.equal x x'
  let hash (d, x) = (d * 0x01000193) lxor Index.hash x
end

module ITbl = Hashtbl.Make (IKey)

type cell = {
  cdef : Grammar.def;
  cix : Index.t;
  cuid : int; (* dense per-state instance id: engines key memo tables on it *)
  mutable cinfo : info;
  mutable creaders : cell list;
      (* cells whose body read this one: re-evaluated when [cinfo] grows *)
  mutable pinned : bool;
      (* a pinned cell is never recomputed: the over-budget [top] fallback *)
}

type ann = {
  ainfo : info;
  view : view;
}

and view =
  | AChr of char
  | AEps
  | AVoid
  | ATop
  | AAtom of Grammar.atom
  | ASeq of ann * ann
  | AAlt of (Index.t * ann) list
  | AAnd of (Index.t * ann) list
  | ARef of aref

and aref = {
  rdef : Grammar.def;
  rix : Index.t;
  ruid : int;
      (* the instance's dense id, copied from its analysis cell: a
         process-stable alias for (def_id, index) that hashes as one int *)
  mutable rbody : ann option;
      (* cache of [body_ann rdef rix], filled on first resolution so the
         engine hot loops skip the instance table *)
}

type t = {
  cells : cell ITbl.t;
  per_def : (int, int ref) Hashtbl.t; (* precise instances per definition *)
  budget : int;
  queue : cell Queue.t; (* cells awaiting (re-)evaluation *)
  anns : ann ITbl.t; (* memoized annotated bodies, built post-fixpoint *)
  mutable next_uid : int;
}

let create ?(budget = 512) () =
  {
    cells = ITbl.create 32;
    per_def = Hashtbl.create 16;
    budget;
    queue = Queue.create ();
    anns = ITbl.create 32;
    next_uid = 0;
  }

(* Infos of instances are time-invariant once rules are installed (rules
   are write-once), and a [top] computed before installation is still a
   sound over-approximation afterwards — so one analysis state can be
   shared by every engine call in the process, amortizing the fixpoint to
   once per definition closure. *)
let shared_state = lazy (create ())
let shared () = Lazy.force shared_state

let get_cell t d ix =
  let key = (Grammar.def_id d, ix) in
  match ITbl.find_opt t.cells key with
  | Some cell -> cell
  | None ->
    let n_def =
      match Hashtbl.find_opt t.per_def (Grammar.def_id d) with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add t.per_def (Grammar.def_id d) r;
        r
    in
    let uid = t.next_uid in
    t.next_uid <- uid + 1;
    if !n_def >= t.budget then begin
      (* over budget: sound fallback, frozen so it is never re-evaluated *)
      let cell =
        { cdef = d; cix = ix; cuid = uid; cinfo = top; creaders = [];
          pinned = true }
      in
      ITbl.add t.cells key cell;
      cell
    end
    else begin
      let cell =
        { cdef = d; cix = ix; cuid = uid; cinfo = bottom; creaders = [];
          pinned = false }
      in
      ITbl.add t.cells key cell;
      incr n_def;
      Queue.push cell t.queue;
      cell
    end

(* [reader] is the cell whose body is being analyzed; reads record a
   dependency edge so exactly the affected cells are re-evaluated when an
   instance's info grows (including self-edges for direct recursion). *)
let rec term_info t ?reader (g : Grammar.t) =
  match g with
  | Chr c -> chr_info c
  | Eps -> eps_info
  | Void -> bottom
  | Top -> all
  | Atom _ -> top
  | Seq (a, b) -> seq_info (term_info t ?reader a) (term_info t ?reader b)
  | Alt comps ->
    List.fold_left
      (fun acc (_, g') -> alt_info acc (term_info t ?reader g'))
      bottom comps
  | And [] -> top (* Grammar.amp rejects the empty conjunction *)
  | And ((_, g0) :: rest) ->
    List.fold_left
      (fun acc (_, g') -> and_info acc (term_info t ?reader g'))
      (term_info t ?reader g0) rest
  | Ref (d, ix) ->
    let cell = get_cell t d ix in
    (match reader with
    | Some r when not (List.memq r cell.creaders) ->
      cell.creaders <- r :: cell.creaders
    | _ -> ());
    cell.cinfo

(* Cell updates join the fresh evaluation into the old info (so the
   assignment is monotone by construction even though a re-evaluation can
   transiently compute an incomparable value), then widen: recursive
   widths grow by a constant per re-evaluation ([wmax] through a
   production like [D → a D], dually [wmin] through shrinking joins), so
   unlike the finite character lattice they would climb forever — a bound
   that changes after its first settled value jumps straight to its
   limit.  Every field then changes a bounded number of times and the
   drain terminates. *)
let join_widen ~old ni =
  let j =
    {
      nullable = old.nullable || ni.nullable;
      sure_null = old.sure_null || ni.sure_null;
      first = cset_union old.first ni.first;
      last = cset_union old.last ni.last;
      wmin = min old.wmin ni.wmin;
      wmax = max old.wmax ni.wmax;
    }
  in
  let j =
    if old.wmax >= 0 && j.wmax > old.wmax then { j with wmax = max_int }
    else j
  in
  if old.wmin < max_int && j.wmin < old.wmin then { j with wmin = 0 } else j

(* Drain the worklist: evaluate each pending cell's body under the current
   assignment; on growth, wake exactly its readers.  Infos only grow
   (every transfer function is monotone) and widening bounds the chains,
   so this terminates — in O(edges × lattice-height) body evaluations
   rather than the quadratic full-sweep alternative.  A definition whose
   body raises (rules not installed yet, partial index functions)
   analyzes to [top]: the analysis must never introduce a failure the
   engine itself would not reach. *)
let drain t =
  while not (Queue.is_empty t.queue) do
    let cell = Queue.pop t.queue in
    if not cell.pinned then begin
      let ni =
        match Grammar.def_body cell.cdef cell.cix with
        | body -> term_info t ~reader:cell body
        | exception _ -> top
      in
      let ni = join_widen ~old:cell.cinfo ni in
      if not (info_equal ni cell.cinfo) then begin
        cell.cinfo <- ni;
        List.iter (fun r -> Queue.push r t.queue) cell.creaders
      end
    end
  done

let info t g =
  let i = term_info t g in
  if Queue.is_empty t.queue then i
  else begin
    drain t;
    term_info t g
  end

let nullable t g = (info t g).nullable

(* --- annotation ---------------------------------------------------------- *)

let rec build_ann t (g : Grammar.t) =
  match g with
  | Chr c -> { ainfo = chr_info c; view = AChr c }
  | Eps -> { ainfo = eps_info; view = AEps }
  | Void -> { ainfo = bottom; view = AVoid }
  | Top -> { ainfo = all; view = ATop }
  | Atom a -> { ainfo = top; view = AAtom a }
  | Seq (a, b) ->
    let ka = build_ann t a and kb = build_ann t b in
    { ainfo = seq_info ka.ainfo kb.ainfo; view = ASeq (ka, kb) }
  | Alt comps ->
    let ks = List.map (fun (tag, g') -> (tag, build_ann t g')) comps in
    {
      ainfo =
        List.fold_left (fun acc (_, k) -> alt_info acc k.ainfo) bottom ks;
      view = AAlt ks;
    }
  | And comps ->
    let ks = List.map (fun (tag, g') -> (tag, build_ann t g')) comps in
    {
      ainfo =
        (match ks with
        | [] -> top
        | (_, k0) :: rest ->
          List.fold_left (fun acc (_, k) -> and_info acc k.ainfo) k0.ainfo
            rest);
      view = AAnd ks;
    }
  | Ref (d, ix) ->
    let cell = get_cell t d ix in
    {
      ainfo = cell.cinfo;
      view = ARef { rdef = d; rix = ix; ruid = cell.cuid; rbody = None };
    }

(* [build_ann] is only sound after the fixpoint is stable (it snapshots
   cell infos), and it traverses exactly the refs [term_info] traverses —
   so running [info] first guarantees it discovers nothing new. *)
let annotate t g =
  ignore (info t g);
  build_ann t g

let body_ann t d ix =
  let key = (Grammar.def_id d, ix) in
  match ITbl.find_opt t.anns key with
  | Some a -> a
  | None ->
    (* [def_body] failures propagate: the engine must raise exactly where
       the seed engines raised (use-before-definition, partial rules). *)
    let body = Grammar.def_body d ix in
    let a = annotate t body in
    ITbl.add t.anns key a;
    a

let ref_body t r =
  match r.rbody with
  | Some a -> a
  | None ->
    let a = body_ann t r.rdef r.rix in
    r.rbody <- Some a;
    a
