(* Semiring sweeps and lazy k-best over the packed parse chart.  Chart
   node ids are a topological order, so inside is one forward array
   sweep and outside one backward sweep; k-best ranks derivations per
   node on demand. *)

open Lambekd_grammar
module Probe = Lambekd_telemetry.Probe

let c_kbest_derivs = Probe.counter "kbest.derivs"
let c_kbest_pushed = Probe.counter "kbest.pushed"

(* --- semiring sweeps ----------------------------------------------------- *)

let inside (type w) (module S : Semiring.S with type t = w) ~weight h =
  let n = Chart.nodes h in
  let ins = Array.make n S.zero in
  for v = 0 to n - 1 do
    let acc = ref S.zero in
    for e = Chart.first_edge h v to Chart.first_edge h (v + 1) - 1 do
      let p = ref (weight (Chart.label h e)) in
      for q = 0 to Chart.arity h e - 1 do
        p := S.times !p ins.(Chart.tail h e q)
      done;
      acc := S.plus !acc !p
    done;
    ins.(v) <- !acc
  done;
  ins

let inside_root (type w) (module S : Semiring.S with type t = w) ~weight h =
  let root = Chart.root h in
  if root < 0 then S.zero else (inside (module S) ~weight h).(root)

let outside (type w) (module S : Semiring.S with type t = w) ~weight
    ~inside:ins h =
  let n = Chart.nodes h in
  let out = Array.make n S.zero in
  let root = Chart.root h in
  if root >= 0 then out.(root) <- S.one;
  (* reverse topo order: by the time we expand v, every head above it
     has already contributed to out.(v) *)
  for v = n - 1 downto 0 do
    let ov = out.(v) in
    if not (S.equal ov S.zero) then
      for e = Chart.first_edge h v to Chart.first_edge h (v + 1) - 1 do
        let w = S.times ov (weight (Chart.label h e)) in
        let m = Chart.arity h e in
        for p = 0 to m - 1 do
          let c = ref w in
          for q = 0 to m - 1 do
            if q <> p then c := S.times !c ins.(Chart.tail h e q)
          done;
          let u = Chart.tail h e p in
          out.(u) <- S.plus out.(u) !c
        done
      done
  done;
  out

(* --- lazy k-best (Huang & Chiang, Algorithm 3) --------------------------- *)

type derivation = { logw : float; tree : Ptree.t }

(* A ranked derivation at a node: which edge, and which rank of each
   tail's own ranked list.  (redge, rranks) identifies it uniquely
   within its node, which is what the deterministic tie-break orders. *)
type rderiv = { rw : float; redge : int; rranks : int array }

(* Better first: larger weight, then item order — smaller edge index,
   then lexicographically smaller ranks (equal length on one edge, so
   structural [compare] is lexicographic).  Total on distinct
   derivations of one node, so heap pop order is independent of
   insertion order. *)
let cmp_deriv a b =
  let c = Float.compare b.rw a.rw in
  if c <> 0 then c
  else
    let c = Int.compare a.redge b.redge in
    if c <> 0 then c else compare a.rranks b.rranks

let kbest ?poll ~weight ~k h =
  let root = Chart.root h in
  if root < 0 || k <= 0 then []
  else begin
    let n = Chart.nodes h in
    (* per-node state, allocated when [init] first touches the node; an
       untouched node still holds the shared [fresh] heap *)
    let fresh = Heap.create ~cmp:cmp_deriv in
    let cand = Array.make n fresh in
    let seen = Array.make n (Hashtbl.create 1) in
    let ranked = Array.make n [||] and nrank = Array.make n 0 in
    let ranked_push v d =
      let r = nrank.(v) in
      if r = Array.length ranked.(v) then begin
        let arr = Array.make (max 4 (2 * r)) d in
        Array.blit ranked.(v) 0 arr 0 r;
        ranked.(v) <- arr
      end;
      ranked.(v).(r) <- d;
      nrank.(v) <- r + 1
    in
    (* get_rank v r: force v's ranked list out to rank r, lazily.  Tails
       of v have smaller ids, so the mutual recursion is well-founded. *)
    let rec get_rank v r =
      init v;
      while nrank.(v) <= r && next v do
        ()
      done;
      if r < nrank.(v) then Some ranked.(v).(r) else None
    and init v =
      if cand.(v) == fresh then begin
        cand.(v) <- Heap.create ~cmp:cmp_deriv;
        seen.(v) <- Hashtbl.create 4;
        for e = Chart.first_edge h v to Chart.first_edge h (v + 1) - 1 do
          push_cand v e (Array.make (Chart.arity h e) 0)
        done
      end
    and push_cand v e ranks =
      if not (Hashtbl.mem seen.(v) (e, ranks)) then begin
        Hashtbl.replace seen.(v) (e, ranks) ();
        (* every node has a rank-0 derivation (the build only records
           alternatives with non-empty children), so only ranks > 0 can
           fail here *)
        let w = ref (Some (weight (Chart.label h e))) in
        Array.iteri
          (fun p r ->
            match !w with
            | None -> ()
            | Some acc -> (
              match get_rank (Chart.tail h e p) r with
              | Some d -> w := Some (acc +. d.rw)
              | None -> w := None))
          ranks;
        match !w with
        | Some rw ->
          Probe.bump c_kbest_pushed;
          Heap.add cand.(v) { rw; redge = e; rranks = ranks }
        | None -> ()
      end
    and next v =
      (match poll with Some p -> p () | None -> ());
      match Heap.pop cand.(v) with
      | None -> false
      | Some d ->
        ranked_push v d;
        Probe.bump c_kbest_derivs;
        for p = 0 to Array.length d.rranks - 1 do
          let ranks = Array.copy d.rranks in
          ranks.(p) <- ranks.(p) + 1;
          push_cand v d.redge ranks
        done;
        true
    in
    let rec tree_of v r =
      let d = ranked.(v).(r) in
      Chart.tree_of_edge h d.redge (fun p ->
          tree_of (Chart.tail h d.redge p) d.rranks.(p))
    in
    let out = ref [] in
    let r = ref 0 in
    let continue = ref true in
    while !continue && !r < k do
      match get_rank root !r with
      | Some d ->
        out := { logw = d.rw; tree = tree_of root !r } :: !out;
        incr r
      | None -> continue := false
    done;
    List.rev !out
  end

let viterbi ~weight h =
  match kbest ~weight ~k:1 h with [] -> None | d :: _ -> Some d
