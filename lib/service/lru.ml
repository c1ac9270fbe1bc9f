(* Entries live in slots: parallel arrays of keys and values, plus two
   int arrays threading the slots into a doubly linked recency list
   (most recent at [head], least recent at [tail], [nil] ends it).  The
   arrays grow by doubling up to [cap], so a large cap costs memory
   only as entries arrive.  Slots [0 .. size-1] are always the live
   ones: the interface has no single-key removal, and an insert into a
   full cache reuses the tail's slot in place.  A hit relinks its slot
   with int writes only, so it allocates nothing that outlives the
   call. *)

let nil = -1

type ('k, 'v) t = {
  tbl : ('k, int) Hashtbl.t;  (** key -> slot *)
  capacity : int;
  mutable keys : 'k array;
  mutable vals : 'v array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;
  mutable tail : int;
  mutable evicted : int;
}

let create ~cap =
  { tbl = Hashtbl.create 16;
    capacity = cap;
    keys = [||];
    vals = [||];
    prev = [||];
    next = [||];
    head = nil;
    tail = nil;
    evicted = 0 }

let cap t = t.capacity
let size t = Hashtbl.length t.tbl
let evictions t = t.evicted

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let promote t s =
  if s <> t.head then begin
    unlink t s;
    push_front t s
  end

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some s ->
    promote t s;
    Some t.vals.(s)
  | None -> None

(* Room for one more slot: double the arrays (at least 8, at most
   [capacity]), filling the fresh tail with the entry about to land. *)
let grow t k v =
  let n = Array.length t.keys in
  let n' = min t.capacity (max 8 (2 * n)) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.keys <- extend t.keys k;
  t.vals <- extend t.vals v;
  t.prev <- extend t.prev nil;
  t.next <- extend t.next nil

let put t k v =
  if t.capacity <= 0 then t.evicted <- t.evicted + 1
  else
    match Hashtbl.find_opt t.tbl k with
    | Some s ->
      t.keys.(s) <- k;
      t.vals.(s) <- v;
      promote t s
    | None ->
      let n = Hashtbl.length t.tbl in
      if n < t.capacity then begin
        if n = Array.length t.keys then grow t k v;
        t.keys.(n) <- k;
        t.vals.(n) <- v;
        push_front t n;
        Hashtbl.add t.tbl k n
      end
      else begin
        let s = t.tail in
        Hashtbl.remove t.tbl t.keys.(s);
        t.evicted <- t.evicted + 1;
        t.keys.(s) <- k;
        t.vals.(s) <- v;
        promote t s;
        Hashtbl.add t.tbl k s
      end

let bindings t =
  let rec walk s acc =
    if s = nil then acc else walk t.prev.(s) ((t.keys.(s), t.vals.(s)) :: acc)
  in
  walk t.tail []

(* drop the arrays too: a cleared cache must not pin its old entries *)
let clear t =
  Hashtbl.reset t.tbl;
  t.keys <- [||];
  t.vals <- [||];
  t.prev <- [||];
  t.next <- [||];
  t.head <- nil;
  t.tail <- nil
