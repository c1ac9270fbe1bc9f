(* The stamp-scan LRU the service shipped before its O(1) recency list:
   a [Hashtbl] of entries each carrying a recency stamp, eviction by a
   full scan for the minimum stamp.  Kept as the differential oracle for
   [Lambekd_service.Lru]: simple enough to be obviously an exact LRU,
   too slow (O(size) per evicting put) to serve. *)

type ('k, 'v) t = {
  tbl : ('k, 'v * int ref) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable evicted : int;
}

let create ~cap = { tbl = Hashtbl.create 16; capacity = cap; tick = 0; evicted = 0 }
let cap t = t.capacity
let size t = Hashtbl.length t.tbl
let evictions t = t.evicted

let touch t stamp =
  t.tick <- t.tick + 1;
  stamp := t.tick

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some (v, stamp) ->
    touch t stamp;
    Some v
  | None -> None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k (_, stamp) acc ->
        match acc with
        | Some (_, best) when best <= !stamp -> acc
        | _ -> Some (k, !stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evicted <- t.evicted + 1
  | None -> ()

let put t k v =
  if t.capacity <= 0 then t.evicted <- t.evicted + 1
  else begin
    (match Hashtbl.find_opt t.tbl k with
    | Some _ -> Hashtbl.remove t.tbl k
    | None -> if Hashtbl.length t.tbl >= t.capacity then evict_lru t);
    let stamp = ref 0 in
    touch t stamp;
    Hashtbl.replace t.tbl k (v, stamp)
  end

let bindings t = Hashtbl.fold (fun k (v, _) acc -> (k, v) :: acc) t.tbl []
let clear t = Hashtbl.reset t.tbl
