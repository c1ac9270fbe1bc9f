(** A bounded map with exact least-recently-used eviction.

    Backs the two service caches (compiled artifacts, query results).
    {!find} and {!put} are O(1): a hash table maps each key to a
    slot, the slots' keys and values sit in arrays that grow by
    doubling up to [cap], and two int arrays link the slots into a
    recency list.  A
    {!find} hit relinks its slot with int writes only, so it allocates
    nothing that outlives the call; an insert into a full cache reuses
    the least-recent entry's slot.

    Not synchronized: callers (the registry) guard it with their own
    mutex. *)

type ('k, 'v) t

val create : cap:int -> ('k, 'v) t
(** [cap] ≤ 0 disables the cache: every {!find} misses, every {!put} is
    dropped (and counted as an eviction of itself). *)

val cap : ('k, 'v) t -> int
val size : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency on a hit. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace; evicts the least-recently-used entry when the
    cache is full. *)

val evictions : ('k, 'v) t -> int
(** Entries evicted (not replaced) since creation. *)

val bindings : ('k, 'v) t -> ('k * 'v) list
(** Current entries, most recently used first. *)

val clear : ('k, 'v) t -> unit
