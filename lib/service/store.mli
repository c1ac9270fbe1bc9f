(** The persistent artifact store: compile once, serve forever.

    The registry's in-memory artifact cache dies with the process, so
    every restart used to pay full grammar compilation again — the
    warm-vs-cold gap is up to 50× per request.  This module makes cold
    start ≈ warm start across restarts: a directory of per-digest entry
    files, each holding an opaque payload (the registry's serialized
    artifact bundle) behind a validated header.

    Like the verified-parser artifacts of the source paper, a stored
    entry is a {e checkable certificate}, not a trusted input: nothing
    in a file is believed until it survives, in order,

    + the magic string and store format version,
    + the producing-binary token (serialized closures are only
      meaningful inside the same executable build),
    + the entry digest echoed in the header,
    + the payload length and its MD5 content checksum,
    + the caller's [decode] (the registry re-derives the structural
      grammar digest from the decoded bundle and compares).

    Any failure is an {e invalid} (counted, probed, and the file
    removed so the next compile rewrites it) and the caller falls back
    to a fresh compile — corruption can cost a compile, never an error
    response, a crash, or a poisoned result.

    Writes are crash-safe: payloads land in a temp file which is
    fsync'd and atomically renamed over the final name, so readers
    (and concurrent writers racing on the same digest — last writer
    wins, both wrote identical bundles) never observe a torn entry.

    The store is bounded like the in-memory caches: past
    [max_entries] files or [max_bytes] total payload, the
    least-recently-used entries (by file mtime, refreshed on every
    hit) are deleted.  Entry files carrying a stale format version or
    a foreign binary token are garbage-collected at {!open_root}.

    Counters ([store.hit] / [store.miss] / [store.write] /
    [store.invalid] probes, plus store-local counters that work with
    telemetry disabled) feed {!stats}, which the [lambekd_store_*]
    metrics and [grammars --cache-stats] read directly. *)

type t

val env_var : string
(** ["LAMBEKD_STORE"] — the store root used when no [--store] flag is
    given. *)

val format_version : int
(** Bumped whenever the header layout changes; entries with any other
    version are garbage-collected, never decoded.  A change to the
    payload shape ships in a new build, which {!binary_token} already
    marks stale. *)

val binary_token : unit -> string
(** A fingerprint of the running executable (MD5 of the binary image,
    computed once).  Entries written by a different build are invalid:
    the payload serializes closures, which only the producing binary
    can safely revive.  Falls back to a version string when the
    executable cannot be read — the marshaller's own code-digest check
    still rejects foreign closures, this token just lets the store
    classify them as stale instead of corrupt. *)

val open_root :
  ?max_entries:int -> ?max_bytes:int -> string -> (t, string) result
(** Open (creating if needed) a store rooted at the given directory.
    Defaults: 512 entries, 256 MiB of payload.  Errors — the path
    exists but is not a directory, cannot be created, or is not
    writable (checked eagerly with a probe file) — are wire-ready
    messages; the CLI front ends refuse to start on them rather than
    failing lazily per-request.  Opening garbage-collects entries with
    a stale version or foreign binary token. *)

val root : t -> string

val load :
  t -> digest:string -> decode:(string -> int -> 'a option) -> 'a option
(** Look up an entry.  [None] with the [store.miss] probe when no
    entry file exists; otherwise the header and checksum are
    validated, [decode] is applied to the entry file's bytes and the
    payload's offset in them (the payload runs to the end, so it is
    never copied out), and:

    - decode succeeds: the entry's recency is refreshed, [store.hit];
    - any validation or decode failure: the file is removed,
      [store.invalid], and [None] — the caller compiles fresh (and
      its subsequent {!save} rewrites the entry).

    Never raises: I/O errors during validation are invalids. *)

val save : t -> digest:string -> string -> bool
(** Write (or overwrite) the entry for [digest] crash-safely:
    temp file, fsync, atomic rename.  Returns [false] (with the
    failure logged at debug level) on I/O errors — a read-only or
    full disk degrades the store to a no-op, it never takes the
    service down.  A successful write bumps [store.write] and then
    enforces the entry/byte caps by deleting the least-recently-used
    entries. *)

type entry = {
  e_digest : string;
  e_bytes : int;  (** payload bytes (header excluded) *)
  e_mtime : float;
}

val entries : t -> entry list
(** Current valid-looking entries, most recently used first.  Reads
    headers only, never payloads. *)

type stats = {
  s_entries : int;
  s_bytes : int;  (** total payload bytes on disk *)
  s_hits : int;
  s_misses : int;
  s_writes : int;
  s_invalid : int;
  s_evictions : int;  (** cap-enforcement deletions since {!open_root} *)
}

val stats : t -> stats
(** Occupancy is re-scanned from the directory (other processes share
    the store); the counters are this handle's since {!open_root}. *)
