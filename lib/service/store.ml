module Probe = Lambekd_telemetry.Probe

let env_var = "LAMBEKD_STORE"
let format_version = 1
let magic = "LAMBEKD-STORE"
let suffix = ".lks"

let c_hit = Probe.counter "store.hit"
let c_miss = Probe.counter "store.miss"
let c_write = Probe.counter "store.write"
let c_invalid = Probe.counter "store.invalid"
let c_evict = Probe.counter "store.evict"

(* The payload serializes closures, which are only meaningful inside
   the executable build that produced them, so the header carries a
   fingerprint of the binary image.  The marshaller's own code-segment
   digest would reject a foreign closure anyway; fingerprinting the
   whole file up front lets a rolling deploy classify old entries as
   stale (GC'd quietly at open) instead of tripping invalid counters
   request by request. *)
let binary_token_state = lazy (
  match Digest.to_hex (Digest.file Sys.executable_name) with
  | d -> d
  | exception _ -> "ocaml-" ^ Sys.ocaml_version)

let binary_token () = Lazy.force binary_token_state

type t = {
  root : string;
  max_entries : int;
  max_bytes : int;
  mu : Mutex.t;  (** serializes this handle's eviction scans *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
  invalid : int Atomic.t;
  evictions : int Atomic.t;
}

let root t = t.root
let tick c = ignore (Atomic.fetch_and_add c 1)

let path_of t digest = Filename.concat t.root (digest ^ suffix)

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

(* --- entry file format ----------------------------------------------------

   A short text header (inspectable with head(1)) followed by the raw
   payload bytes:

     LAMBEKD-STORE <format_version>
     digest <hex>
     binary <binary token>
     bytes <payload length>
     md5 <hex of payload>
     <blank line>
     <payload>

   The header fits well inside [header_max] bytes, so directory scans
   ({!entries}, stale-version GC) read a prefix and never touch
   payloads. *)

let header_max = 512

let render ~digest payload =
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic format_version);
  Buffer.add_string b (Printf.sprintf "digest %s\n" digest);
  Buffer.add_string b (Printf.sprintf "binary %s\n" (binary_token ()));
  Buffer.add_string b (Printf.sprintf "bytes %d\n" (String.length payload));
  Buffer.add_string b
    (Printf.sprintf "md5 %s\n\n" (Digest.to_hex (Digest.string payload)));
  Buffer.add_string b payload;
  Buffer.contents b

type header = {
  h_digest : string;
  h_md5 : string;
  h_start : int;  (** payload offset in the entry file *)
  h_bytes : int;  (** payload length the header claims *)
}

(* Validate a header against this store's version and binary token.
   [`Stale] — recognizably ours but from another format version or
   binary build (GC fodder, not corruption); [`Invalid] — anything
   else wrong with it.  Payload length/checksum checks are the
   caller's: this may be running on a prefix read. *)
let parse_header contents =
  let stale = ref false in
  try
    let line i =
      let j = String.index_from contents i '\n' in
      (String.sub contents i (j - i), j + 1)
    in
    let l0, i = line 0 in
    (match String.split_on_char ' ' l0 with
    | [ m; v ] when m = magic ->
      if int_of_string v <> format_version then begin
        stale := true;
        raise Exit
      end
    | _ -> raise Exit);
    let field name i =
      let l, j = line i in
      match String.split_on_char ' ' l with
      | [ n; v ] when n = name -> (v, j)
      | _ -> raise Exit
    in
    let h_digest, i = field "digest" i in
    let binary, i = field "binary" i in
    if binary <> binary_token () then begin
      stale := true;
      raise Exit
    end;
    let bytes, i = field "bytes" i in
    let h_md5, i = field "md5" i in
    let h_bytes = int_of_string bytes in
    if i >= String.length contents || contents.[i] <> '\n' then raise Exit;
    Ok { h_digest; h_md5; h_start = i + 1; h_bytes }
  with _ -> Error (if !stale then `Stale else `Invalid)

let read_prefix path n =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = min n (in_channel_length ic) in
      really_input_string ic len)

(* --- open ----------------------------------------------------------------- *)

let default_max_entries = 512
let default_max_bytes = 256 * 1024 * 1024

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let entry_files t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun n ->
           if Filename.check_suffix n suffix then
             let d = Filename.chop_suffix n suffix in
             if is_hex d then Some d else None
           else None)

(* Remove entries this build can never decode: stale format versions
   and foreign binary tokens go quietly (a redeploy is not
   corruption); an unparseable header is an invalid. *)
let gc_stale t =
  List.iter
    (fun d ->
      let path = path_of t d in
      match read_prefix path header_max with
      | exception Sys_error _ -> ()
      | prefix -> (
        match parse_header prefix with
        | Ok _ -> ()
        | Error `Stale -> ( try Sys.remove path with Sys_error _ -> ())
        | Error `Invalid ->
          tick t.invalid;
          Probe.bump c_invalid;
          (try Sys.remove path with Sys_error _ -> ())))
    (entry_files t)

let open_root ?(max_entries = default_max_entries)
    ?(max_bytes = default_max_bytes) dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (Fmt.str "store path %s exists and is not a directory" dir)
  else
    match mkdir_p dir with
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Fmt.str "cannot create store directory %s: %s" dir
           (Unix.error_message e))
    | () -> (
      (* eager writability probe: a read-only root must fail at startup
         with a clear message, not lazily on the first compile *)
      let probe =
        Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ()))
      in
      match
        let oc = open_out_bin probe in
        close_out oc;
        Sys.remove probe
      with
      | exception Sys_error msg ->
        Error (Fmt.str "store directory %s is not writable: %s" dir msg)
      | () ->
        let t =
          { root = dir;
            max_entries;
            max_bytes;
            mu = Mutex.create ();
            hits = Atomic.make 0;
            misses = Atomic.make 0;
            writes = Atomic.make 0;
            invalid = Atomic.make 0;
            evictions = Atomic.make 0 }
        in
        gc_stale t;
        Ok t)

(* --- load ----------------------------------------------------------------- *)

let invalidate t digest =
  tick t.invalid;
  Probe.bump c_invalid;
  try Sys.remove (path_of t digest) with Sys_error _ -> ()

(* refresh LRU recency: utimes with 0 0 sets both stamps to now *)
let touch path = try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

(* One open and fstat-sized reads; ENOENT (raised by the open) is the
   caller's miss, any other failure an invalid.  A file that shrinks
   under the read comes back short and fails the length check. *)
let read_entry path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create n in
      let rec fill off =
        if off = n then off
        else
          match Unix.read fd b off (n - off) with
          | 0 -> off
          | k -> fill (off + k)
      in
      let got = fill 0 in
      if got = n then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got)

let load t ~digest ~decode =
  let path = path_of t digest in
  let validated =
    match read_entry path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Miss
    | exception (Unix.Unix_error _ | Sys_error _) -> `Invalid
    | contents -> (
      match parse_header contents with
      | Error _ -> `Invalid
      | Ok h ->
        if h.h_digest <> digest then `Invalid
        else if String.length contents - h.h_start <> h.h_bytes then `Invalid
        else if
          Digest.to_hex (Digest.substring contents h.h_start h.h_bytes)
          <> h.h_md5
        then `Invalid
        else
          (* bytes are intact; the caller's decode still revalidates
             the structural digest before trusting the contents *)
          match decode contents h.h_start with
          | Some v -> `Hit v
          | None | (exception _) -> `Invalid)
  in
  match validated with
  | `Hit v ->
    tick t.hits;
    Probe.bump c_hit;
    touch path;
    Some v
  | `Miss ->
    tick t.misses;
    Probe.bump c_miss;
    None
  | `Invalid ->
    invalidate t digest;
    None

(* --- save + eviction ------------------------------------------------------- *)

type entry = { e_digest : string; e_bytes : int; e_mtime : float }

let entry_of t d =
  let path = path_of t d in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st -> (
    (* payload size from the header, not st_size: eviction budgets and
       the occupancy gauge count artifact bytes, not header framing *)
    match read_prefix path header_max with
    | exception Sys_error _ -> None
    | prefix -> (
      match parse_header prefix with
      | Ok h ->
        Some { e_digest = d; e_bytes = h.h_bytes; e_mtime = st.Unix.st_mtime }
      | Error _ -> None))

let entries t =
  entry_files t
  |> List.filter_map (entry_of t)
  |> List.sort (fun a b -> compare b.e_mtime a.e_mtime)

let enforce_caps t =
  Mutex.protect t.mu (fun () ->
      let es = entries t in
      let total = List.fold_left (fun n e -> n + e.e_bytes) 0 es in
      (* oldest last after the MRU sort: walk from the tail *)
      let rec evict count bytes = function
        | [] -> ()
        | e :: newer ->
          if count > t.max_entries || bytes > t.max_bytes then begin
            (try Sys.remove (path_of t e.e_digest) with Sys_error _ -> ());
            tick t.evictions;
            Probe.bump c_evict;
            evict (count - 1) (bytes - e.e_bytes) newer
          end
      in
      evict (List.length es) total (List.rev es))

(* temp names are unique per save within a process, not only per pid:
   domains share the pid, and two of them truncating one temp file
   could rename a torn mix of both into place *)
let tmp_seq = Atomic.make 0

let save t ~digest payload =
  let final = path_of t digest in
  (* pid- and sequence-tagged temp name: writers racing on the same
     digest, processes or domains, each rename their own complete file,
     and last writer wins *)
  let tmp =
    Filename.concat t.root
      (Printf.sprintf ".%s.tmp.%d.%d" digest (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let data = Bytes.unsafe_of_string (render ~digest payload) in
        let n = Bytes.length data in
        let written = ref 0 in
        while !written < n do
          written := !written + Unix.write fd data !written (n - !written)
        done;
        (* fsync before rename: after a crash the entry either exists
           complete or not at all — a torn write can never be renamed
           into place *)
        Unix.fsync fd);
    Unix.rename tmp final
  with
  | () ->
    tick t.writes;
    Probe.bump c_write;
    enforce_caps t;
    true
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Logs.debug (fun m -> m "store: write failed for %s" digest);
    false

(* --- stats ----------------------------------------------------------------- *)

type stats = {
  s_entries : int;
  s_bytes : int;
  s_hits : int;
  s_misses : int;
  s_writes : int;
  s_invalid : int;
  s_evictions : int;
}

let stats t =
  let es = entries t in
  { s_entries = List.length es;
    s_bytes = List.fold_left (fun n e -> n + e.e_bytes) 0 es;
    s_hits = Atomic.get t.hits;
    s_misses = Atomic.get t.misses;
    s_writes = Atomic.get t.writes;
    s_invalid = Atomic.get t.invalid;
    s_evictions = Atomic.get t.evictions }
