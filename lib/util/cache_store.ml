(* Persistent content-addressed cache store. See the interface for the
   format and safety contract. *)

(* The magic names the header layout: files of an older layout are
   rejected before their header is decoded. *)
let magic = "POLYCACHE2\n"
let format_version = 1
let suffix = ".pcache"
let default_max_bytes = 64 * 1024 * 1024

(* A payload is only safe to decode in the build that wrote it: another
   build may have changed the record layout behind a stage. The
   fingerprint is the digest of the running executable, taken once per
   process; when the executable cannot be read, a per-process value
   makes every entry of other processes a miss. *)
let build_fp : string option Atomic.t = Atomic.make None

let build_fingerprint () =
  match Atomic.get build_fp with
  | Some fp -> fp
  | None ->
    let fp =
      try Digest.file Sys.executable_name
      with Sys_error _ ->
        Printf.sprintf "pid %d at %.6f" (Unix.getpid ()) (Unix.gettimeofday ())
    in
    if Atomic.compare_and_set build_fp None (Some fp) then fp
    else Option.get (Atomic.get build_fp)

(* Per-entry on-disk header, marshalled right after the magic string.
   The payload (h_len bytes, MD5 = h_md5) follows. *)
type header = {
  h_version : int;
  h_ocaml : string;
  h_build : string;  (* fingerprint of the writing build *)
  h_stage : string;
  h_key : string;
  h_len : int;
  h_md5 : string;
}

type entry = {
  e_file : string;  (* basename inside the store directory *)
  mutable e_bytes : int;  (* whole-file size, for the LRU bound *)
  mutable e_stamp : float;  (* recency; larger = more recently used *)
}

type t = {
  t_dir : string;
  t_max_bytes : int;
  t_index : (string * string, entry) Hashtbl.t;
  t_lock : Mutex.t;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_writes : int;
  mutable t_corrupt : int;
  mutable t_evictions : int;
  mutable t_tmp_seq : int;
  mutable t_stamp_seq : float;  (* strictly increasing recency source *)
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  evictions : int;
}

(* Global counters so the store shows up in --stats reports alongside
   the incr.* pipeline counters. *)
let m_hits = Metrics.counter "cache_store.hits"
let m_misses = Metrics.counter "cache_store.misses"
let m_writes = Metrics.counter "cache_store.writes"
let m_corrupt = Metrics.counter "cache_store.corrupt"
let m_evictions = Metrics.counter "cache_store.evictions"

(* live levels (last opened/mutated store wins), for the OpenMetrics
   exposition *)
let m_entries_g = Metrics.gauge "cache_store.entries"
let m_bytes_g = Metrics.gauge "cache_store.bytes"

let with_lock t f =
  Mutex.lock t.t_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.t_lock) f

let total_bytes t = Hashtbl.fold (fun _ e acc -> acc + e.e_bytes) t.t_index 0

(* refresh the live-level gauges; call with the store lock held after
   any index mutation *)
let update_level_gauges t =
  Metrics.set m_entries_g (Hashtbl.length t.t_index);
  Metrics.set m_bytes_g (total_bytes t)

let dir t = t.t_dir

(* Recency stamps start from the file mtime at open time and move to a
   strictly increasing in-process sequence afterwards, so the LRU order
   is total even when many entries share an mtime. *)
let next_stamp t =
  t.t_stamp_seq <- t.t_stamp_seq +. 1.0;
  t.t_stamp_seq

let entry_basename ~stage ~key =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
        | _ -> '_')
      stage
  in
  let id = Digest.to_hex (Digest.string (stage ^ "\x00" ^ key)) in
  sanitized ^ "-" ^ id ^ suffix

let entry_path t base = Filename.concat t.t_dir base

(* Magic and header of an open entry file, with every stamp checked.
   Raises on any defect; callers translate that into a miss. *)
let read_checked_header ic =
  let m = really_input_string ic (String.length magic) in
  if not (String.equal m magic) then failwith "bad magic";
  let h : header = Marshal.from_channel ic in
  if h.h_version <> format_version then failwith "version mismatch";
  if not (String.equal h.h_ocaml Sys.ocaml_version) then
    failwith "compiler mismatch";
  if not (String.equal h.h_build (build_fingerprint ())) then
    failwith "build mismatch";
  h

let with_entry_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* Read and fully verify one entry file. Returns the payload string. *)
let read_verified path =
  with_entry_file path (fun ic ->
      let h = read_checked_header ic in
      let payload = really_input_string ic h.h_len in
      if not (String.equal (Digest.string payload) h.h_md5) then
        failwith "integrity hash mismatch";
      (h, payload))

(* Open-time validation: magic, header stamps and length only — the
   payload hash is checked again on every [get], so the scan costs one
   small read per entry instead of a full re-hash of the store. *)
let read_header path =
  with_entry_file path (fun ic ->
      let h = read_checked_header ic in
      if in_channel_length ic < pos_in ic + h.h_len then
        failwith "truncated payload";
      h)

let scan t =
  let files = try Sys.readdir t.t_dir with Sys_error _ -> [||] in
  Array.iter
    (fun base ->
      if Filename.check_suffix base suffix then begin
        let path = entry_path t base in
        match
          let st = Unix.stat path in
          let h = read_header path in
          (st, h)
        with
        | st, h ->
          Hashtbl.replace t.t_index (h.h_stage, h.h_key)
            { e_file = base; e_bytes = st.Unix.st_size; e_stamp = st.Unix.st_mtime };
          t.t_stamp_seq <- Float.max t.t_stamp_seq st.Unix.st_mtime
        | exception _ ->
          (* Damaged or foreign file: count it and clean it up. *)
          t.t_corrupt <- t.t_corrupt + 1;
          Metrics.incr m_corrupt;
          (try Sys.remove path with Sys_error _ -> ())
      end)
    files

let open_store ?(max_bytes = default_max_bytes) dir =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  match
    mkdir_p dir;
    if not (Sys.is_directory dir) then failwith (dir ^ ": not a directory")
  with
  | () ->
    (* digest the executable here rather than in the first get *)
    ignore (build_fingerprint ());
    let t =
      { t_dir = dir; t_max_bytes = max_bytes;
        t_index = Hashtbl.create 64; t_lock = Mutex.create ();
        t_hits = 0; t_misses = 0; t_writes = 0; t_corrupt = 0;
        t_evictions = 0; t_tmp_seq = 0; t_stamp_seq = 0.0 }
    in
    scan t;
    update_level_gauges t;
    Ok t
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let drop_entry t k e =
  Hashtbl.remove t.t_index k;
  try Sys.remove (entry_path t e.e_file) with Sys_error _ -> ()

let evict_to_bound t =
  let rec loop () =
    if total_bytes t > t.t_max_bytes && Hashtbl.length t.t_index > 1 then begin
      (* Evict the least recently used entry (never the one just
         written: it carries the freshest stamp). *)
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, e') when e'.e_stamp <= e.e_stamp -> acc
            | _ -> Some (k, e))
          t.t_index None
      in
      match victim with
      | None -> ()
      | Some (k, e) ->
        drop_entry t k e;
        t.t_evictions <- t.t_evictions + 1;
        Metrics.incr m_evictions;
        loop ()
    end
  in
  loop ()

let get t ~stage ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.t_index (stage, key) with
      | None ->
        t.t_misses <- t.t_misses + 1;
        Metrics.incr m_misses;
        None
      | Some e -> (
        let path = entry_path t e.e_file in
        match read_verified path with
        | h, payload
          when String.equal h.h_stage stage && String.equal h.h_key key -> (
          match Marshal.from_string payload 0 with
          | v ->
            e.e_stamp <- next_stamp t;
            (* Best-effort mtime touch so a later open sees the same
               recency order. *)
            (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
            t.t_hits <- t.t_hits + 1;
            Metrics.incr m_hits;
            Some v
          | exception _ ->
            t.t_corrupt <- t.t_corrupt + 1;
            Metrics.incr m_corrupt;
            drop_entry t (stage, key) e;
            update_level_gauges t;
            t.t_misses <- t.t_misses + 1;
            Metrics.incr m_misses;
            None)
        | _ | (exception _) ->
          t.t_corrupt <- t.t_corrupt + 1;
          Metrics.incr m_corrupt;
          drop_entry t (stage, key) e;
          update_level_gauges t;
          t.t_misses <- t.t_misses + 1;
          Metrics.incr m_misses;
          None))

let put t ~stage ~key v =
  let payload =
    try Marshal.to_string v [ Marshal.No_sharing ]
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf
           "Cache_store.put: stage %S: value contains a closure \
            (functional value); store payloads must be pure data"
           stage)
  in
  with_lock t (fun () ->
      let header =
        { h_version = format_version; h_ocaml = Sys.ocaml_version;
          h_build = build_fingerprint (); h_stage = stage; h_key = key;
          h_len = String.length payload; h_md5 = Digest.string payload }
      in
      let base = entry_basename ~stage ~key in
      t.t_tmp_seq <- t.t_tmp_seq + 1;
      let tmp =
        Filename.concat t.t_dir
          (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) t.t_tmp_seq)
      in
      match
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc magic;
            Marshal.to_channel oc header [];
            output_string oc payload);
        Sys.rename tmp (entry_path t base)
      with
      | () ->
        let bytes =
          try (Unix.stat (entry_path t base)).Unix.st_size
          with Unix.Unix_error _ -> String.length payload
        in
        Hashtbl.replace t.t_index (stage, key)
          { e_file = base; e_bytes = bytes; e_stamp = next_stamp t };
        t.t_writes <- t.t_writes + 1;
        Metrics.incr m_writes;
        evict_to_bound t;
        update_level_gauges t
      | exception (Sys_error _ | Unix.Unix_error _) ->
        (* Disk-level failure degrades to "not cached". *)
        (try Sys.remove tmp with Sys_error _ -> ()))

let mem t ~stage ~key =
  with_lock t (fun () -> Hashtbl.mem t.t_index (stage, key))

let stats t =
  with_lock t (fun () ->
      { entries = Hashtbl.length t.t_index; bytes = total_bytes t;
        hits = t.t_hits; misses = t.t_misses; writes = t.t_writes;
        corrupt = t.t_corrupt; evictions = t.t_evictions })

let clear t =
  with_lock t (fun () ->
      let n = Hashtbl.length t.t_index in
      Hashtbl.iter (fun _ e ->
          try Sys.remove (entry_path t e.e_file) with Sys_error _ -> ())
        t.t_index;
      Hashtbl.reset t.t_index;
      update_level_gauges t;
      n)
