(* Persistent content-addressed cache store (Putil.Cache_store):
   round-trips, fresh-handle replay, corruption tolerance, LRU
   eviction, and multi-domain safety of the store together with the
   other digest-keyed memo tables it cooperates with (clock-calculus
   analyze cache, compiled-plan cache). *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Cache_store = Putil.Cache_store

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pcache_test_%d_%d" (Unix.getpid ()) !ctr)

let cleanup dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_store ?max_bytes f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> cleanup dir)
    (fun () ->
      match Cache_store.open_store ?max_bytes dir with
      | Error m -> Alcotest.fail ("open_store: " ^ m)
      | Ok t -> f t dir)

let entry_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".pcache")
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* Round-trips and stats                                              *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_store (fun t _dir ->
      Alcotest.(check (option string))
        "miss on empty" None
        (Cache_store.get t ~stage:"s" ~key:"k");
      Cache_store.put t ~stage:"s" ~key:"k" "payload";
      Alcotest.(check (option string))
        "string round-trip" (Some "payload")
        (Cache_store.get t ~stage:"s" ~key:"k");
      (* structured payloads survive the Marshal boundary *)
      let v = ([ 1; 2; 3 ], ("x", Some 4.5), [| true; false |]) in
      Cache_store.put t ~stage:"s2" ~key:"k" v;
      (match Cache_store.get t ~stage:"s2" ~key:"k" with
      | Some v' -> Alcotest.(check bool) "structured round-trip" true (v = v')
      | None -> Alcotest.fail "structured payload lost");
      (* same key under another stage is a distinct entry *)
      Alcotest.(check (option string))
        "stages namespaced" (Some "payload")
        (Cache_store.get t ~stage:"s" ~key:"k");
      Cache_store.put t ~stage:"s" ~key:"k" "replaced";
      Alcotest.(check (option string))
        "replace in place" (Some "replaced")
        (Cache_store.get t ~stage:"s" ~key:"k");
      Alcotest.(check bool) "mem hit" true (Cache_store.mem t ~stage:"s" ~key:"k");
      Alcotest.(check bool)
        "mem miss" false
        (Cache_store.mem t ~stage:"s" ~key:"absent");
      let st = Cache_store.stats t in
      Alcotest.(check int) "entries" 2 st.Cache_store.entries;
      Alcotest.(check int) "writes" 3 st.Cache_store.writes;
      Alcotest.(check int) "hits" 4 st.Cache_store.hits;
      Alcotest.(check int) "misses" 1 st.Cache_store.misses;
      Alcotest.(check bool) "bytes accounted" true (st.Cache_store.bytes > 0))

(* a second handle on the same directory — a stand-in for a fresh
   process — replays entries it never wrote *)
let test_fresh_handle_replays () =
  with_store (fun t dir ->
      Cache_store.put t ~stage:"warm" ~key:"k1" [ "a"; "b" ];
      Cache_store.put t ~stage:"warm" ~key:"k2" 42;
      match Cache_store.open_store dir with
      | Error m -> Alcotest.fail ("reopen: " ^ m)
      | Ok t2 ->
        Alcotest.(check int)
          "index rebuilt" 2
          (Cache_store.stats t2).Cache_store.entries;
        (match Cache_store.get t2 ~stage:"warm" ~key:"k1" with
        | Some l ->
          Alcotest.(check (list string)) "replayed list" [ "a"; "b" ] l
        | None -> Alcotest.fail "k1 lost across handles");
        Alcotest.(check (option int))
          "replayed int" (Some 42)
          (Cache_store.get t2 ~stage:"warm" ~key:"k2"))

let test_clear () =
  with_store (fun t dir ->
      for i = 1 to 5 do
        Cache_store.put t ~stage:"c" ~key:(string_of_int i) i
      done;
      Alcotest.(check int) "clear count" 5 (Cache_store.clear t);
      Alcotest.(check int)
        "empty after clear" 0
        (Cache_store.stats t).Cache_store.entries;
      Alcotest.(check (option int))
        "entries gone" None
        (Cache_store.get t ~stage:"c" ~key:"3");
      Alcotest.(check int) "files gone" 0 (List.length (entry_files dir)))

let test_rejects_closures () =
  with_store (fun t _dir ->
      Alcotest.(check bool)
        "functional payload rejected" true
        (match Cache_store.put t ~stage:"f" ~key:"k" (fun x -> x + 1) with
        | () -> false
        | exception Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Corruption tolerance                                               *)
(* ------------------------------------------------------------------ *)

let damage_file f path =
  let len = (Unix.stat path).Unix.st_size in
  f path len

let truncate_file path len = Unix.truncate path (len / 2)

let flip_last_byte path len =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let corruption_case damage () =
  with_store (fun t dir ->
      Cache_store.put t ~stage:"d" ~key:"k" (String.make 256 'p');
      (match entry_files dir with
      | [ path ] -> damage_file damage path
      | files ->
        Alcotest.fail
          (Printf.sprintf "expected one entry file, found %d"
             (List.length files)));
      (* a damaged entry is a miss, never a crash; the file is removed *)
      Alcotest.(check (option string))
        "damaged entry misses" None
        (Cache_store.get t ~stage:"d" ~key:"k");
      Alcotest.(check int)
        "corruption counted" 1
        (Cache_store.stats t).Cache_store.corrupt;
      Alcotest.(check int) "damaged file removed" 0
        (List.length (entry_files dir));
      (* the slot is usable again *)
      Cache_store.put t ~stage:"d" ~key:"k" "fresh";
      Alcotest.(check (option string))
        "store recovers" (Some "fresh")
        (Cache_store.get t ~stage:"d" ~key:"k"))

let test_truncation_is_miss = corruption_case truncate_file
let test_bitflip_is_miss = corruption_case flip_last_byte

let test_foreign_file_quarantined () =
  with_store (fun t dir ->
      Cache_store.put t ~stage:"q" ~key:"k" "good";
      let junk = Filename.concat dir "junk-deadbeef.pcache" in
      let oc = open_out_bin junk in
      output_string oc "not a cache entry";
      close_out oc;
      (* reopening scans the directory: the foreign file is discarded,
         the valid entry survives *)
      match Cache_store.open_store dir with
      | Error m -> Alcotest.fail ("reopen: " ^ m)
      | Ok t2 ->
        Alcotest.(check int)
          "foreign file counted corrupt" 1
          (Cache_store.stats t2).Cache_store.corrupt;
        Alcotest.(check bool) "foreign file removed" false
          (Sys.file_exists junk);
        Alcotest.(check (option string))
          "valid entry survives scan" (Some "good")
          (Cache_store.get t2 ~stage:"q" ~key:"k"))

(* ------------------------------------------------------------------ *)
(* Entries of another build                                           *)
(* ------------------------------------------------------------------ *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all
let write_bytes path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [forge entry] turns the bytes of a genuine entry into what another
   build would have left at the same path. Both the open handle and a
   fresh one (scanning the directory, as a new process does) must count
   the planted file as a miss: no crash, [get] returns [None]. *)
let foreign_entry_case forge () =
  with_store (fun t dir ->
      Cache_store.put t ~stage:"b" ~key:"k" "payload";
      let path =
        match entry_files dir with
        | [ p ] -> p
        | files ->
          Alcotest.failf "expected one entry file, found %d" (List.length files)
      in
      let planted = forge (read_bytes path) in
      write_bytes path planted;
      let misses t = (Cache_store.stats t).Cache_store.misses in
      Alcotest.(check (option string)) "open handle misses" None
        (Cache_store.get t ~stage:"b" ~key:"k");
      Alcotest.(check int) "miss counted" 1 (misses t);
      write_bytes path planted;
      match Cache_store.open_store dir with
      | Error m -> Alcotest.fail ("reopen: " ^ m)
      | Ok t2 ->
        Alcotest.(check int) "scan discards the entry" 1
          (Cache_store.stats t2).Cache_store.corrupt;
        Alcotest.(check (option string)) "fresh handle misses" None
          (Cache_store.get t2 ~stage:"b" ~key:"k");
        Alcotest.(check int) "miss counted" 1 (misses t2))

(* the same header with another build's fingerprint *)
let foreign_fingerprint entry =
  let fp = Digest.file Sys.executable_name in
  let i =
    try Str.search_forward (Str.regexp_string fp) entry 0
    with Not_found -> Alcotest.fail "no build fingerprint in the entry header"
  in
  String.sub entry 0 i
  ^ Digest.string "another build"
  ^ String.sub entry (i + 16) (String.length entry - i - 16)

(* the header layout every entry had before the build fingerprint *)
type v1_header = {
  v_version : int;
  v_ocaml : string;
  v_stage : string;
  v_key : string;
  v_len : int;
  v_md5 : string;
}

let v1_entry _ =
  let payload = Marshal.to_string "payload" [ Marshal.No_sharing ] in
  "POLYCACHE1\n"
  ^ Marshal.to_string
      { v_version = 1; v_ocaml = Sys.ocaml_version; v_stage = "b"; v_key = "k";
        v_len = String.length payload; v_md5 = Digest.string payload }
      []
  ^ payload

let test_foreign_fingerprint_is_miss = foreign_entry_case foreign_fingerprint
let test_v1_layout_is_miss = foreign_entry_case v1_entry

(* ------------------------------------------------------------------ *)
(* LRU eviction                                                       *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  (* calibrate: how many bytes does one 1000-byte payload cost? *)
  let per_entry =
    with_store (fun t _dir ->
        Cache_store.put t ~stage:"cal" ~key:"k" (String.make 1000 'x');
        (Cache_store.stats t).Cache_store.bytes)
  in
  with_store ~max_bytes:(per_entry * 5 / 2) (fun t _dir ->
      let put k = Cache_store.put t ~stage:"e" ~key:k (String.make 1000 'x') in
      put "a";
      put "b";
      (* touch [a]: it becomes the most recently used of the two *)
      Alcotest.(check bool) "a readable" true
        (Cache_store.get t ~stage:"e" ~key:"a" <> (None : string option));
      put "c";
      let st = Cache_store.stats t in
      Alcotest.(check int) "bound enforced" 2 st.Cache_store.entries;
      Alcotest.(check int) "one eviction" 1 st.Cache_store.evictions;
      Alcotest.(check bool) "bytes within bound" true
        (st.Cache_store.bytes <= per_entry * 5 / 2);
      Alcotest.(check bool) "LRU entry evicted" false
        (Cache_store.mem t ~stage:"e" ~key:"b");
      Alcotest.(check bool) "touched entry survives" true
        (Cache_store.mem t ~stage:"e" ~key:"a");
      Alcotest.(check bool) "new entry survives" true
        (Cache_store.mem t ~stage:"e" ~key:"c"))

(* ------------------------------------------------------------------ *)
(* Multi-domain safety                                                *)
(* ------------------------------------------------------------------ *)

(* Satellite audit: every digest-keyed cache the pipeline leans on —
   the persistent store (per-handle mutex), the clock-calculus analyze
   memo (its Putil.Memo lock, shared with reset_cache) and the
   compiled-plan memo (its Putil.Memo lock + atomic fast path) — must
   survive concurrent hammering from Domain_pool workers, including
   cache resets racing cold analyses. *)
let test_parallel_store_and_memos () =
  let kernel seed =
    N.process_exn
      (B.proc
         ~name:(Printf.sprintf "stress_%d" seed)
         ~inputs:[ Ast.var "a" Types.Tint ]
         ~outputs:[ Ast.var "x" Types.Tint ]
         B.[ "x" := v "a" + i seed ])
  in
  let kernels = Array.init 3 kernel in
  with_store (fun t _dir ->
      let n_workers = 4 and rounds = 120 in
      Putil.Domain_pool.with_pool n_workers (fun pool ->
          Putil.Domain_pool.run_tasks pool
            (List.init n_workers (fun w () ->
                 for i = 0 to rounds - 1 do
                   let key = Printf.sprintf "k%d" (i mod 13) in
                   Cache_store.put t ~stage:"stress" ~key (w, i);
                   (match
                      (Cache_store.get t ~stage:"stress" ~key
                        : (int * int) option)
                   with
                   | Some _ | None -> ());
                   let kp = kernels.(i mod Array.length kernels) in
                   ignore (Clocks.Calculus.analyze kp);
                   (match Polysim.Compile.compile kp with
                   | Ok _ | Error _ -> ());
                   if i mod 40 = w * 10 then Clocks.Calculus.reset_cache ()
                 done)));
      let st = Cache_store.stats t in
      Alcotest.(check int) "all keys live" 13 st.Cache_store.entries;
      Alcotest.(check int) "no corruption under contention" 0
        st.Cache_store.corrupt;
      (* every surviving entry is readable and well-formed *)
      for k = 0 to 12 do
        match
          (Cache_store.get t ~stage:"stress" ~key:(Printf.sprintf "k%d" k)
            : (int * int) option)
        with
        | Some (w, i) ->
          Alcotest.(check bool) "payload well-formed" true
            (w >= 0 && w < n_workers && i >= 0 && i < rounds)
        | None -> Alcotest.fail "entry lost under contention"
      done)

let suite =
  [ ( "cache_store",
      [ Alcotest.test_case "round-trip and stats" `Quick test_roundtrip;
        Alcotest.test_case "fresh handle replays" `Quick
          test_fresh_handle_replays;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "rejects closures" `Quick test_rejects_closures;
        Alcotest.test_case "truncation is a miss" `Quick
          test_truncation_is_miss;
        Alcotest.test_case "bit flip is a miss" `Quick test_bitflip_is_miss;
        Alcotest.test_case "foreign file quarantined" `Quick
          test_foreign_file_quarantined;
        Alcotest.test_case "foreign build is a miss" `Quick
          test_foreign_fingerprint_is_miss;
        Alcotest.test_case "previous header layout is a miss" `Quick
          test_v1_layout_is_miss;
        Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        Alcotest.test_case "parallel store and memos" `Quick
          test_parallel_store_and_memos ] ) ]
