(* Per-domain event buffers behind one atomic enabled flag. The
   recording side is wait-free: a domain only ever appends to its own
   buffer (discovered through domain-local storage), so explorer
   workers can emit spans concurrently with the main domain. The
   reading side (export, reset) walks every buffer and is only called
   once parallel sections have joined. *)

type arg =
  | Abool of bool
  | Aint of int
  | Afloat of float
  | Astr of string

type event =
  | Begin of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
      id : int;     (* process-unique span id, 0 when unknown *)
      parent : int; (* parent span id, 0 = root; may live on another
                       domain when the span was submitted through
                       Domain_pool under an observation scope *)
    }
  | End of { ts_ns : int }
  | Inst of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
    }
  | Lane_span of {
      lane : string; name : string; cat : string;
      ts_us : int; dur_us : int; args : (string * arg) list;
    }
  | Lane_inst of {
      lane : string; name : string; cat : string; ts_us : int;
      args : (string * arg) list;
    }

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type buffer = {
  dom : int;
  mutable evs : event array;
  mutable len : int;
}

let dummy_event = End { ts_ns = 0 }

(* every buffer ever created, so events survive their domain's death
   (explorer pools are shut down before export) *)
let buffers : buffer list ref = ref []
let buffers_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int);
          evs = Array.make 256 dummy_event; len = 0 }
      in
      Mutex.lock buffers_lock;
      buffers := b :: !buffers;
      Mutex.unlock buffers_lock;
      b)

let push ev =
  let b = Domain.DLS.get dls_key in
  let cap = Array.length b.evs in
  if b.len = cap then begin
    let evs = Array.make (2 * cap) dummy_event in
    Array.blit b.evs 0 evs 0 cap;
    b.evs <- evs
  end;
  b.evs.(b.len) <- ev;
  b.len <- b.len + 1

let reset () =
  Mutex.lock buffers_lock;
  List.iter (fun b -> b.len <- 0) !buffers;
  Mutex.unlock buffers_lock

(* ------------------------------------------------------------------ *)
(* Span identity and cross-domain parenting                            *)
(* ------------------------------------------------------------------ *)

(* Span ids are process-unique so a worker span can name its parent on
   another domain. Each domain tracks its open-span stack plus a [base]
   context installed by [with_context] — the parent a pool worker
   inherits from the submitting domain. *)
let span_seq = Atomic.make 0

type dctx = { mutable open_spans : int list; mutable base : int }

let dls_ctx = Domain.DLS.new_key (fun () -> { open_spans = []; base = 0 })

type context = int

let no_context : context = 0

let current_context () =
  let d = Domain.DLS.get dls_ctx in
  match d.open_spans with id :: _ -> id | [] -> d.base

let with_context ctx f =
  let d = Domain.DLS.get dls_ctx in
  let saved_base = d.base and saved_stack = d.open_spans in
  d.base <- ctx;
  d.open_spans <- [];
  Fun.protect
    ~finally:(fun () ->
      let d = Domain.DLS.get dls_ctx in
      d.base <- saved_base;
      d.open_spans <- saved_stack)
    f

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* Always-on bounded ring of the most recent span/instant/diag events,
   one ring per domain. The writer only touches its own ring (found
   through DLS), so recording is race-free and costs one array store;
   older events are overwritten once the ring is full. A snapshot
   ([flight_events]) is what gets attached to JSON error output so a
   failed run explains itself without re-running under --trace. *)

type fkind = Fspan_begin | Fspan_end | Finstant | Fdiag

type fevent = {
  f_ts_ns : int;
  f_kind : fkind;
  f_name : string;
  f_cat : string;
  f_args : (string * arg) list;
}

let flight_capacity = 256

type fring = {
  f_dom : int;
  slots : fevent option array;
  mutable written : int; (* total events ever recorded on this domain *)
}

let frings : fring list ref = ref []
let frings_lock = Mutex.create ()

let dls_fring =
  Domain.DLS.new_key (fun () ->
      let r =
        { f_dom = (Domain.self () :> int);
          slots = Array.make flight_capacity None; written = 0 }
      in
      Mutex.lock frings_lock;
      frings := r :: !frings;
      Mutex.unlock frings_lock;
      r)

let flight_record f_ts_ns f_kind f_name f_cat f_args =
  let r = Domain.DLS.get dls_fring in
  r.slots.(r.written mod flight_capacity) <-
    Some { f_ts_ns; f_kind; f_name; f_cat; f_args };
  r.written <- r.written + 1

let flight_events () =
  Mutex.lock frings_lock;
  let rings = !frings in
  Mutex.unlock frings_lock;
  List.sort (fun a b -> compare a.f_dom b.f_dom) rings
  |> List.filter_map (fun r ->
         if r.written = 0 then None
         else begin
           let kept = min r.written flight_capacity in
           let first = r.written - kept in
           let evs = ref [] in
           for i = r.written - 1 downto first do
             match r.slots.(i mod flight_capacity) with
             | Some e -> evs := e :: !evs
             | None -> ()
           done;
           Some (r.f_dom, first, !evs)
         end)

let flight_reset () =
  Mutex.lock frings_lock;
  List.iter
    (fun r ->
      Array.fill r.slots 0 flight_capacity None;
      r.written <- 0)
    !frings;
  Mutex.unlock frings_lock

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* The one instrumentation call: one clock read at each edge feeds the
   flight ring, the trace buffer (when tracing is on) and the global
   timer named like the span, whether tracing is on or off. *)
let with_span ?(cat = "toolchain") ?args name f =
  let args = match args with Some a -> a | None -> [] in
  let timer = Metrics.timer name in
  let t0 = Clock.now_ns () in
  flight_record t0 Fspan_begin name cat args;
  let traced = Atomic.get enabled_flag in
  if traced then begin
    let d = Domain.DLS.get dls_ctx in
    let id = 1 + Atomic.fetch_and_add span_seq 1 in
    let parent = match d.open_spans with p :: _ -> p | [] -> d.base in
    push (Begin { name; cat; ts_ns = t0; args; id; parent });
    d.open_spans <- id :: d.open_spans
  end;
  Fun.protect
    ~finally:(fun () ->
      let t1 = Clock.now_ns () in
      flight_record t1 Fspan_end name cat [];
      Metrics.add_span_ns timer (t1 - t0);
      if traced then begin
        let d = Domain.DLS.get dls_ctx in
        (match d.open_spans with _ :: rest -> d.open_spans <- rest | [] -> ());
        push (End { ts_ns = t1 })
      end)
    f

let instant ?(cat = "toolchain") ?args name =
  let args = match args with Some a -> a | None -> [] in
  let ts_ns = Clock.now_ns () in
  flight_record ts_ns Finstant name cat args;
  if Atomic.get enabled_flag then push (Inst { name; cat; ts_ns; args })

(* diagnostics feed the flight recorder (never the trace buffers: diag
   emission must not depend on tracing being enabled) *)
let flight_diag ~severity ~code message =
  flight_record (Clock.now_ns ()) Fdiag code "diag"
    [ ("severity", Astr severity); ("message", Astr message) ]

let lane_span ~lane ?(cat = "schedule") ?args ~ts_us ~dur_us name =
  if Atomic.get enabled_flag then
    push
      (Lane_span
         { lane; name; cat; ts_us; dur_us;
           args = Option.value ~default:[] args })

let lane_instant ~lane ?(cat = "schedule") ?args ~ts_us name =
  if Atomic.get enabled_flag then
    push
      (Lane_inst
         { lane; name; cat; ts_us; args = Option.value ~default:[] args })

let events () =
  Mutex.lock buffers_lock;
  let bufs = !buffers in
  Mutex.unlock buffers_lock;
  List.sort (fun a b -> compare a.dom b.dom) bufs
  |> List.filter_map (fun b ->
         if b.len = 0 then None
         else Some (b.dom, Array.to_list (Array.sub b.evs 0 b.len)))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event sink                                             *)
(* ------------------------------------------------------------------ *)

module J = Metrics.Json

let json_of_arg = function
  | Abool b -> J.Bool b
  | Aint n -> J.Int n
  | Afloat f -> J.Float f
  | Astr s -> J.String s

let json_args args =
  if args = [] then []
  else [ ("args", J.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]

let host_pid = 1
let sched_pid = 2

(* ts in fractional µs relative to the earliest host event, so traces
   open near t=0 regardless of system uptime *)
let rel_us t0 ts_ns = float_of_int (ts_ns - t0) /. 1e3

let chrome_events () =
  let per_domain = events () in
  let t0 =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left
          (fun acc ev ->
            match ev with
            | Begin { ts_ns; _ } | Inst { ts_ns; _ } -> min acc ts_ns
            | End _ | Lane_span _ | Lane_inst _ -> acc)
          acc evs)
      max_int per_domain
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let out = ref [] in
  let emit ev = out := ev :: !out in
  (* lanes are interned in first-emission order: deterministic for a
     deterministic simulation *)
  let lane_tids = Hashtbl.create 16 in
  let lane_order = ref [] in
  let lane_tid lane =
    match Hashtbl.find_opt lane_tids lane with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length lane_tids + 1 in
      Hashtbl.add lane_tids lane tid;
      lane_order := (lane, tid) :: !lane_order;
      tid
  in
  let domains_seen = ref [] in
  List.iter
    (fun (dom, evs) ->
      let hosted = ref false in
      (* pair Begin/End into X complete events with an explicit stack;
         an unclosed span (export mid-run) closes at the last event *)
      let last_ts =
        List.fold_left
          (fun acc ev ->
            match ev with
            | Begin { ts_ns; _ } | Inst { ts_ns; _ } | End { ts_ns } ->
              max acc ts_ns
            | Lane_span _ | Lane_inst _ -> acc)
          t0 evs
      in
      let stack = ref [] in
      (* span identity rides along in args so cross-domain parent links
         (pool workers under a submitting scope) survive the export *)
      let id_args id parent args =
        let ids =
          if id = 0 then []
          else if parent = 0 then [ ("span_id", Aint id) ]
          else [ ("span_id", Aint id); ("parent_span_id", Aint parent) ]
        in
        ids @ args
      in
      List.iter
        (fun ev ->
          match ev with
          | Begin { name; cat; ts_ns; args; id; parent } ->
            hosted := true;
            stack := (name, cat, ts_ns, id_args id parent args) :: !stack
          | End { ts_ns } -> (
            match !stack with
            | [] -> ()
            | (name, cat, b_ts, args) :: rest ->
              stack := rest;
              emit
                (J.Obj
                   ([ ("name", J.String name);
                      ("cat", J.String cat);
                      ("ph", J.String "X");
                      ("ts", J.Float (rel_us t0 b_ts));
                      ("dur", J.Float (rel_us b_ts ts_ns));
                      ("pid", J.Int host_pid);
                      ("tid", J.Int dom) ]
                   @ json_args args)))
          | Inst { name; cat; ts_ns; args } ->
            hosted := true;
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "i");
                    ("s", J.String "t");
                    ("ts", J.Float (rel_us t0 ts_ns));
                    ("pid", J.Int host_pid);
                    ("tid", J.Int dom) ]
                 @ json_args args))
          | Lane_span { lane; name; cat; ts_us; dur_us; args } ->
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "X");
                    ("ts", J.Int ts_us);
                    ("dur", J.Int dur_us);
                    ("pid", J.Int sched_pid);
                    ("tid", J.Int (lane_tid lane)) ]
                 @ json_args args))
          | Lane_inst { lane; name; cat; ts_us; args } ->
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "i");
                    ("s", J.String "t");
                    ("ts", J.Int ts_us);
                    ("pid", J.Int sched_pid);
                    ("tid", J.Int (lane_tid lane)) ]
                 @ json_args args)))
        evs;
      (* close any still-open spans so the export is always well-formed *)
      List.iter
        (fun (name, cat, b_ts, args) ->
          emit
            (J.Obj
               ([ ("name", J.String name);
                  ("cat", J.String cat);
                  ("ph", J.String "X");
                  ("ts", J.Float (rel_us t0 b_ts));
                  ("dur", J.Float (rel_us b_ts last_ts));
                  ("pid", J.Int host_pid);
                  ("tid", J.Int dom) ]
               @ json_args args)))
        !stack;
      if !hosted then domains_seen := dom :: !domains_seen)
    per_domain;
  (* metadata: name the two processes and every lane *)
  let meta name pid tid value =
    J.Obj
      [ ("name", J.String name);
        ("ph", J.String "M");
        ("pid", J.Int pid);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.String value) ]) ]
  in
  let metas =
    meta "process_name" host_pid 0 "toolchain (host time)"
    :: meta "process_name" sched_pid 0 "schedule (logical time, us)"
    :: List.rev_map
         (fun dom ->
           meta "thread_name" host_pid dom (Printf.sprintf "domain %d" dom))
         !domains_seen
    @ List.rev_map
        (fun (lane, tid) -> meta "thread_name" sched_pid tid lane)
        !lane_order
  in
  metas @ List.rev !out

let to_chrome () =
  J.to_string
    (J.Obj
       [ ("traceEvents", J.Arr (chrome_events ()));
         ("displayTimeUnit", J.String "ms") ])

(* ------------------------------------------------------------------ *)
(* Text sink                                                           *)
(* ------------------------------------------------------------------ *)

let pp_arg ppf (k, v) =
  match v with
  | Abool b -> Format.fprintf ppf "%s=%b" k b
  | Aint n -> Format.fprintf ppf "%s=%d" k n
  | Afloat f -> Format.fprintf ppf "%s=%g" k f
  | Astr s -> Format.fprintf ppf "%s=%s" k s

let pp_args ppf = function
  | [] -> ()
  | args ->
    Format.fprintf ppf " {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_arg)
      args

let to_text () =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  let lanes = Hashtbl.create 16 in
  let lane_order = ref [] in
  let lane_events lane =
    match Hashtbl.find_opt lanes lane with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add lanes lane r;
      lane_order := lane :: !lane_order;
      r
  in
  List.iter
    (fun (dom, evs) ->
      let hosted =
        List.exists
          (function Begin _ | Inst _ -> true | _ -> false)
          evs
      in
      if hosted then Format.fprintf ppf "[toolchain] domain %d@." dom;
      let depth = ref 0 in
      (* duration of a span = ts of the matching End; found by scanning
         forward counting nesting *)
      let arr = Array.of_list evs in
      let end_of i =
        let rec go j d =
          if j >= Array.length arr then None
          else
            match arr.(j) with
            | Begin _ -> go (j + 1) (d + 1)
            | End { ts_ns } -> if d = 0 then Some ts_ns else go (j + 1) (d - 1)
            | _ -> go (j + 1) d
        in
        go (i + 1) 0
      in
      Array.iteri
        (fun i ev ->
          match ev with
          | Begin { name; ts_ns; args; _ } ->
            let dur =
              match end_of i with
              | Some e -> e - ts_ns
              | None -> 0
            in
            Format.fprintf ppf "%s%s (%a)%a@."
              (String.make (2 * (!depth + 1)) ' ')
              name Metrics.pp_ns dur pp_args args;
            incr depth
          | End _ -> if !depth > 0 then decr depth
          | Inst { name; args; _ } ->
            Format.fprintf ppf "%s@%s%a@."
              (String.make (2 * (!depth + 1)) ' ')
              name pp_args args
          | Lane_span { lane; name; ts_us; dur_us; args; _ } ->
            lane_events lane
            := (ts_us,
                Format.asprintf "%d..%d us %s%a" ts_us (ts_us + dur_us) name
                  pp_args args)
               :: !(lane_events lane)
          | Lane_inst { lane; name; ts_us; args; _ } ->
            lane_events lane
            := (ts_us, Format.asprintf "%d us %s%a" ts_us name pp_args args)
               :: !(lane_events lane))
        arr)
    (events ());
  List.iter
    (fun lane ->
      Format.fprintf ppf "[schedule] %s@." lane;
      List.iter
        (fun (_, line) -> Format.fprintf ppf "  %s@." line)
        (List.stable_sort
           (fun (a, _) (b, _) -> compare a b)
           (List.rev !(Hashtbl.find lanes lane))))
    (List.rev !lane_order);
  Format.pp_print_flush ppf ();
  Buffer.contents b

let write ~format path =
  let s = match format with `Chrome -> to_chrome () | `Text -> to_text () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      if format = `Text then () else output_char oc '\n')
