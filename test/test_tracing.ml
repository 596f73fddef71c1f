(* Structured tracing: span recording and nesting, the Chrome
   trace-event export (RFC 8259 parseability, well-nested spans per
   track, the two-process model), the logical-time schedule timeline of
   the ProducerConsumer case study as a golden snapshot, deadline-miss
   reporting, and multi-domain emission through Domain_pool. *)

module T = Putil.Tracing
module J = Putil.Metrics.Json
module P = Polychrony.Pipeline
module S = Sched.Static_sched
module Task = Sched.Task

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [f] with a fresh, enabled trace; always disable afterwards so a
   failing test cannot leak tracing into the rest of the suite. *)
let with_fresh_trace f =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

(* ---------------- recording ---------------------------------------- *)

let test_span_nesting () =
  with_fresh_trace @@ fun () ->
  T.with_span "outer" ~args:[ ("k", T.Aint 1) ] (fun () ->
      T.with_span "inner" (fun () -> T.instant "tick");
      T.instant "tock");
  T.set_enabled false;
  match T.events () with
  | [ (_dom, evs) ] ->
    let shape =
      List.map
        (function
          | T.Begin { name; _ } -> "B:" ^ name
          | T.End _ -> "E"
          | T.Inst { name; _ } -> "I:" ^ name
          | T.Lane_span _ -> "LS"
          | T.Lane_inst _ -> "LI")
        evs
    in
    Alcotest.(check (list string)) "emission order"
      [ "B:outer"; "B:inner"; "I:tick"; "E"; "I:tock"; "E" ]
      shape;
    (match evs with
     | T.Begin { args; cat; _ } :: _ ->
       Alcotest.(check bool) "args kept" true (args = [ ("k", T.Aint 1) ]);
       Alcotest.(check string) "default category" "toolchain" cat
     | _ -> Alcotest.fail "first event is not Begin")
  | l -> Alcotest.failf "expected one domain buffer, got %d" (List.length l)

let test_span_closes_on_raise () =
  with_fresh_trace @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  T.set_enabled false;
  match T.events () with
  | [ (_, [ T.Begin { name = "boom"; _ }; T.End _ ]) ] -> ()
  | _ -> Alcotest.fail "span not closed by the raising body"

let test_disabled_records_nothing () =
  T.reset ();
  T.set_enabled false;
  let ran = ref false in
  T.with_span "off" (fun () -> ran := true);
  T.instant "off";
  T.lane_span ~lane:"l" ~ts_us:0 ~dur_us:1 "off";
  T.lane_instant ~lane:"l" ~ts_us:0 "off";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "no events" 0 (List.length (T.events ()))

(* ---------------- chrome export ------------------------------------ *)

let x_events_by_track json =
  let evs =
    match J.member "traceEvents" json with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match
        ( J.member "ph" ev, J.member "pid" ev, J.member "tid" ev,
          J.to_float (J.member "ts" ev), J.to_float (J.member "dur" ev) )
      with
      | Some (J.String "X"), Some (J.Int pid), Some (J.Int tid), Some ts,
        Some dur ->
        let k = (pid, tid) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt tracks k) in
        Hashtbl.replace tracks k ((ts, ts +. dur) :: prev)
      | _ -> ())
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks []

(* Any two spans of one (pid, tid) track either nest or are disjoint
   (small epsilon: host timestamps are ns rounded to fractional µs). *)
let check_well_nested tracks =
  let eps = 1e-6 in
  List.iter
    (fun ((pid, tid), spans) ->
      List.iteri
        (fun i (b1, e1) ->
          List.iteri
            (fun j (b2, e2) ->
              if i < j then
                let nested =
                  (b1 >= b2 -. eps && e1 <= e2 +. eps)
                  || (b2 >= b1 -. eps && e2 <= e1 +. eps)
                in
                let disjoint = e1 <= b2 +. eps || e2 <= b1 +. eps in
                if not (nested || disjoint) then
                  Alcotest.failf
                    "overlap on pid %d tid %d: [%f,%f] vs [%f,%f]" pid tid
                    b1 e1 b2 e2)
            spans)
        spans)
    tracks

let case_study_analyzed () =
  match
    P.analyze ~registry:Polychrony.Case_study.registry_nominal
      Polychrony.Case_study.aadl_source
  with
  | Ok a -> a
  | Error _ -> Alcotest.fail "case study does not analyze"

let test_chrome_case_study () =
  let chrome =
    with_fresh_trace @@ fun () ->
    let a = case_study_analyzed () in
    (match P.simulate a with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "case study does not simulate");
    T.set_enabled false;
    T.to_chrome ()
  in
  match J.of_string chrome with
  | Error m -> Alcotest.failf "chrome export is not valid JSON: %s" m
  | Ok json ->
    let tracks = x_events_by_track json in
    Alcotest.(check bool) "has host track (pid 1)" true
      (List.exists (fun ((pid, _), _) -> pid = 1) tracks);
    Alcotest.(check bool) "has schedule track (pid 2)" true
      (List.exists (fun ((pid, _), _) -> pid = 2) tracks);
    check_well_nested tracks;
    (* one lane per AADL thread, named by metadata events *)
    let evs =
      match J.member "traceEvents" json with
      | Some (J.Arr evs) -> evs
      | _ -> []
    in
    let lanes =
      List.filter_map
        (fun ev ->
          match (J.member "ph" ev, J.member "name" ev, J.member "pid" ev) with
          | Some (J.String "M"), Some (J.String "thread_name"),
            Some (J.Int 2) -> (
            match Option.bind (J.member "args" ev) (J.member "name") with
            | Some (J.String lane) -> Some lane
            | _ -> None)
          | _ -> None)
        evs
    in
    List.iter
      (fun th ->
        Alcotest.(check bool) ("lane " ^ th) true (List.mem th lanes))
      [ "thProducer"; "thConsumer"; "thProdTimer"; "thConsTimer" ];
    (* each lane carries the full dispatch→deadline event vocabulary *)
    let sched_names =
      List.filter_map
        (fun ev ->
          match (J.member "pid" ev, J.member "name" ev, J.member "ph" ev) with
          | Some (J.Int 2), Some (J.String n), Some (J.String ("X" | "i")) ->
            Some n
          | _ -> None)
        evs
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) ("schedule has " ^ n) true
          (List.mem n sched_names))
      [ "dispatch"; "input_freeze"; "compute"; "output_send"; "deadline" ]

(* ---------------- golden snapshot ---------------------------------- *)

(* Canonical wall-clock-free listing of the recorded events: span
   structure and logical-time lanes, with memoized stages (their spans
   only appear on cache misses, which depend on what ran before in the
   test binary) and cache-sized instants dropped. *)
let skip_spans = [ "clocks.calculus"; "compile.plan" ]

let canonical_args args =
  match args with
  | [] -> ""
  | args ->
    " {"
    ^ String.concat ", "
        (List.map
           (fun (k, v) ->
             k ^ "="
             ^ (match v with
                | T.Abool b -> string_of_bool b
                | T.Aint n -> string_of_int n
                | T.Afloat f -> Printf.sprintf "%g" f
                | T.Astr s -> s))
           args)
    ^ "}"

let canonical () =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun di (_dom, evs) ->
      Buffer.add_string buf (Printf.sprintf "domain %d\n" di);
      (* printed-depth stack: skipped spans keep their children at the
         parent's indentation *)
      let stack = ref [] in
      let depth () = List.length (List.filter Fun.id !stack) in
      List.iter
        (fun ev ->
          match ev with
          | T.Begin { name; args; _ } ->
            let printed = not (List.mem name skip_spans) in
            if printed then
              Buffer.add_string buf
                (Printf.sprintf "%sspan %s%s\n"
                   (String.make (2 * depth ()) ' ')
                   name (canonical_args args));
            stack := printed :: !stack
          | T.End _ -> (
            match !stack with [] -> () | _ :: tl -> stack := tl)
          | T.Inst { cat = "clocks"; _ } -> ()
          | T.Inst { name; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "%sinst %s%s\n"
                 (String.make (2 * depth ()) ' ')
                 name (canonical_args args))
          | T.Lane_span { lane; name; ts_us; dur_us; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "lane %s %d+%d %s%s\n" lane ts_us dur_us name
                 (canonical_args args))
          | T.Lane_inst { lane; name; ts_us; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "lane %s %d %s%s\n" lane ts_us name
                 (canonical_args args)))
        evs)
    (T.events ());
  Buffer.contents buf

let test_golden_case_study () =
  let got =
    with_fresh_trace @@ fun () ->
    let a = case_study_analyzed () in
    (match P.simulate a with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "case study does not simulate");
    T.set_enabled false;
    canonical ()
  in
  let want = read_file "corpus/golden/trace_producer_consumer.txt" in
  Alcotest.(check string) "canonical trace" want got

(* ---------------- qcheck: random span trees ------------------------ *)

let gen_name =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_range 1 12);
        (* exercise the JSON escaper: quotes, backslashes, control
           characters, non-ASCII bytes *)
        oneofl [ "a\"b"; "back\\slash"; "tab\there"; "nl\nthere";
                 "caf\xc3\xa9"; "\x01ctl" ] ])

let gen_arg =
  QCheck2.Gen.(
    oneof
      [ map (fun b -> T.Abool b) bool;
        map (fun n -> T.Aint n) int;
        map (fun f -> T.Afloat f) float;
        map (fun s -> T.Astr s) gen_name ])

type span_tree = Node of string * (string * T.arg) list * span_tree list

let gen_tree =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let children =
          if n <= 0 then return []
          else list_size (int_range 0 3) (self (n / 4))
        in
        map3
          (fun name args cs -> Node (name, args, cs))
          gen_name
          (list_size (int_range 0 2) (pair gen_name gen_arg))
          children))

let rec span_count (Node (_, _, cs)) =
  1 + List.fold_left (fun acc c -> acc + span_count c) 0 cs

let rec emit_tree (Node (name, args, cs)) =
  T.with_span name ~args (fun () -> List.iter emit_tree cs)

let prop_chrome_parses =
  QCheck2.Test.make ~name:"chrome export of random span trees" ~count:60
    QCheck2.Gen.(list_size (int_range 1 4) gen_tree)
    (fun trees ->
      let chrome =
        with_fresh_trace @@ fun () ->
        List.iter emit_tree trees;
        T.set_enabled false;
        T.to_chrome ()
      in
      match J.of_string chrome with
      | Error m -> QCheck2.Test.fail_reportf "not RFC 8259: %s" m
      | Ok json ->
        let tracks = x_events_by_track json in
        check_well_nested tracks;
        let total =
          List.fold_left
            (fun acc (_, spans) -> acc + List.length spans)
            0 tracks
        in
        total = List.fold_left (fun acc t -> acc + span_count t) 0 trees)

(* ---------------- deadline misses ---------------------------------- *)

(* A hand-built over-budget schedule: the job starts late and overruns
   its absolute deadline. *)
let missed_schedule () =
  let t =
    Task.make ~name:"sys.prc.thSlow" ~period_us:10_000 ~wcet_us:4_000 ()
  in
  let ok_job =
    { S.j_task = t; j_index = 0; dispatch_us = 0; start_us = 0;
      complete_us = 4_000; deadline_abs_us = 10_000 }
  in
  let missed_job =
    { S.j_task = t; j_index = 1; dispatch_us = 10_000; start_us = 17_000;
      complete_us = 21_000; deadline_abs_us = 20_000 }
  in
  ( t,
    { S.s_policy = S.Edf; hyperperiod_us = 20_000; base_us = 1_000;
      jobs = [ ok_job; missed_job ] } )

let test_deadline_miss_report () =
  let _, sched = missed_schedule () in
  match Analysis.Profiling.schedule_timing sched with
  | [ tt ] ->
    Alcotest.(check string) "task" "sys.prc.thSlow"
      tt.Analysis.Profiling.tt_name;
    Alcotest.(check int) "jobs" 2 tt.Analysis.Profiling.tt_jobs;
    Alcotest.(check int) "misses" 1 tt.Analysis.Profiling.tt_misses;
    Alcotest.(check (list int)) "missed job indices" [ 1 ]
      tt.Analysis.Profiling.tt_missed_jobs;
    Alcotest.(check int) "worst response" 11_000
      tt.Analysis.Profiling.tt_worst_response_us;
    Alcotest.(check int) "best response" 4_000
      tt.Analysis.Profiling.tt_best_response_us;
    Alcotest.(check int) "jitter" 7_000 tt.Analysis.Profiling.tt_jitter_us
  | l -> Alcotest.failf "expected one thread, got %d" (List.length l)

(* The timeline's static-schedule fallback (no ctl signals in the
   trace) marks the overrun with a deadline_miss lane instant. *)
let test_deadline_miss_timeline () =
  let t, sched = missed_schedule () in
  let empty = Polysim.Trace.create [] in
  with_fresh_trace @@ fun () ->
  Polychrony.Timeline.emit ~root_path:"sys" ~base_us:1_000
    ~horizon_ticks:20 ~schedules:[ ("cpu", sched) ]
    ~tasks:[ ("cpu", [ t ]) ]
    empty;
  T.set_enabled false;
  let lane_events =
    List.concat_map
      (fun (_, evs) ->
        List.filter_map
          (function
            | T.Lane_inst { lane; name; ts_us; _ } -> Some (lane, name, ts_us)
            | _ -> None)
          evs)
      (T.events ())
  in
  Alcotest.(check bool) "lane uses the short thread name" true
    (List.for_all (fun (l, _, _) -> String.equal l "thSlow") lane_events);
  Alcotest.(check bool) "deadline_miss marked at completion" true
    (List.mem ("thSlow", "deadline_miss", 21_000) lane_events);
  Alcotest.(check int) "exactly one miss" 1
    (List.length
       (List.filter (fun (_, n, _) -> n = "deadline_miss") lane_events))

(* ---------------- multi-domain emission ---------------------------- *)

let test_domain_pool_emission () =
  with_fresh_trace @@ fun () ->
  let pool = Putil.Domain_pool.create 3 in
  Fun.protect ~finally:(fun () -> Putil.Domain_pool.shutdown pool)
    (fun () ->
      Putil.Domain_pool.run_tasks pool
        (List.init 24 (fun i () ->
             T.with_span "task" ~args:[ ("i", T.Aint i) ] (fun () ->
                 T.instant "step"))));
  T.set_enabled false;
  let per_domain = T.events () in
  let begins, ends, insts =
    List.fold_left
      (fun (b, e, i) (_, evs) ->
        List.fold_left
          (fun (b, e, i) ev ->
            match ev with
            | T.Begin _ -> (b + 1, e, i)
            | T.End _ -> (b, e + 1, i)
            | T.Inst _ -> (b, e, i + 1)
            | _ -> (b, e, i))
          (b, e, i) evs)
      (0, 0, 0) per_domain
  in
  Alcotest.(check int) "24 spans recorded" 24 begins;
  Alcotest.(check int) "all spans closed" 24 ends;
  Alcotest.(check int) "24 instants" 24 insts;
  (* each domain's buffer is independently well-nested *)
  List.iter
    (fun (_, evs) ->
      let d =
        List.fold_left
          (fun d ev ->
            match ev with
            | T.Begin _ ->
              Alcotest.(check bool) "depth never negative" true (d >= 0);
              d + 1
            | T.End _ -> d - 1
            | _ -> d)
          0 evs
      in
      Alcotest.(check int) "balanced per domain" 0 d)
    per_domain

(* ---------------- one call per layer ------------------------------ *)

module M = Putil.Metrics

(* every layer of the analyze → simulate → verify loop, by span name *)
let layers =
  [ "aadl.parse"; "aadl.check"; "aadl.instantiate"; "trans.system";
    "trans.thread"; "sched.synthesize"; "signal_lang.typecheck";
    "signal_lang.normalize"; "clocks.calculus"; "clocks.null_signals";
    "analysis.determinism"; "analysis.deadlock"; "pipeline.iface_summary";
    "util.store_get"; "util.store_put";
    "pipeline.analyze"; "compile.plan"; "compile.step"; "pipeline.simulate";
    "explore.sym.check"; "explore.check" ]

let timer_spans name =
  match M.find M.global name with
  | Some (M.Timer { spans; _ }) -> Some spans
  | _ -> None

(* A cold case-study analyze on a fresh store, a compiled simulate and
   an Auto verify (symbolic gives up, explicit decides). *)
let run_loop () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "layers_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
  @@ fun () ->
  let store =
    match Putil.Cache_store.open_store dir with
    | Ok s -> s
    | Error m -> Alcotest.fail ("open_store: " ^ m)
  in
  Clocks.Calculus.reset_cache ();
  let a =
    match
      P.analyze ~session:(P.new_session ~store ())
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error _ -> Alcotest.fail "case study does not analyze"
  in
  (match P.simulate ~compiled:true ~hyperperiods:1 a with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "case study does not simulate");
  match P.verify ~depth:2 ~jobs:1 ~engine:`Auto ~never:"Alarm" a with
  | Ok (_, _, `Explicit) -> ()
  | Ok (_, _, `Symbolic) -> Alcotest.fail "expected the explicit engine"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

let test_layers_feed_timers () =
  T.set_enabled false;
  let snapshot () = List.map (fun name -> (name, timer_spans name)) layers in
  let before = snapshot () in
  run_loop ();
  (* the run is cold except for the process-wide plan memo, which an
     earlier test may have filled: that layer needs only some span *)
  List.iter2
    (fun (name, spans0) (_, spans1) ->
      let spans0 =
        if name = "compile.plan" then Some 0 else spans0
      in
      match (spans1, spans0) with
      | Some n, None when n > 0 -> ()
      | Some n, Some n0 when n > n0 -> ()
      | _ -> Alcotest.failf "%s: no timer span with tracing off" name)
    before (snapshot ());
  (* with tracing on, each layer's Begin events are its timer's delta,
     and no span opens inside an open span of the same name *)
  let before = snapshot () in
  let evs =
    with_fresh_trace @@ fun () ->
    run_loop ();
    T.set_enabled false;
    T.events ()
  in
  List.iter
    (fun (_, evs) ->
      ignore
        (List.fold_left
           (fun open_ ev ->
             match ev with
             | T.Begin { name; _ } ->
               if List.mem name open_ then
                 Alcotest.failf "%s opened inside a %s span" name name;
               name :: open_
             | T.End _ -> (match open_ with _ :: tl -> tl | [] -> [])
             | _ -> open_)
           [] evs))
    evs;
  List.iter
    (fun (name, spans0) ->
      let begins =
        List.fold_left
          (fun acc (_, evs) ->
            List.fold_left
              (fun acc -> function
                | T.Begin { name = n; _ } when n = name -> acc + 1
                | _ -> acc)
              acc evs)
          0 evs
      in
      Alcotest.(check int)
        (name ^ ": Begin events = timer delta")
        begins
        (Option.value ~default:0 (timer_spans name)
        - Option.value ~default:0 spans0))
    before

let suite =
  [ ("tracing",
     [ Alcotest.test_case "span nesting and args" `Quick test_span_nesting;
       Alcotest.test_case "span closes on raise" `Quick
         test_span_closes_on_raise;
       Alcotest.test_case "disabled records nothing" `Quick
         test_disabled_records_nothing;
       Alcotest.test_case "chrome export of the case study" `Quick
         test_chrome_case_study;
       Alcotest.test_case "golden canonical trace" `Quick
         test_golden_case_study;
       QCheck_alcotest.to_alcotest prop_chrome_parses;
       Alcotest.test_case "deadline-miss report" `Quick
         test_deadline_miss_report;
       Alcotest.test_case "deadline-miss timeline" `Quick
         test_deadline_miss_timeline;
       Alcotest.test_case "domain-pool emission" `Quick
         test_domain_pool_emission;
       Alcotest.test_case "every layer feeds its timer with tracing off"
         `Quick test_layers_feed_timers ]) ]
