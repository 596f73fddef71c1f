(* The per-layer ledger: direct calls into each layer's public
   functions, in pipeline order, each wrapped in a {!Ledger} span, and
   the table of per-layer metrics the traced run reports.

   Every metric is reported for every workload; a layer that does not
   run in a workload's op reports 0. Times are means per replayed
   input (per op), counts are means per input unless the name says
   otherwise. *)

module P = Polychrony.Pipeline

let metrics : (string * string) list =
  [ ("aadl.parse_ms", "ms"); ("aadl.check_ms", "ms"); ("aadl.instantiate_ms", "ms");
    ("aadl.source_bytes", "bytes");
    ("sched.synthesize_ms", "ms"); ("sched.table_slots", "count");
    ("trans.translate_ms", "ms"); ("trans.equations", "count");
    ("signal_lang.typecheck_ms", "ms"); ("signal_lang.normalize_ms", "ms");
    ("signal_lang.kernel_signals", "count");
    ("clocks.calculus_models_ms", "ms"); ("clocks.calculus_glue_ms", "ms");
    ("clocks.calculus_kernel_ms", "ms"); ("clocks.hierarchy_ms", "ms");
    ("clocks.classes", "count"); ("clocks.bdd_peak_nodes", "count");
    ("analysis.determinism_ms", "ms"); ("analysis.deadlock_ms", "ms");
    ("core.analyze_ms", "ms"); ("core.unattributed_ms", "ms");
    ("core.proc_skip_ratio", "ratio");
    ("util.store_hit_ratio", "ratio"); ("util.store_bytes", "bytes");
    ("util.store_replay_ms", "ms"); ("util.trace_overhead_ratio", "ratio");
    ("polysim.plan_ms", "ms"); ("polysim.plan_ops", "count");
    ("polysim.step_us_per_instant", "us"); ("polysim.record_us_per_instant", "us");
    ("polysim.vcd_ms", "ms"); ("polysim.vcd_bytes", "bytes");
    ("polysim.interp_us_per_instant", "us");
    ("polysim.symbolic_ms", "ms"); ("polysim.explicit_ms", "ms");
    ("polysim.fallback_ratio", "ratio"); ("polysim.fallback_wasted_ms", "ms");
    ("polysim.states", "count"); ("polysim.sym_peak_nodes", "count") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v =
  if not (List.mem_assoc name metrics) then invalid_arg ("unknown layer metric " ^ name);
  Hashtbl.replace values name v
let get name = Option.value ~default:0. (Hashtbl.find_opt values name)

(* Accumulators over the replayed inputs. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add name v =
  Hashtbl.replace sums name (v +. Option.value ~default:0. (Hashtbl.find_opt sums name))
let sum name = Option.value ~default:0. (Hashtbl.find_opt sums name)

let now_ns = Putil.Clock.now_ns
let ms_since t0 = float (now_ns () - t0) /. 1e6

(* [timed name f] runs [f] in a span called [name] and adds its
   duration (ms) to the accumulator of the same name. *)
let timed name f =
  let t0 = now_ns () in
  let r = Ledger.span name f in
  add name (ms_since t0);
  r

let counter name = Putil.Metrics.counter_value Putil.Metrics.global name

(* Layers [Pipeline.analyze] drives itself; their sum is what
   [core.unattributed_ms] subtracts. The whole-kernel calculus and the
   hierarchy are forced only by reports, and [sched.synthesize] runs
   inside [trans.translate], so none of them is subtracted. *)
let analyze_layers =
  [ "aadl.parse"; "aadl.check"; "aadl.instantiate"; "trans.translate";
    "signal_lang.typecheck"; "signal_lang.normalize"; "clocks.calculus_models";
    "clocks.calculus_glue"; "analysis.determinism"; "analysis.deadlock" ]

(* Steps 1-6 of the ledger on one source: parse, check, instantiate;
   translate and a stand-alone re-synthesis of its schedules;
   typecheck; normalize each model and link; clock calculus of each
   model kernel, the glue kernel and the whole kernel, then the
   hierarchy; determinism and deadlock of each model and of the glue.
   Stops where [Pipeline.analyze] would stop. Returns the sum of the
   [analyze_layers] durations (ms) and the linked kernel, if any. *)
let analysis ~registry ~mode ~root src =
  let before = List.map (fun l -> (l, sum l)) analyze_layers in
  add "aadl.source_bytes" (float (String.length src));
  let kernel =
    match timed "aadl.parse" (fun () -> Aadl.Parser.parse_packages_diag src) with
    | Error _ -> None
    | Ok pkgs -> (
      ignore (timed "aadl.check" (fun () -> List.concat_map Aadl.Check.check_package pkgs));
      let base = Aadl.Syntax.impl_base_name root in
      match List.find_opt (fun p -> Aadl.Syntax.find_type p base <> None) pkgs with
      | None -> None
      | Some pkg -> (
        let context = List.filter (fun p -> p != pkg) pkgs in
        match
          timed "aadl.instantiate" (fun () ->
              Aadl.Instance.instantiate_diag ~context pkg ~root)
        with
        | Error _ -> None
        | Ok inst -> (
          let eq0 = counter "trans.equations" in
          match
            timed "trans.translate" (fun () ->
                Trans.System_trans.translate_diag ~registry ~mode inst)
          with
          | None, _ -> None
          | Some tr, _ -> (
            add "trans.equations" (float (counter "trans.equations" - eq0));
            timed "sched.synthesize" (fun () ->
                List.iter
                  (fun (_, tasks) ->
                    if tasks <> [] then ignore (Sched.Static_sched.synthesize tasks))
                  tr.Trans.System_trans.tasks);
            add "sched.table_slots"
              (float
                 (List.fold_left
                    (fun n (_, s) ->
                      n + (s.Sched.Static_sched.hyperperiod_us / s.Sched.Static_sched.base_us))
                    0 tr.Trans.System_trans.schedules));
            let program = tr.Trans.System_trans.program in
            let top = tr.Trans.System_trans.top in
            timed "signal_lang.typecheck" (fun () ->
                List.iter
                  (fun p ->
                    ignore (Signal_lang.Typecheck.check_process ~program p);
                    ignore (Signal_lang.Typecheck.type_process p))
                  program.Signal_lang.Ast.processes);
            let models =
              List.filter
                (fun p ->
                  p.Signal_lang.Ast.proc_name <> top.Signal_lang.Ast.proc_name
                  && p.Signal_lang.Ast.params = [])
                program.Signal_lang.Ast.processes
            in
            match
              timed "signal_lang.normalize" (fun () ->
                  let precomputed =
                    List.filter_map
                      (fun m ->
                        Result.to_option (Signal_lang.Normalize.process ~program m)
                        |> Option.map (fun k -> (m.Signal_lang.Ast.proc_name, k)))
                      models
                  in
                  Result.map
                    (fun lk -> (precomputed, lk))
                    (Signal_lang.Normalize.process_linked ~program ~precomputed top))
            with
            | Error _ -> None
            | Ok (precomputed, lk) ->
              let kernel = lk.Signal_lang.Normalize.lk_kernel in
              let glue = lk.Signal_lang.Normalize.lk_glue in
              add "signal_lang.kernel_signals"
                (float (List.length (Signal_lang.Kernel.signals kernel)));
              (* cold: no earlier run may have memoized a kernel *)
              Clocks.Calculus.reset_cache ();
              let model_calcs =
                timed "clocks.calculus_models" (fun () ->
                    List.map (fun (_, km) -> (km, Clocks.Calculus.analyze km)) precomputed)
              in
              let glue_calc =
                timed "clocks.calculus_glue" (fun () -> Clocks.Calculus.analyze glue)
              in
              let units = (glue, glue_calc) :: model_calcs in
              timed "analysis.determinism" (fun () ->
                  List.iter (fun (k, c) -> ignore (Analysis.Determinism.analyze c k)) units);
              timed "analysis.deadlock" (fun () ->
                  List.iter (fun (k, c) -> ignore (Analysis.Deadlock.analyze ~calc:c k)) units);
              let calc =
                timed "clocks.calculus_kernel" (fun () -> Clocks.Calculus.analyze kernel)
              in
              ignore (timed "clocks.hierarchy" (fun () -> Clocks.Hierarchy.build calc));
              add "clocks.classes" (float (Clocks.Calculus.class_count calc));
              let nodes = float (Clocks.Bdd.node_count (Clocks.Calculus.manager calc)) in
              if nodes > sum "clocks.bdd_peak_nodes" then
                Hashtbl.replace sums "clocks.bdd_peak_nodes" nodes;
              Some kernel))))
  in
  let driven =
    List.fold_left (fun acc (l, b) -> acc +. (sum l -. b)) 0. before
  in
  (driven, kernel)

(* Per-input means of the analysis-layer accumulators. *)
let publish_analysis ~inputs =
  let n = float (max 1 inputs) in
  List.iter
    (fun (metric, acc) -> set metric (sum acc /. n))
    [ ("aadl.parse_ms", "aadl.parse"); ("aadl.check_ms", "aadl.check");
      ("aadl.instantiate_ms", "aadl.instantiate"); ("aadl.source_bytes", "aadl.source_bytes");
      ("sched.synthesize_ms", "sched.synthesize"); ("sched.table_slots", "sched.table_slots");
      ("trans.translate_ms", "trans.translate"); ("trans.equations", "trans.equations");
      ("signal_lang.typecheck_ms", "signal_lang.typecheck");
      ("signal_lang.normalize_ms", "signal_lang.normalize");
      ("signal_lang.kernel_signals", "signal_lang.kernel_signals");
      ("clocks.calculus_models_ms", "clocks.calculus_models");
      ("clocks.calculus_glue_ms", "clocks.calculus_glue");
      ("clocks.calculus_kernel_ms", "clocks.calculus_kernel");
      ("clocks.hierarchy_ms", "clocks.hierarchy"); ("clocks.classes", "clocks.classes");
      ("analysis.determinism_ms", "analysis.determinism");
      ("analysis.deadlock_ms", "analysis.deadlock");
      ("core.analyze_ms", "core.analyze"); ("core.unattributed_ms", "core.unattributed") ];
  set "clocks.bdd_peak_nodes" (sum "clocks.bdd_peak_nodes")

(* [core.unattributed] for one input: a cold [Pipeline.analyze] of the
   source (under a name no earlier run has seen, so no process-wide memo
   helps it) minus the layers it drives, measured directly on the
   same model under another fresh name. *)
let cold_analyze_and_ledger ~registry ~mode ~root_of ~render ~fresh =
  let n1 = fresh () and n2 = fresh () in
  let src1 = render n1 in
  Clocks.Calculus.reset_cache ();
  Putil.Obs.reset_scopes ();
  let t0 = now_ns () in
  let r =
    Ledger.span "core.analyze_cold" (fun () ->
        P.analyze ~session:(P.new_session ~label:"ledger" ()) ~registry ~mode
          ~root:(root_of n1) src1)
  in
  let analyze_ms = ms_since t0 in
  let driven, kernel = analysis ~registry ~mode ~root:(root_of n2) (render n2) in
  add "core.unattributed" (analyze_ms -. driven);
  (analyze_ms, r, kernel)
