(* ASME2SSME command-line tool: the paper's tool chain as a CLI.

   Subcommands:
     parse      — parse and echo an AADL package (syntax check)
     check      — AADL legality + instance tree
     translate  — emit the generated SIGNAL program
     schedule   — synthesize and print the static schedule + affine export
     analyze    — clock calculus, determinism, deadlock reports
     simulate   — run N hyper-periods, print a chronogram, write VCD
*)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source = function
  | Some path -> read_file path
  | None -> Polychrony.Case_study.aadl_source

let registry_named = function
  | "nominal" -> Ok Polychrony.Case_study.registry_nominal
  | "timeout" -> Ok Polychrony.Case_study.registry_timeout
  | "default" -> Ok Trans.Behavior.empty
  | other -> Error (Printf.sprintf "unknown registry %S" other)

let policy_named = function
  | "edf" -> Ok Sched.Static_sched.Edf
  | "rm" -> Ok Sched.Static_sched.Rm
  | "fp" -> Ok Sched.Static_sched.Fp
  | "fifo" -> Ok Sched.Static_sched.Fifo
  | other -> Error (Printf.sprintf "unknown policy %S" other)

let or_die = function
  | Ok v -> v
  | Error m ->
    prerr_endline ("error: " ^ m);
    exit 1

(* Render a diagnostic report on the chosen channel and format. The
   exit-code contract: 0 when nothing worse than a note was reported,
   2 when the worst is a warning, 1 when any error is present. *)
let print_diags ?(oc = stdout) ~format ~src diags =
  match format with
  | `Text -> output_string oc (Putil.Diag.render_list ~src diags)
  | `Json ->
    (* JSON reports carry the always-on flight-recorder snapshot (the
       last span/instant/diag events per domain), so a failed run
       explains itself without re-running under --trace *)
    let j =
      match Putil.Diag.list_to_json diags with
      | Putil.Metrics.Json.Obj kvs ->
        Putil.Metrics.Json.Obj
          (kvs @ [ ("flight_recorder", Putil.Obs.dump_flight_recorder ()) ])
      | j -> j
    in
    output_string oc (Putil.Metrics.Json.to_string j);
    output_char oc '\n'

(* A --cache-dir (or CACHE_DIR environment variable) opens the
   persistent content-addressed store: per-process pipeline results
   computed by ANY previous invocation sharing the directory replay
   instead of recomputing. *)
let store_of = function
  | None -> None
  | Some dir -> (
    match Putil.Cache_store.open_store dir with
    | Ok s -> Some s
    | Error m ->
      prerr_endline ("error: cannot open cache directory: " ^ m);
      exit 1)

let session_of cache_dir =
  Polychrony.Pipeline.new_session ?store:(store_of cache_dir) ()

let analyzed ?session ?mode file root registry policy =
  let src = load_source file in
  let registry = or_die (registry_named registry) in
  let policy = or_die (policy_named policy) in
  match
    Polychrony.Pipeline.analyze ?session ?mode ~registry ~policy ?root
      ?file src
  with
  | Ok a ->
    if a.Polychrony.Pipeline.diags <> [] then
      print_diags ~oc:stderr ~format:`Text ~src
        a.Polychrony.Pipeline.diags;
    a
  | Error ds ->
    print_diags ~oc:stderr ~format:`Text ~src ds;
    exit (Putil.Diag.exit_code ds)

open Cmdliner

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"AADL source file; the bundled ProducerConsumer case study \
               when omitted.")

let root_arg =
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"IMPL"
         ~doc:"Root system implementation (default: inferred).")

let registry_arg =
  Arg.(value & opt string "nominal" & info [ "registry" ] ~docv:"NAME"
         ~doc:"Thread behaviour registry: nominal, timeout or default.")

let policy_arg =
  Arg.(value & opt string "edf" & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Scheduling policy: edf, rm, fp or fifo.")

let format_arg =
  Arg.(value
       & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Diagnostics format: $(b,text) (human-readable, with \
                 source excerpts) or $(b,json) (the polychrony-diag/v1 \
                 schema).")

let cache_dir_arg =
  let env = Cmd.Env.info "CACHE_DIR" in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~env ~docv:"DIR"
           ~doc:"Persistent content-addressed cache directory. \
                 Per-process pipeline results (typecheck, normalized \
                 model kernels, analyses) are stored under content \
                 digests, so a later invocation sharing $(docv) — even \
                 from a fresh process — replays them instead of \
                 recomputing. Also read from the $(b,CACHE_DIR) \
                 environment variable.")

let mode_arg =
  Arg.(value
       & opt
           (enum
              [ ("embedded", Trans.System_trans.Embedded);
                ("external", Trans.System_trans.External) ])
           Trans.System_trans.Embedded
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Scheduler translation mode: $(b,embedded) compiles the \
                 static schedule into SIGNAL scheduler processes; \
                 $(b,external) keeps scheduling exogenous (control \
                 events become top-level inputs driven from the \
                 schedule tables), so timing-only edits leave the \
                 generated program — and any cached compiled plan — \
                 byte-identical.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print the run-metrics report (engine fixpoint iterations, \
               instants/sec, clock-calculus, translation and scheduling \
               counters) on stdout after the command.")

let print_stats_if enabled =
  if enabled then Format.printf "%a@." Polychrony.Pipeline.pp_stats ()

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Record an execution trace of the run — toolchain spans \
               in host time plus the simulated schedule timeline (one \
               lane per thread: dispatch, input freeze, compute, \
               output send, deadline, deadline misses) — and write it \
               to $(docv).")

let trace_format_arg =
  Arg.(value
       & opt (enum [ ("chrome", `Chrome); ("text", `Text) ]) `Chrome
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Trace output format: $(b,chrome) (Chrome trace-event \
                 JSON, loadable in Perfetto or chrome://tracing) or \
                 $(b,text) (indented span tree).")

(* Run [f] under tracing when [--trace] was given. The trace is also
   written when [f] exits through the error paths above, which
   terminate the process with [exit]. *)
let with_trace_opt trace format f =
  match trace with
  | None -> f ()
  | Some path ->
    let written = ref false in
    let write () =
      if not !written then begin
        written := true;
        Putil.Tracing.set_enabled false;
        Putil.Tracing.write ~format path;
        Format.eprintf "trace written to %s@." path
      end
    in
    Putil.Tracing.reset ();
    Putil.Tracing.set_enabled true;
    at_exit write;
    Fun.protect ~finally:write f

let parse_cmd =
  let run file =
    let src = load_source file in
    match Aadl.Parser.parse_package src with
    | Ok pkg -> Format.printf "%a@." Aadl.Printer.pp_package pkg
    | Error m ->
      prerr_endline ("error: " ^ m);
      exit 1
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse an AADL package and echo it")
    Term.(const run $ file_arg)

let check_cmd =
  let run file root format =
    let src = load_source file in
    (* the whole pipeline runs so independent defects across layers —
       legality, instantiation, scheduling, typing, clocking — are
       reported in one invocation *)
    let diags =
      match Polychrony.Pipeline.analyze ~registry:Trans.Behavior.empty ?root ?file src with
      | Ok a -> a.Polychrony.Pipeline.diags
      | Error ds -> ds
    in
    print_diags ~format ~src diags;
    (match format, diags with
     | `Text, [] -> print_endline "no issues"
     | _ -> ());
    exit (Putil.Diag.exit_code diags)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Report every defect the pipeline can find, with stable \
             codes and source spans; exit 0/1/2 by worst severity")
    Term.(const run $ file_arg $ root_arg $ format_arg)

let translate_cmd =
  let run file root registry policy mode stats =
    let a = analyzed ~mode file root registry policy in
    Format.printf "%a@." Signal_lang.Pp.pp_program
      a.Polychrony.Pipeline.translation.Trans.System_trans.program;
    print_stats_if stats
  in
  Cmd.v (Cmd.info "translate" ~doc:"Emit the generated SIGNAL program")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ mode_arg $ stats_arg)

let schedule_cmd =
  let run file root registry policy stats =
    let a = analyzed file root registry policy in
    List.iter
      (fun (cpu, s) ->
        Format.printf "processor %s:@.%a@.%a@.%a@." cpu
          Sched.Static_sched.pp_schedule s Sched.Static_sched.pp_gantt s
          Sched.Export.pp_export s)
      a.Polychrony.Pipeline.translation.Trans.System_trans.schedules;
    print_stats_if stats
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Synthesize the static schedule and its affine clock export")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ stats_arg)

let analyze_cmd =
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print the profiling-based timing report: static \
                 reaction cost of the generated program and, per \
                 processor, each thread's response-time, jitter and \
                 deadline-miss statistics over one hyper-period.")
  in
  let run file root registry policy mode cache_dir format profile stats
      trace trace_format =
    with_trace_opt trace trace_format @@ fun () ->
    let src = load_source file in
    let registry = or_die (registry_named registry) in
    let policy = or_die (policy_named policy) in
    let session = session_of cache_dir in
    match
      Polychrony.Pipeline.analyze ~session ~registry ~policy ~mode ?root
        ?file src
    with
    | Error ds ->
      print_diags ~format ~src ds;
      exit (Putil.Diag.exit_code ds)
    | Ok a ->
      (match format with
       | `Text ->
         Format.printf "%a@." Polychrony.Pipeline.pp_summary a;
         Format.printf "@.traceability:@.%a@." Trans.Traceability.pp
           a.Polychrony.Pipeline.translation.Trans.System_trans.trace;
         if a.Polychrony.Pipeline.diags <> [] then begin
           print_newline ();
           print_diags ~format ~src a.Polychrony.Pipeline.diags
         end
       | `Json -> print_diags ~format ~src a.Polychrony.Pipeline.diags);
      if profile then begin
        Format.printf "@.== profiling ==@.%a@."
          Analysis.Profiling.pp_report
          (Analysis.Profiling.static_costs a.Polychrony.Pipeline.kernel);
        List.iter
          (fun (cpu, s) ->
            Format.printf "processor %s:@.%a@." cpu
              Analysis.Profiling.pp_schedule_timing
              (Analysis.Profiling.schedule_timing s))
          a.Polychrony.Pipeline.translation.Trans.System_trans.schedules
      end;
      print_stats_if stats;
      exit (Putil.Diag.exit_code a.Polychrony.Pipeline.diags)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Clock calculus, determinism and deadlock reports; exit \
             0/1/2 by worst diagnostic severity")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ mode_arg $ cache_dir_arg $ format_arg $ profile_arg
          $ stats_arg $ trace_arg $ trace_format_arg)

let simulate_cmd =
  let hyper_arg =
    Arg.(value & opt int 2 & info [ "hyperperiods"; "n" ] ~docv:"N"
           ~doc:"Number of hyper-periods to run.")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"PATH"
           ~doc:"Write the trace as a VCD file.")
  in
  let compiled_arg =
    Arg.(value & flag & info [ "compiled" ]
           ~doc:"Use the clock-directed compiled step instead of the \
                 fixpoint interpreter.")
  in
  let scenarios_arg =
    (* a count below 1 is a usage error, not a silent single run *)
    let count =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok k when k < 1 ->
          Error (`Msg (Printf.sprintf "%d is not a positive count" k))
        | r -> r
      in
      Arg.conv (parse, Arg.conv_printer Arg.int)
    in
    Arg.(value & opt count 1 & info [ "scenarios" ] ~docv:"K"
           ~doc:"Run K >= 1 environment scenarios as K independent \
                 instances forked from one compiled plan, in parallel \
                 on a domain pool (scenario k delays each environment \
                 arrival by k base ticks). Prints the chronogram of \
                 scenario 0 and a per-scenario summary; implies the \
                 compiled path.")
  in
  let run file root registry policy mode cache_dir hyperperiods vcd
      compiled scenarios stats trace trace_format =
    with_trace_opt trace trace_format @@ fun () ->
    let session = session_of cache_dir in
    let a = analyzed ~session ~mode file root registry policy in
    let tr =
      if scenarios > 1 then begin
        let traces =
          match
            Polychrony.Pipeline.simulate_scenarios ~hyperperiods ~scenarios a
          with
          | Ok traces -> traces
          | Error ds ->
            prerr_string (Putil.Diag.render_list ds);
            exit (Putil.Diag.exit_code ds)
        in
        Format.printf "%d scenarios, %d instants each (forked instances)@."
          scenarios (Polysim.Trace.length traces.(0));
        Array.iteri
          (fun s tr ->
            let presences =
              List.fold_left
                (fun acc x -> acc + Polysim.Trace.present_count tr x)
                0
                (Polysim.Trace.observable tr)
            in
            Format.printf "  scenario %d: %d observable presences@." s
              presences)
          traces;
        traces.(0)
      end
      else
        match Polychrony.Pipeline.simulate ~compiled ~hyperperiods a with
        | Ok tr -> tr
        | Error ds ->
          prerr_string (Putil.Diag.render_list ds);
          exit (Putil.Diag.exit_code ds)
    in
    Format.printf "%a@." (fun ppf tr -> Polysim.Trace.chronogram ppf tr) tr;
    (match vcd with
     | Some path ->
       let s = Polychrony.Pipeline.vcd_of_trace a tr in
       let oc = open_out path in
       output_string oc s;
       close_out oc;
       Format.printf "VCD written to %s@." path
     | None -> ());
    print_stats_if stats
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the scheduled system and print a chronogram")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ mode_arg $ cache_dir_arg $ hyper_arg $ vcd_arg $ compiled_arg
          $ scenarios_arg $ stats_arg $ trace_arg $ trace_format_arg)

let latency_cmd =
  let src_arg =
    Arg.(required & opt (some string) None & info [ "src" ] ~docv:"PATH"
           ~doc:"Source feature path, e.g. ProdConsSys.env.pGo.")
  in
  let dst_arg =
    Arg.(required & opt (some string) None & info [ "dst" ] ~docv:"PATH"
           ~doc:"Destination feature path.")
  in
  let run file root registry policy src dst =
    let a = analyzed file root registry policy in
    let schedules =
      a.Polychrony.Pipeline.translation.Trans.System_trans.schedules
    in
    match
      Trans.Latency.analyze a.Polychrony.Pipeline.instance ~schedules ~src
        ~dst
    with
    | Ok r -> Format.printf "%a@." Trans.Latency.pp_report r
    | Error m ->
      prerr_endline ("error: " ^ m);
      exit 1
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"End-to-end flow latency over the static schedule")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ src_arg $ dst_arg)

let codegen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write the generated C to this file (default stdout).")
  in
  let run file root registry policy out =
    let a = analyzed file root registry policy in
    match Polysim.Compile.compile a.Polychrony.Pipeline.kernel with
    | Error m ->
      prerr_endline ("error: " ^ m);
      exit 1
    | Ok c -> (
      match Polysim.Compile.to_c c with
      | Error m ->
        prerr_endline ("error: " ^ m);
        exit 1
      | Ok src -> (
        match out with
        | None -> print_string src
        | Some path ->
          let oc = open_out path in
          output_string oc src;
          close_out oc;
          Format.printf "C step function written to %s@." path))
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generate a self-contained C program from the compiled plan")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ out_arg)

let verify_cmd =
  let depth_arg =
    Arg.(value & opt int 8 & info [ "depth" ] ~docv:"N"
           ~doc:"Exploration depth in base ticks.")
  in
  let signal_arg =
    Arg.(value & opt string "Alarm" & info [ "never" ] ~docv:"SIGNAL"
           ~doc:"Safety property: this signal is never present.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Explore each depth slice on N domains in parallel \
                 (default: the EXPLORE_JOBS environment variable, else \
                 1). The verdict and counterexample are identical for \
                 every N.")
  in
  let engine_arg =
    Arg.(value
         & opt
             (enum
                [ ("auto", `Auto); ("explicit", `Explicit);
                  ("symbolic", `Symbolic) ])
             `Auto
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Verification engine: $(b,explicit) enumerates states, \
                   $(b,symbolic) runs BDD image computation, $(b,auto) \
                   (default) tries symbolic and falls back to explicit \
                   when the model is outside the symbolic fragment.")
  in
  let counters_arg =
    Arg.(value & opt (some int) None & info [ "counters" ] ~docv:"K"
           ~doc:"Verify the built-in scaling model instead of an AADL \
                 file: K independent modulo-3 counters ($(b,3^K) \
                 reachable states); the property is that its alarm \
                 output never fires.")
  in
  let run file root registry policy depth signal jobs stats engine counters =
    let never, kernel, inputs =
      match counters with
      | Some k ->
        ("alarm", Polysim.Models.counters k, Polysim.Models.counters_inputs k)
      | None ->
        let a = analyzed file root registry policy in
        (signal, a.Polychrony.Pipeline.kernel,
         Polychrony.Pipeline.verify_inputs a)
    in
    (match
       Polychrony.Pipeline.verify_kernel ~depth ?jobs ~engine ~never ~inputs
         kernel
     with
     | Ok (verdict, states, decided) ->
       let eng =
         match decided with `Explicit -> "explicit" | `Symbolic -> "symbolic"
       in
       (match verdict with
        | Polysim.Explore.Holds ->
          Format.printf
            "HOLDS: %s never present within %d ticks for any environment pattern (%d states explored, %s engine)@."
            never depth states eng
        | Polysim.Explore.Violated trail ->
          Format.printf
            "VIOLATED after %d ticks (%d states explored, %s engine); stimulus trail:@."
            (List.length trail) states eng;
          List.iteri
            (fun t stim ->
              Format.printf "  t=%d: %s@." t
                (String.concat ", "
                   (List.map
                      (fun (n, v) ->
                        Printf.sprintf "%s=%s" n
                          (Signal_lang.Types.value_to_string v))
                      stim)))
            trail)
     | Error d ->
       prerr_endline (Putil.Diag.render d);
       exit (Putil.Diag.exit_code [ d ]));
    print_stats_if stats
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Bounded exhaustive verification of a safety property")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ depth_arg $ signal_arg $ jobs_arg $ stats_arg $ engine_arg
          $ counters_arg)

(* recheck: the paper's edit-recompile loop. Analyze once cold, apply a
   textual edit (by default a thread-period change), re-analyze on the
   same incremental session, and report which pipeline stages were
   skipped by digest. Translation runs in [External] scheduler mode so
   a timing-only edit leaves the generated program invariant and the
   whole back end (typecheck, normalization, clock/boolean analyses)
   replays from cache. *)
let recheck_cmd =
  let edit_from_arg =
    Arg.(value & opt string "Period => 4 ms" & info [ "edit-from" ]
           ~docv:"TEXT"
           ~doc:"Source fragment to replace (first occurrence).")
  in
  let edit_to_arg =
    Arg.(value & opt string "Period => 5 ms" & info [ "edit-to" ]
           ~docv:"TEXT" ~doc:"Replacement fragment.")
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify-identical" ]
           ~doc:"Also run a fresh cold analysis of the edited source \
                 and assert that the incremental path produced \
                 byte-identical schedules, generated program and \
                 simulation trace; exit 1 on any difference.")
  in
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))
  in
  (* everything the pipeline ultimately hands to the user: schedule
     tables, the generated SIGNAL text and the simulated chronogram *)
  let render_outputs a =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    List.iter
      (fun (cpu, s) ->
        Format.fprintf ppf "processor %s:@.%a@." cpu
          Sched.Static_sched.pp_schedule s)
      a.Polychrony.Pipeline.translation.Trans.System_trans.schedules;
    Format.fprintf ppf "%a@." Signal_lang.Pp.pp_program
      a.Polychrony.Pipeline.translation.Trans.System_trans.program;
    (match Polychrony.Pipeline.simulate ~hyperperiods:2 a with
     | Ok tr -> Polysim.Trace.chronogram ppf tr
     | Error ds ->
       Format.fprintf ppf "simulate error:@.%s"
         (Putil.Diag.render_list ds));
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let run file root registry policy edit_from edit_to verify stats
      cache_dir =
    let src = load_source file in
    let registry = or_die (registry_named registry) in
    let policy = or_die (policy_named policy) in
    let edited =
      match replace_once ~sub:edit_from ~by:edit_to src with
      | Some s -> s
      | None ->
        Printf.eprintf "error: edit pattern %S not found in the source\n"
          edit_from;
        exit 1
    in
    let mode = Trans.System_trans.External in
    let analyze ?session s =
      match
        Polychrony.Pipeline.analyze ?session ~registry ~policy ~mode ?root
          ?file s
      with
      | Ok a ->
        if Putil.Diag.has_errors a.Polychrony.Pipeline.diags then begin
          print_diags ~oc:stderr ~format:`Text ~src:s
            a.Polychrony.Pipeline.diags;
          exit (Putil.Diag.exit_code a.Polychrony.Pipeline.diags)
        end;
        a
      | Error ds ->
        print_diags ~oc:stderr ~format:`Text ~src:s ds;
        exit (Putil.Diag.exit_code ds)
    in
    let store = store_of cache_dir in
    Clocks.Calculus.reset_cache ();
    let session = Polychrony.Pipeline.new_session ?store () in
    let t0 = Unix.gettimeofday () in
    let _cold = analyze ~session src in
    let t1 = Unix.gettimeofday () in
    let a_incr = analyze ~session edited in
    let t2 = Unix.gettimeofday () in
    let cold_ms = (t1 -. t0) *. 1e3 and incr_ms = (t2 -. t1) *. 1e3 in
    Format.printf "cold full analyze:      %8.2f ms@." cold_ms;
    Format.printf "incremental re-analyze: %8.2f ms  (edit %S -> %S)@."
      incr_ms edit_from edit_to;
    if incr_ms > 0. then
      Format.printf "speedup:                %8.1fx@." (cold_ms /. incr_ms);
    let a_warm =
      match store with
      | None -> None
      | Some _ ->
        (* a fresh session shares nothing in memory with the runs
           above, so this measures replay purely from the on-disk
           store — the cross-process warm-start path *)
        let fresh = Polychrony.Pipeline.new_session ?store () in
        let t3 = Unix.gettimeofday () in
        let a = analyze ~session:fresh edited in
        let t4 = Unix.gettimeofday () in
        Format.printf
          "fresh-session analyze:  %8.2f ms  (replayed from %s)@."
          ((t4 -. t3) *. 1e3)
          (Option.get cache_dir);
        Some a
    in
    let cval n = Putil.Metrics.counter_value Putil.Metrics.global n in
    Format.printf "stage traffic (cumulative over all runs):@.";
    List.iter
      (fun stage ->
        Format.printf
          "  %-12s ran=%d skipped=%d proc_ran=%d proc_skipped=%d@." stage
          (cval ("incr." ^ stage ^ ".ran"))
          (cval ("incr." ^ stage ^ ".skipped"))
          (cval ("incr." ^ stage ^ ".proc_ran"))
          (cval ("incr." ^ stage ^ ".proc_skipped")))
      [ "parse"; "instantiate"; "translate"; "typecheck"; "normalize";
        "analyses" ];
    if verify then begin
      Clocks.Calculus.reset_cache ();
      let a_cold = analyze edited in
      let r_incr = render_outputs a_incr in
      let r_cold = render_outputs a_cold in
      if String.equal r_incr r_cold then
        Format.printf
          "verify: incremental outputs byte-identical to a full rebuild \
           (%d bytes compared)@."
          (String.length r_incr)
      else begin
        Format.eprintf
          "error: incremental outputs differ from the full rebuild@.";
        exit 1
      end;
      match a_warm with
      | None -> ()
      | Some a_warm ->
        if String.equal (render_outputs a_warm) r_cold then
          Format.printf
            "verify: store-replayed outputs byte-identical to a full \
             rebuild@."
        else begin
          Format.eprintf
            "error: store-replayed outputs differ from the full rebuild@.";
          exit 1
        end
    end;
    print_stats_if stats
  in
  Cmd.v
    (Cmd.info "recheck"
       ~doc:"Measure the digest-driven incremental edit-recompile loop: \
             cold analysis, a timing edit, warm re-analysis with stage \
             skip counters, optionally asserting byte-identical outputs")
    Term.(const run $ file_arg $ root_arg $ registry_arg $ policy_arg
          $ edit_from_arg $ edit_to_arg $ verify_arg $ stats_arg
          $ cache_dir_arg)

(* One observation scope per input file: analyze + simulate each file
   inside its own Pipeline session, then expose the global roll-up plus
   every per-scope registry. This is the one-process shape of the
   planned analysis daemon (one scope per request). *)
let stats_cmd =
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"AADL source files, one observation scope each; the \
                 bundled ProducerConsumer case study when omitted.")
  in
  let stats_format_arg =
    Arg.(value
         & opt
             (enum
                [ ("text", `Text); ("json", `Json);
                  ("openmetrics", `OpenMetrics) ])
             `OpenMetrics
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Report format: $(b,openmetrics) (Prometheus text \
                   exposition, one sample set per scope label), \
                   $(b,json) or $(b,text).")
  in
  let flight_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-recorder" ] ~docv:"PATH"
             ~doc:"Also write the polychrony-flight/v1 snapshot (the \
                   always-on bounded ring of recent span/instant/diag \
                   events per domain) to $(docv).")
  in
  let no_simulate_arg =
    Arg.(value & flag & info [ "no-simulate" ]
           ~doc:"Only analyze each file; skip the two-hyper-period \
                 simulation that populates the engine counters.")
  in
  let run files format registry policy no_simulate flight =
    let registry = or_die (registry_named registry) in
    let policy = or_die (policy_named policy) in
    let files = match files with [] -> [ None ] | fs -> List.map Option.some fs in
    let used = Hashtbl.create 8 in
    List.iter
      (fun file ->
        let base =
          match file with
          | Some f -> Filename.remove_extension (Filename.basename f)
          | None -> "producer_consumer"
        in
        (* scope labels must stay disjoint even when the same file is
           passed twice: suffix repeats deterministically *)
        let label =
          match Hashtbl.find_opt used base with
          | None -> Hashtbl.replace used base 1; base
          | Some n ->
            Hashtbl.replace used base (n + 1);
            Printf.sprintf "%s-%d" base (n + 1)
        in
        let session = Polychrony.Pipeline.new_session ~label () in
        let src = load_source file in
        match
          Polychrony.Pipeline.analyze ~session ~registry ~policy ?file src
        with
        | Error ds -> print_diags ~oc:stderr ~format:`Text ~src ds
        | Ok a ->
          if not no_simulate then (
            match Polychrony.Pipeline.simulate a with
            | Ok _ -> ()
            | Error ds -> print_diags ~oc:stderr ~format:`Text ~src ds))
      files;
    (match format with
     | `OpenMetrics -> print_string (Putil.Obs.to_openmetrics ())
     | `Json ->
       let j =
         Putil.Metrics.Json.Obj
           [ ("global", Polychrony.Pipeline.stats_json ());
             ( "scopes",
               Putil.Metrics.Json.Obj
                 (List.map
                    (fun s ->
                      ( Putil.Obs.scope_label s,
                        Putil.Metrics.to_json (Putil.Obs.scope_registry s) ))
                    (Putil.Obs.scopes ())) ) ]
       in
       print_endline (Putil.Metrics.Json.to_string j)
     | `Text ->
       Format.printf "== global ==@.%a@." Putil.Metrics.pp
         Putil.Metrics.global;
       List.iter
         (fun s ->
           Format.printf "== scope %s ==@.%a@." (Putil.Obs.scope_label s)
             Putil.Metrics.pp
             (Putil.Obs.scope_registry s))
         (Putil.Obs.scopes ()));
    match flight with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Putil.Obs.flight_recorder_to_string ());
          output_char oc '\n')
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Analyze (and simulate) each file inside its own \
             observation scope and expose the metrics: global roll-up \
             plus per-scope attribution, as OpenMetrics, JSON or text")
    Term.(const run $ files_arg $ stats_format_arg $ registry_arg
          $ policy_arg $ no_simulate_arg $ flight_arg)

let cache_cmd =
  let open_dir cache_dir =
    let dir =
      match cache_dir with
      | Some dir -> dir
      | None ->
        prerr_endline
          "error: pass --cache-dir DIR (or set the CACHE_DIR \
           environment variable)";
        exit 1
    in
    match Putil.Cache_store.open_store dir with
    | Ok s -> s
    | Error m ->
      prerr_endline ("error: " ^ m);
      exit 1
  in
  let stats_run cache_dir =
    let s = open_dir cache_dir in
    let st = Putil.Cache_store.stats s in
    Format.printf "cache %s:@." (Putil.Cache_store.dir s);
    Format.printf "  entries: %d@." st.Putil.Cache_store.entries;
    Format.printf "  bytes:   %d@." st.Putil.Cache_store.bytes;
    if st.Putil.Cache_store.corrupt > 0 then
      Format.printf "  corrupt entries discarded on scan: %d@."
        st.Putil.Cache_store.corrupt
  in
  let clear_run cache_dir =
    let s = open_dir cache_dir in
    let n = Putil.Cache_store.clear s in
    Format.printf "removed %d entries from %s@." n
      (Putil.Cache_store.dir s)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect or clear a persistent --cache-dir store")
    [ Cmd.v
        (Cmd.info "stats"
           ~doc:"Entry count and payload bytes of the store")
        Term.(const stats_run $ cache_dir_arg);
      Cmd.v
        (Cmd.info "clear" ~doc:"Delete every entry in the store")
        Term.(const clear_run $ cache_dir_arg) ]

let () =
  let doc = "AADL to polychronous SIGNAL tool chain (ASME2SSME)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "asme2ssme" ~doc)
          [ parse_cmd; check_cmd; translate_cmd; schedule_cmd; analyze_cmd;
            simulate_cmd; latency_cmd; verify_cmd; codegen_cmd;
            recheck_cmd; cache_cmd; stats_cmd ]))
