(* The four workloads. Each is a closed loop: one client, one op at a
   time, on the calling domain. [setup] builds a workload's seeded
   inputs and the references its ops are checked against; [op i]
   prepares op [i] (untimed) and returns the timed part, which in turn
   returns the untimed reference check ([None] = correct, [Some why] =
   failed). [traced] replays the inputs through the layers one by one
   for the per-layer ledger. *)

module P = Polychrony.Pipeline

type t = {
  op : int -> unit -> unit -> string option;
  traced : budget_ns:int -> int * int;  (** inputs replayed, failed *)
  cleanup : unit -> unit;
}

let fresh_seq = ref 0

(* A name no model of this process has used: rendering under it gives a
   kernel digest, instance paths and process names that miss every
   process-wide memo (calculus, thread translation, compiled plans), as
   in a fresh process. *)
let fresh () =
  incr fresh_seq;
  Printf.sprintf "u%d" !fresh_seq

let now_ns = Putil.Clock.now_ns
let diags_of = function Ok a -> a.P.diags | Error ds -> ds
let codes ds = List.map (fun d -> d.Putil.Diag.code) ds
let diag_json ds = Putil.Metrics.Json.to_string (Putil.Diag.list_to_json ds)

let reset_process_memos () =
  Clocks.Calculus.reset_cache ();
  Putil.Obs.reset_scopes ()

(* The compiled-plan memo of [Polysim.Compile] has no public reset and
   keeps up to 256 plans (several MB each on these models), clearing
   itself when full. Ops that emulate fresh processes each leave one
   plan behind, so every [flush_every] ops the memo is driven past its
   cap with empty kernels: at most [flush_every] workload plans stay
   alive, as a series of fresh processes would keep none. *)
let flush_every = 16
let plan_memo_cap = 256
let flush_seq = ref 0

let flush_plan_memo () =
  for _ = 1 to plan_memo_cap do
    incr flush_seq;
    ignore
      (Polysim.Compile.compile
         { Signal_lang.Kernel.kname = Printf.sprintf "flush%d" !flush_seq; kinputs = [];
           koutputs = []; klocals = []; keqs = []; kconstraints = []; kinstances = [];
           kpartials = [] })
  done

let cold_prep i =
  reset_process_memos ();
  if i mod flush_every = flush_every - 1 then flush_plan_memo ()

let gen_root name = "rig" ^ name ^ ".impl"

(* Run ops [0, block) untraced and traced, in alternating order over
   [reps] rounds, and return (traced - untraced) / untraced. Whole
   blocks keep each op's predecessor the same in both modes (an
   edit-recheck op depends on the edit before it). *)
let trace_overhead ~reps ~block f =
  let off = ref 0 and on = ref 0 in
  let run traced acc =
    Ledger.set_enabled traced;
    let t0 = now_ns () in
    for i = 0 to block - 1 do f i done;
    acc := !acc + (now_ns () - t0)
  in
  for r = 0 to reps - 1 do
    if r mod 2 = 0 then (run false off; run true on) else (run true on; run false off)
  done;
  Ledger.set_enabled true;
  float (!on - !off) /. float (max 1 !off)

(* The traced replay: [input i] for i = 0, 1, ..., each in an "input"
   span, until [budget_ns] has passed (at least once). [input] returns
   whether the input's outputs matched the reference. Returns the
   number of inputs and of failed ones. *)
let replay ~budget_ns input =
  let t_end = now_ns () + budget_ns in
  let n = ref 0 and failed = ref 0 in
  while !n = 0 || now_ns () < t_end do
    if not (Ledger.span "input" (fun () -> input !n)) then incr failed;
    incr n
  done;
  (!n, !failed)

(* ------------------------------------------------------------------ *)
(* check-cold                                                          *)

(* One cycle of model shapes: 2..6 threads, one or two processors,
   harmonic or not; four in twenty carry a defect, each kind once. *)
let cold_shape slot =
  let threads = 2 + (slot mod 5) in
  let cpus = if slot mod 2 = 0 then 1 else 2 in
  let harmonic = slot mod 4 < 2 in
  let defect =
    match slot with
    | 0 -> Some Gen.Unresolved
    | 6 -> Some Gen.Missing_period
    | 12 -> Some Gen.Infeasible
    | 18 -> Some Gen.Duplicate_feature
    | _ -> None
  in
  (threads, cpus, harmonic, defect)

let cycle = 20

let cold_expect spec r =
  match spec.Gen.defect with
  | Some (d, _) ->
    let ds = diags_of r in
    if Putil.Diag.has_errors ds && List.mem (Gen.expected_code d) (codes ds) then None
    else
      Some
        (Printf.sprintf "planted %s: expected %s, got [%s]" (Gen.defect_name d)
           (Gen.expected_code d) (String.concat "," (codes ds)))
  | None -> (
    match r with
    | Error ds -> Some ("clean model rejected: " ^ String.concat "," (codes ds))
    | Ok a ->
      if Putil.Diag.has_errors a.P.diags then
        Some ("clean model has errors: " ^ String.concat "," (codes a.P.diags))
      else if not (Clocks.Calculus.consistent (Lazy.force a.P.calc)) then
        Some "clean model: inconsistent clock calculus"
      else if not a.P.determinism.Analysis.Determinism.deterministic then
        Some "clean model: not deterministic"
      else if not a.P.deadlock.Analysis.Deadlock.deadlock_free then
        Some "clean model: deadlock"
      else None)

(* What [asme2ssme analyze FILE] prints: the summary (which forces the
   whole-kernel calculus, the hierarchy and a compiled plan), the
   traceability table and the diagnostics. *)
let text_report src = function
  | Error ds -> Putil.Diag.render_list ~src ds
  | Ok a ->
    Format.asprintf "%a@.traceability:@.%a@.%s" P.pp_summary a Trans.Traceability.pp
      a.P.translation.Trans.System_trans.trace
      (Putil.Diag.render_list ~src a.P.diags)

let check_cold ~seed =
  (* every op draws a model of its own, so a run spans some 700 models
     and not a fixed few. Op i's timing and links, which set its cost
     (a 6-thread model takes 25-250 ms depending on them), come from i
     alone: every seed meets the same costs in the same order, and
     op_p90_ms, drawn from the sparse tail of 6-thread models, does not
     move with the sample of models a seed would draw. The seed draws
     the shared-data writers and readers and the defect sites. *)
  let spec_of i =
    let threads, cpus, harmonic, defect = cold_shape (i mod cycle) in
    Gen.make ~timing_rng:(Random.State.make [| i |]) (Random.State.make [| seed; i |]) ~threads
      ~cpus ~harmonic ~defect
  in
  let op i =
    let spec = spec_of i in
    let name = fresh () in
    let src = Gen.render ~name spec in
    cold_prep i;
    fun () ->
      let r =
        Ledger.span "core.analyze" (fun () ->
            P.analyze ~session:(P.new_session ~label:"check-cold" ()) ~root:(gen_root name) src)
      in
      ignore (Ledger.span "core.report" (fun () -> String.length (text_report src r)));
      fun () -> cold_expect spec r
  in
  (* warm-up: one cycle of model shapes *)
  for i = 0 to cycle - 1 do ignore (op i () ()) done;
  let traced ~budget_ns =
    let n, failed =
      replay ~budget_ns (fun i ->
          let spec = spec_of i in
          let analyze_ms, r, kernel =
            Layers.cold_analyze_and_ledger ~registry:Trans.Behavior.empty
              ~mode:Trans.System_trans.Embedded ~root_of:gen_root
              ~render:(fun name -> Gen.render ~name spec) ~fresh
          in
          Layers.add "core.analyze" analyze_ms;
          (* the report compiles a plan *)
          Option.iter
            (fun k ->
              let c = Layers.timed "polysim.plan" (fun () -> Polysim.Compile.compile_uncached k) in
              Result.iter
                (fun c -> Layers.add "polysim.plan_ops" (float (Polysim.Compile.plan_length c)))
                c)
            kernel;
          cold_expect spec r = None)
    in
    Layers.publish_analysis ~inputs:n;
    Layers.set "polysim.plan_ms" (Layers.sum "polysim.plan" /. float n);
    Layers.set "polysim.plan_ops" (Layers.sum "polysim.plan_ops" /. float n);
    Layers.set "util.trace_overhead_ratio"
      (trace_overhead ~reps:2 ~block:cycle (fun i -> ignore (op i () ())));
    (n, failed)
  in
  { op; traced; cleanup = ignore }

(* ------------------------------------------------------------------ *)
(* edit-recheck                                                        *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The editor's working set: four models of fixed shape (threads,
   processors, period set and initial timing, planted defect kind),
   each edited on its own cycle of [edit_kinds] then undone in reverse
   order. The seed draws the pairing of cell writers and readers, and
   each edit's thread and values; fixing everything else keeps the op
   classes, and the hyper-periods the schedules are built over, the
   same on every seed. *)
let edit_models =
  Gen.[| (4, 1, true, Infeasible); (5, 2, false, Missing_period);
         (5, 2, true, Duplicate_feature); (6, 2, false, Unresolved) |]
let edit_cells = 1
let edit_link_every = 3

(* eight timing-only edits, one one-thread feature edit, one defect
   toggle: with their undos and the switch to the next model, three in
   four ops replay the whole back end (External mode keeps the program
   invariant under timing edits), so op_p50_ms lands inside that class
   and op_p90_ms inside the class of structural rechecks *)
let edit_kinds d =
  Gen.[| Timing; Timing; Feature; Timing; Timing; Defect d; Timing; Timing; Timing; Timing |]

let edit_recheck ~seed ~store_dir =
  let rng = Random.State.make [| seed; 7 |] in
  let steps = Array.length (edit_kinds Gen.Infeasible) in
  let models = Array.length edit_models in
  (* states.(m).(j): model [m] after its first [j] edits *)
  let states =
    Array.map
      (fun (threads, cpus, harmonic, defect) ->
        let base =
          Gen.make ~cells:edit_cells ~link_every:edit_link_every ~fixed_timing:true rng ~threads
            ~cpus ~harmonic ~defect:None
        in
        let st = Array.make (steps + 1) base in
        for j = 1 to steps do
          st.(j) <- Gen.apply st.(j - 1) (Gen.edit rng st.(j - 1) (edit_kinds defect).(j - 1))
        done;
        st)
      edit_models
  in
  (* each model in turn walks forward through its edits and back
     (2 x steps ops), as an editor switching between files *)
  let walk = Array.init (2 * steps) (fun i -> if i <= steps then i else (2 * steps) - i) in
  let per_model = Array.length walk in
  let state_of i =
    ((i / per_model) mod models, walk.((i + 1) mod per_model))
  in
  let name m = Printf.sprintf "edit%d" m in
  let root m = gen_root (name m) in
  let sources = Array.mapi (fun m st -> Array.map (fun s -> Gen.render ~name:(name m) s) st) states in
  let mode = Trans.System_trans.External in
  (* references: a cold fresh-session analysis of every source *)
  let refs =
    Array.mapi
      (fun m srcs ->
        Array.map
          (fun src ->
            reset_process_memos ();
            let json =
              diag_json (diags_of (P.analyze ~session:(P.new_session ()) ~mode ~root:(root m) src))
            in
            (* the cold analyses churn through clock-calculus BDD
               managers; collecting after each keeps the heap, and with
               it peak_rss_mb, from growing with set-up luck *)
            Gc.full_major ();
            json)
          srcs)
      sources
  in
  rm_rf store_dir;
  let store =
    match Putil.Cache_store.open_store store_dir with
    | Ok s -> s
    | Error m -> failwith ("cannot open the cache store: " ^ m)
  in
  let session = P.new_session ~label:"edit-recheck" ~store () in
  let op i =
    let m, j = state_of i in
    let src = sources.(m).(j) in
    fun () ->
      let r = Ledger.span "core.analyze" (fun () -> P.analyze ~session ~mode ~root:(root m) src) in
      let json = Ledger.span "core.diag_json" (fun () -> diag_json (diags_of r)) in
      fun () ->
        if String.equal json refs.(m).(j) then None
        else
          Some (Printf.sprintf "model %d, source %d: diagnostics differ from the cold analysis" m j)
  in
  let cycle_ops = models * per_model in
  (* warm-up: one full edit cycle fills the session and the store *)
  for i = 0 to cycle_ops - 1 do ignore (op i () ()) done;
  let proc_counters () =
    List.fold_left
      (fun (ran, skipped) (name, stat) ->
        let v = match stat with Putil.Metrics.Counter v -> v | _ -> 0 in
        if String.length name > 5 && String.sub name 0 5 = "incr." then
          if Filename.check_suffix name ".proc_ran" then (ran + v, skipped)
          else if Filename.check_suffix name ".proc_skipped" then (ran, skipped + v)
          else (ran, skipped)
        else (ran, skipped))
      (0, 0)
      (Putil.Metrics.snapshot Putil.Metrics.global)
  in
  let traced ~budget_ns =
    let ran = ref 0 and skipped = ref 0 and hits = ref 0 and misses = ref 0 in
    let n, failed =
      replay ~budget_ns (fun i ->
          let m, j = state_of i in
          let r0, s0 = proc_counters () in
          let st0 = Putil.Cache_store.stats store in
          let check = op i () in
          Layers.add "core.analyze" (Ledger.last_ms "core.analyze");
          let r1, s1 = proc_counters () in
          let st1 = Putil.Cache_store.stats store in
          ran := !ran + (r1 - r0);
          skipped := !skipped + (s1 - s0);
          hits := !hits + (st1.Putil.Cache_store.hits - st0.Putil.Cache_store.hits);
          misses := !misses + (st1.Putil.Cache_store.misses - st0.Putil.Cache_store.misses);
          (* the cold layers of the same source *)
          ignore
            (Layers.cold_analyze_and_ledger ~registry:Trans.Behavior.empty ~mode
               ~root_of:gen_root
               ~render:(fun nm -> Gen.render ~name:nm states.(m).(j))
               ~fresh);
          (* a fresh session over the warm store, as a new process
             sharing the cache directory replays it *)
          Clocks.Calculus.reset_cache ();
          ignore
            (Layers.timed "util.store_replay" (fun () ->
                 P.analyze ~session:(P.new_session ~label:"replay" ~store ()) ~mode
                   ~root:(root m) sources.(m).(j)));
          check () = None)
    in
    Layers.publish_analysis ~inputs:n;
    let ratio a b = if a + b = 0 then 0. else float a /. float (a + b) in
    Layers.set "core.proc_skip_ratio" (ratio !skipped !ran);
    Layers.set "util.store_hit_ratio" (ratio !hits !misses);
    Layers.set "util.store_bytes" (float (Putil.Cache_store.stats store).Putil.Cache_store.bytes);
    Layers.set "util.store_replay_ms" (Layers.sum "util.store_replay" /. float n);
    Layers.set "util.trace_overhead_ratio"
      (trace_overhead ~reps:2 ~block:cycle_ops (fun i -> ignore (op i () ())));
    (n, failed)
  in
  { op; traced; cleanup = (fun () -> rm_rf store_dir) }

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

(* Instants simulated per op: the hyper-period count is chosen per
   model so that every op steps about this many instants. *)
let sim_instants = 480

type sim_model = {
  a : P.analyzed;
  hyper : int;
  reference : Polysim.Trace.t;
  inputs : (string * Signal_lang.Types.value) list array;
      (** present inputs per instant, read back from the reference *)
}

let simulate ~seed =
  let rng = Random.State.make [| seed; 11 |] in
  let analyze ~registry ~root src =
    match P.analyze ~registry ~root src with
    | Ok a when not (Putil.Diag.has_errors a.P.diags) -> a
    | _ -> failwith "simulate: a workload model does not analyze cleanly"
  in
  let models =
    analyze ~registry:Polychrony.Case_study.registry_nominal
      ~root:Polychrony.Case_study.root Polychrony.Case_study.aadl_source
    :: List.map
         (fun (threads, cpus, harmonic) ->
           (* fixed timing and structure: the seed only pairs cell
              writers and readers, so op costs do not move with it *)
           let spec =
             Gen.make ~cells:1 ~link_every:3 ~fixed_timing:true rng ~threads ~cpus ~harmonic
               ~defect:None
           in
           let name = Printf.sprintf "sim%d" threads in
           analyze ~registry:Trans.Behavior.empty ~root:(gen_root name) (Gen.render ~name spec))
         [ (2, 1, true); (3, 1, false); (4, 2, true) ]
  in
  let interp_ns = ref 0 and interp_instants = ref 0 in
  let models =
    Array.of_list
      (List.map
         (fun a ->
           let hyper = max 1 (sim_instants / P.base_ticks_per_hyperperiod a) in
           let t0 = now_ns () in
           let reference =
             match P.simulate ~compiled:false ~hyperperiods:hyper a with
             | Ok tr -> tr
             | Error _ -> failwith "simulate: the interpreter rejects a workload model"
           in
           interp_ns := !interp_ns + (now_ns () - t0);
           interp_instants := !interp_instants + Polysim.Trace.length reference;
           let kinputs =
             List.map (fun (d : Signal_lang.Ast.nvardecl) -> d.Signal_lang.Ast.var_name)
               a.P.kernel.Signal_lang.Kernel.kinputs
           in
           let inputs =
             Array.init (Polysim.Trace.length reference) (fun t ->
                 List.filter_map
                   (fun x -> Option.map (fun v -> (x, v)) (Polysim.Trace.get reference t x))
                   kinputs)
           in
           { a; hyper; reference; inputs })
         models)
  in
  let model_of i = models.(i mod Array.length models) in
  (* a fresh kernel name: the op pays the plan build as a fresh
     [simulate --compiled] process does *)
  let renamed m =
    let k = m.a.P.kernel in
    { m.a with P.kernel = { k with Signal_lang.Kernel.kname = k.Signal_lang.Kernel.kname ^ fresh () } }
  in
  let op i =
    let m = model_of i in
    let a = renamed m in
    cold_prep i;
    fun () ->
      let tr =
        Ledger.span "core.simulate" (fun () -> P.simulate ~compiled:true ~hyperperiods:m.hyper a)
      in
      let vcd =
        match tr with
        | Ok tr -> Ledger.span "polysim.vcd" (fun () -> P.vcd_of_trace a tr)
        | Error _ -> ""
      in
      fun () ->
        match tr with
        | Error ds -> Some ("simulate failed: " ^ String.concat "," (codes ds))
        | Ok tr ->
          if not (Polysim.Trace.equal tr m.reference) then
            Some "compiled trace differs from the interpreter trace"
          else if String.length vcd = 0 then Some "empty VCD"
          else None
  in
  Array.iteri (fun i _ -> ignore (op i () ())) models;
  let traced ~budget_ns =
    let instants = ref 0 in
    let n, failed =
      replay ~budget_ns (fun i ->
          let m = model_of i in
          let a = renamed m in
          Clocks.Calculus.reset_cache ();
          match
            Layers.timed "polysim.plan" (fun () -> Polysim.Compile.compile_uncached a.P.kernel)
          with
          | Error _ -> false
          | Ok c ->
            Layers.add "polysim.plan_ops" (float (Polysim.Compile.plan_length c));
            let horizon = Array.length m.inputs in
            let idx =
              Array.map
                (List.map (fun (x, v) -> (Option.get (Polysim.Compile.signal_index c x), v)))
                m.inputs
            in
            let fill c t = List.iter (fun (i, v) -> Polysim.Compile.set_stim c i v) idx.(t) in
            let quiet = Polysim.Compile.fork c in
            Polysim.Compile.set_recording quiet false;
            let r1 =
              Layers.timed "polysim.step" (fun () ->
                  Polysim.Compile.run_batched quiet ~n:horizon ~fill)
            in
            let loud = Polysim.Compile.fork c in
            let r2 =
              Layers.timed "polysim.step_recorded" (fun () ->
                  Polysim.Compile.run_batched loud ~n:horizon ~fill)
            in
            instants := !instants + horizon;
            let tr = Polysim.Compile.trace loud in
            let vcd = Layers.timed "polysim.vcd" (fun () -> P.vcd_of_trace a tr) in
            Layers.add "polysim.vcd_bytes" (float (String.length vcd));
            r1 = Ok () && r2 = Ok () && Polysim.Trace.equal tr m.reference)
    in
    let per = float n and inst = float (max 1 !instants) in
    Layers.set "polysim.plan_ms" (Layers.sum "polysim.plan" /. per);
    Layers.set "polysim.plan_ops" (Layers.sum "polysim.plan_ops" /. per);
    Layers.set "polysim.step_us_per_instant" (Layers.sum "polysim.step" *. 1e3 /. inst);
    Layers.set "polysim.record_us_per_instant"
      ((Layers.sum "polysim.step_recorded" -. Layers.sum "polysim.step") *. 1e3 /. inst);
    Layers.set "polysim.vcd_ms" (Layers.sum "polysim.vcd" /. per);
    Layers.set "polysim.vcd_bytes" (Layers.sum "polysim.vcd_bytes" /. per);
    Layers.set "polysim.interp_us_per_instant"
      (float !interp_ns /. 1e3 /. float (max 1 !interp_instants));
    Layers.set "util.trace_overhead_ratio"
      (trace_overhead ~reps:2 ~block:(4 * Array.length models) (fun i -> ignore (op i () ())));
    (n, failed)
  in
  { op; traced; cleanup = ignore }

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

type vjob =
  | Aadl_model of { a : P.analyzed; verdict : Polysim.Explore.verdict; states : int }
  | Counters of int

(* One cycle of 45 ops: each of the three AADL models three times, where
   the symbolic engine gives up and Auto falls back to explicit (0.2-0.45 s
   each), and 36 counter models the symbolic engine decides in
   milliseconds. With 9 of 45 ops in the fallback class, op_p90_ms is the
   class median, drawn from all its ops and not from its fast edge: the
   same fallback op varies by half from spell to spell of a busy host.
   16 counter ops lie below the thirteen k = 24 ones, so op_p50_ms is
   the median of those. The seed shuffles the cycle. *)
let verify_base_cycle =
  Array.concat
    [ [| `A 0; `A 0; `A 0; `A 1; `A 1; `A 1; `A 2; `A 2; `A 2 |];
      Array.concat
        (List.map
           (fun (k, copies) -> Array.make copies (`C k))
           [ (8, 4); (12, 4); (16, 4); (20, 4); (24, 13); (28, 4); (32, 3) ]) ]

(* One-thread models of fixed timing (period ms, harmonic set): fixed
   shapes keep the fallback class the same on every seed. *)
let verify_shapes = [| (8, true); (12, false); (32, true) |]

let never = "Alarm"

let verify ~seed =
  let rng = Random.State.make [| seed; 13 |] in
  let verify_cycle = Array.copy verify_base_cycle in
  for i = Array.length verify_cycle - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = verify_cycle.(i) in
    verify_cycle.(i) <- verify_cycle.(j);
    verify_cycle.(j) <- t
  done;
  let aadl =
    Array.mapi
      (fun k (period_ms, harmonic) ->
        let spec =
          { Gen.threads =
              [| { Gen.period_ms; wcet_ms = 1; cpu = 0; data_link = false;
                   access = Gen.No_access } |];
            cpus = 1; harmonic; cells = 0; defect = None }
        in
        let name = Printf.sprintf "ver%d" k in
        match P.analyze ~root:(gen_root name) (Gen.render ~name spec) with
        | Ok a -> (
          (* reference: the explicit engine alone *)
          match P.verify ~jobs:1 ~engine:`Explicit ~never a with
          | Ok (verdict, states, _) -> Aadl_model { a; verdict; states }
          | Error d -> failwith ("verify: explicit reference failed: " ^ Putil.Diag.to_string d))
        | Error _ -> failwith "verify: a workload model does not analyze")
      verify_shapes
  in
  let job_of i =
    match verify_cycle.(i mod Array.length verify_cycle) with
    | `A k -> aadl.(k)
    | `C k -> Counters k
  in
  let pow3 k = int_of_float (3. ** float k) in
  let run_job = function
    | Aadl_model { a; _ } -> P.verify ~jobs:1 ~never a
    | Counters k ->
      P.verify_kernel ~jobs:1 ~never:"alarm" ~inputs:(Polysim.Models.counters_inputs k)
        (Polysim.Models.counters k)
  in
  let check job r =
    match (job, r) with
    | _, Error d -> Some ("verify failed: " ^ Putil.Diag.to_string d)
    | Aadl_model { verdict; states; _ }, Ok (v, n, _) ->
      if v = verdict && n = states then None
      else Some (Printf.sprintf "AADL verdict/state count differ from explicit (%d vs %d)" n states)
    | Counters k, Ok (v, n, _) ->
      if v = Polysim.Explore.Holds && n = pow3 k then None
      else Some (Printf.sprintf "counters %d: %d states, expected %d" k n (pow3 k))
  in
  let op i =
    let job = job_of i in
    fun () ->
      let r = Ledger.span "core.verify" (fun () -> run_job job) in
      fun () -> check job r
  in
  (* warm-up: every job once, whatever the seed's order *)
  List.iter
    (fun job ->
      let i = Option.get (Array.find_index (( = ) job) verify_cycle) in
      ignore (op i () ()))
    (List.sort_uniq compare (Array.to_list verify_cycle));
  let traced ~budget_ns =
    let fallbacks = ref 0 and states = ref 0 and peak = ref 0 in
    let n, failed =
      replay ~budget_ns (fun i ->
          let job = job_of i in
          let kernel, inputs, never =
            match job with
            | Aadl_model { a; _ } -> (a.P.kernel, P.verify_inputs a, never)
            | Counters k -> (Polysim.Models.counters k, Polysim.Models.counters_inputs k, "alarm")
          in
          let prop = Polysim.Symbolic.Never_present never in
          let sym =
            Layers.timed "polysim.symbolic" (fun () ->
                Polysim.Explore.check_symbolic ~inputs ~prop kernel)
          in
          peak := max !peak (Layers.counter "explore.sym.peak_nodes");
          let r =
            match sym with
            | Error d when d.Putil.Diag.code = Polysim.Symbolic.code_unsupported ->
              incr fallbacks;
              Layers.add "polysim.fallback_wasted" (Ledger.last_ms "polysim.symbolic");
              Result.map
                (fun (v, n) -> (v, n, `Explicit))
                (Layers.timed "polysim.explicit" (fun () ->
                     Polysim.Explore.check ~jobs:1 ~inputs
                       ~safe:(Polysim.Symbolic.safe_of_prop prop) kernel))
            | r -> Result.map (fun (v, n) -> (v, n, `Symbolic)) r
          in
          (match r with Ok (_, s, _) -> states := !states + s | Error _ -> ());
          check job r = None)
    in
    let per = float n in
    Layers.set "polysim.symbolic_ms" (Layers.sum "polysim.symbolic" /. per);
    Layers.set "polysim.explicit_ms" (Layers.sum "polysim.explicit" /. per);
    Layers.set "polysim.fallback_ratio" (float !fallbacks /. per);
    Layers.set "polysim.fallback_wasted_ms" (Layers.sum "polysim.fallback_wasted" /. per);
    Layers.set "polysim.states" (float !states /. per);
    Layers.set "polysim.sym_peak_nodes" (float !peak);
    Layers.set "util.trace_overhead_ratio"
      (trace_overhead ~reps:2 ~block:15 (fun i -> ignore (op i () ())));
    (n, failed)
  in
  { op; traced; cleanup = ignore }

let names = [ "check-cold"; "edit-recheck"; "simulate"; "verify" ]

let setup name ~seed ~rep ~state_dir =
  match name with
  | "check-cold" -> check_cold ~seed
  | "edit-recheck" ->
    edit_recheck ~seed ~store_dir:(Filename.concat state_dir (Printf.sprintf "store-%d" rep))
  | "simulate" -> simulate ~seed
  | "verify" -> verify ~seed
  | other -> invalid_arg ("unknown workload " ^ other)
