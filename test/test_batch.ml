(* Batched stepping over the dense stimulus ABI and multi-scenario
   simulation over forked instances: byte-identical to the one-instant
   step loop and the fixpoint interpreter, and allocation-flat in
   steady state. *)

module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Engine = Polysim.Engine
module Compile = Polysim.Compile
module Trace = Polysim.Trace

let vi n = Types.Vint n
let vb b = Types.Vbool b
let ve = Types.Vevent

let analyzed () =
  match
    Polychrony.Pipeline.analyze
      ~registry:Polychrony.Case_study.registry_nominal
      Polychrony.Case_study.aadl_source
  with
  | Ok a -> a
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let case_stim t =
  ("tick", ve) :: (if t = 0 then [ ("env_pGo", vi 1) ] else [])

let fill_assoc c stim =
  List.iter
    (fun (x, v) ->
      match Compile.signal_index c x with
      | Some i -> Compile.set_stim c i v
      | None -> Alcotest.fail ("unknown input " ^ x))
    stim

let step_all c stims =
  List.iter
    (fun stim ->
      Compile.stim_clear c;
      fill_assoc c stim;
      match Compile.step_prepared c with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    stims

(* run_batched over the translated case study: same trace as the
   one-instant loop and as the interpreter *)
let test_run_batched_case_study () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let horizon = 48 in
  let stimuli = List.init horizon case_stim in
  let c_step = Result.get_ok (Compile.compile kp) in
  step_all c_step stimuli;
  let c_batch = Compile.fork c_step in
  (match
     Compile.run_batched c_batch ~n:horizon
       ~fill:(fun c t -> fill_assoc c (case_stim t))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "batched = one-instant loop" true
    (Trace.equal (Compile.trace c_step) (Compile.trace c_batch));
  match Engine.run kp ~stimuli with
  | Ok t_engine ->
    Alcotest.(check bool) "batched = interpreter" true
      (Trace.equal t_engine (Compile.trace c_batch))
  | Error m -> Alcotest.fail m

(* a fork shares the plan but no mutable state: stepping it leaves the
   parent's trace and state key untouched *)
let test_fork_independence () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let history = List.init 12 case_stim in
  let parent = Result.get_ok (Compile.compile kp) in
  step_all parent history;
  let kb = Compile.keybuf () in
  let key = Compile.state_key parent kb in
  let child = Compile.fork parent in
  Alcotest.(check int) "a fork starts with an empty trace" 0
    (Trace.length (Compile.trace child));
  (* a different environment phase, well past the parent's horizon *)
  step_all child
    (List.init 40 (fun t ->
         ("tick", ve) :: (if t = 3 then [ ("env_pGo", vi 1) ] else [])));
  Alcotest.(check string) "parent state key unchanged" key
    (Compile.state_key parent kb);
  Alcotest.(check int) "parent instant unchanged" 12 (Compile.instant parent);
  let witness = Result.get_ok (Compile.compile kp) in
  step_all witness history;
  Alcotest.(check bool) "parent trace unchanged" true
    (Trace.equal (Compile.trace parent) (Compile.trace witness))

(* every scenario of Pipeline.simulate_scenarios equals an independent
   compiled simulation; K = 5 exceeds the lane count of a small host,
   so some lane runs several forks *)
let test_pipeline_scenarios () =
  let a = analyzed () in
  let k = 5 in
  let envs s t = if t = s then [ ("env_pGo", 1) ] else [] in
  match Polychrony.Pipeline.simulate_scenarios ~envs ~scenarios:k a with
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  | Ok traces ->
    Alcotest.(check int) "one trace per scenario" k (Array.length traces);
    for s = 0 to k - 1 do
      match Polychrony.Pipeline.simulate ~compiled:true ~env:(envs s) a with
      | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
      | Ok tr ->
        Alcotest.(check bool)
          (Printf.sprintf "scenario %d = independent simulate" s)
          true (Trace.equal traces.(s) tr)
    done;
    (* distinct environments must yield distinct traces: the forks are
       not replicating scenario 0 *)
    Alcotest.(check bool) "scenarios differ" false
      (Trace.equal traces.(0) traces.(1))

(* a scenario count below 1 is a parameter error, not a compile error *)
let test_pipeline_scenarios_count () =
  let a = analyzed () in
  List.iter
    (fun k ->
      match Polychrony.Pipeline.simulate_scenarios ~scenarios:k a with
      | Ok _ -> Alcotest.failf "scenarios:%d accepted" k
      | Error ds ->
        Alcotest.(check (list string))
          (Printf.sprintf "scenarios:%d code" k)
          [ "SIM-002" ]
          (List.map (fun d -> d.Putil.Diag.code) ds))
    [ 0; -2 ]

(* random kernels: batched stepping agrees with the one-instant loop
   (reusing the clock-consistent generator of test_compile) *)
let prop_batched_equivalence =
  QCheck2.Test.make
    ~name:"batched = one-instant step on random programs"
    ~count:150
    QCheck2.Gen.(pair Test_compile.gen_program Test_compile.gen_stimuli)
    (fun (p, stims) ->
      match N.process p with
      | Error _ -> true (* ill-typed generation is skipped *)
      | Ok kp -> (
        match Compile.compile kp with
        | Error _ -> true (* causality cycles are covered elsewhere *)
        | Ok c_step -> (
          let stimuli =
            Array.of_list
              (List.map (fun (n, b) -> [ ("x", vi n); ("c", vb b) ]) stims)
          in
          let horizon = Array.length stimuli in
          let fill c t =
            List.iter
              (fun (x, v) ->
                match Compile.signal_index c x with
                | Some i when Compile.is_input c i -> Compile.set_stim c i v
                | Some _ | None -> ())
              stimuli.(t)
          in
          let steps_ok =
            Array.for_all
              (fun t ->
                Compile.stim_clear c_step;
                fill c_step t;
                match Compile.step_prepared c_step with
                | Ok () -> true
                | Error _ -> false)
              (Array.init horizon Fun.id)
          in
          if not steps_ok then true (* runtime error: skip *)
          else
            let c_batch = Compile.fork c_step in
            match Compile.run_batched c_batch ~n:horizon ~fill with
            | Error _ -> false
            | Ok () ->
              Trace.equal (Compile.trace c_step) (Compile.trace c_batch))))

(* the tentpole guarantee: the steady-state batched loop performs no
   per-instant allocation once recording is off *)
let test_steady_state_allocation_flat () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let c = Result.get_ok (Compile.compile kp) in
  Compile.set_recording c false;
  let tick =
    match Compile.signal_index c "tick" with
    | Some i -> i
    | None -> Alcotest.fail "case study has no tick input"
  in
  let fill c _ = Compile.set_stim c tick ve in
  let run n =
    match Compile.run_batched c ~n ~fill with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  run 64 (* reach steady state *);
  let words n =
    let w0 = Gc.minor_words () in
    run n;
    Gc.minor_words () -. w0
  in
  let d_short = words 200 in
  let d_long = words 2000 in
  (* whatever constant overhead the measurement itself carries, a run
     10x longer must not allocate beyond it *)
  Alcotest.(check bool)
    (Printf.sprintf
       "allocation flat (200 instants: %.0f minor words, 2000: %.0f)"
       d_short d_long)
    true
    (d_long -. d_short < 256.)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_batched_equivalence ]

let suite =
  [ ("batch",
     [ Alcotest.test_case "run_batched on case study" `Quick
         test_run_batched_case_study;
       Alcotest.test_case "fork independence" `Quick test_fork_independence;
       Alcotest.test_case "pipeline scenarios" `Quick
         test_pipeline_scenarios;
       Alcotest.test_case "pipeline scenario count < 1" `Quick
         test_pipeline_scenarios_count;
       Alcotest.test_case "steady-state allocation flat" `Quick
         test_steady_state_allocation_flat ]
     @ qsuite) ]
