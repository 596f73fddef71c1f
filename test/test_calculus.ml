(* Clock calculus: synchronization classes, derived clocks, hierarchy,
   contradiction detection. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module C = Clocks.Calculus
module H = Clocks.Hierarchy

let tint = Types.Tint
let tbool = Types.Tbool
let tevent = Types.Tevent

let calc p = C.analyze (N.process_exn p)

let test_sync_classes () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      B.[ "y" := v "a" + v "b"; "z" := delay (v "y") ]
  in
  let c = calc p in
  Alcotest.(check bool) "a ~ b" true (C.same_class c "a" "b");
  Alcotest.(check bool) "y ~ a" true (C.same_class c "y" "a");
  Alcotest.(check bool) "z ~ y" true (C.same_class c "z" "y")

let test_when_subclock () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := when_ (v "x") (v "c") ]
  in
  let c = calc p in
  Alcotest.(check bool) "y not synchronous with x" false
    (C.same_class c "y" "x");
  Alcotest.(check bool) "y subclock of x" true (C.subclock c "y" "x");
  Alcotest.(check bool) "y subclock of c" true (C.subclock c "y" "c");
  Alcotest.(check bool) "x not subclock of y" false (C.subclock c "x" "y")

let test_when_complement_exclusive () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y1" tint; Ast.var "y2" tint ]
      B.[ "y1" := when_ (v "x") (v "c"); "y2" := when_ (v "x") (not_ (v "c")) ]
  in
  let c = calc p in
  Alcotest.(check bool) "complementary samples exclusive" true
    (C.exclusive c "y1" "y2")

let test_default_union () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := default (v "a") (v "b") ]
  in
  let c = calc p in
  Alcotest.(check bool) "a subclock of y" true (C.subclock c "a" "y");
  Alcotest.(check bool) "b subclock of y" true (C.subclock c "b" "y");
  Alcotest.(check bool) "y not subclock of a" false (C.subclock c "y" "a")

let test_null_clock () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      (* y sampled on c and on not c simultaneously: empty clock *)
      B.[ "y" := when_ (when_ (v "x") (v "c")) (not_ (v "c")) ]
  in
  let c = calc p in
  Alcotest.(check bool) "y provably null" true (C.is_null c "y");
  Alcotest.(check bool) "null signal listed" true
    (List.mem "y" (C.null_signals c))

let test_exclusion_constraint_used () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := default (v "a") (v "b"); clk (v "a") ^! clk (v "b") ]
  in
  let c = calc p in
  Alcotest.(check bool) "declared exclusion provable" true
    (C.exclusive c "a" "b")

let test_contradictory_constraints () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      (* a synchronous with y and exclusive with y: only satisfiable by
         the empty behaviour *)
      B.[ "y" := v "a" + i 1; clk (v "y") ^! clk (v "a") ]
  in
  let c = calc p in
  (* Φ forces ^y = ^a and ^y ∧ ^a = ∅, hence ^a = ∅ *)
  Alcotest.(check bool) "a forced null" true (C.is_null c "a")

let test_hierarchy_tree () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      ~locals:[]
      B.[ clk (v "x") ^= clk (v "c");
          "y" := when_ (v "x") (v "c");
          "z" := when_ (v "y") (v "c") ]
  in
  let c = calc p in
  let h = H.build c in
  (* x/c is the root; y below it; z below or equal to y *)
  (match H.master h with
   | Some m ->
     Alcotest.(check bool) "master is x's class" true (C.same_class c m "x")
   | None -> Alcotest.fail "expected a single root");
  Alcotest.(check bool) "depth at least 1" true (H.depth h >= 1)

let test_hierarchy_forest () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      B.[ "y" := v "a" + i 1; "z" := v "b" + i 1 ]
  in
  let c = calc p in
  let h = H.build c in
  Alcotest.(check bool) "no master for independent inputs" true
    (H.master h = None);
  Alcotest.(check bool) "two roots" true (List.length (H.roots h) >= 2)

(* y = a when b sits below two incomparable classes, ^a and ^b: among
   several minimal classes above it, the highest-numbered is the
   parent *)
let test_hierarchy_tie_break () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := when_ (v "a") (v "b") ]
  in
  let c = calc p in
  let h = H.build c in
  let id = C.class_id_of c in
  Alcotest.(check (option int)) "parent of y"
    (Some (max (id "a") (id "b")))
    (H.node h (id "y")).H.parent

let test_class_count_scales () =
  (* chain of when-samplings produces one class per level *)
  let n = 30 in
  let locals = List.init n (fun i -> Ast.var (Printf.sprintf "l%d" i) tint) in
  let body =
    B.("l0" := v "x")
    :: List.init (n - 1) (fun i ->
           let dst = Printf.sprintf "l%d" (i + 1) in
           let src = Printf.sprintf "l%d" i in
           B.(dst := when_ (v src) (v "c")))
    @
    let last = Printf.sprintf "l%d" (n - 1) in
    [ B.("y" := v last) ]
  in
  let p =
    B.proc ~name:"chain" ~locals
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      body
  in
  let c = calc p in
  Alcotest.(check bool) "many classes" true (C.class_count c >= n)

let test_fm_clock_structure () =
  (* the fm memory: o present iff b present and true *)
  let p =
    B.proc ~name:"use_fm"
      ~inputs:[ Ast.var "i" tint; Ast.var "b" tbool ]
      ~outputs:[ Ast.var "o" tint ]
      B.[ inst ~label:"mem" "fm" [ v "i"; v "b" ] [ "o" ] ]
  in
  let c = calc p in
  Alcotest.(check bool) "o subclock of b" true (C.subclock c "o" "b");
  Alcotest.(check bool) "o not null" false (C.is_null c "o");
  Alcotest.(check bool) "consistent" true (C.consistent c)

let test_representative_stable () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" + i 1 ]
  in
  let c = calc p in
  Alcotest.(check string) "repr of a" (C.representative c "a")
    (C.representative c "y")

let test_pp_summary_runs () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" + i 1 ]
  in
  let c = calc p in
  let s = Format.asprintf "%a" C.pp_summary c in
  Alcotest.(check bool) "summary mentions classes" true
    (String.length s > 0)

(* ---------------- frozen manager ---------------------------------- *)

module P = Polychrony.Pipeline

(* a cold case-study analysis: a fresh calculus and manager *)
let case_study () =
  C.reset_cache ();
  match
    P.analyze ~registry:Polychrony.Case_study.registry_nominal
      Polychrony.Case_study.aadl_source
  with
  | Ok a -> a
  | Error _ -> Alcotest.fail "case study does not analyze"

(* Every consumer of a published analysis only reads its manager: the
   text report (summary, diagnostics, hierarchy, deadlock, determinism,
   plan build) creates no BDD node. *)
let test_report_creates_no_node () =
  let a = case_study () in
  let calc = Lazy.force a.P.calc in
  let nodes () = Clocks.Bdd.node_count (C.manager calc) in
  let before = nodes () in
  ignore (Format.asprintf "%a" P.pp_summary a);
  ignore (C.diags calc);
  ignore (H.build calc);
  ignore (Analysis.Deadlock.analyze ~calc a.P.kernel);
  ignore (Analysis.Determinism.analyze calc a.P.kernel);
  (match Polysim.Compile.compile_uncached a.P.kernel with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check int) "node count unchanged by the report" before (nodes ())

(* Four domains query one memoized calculus with no lock and get the
   sequential answers. *)
let test_concurrent_queries () =
  let a = case_study () in
  let calc = C.analyze a.P.kernel in
  let iface =
    List.map
      (fun vd -> vd.Ast.var_name)
      (a.P.kernel.Signal_lang.Kernel.kinputs
      @ a.P.kernel.Signal_lang.Kernel.koutputs)
  in
  let run () =
    ( C.null_signals calc,
      List.concat_map
        (fun x ->
          List.map (fun y -> (C.subclock calc x y, C.exclusive calc x y)) iface)
        iface,
      H.nodes (H.build calc) )
  in
  let nodes () = Clocks.Bdd.node_count (C.manager calc) in
  let before = nodes () in
  let reference = run () in
  let results = Array.make 8 None in
  Putil.Domain_pool.with_pool 4 (fun pool ->
      Putil.Domain_pool.run_tasks pool
        (List.init (Array.length results) (fun i () ->
             results.(i) <- Some (run ()))));
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d agrees with the sequential run" i)
        true
        (r = Some reference))
    results;
  Alcotest.(check int) "node count unchanged" before (nodes ())

let suite =
  [ ("calculus",
     [ Alcotest.test_case "sync classes" `Quick test_sync_classes;
       Alcotest.test_case "when subclock" `Quick test_when_subclock;
       Alcotest.test_case "complement exclusive" `Quick
         test_when_complement_exclusive;
       Alcotest.test_case "default union" `Quick test_default_union;
       Alcotest.test_case "null clock" `Quick test_null_clock;
       Alcotest.test_case "declared exclusion" `Quick
         test_exclusion_constraint_used;
       Alcotest.test_case "contradiction forces null" `Quick
         test_contradictory_constraints;
       Alcotest.test_case "hierarchy tree" `Quick test_hierarchy_tree;
       Alcotest.test_case "hierarchy forest" `Quick test_hierarchy_forest;
       Alcotest.test_case "hierarchy tie-break" `Quick
         test_hierarchy_tie_break;
       Alcotest.test_case "class count scales" `Quick test_class_count_scales;
       Alcotest.test_case "fm clock structure" `Quick test_fm_clock_structure;
       Alcotest.test_case "stable representative" `Quick
         test_representative_stable;
       Alcotest.test_case "summary printer" `Quick test_pp_summary_runs;
       Alcotest.test_case "report creates no node" `Quick
         test_report_creates_no_node;
       Alcotest.test_case "concurrent queries without a lock" `Quick
         test_concurrent_queries ]) ]
