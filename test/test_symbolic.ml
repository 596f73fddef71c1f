(* Symbolic reachability: the BDD engine must agree with explicit
   enumeration on every model it accepts, and its counterexamples must
   replay on the explicit simulator. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module K = Signal_lang.Kernel
module N = Signal_lang.Normalize
module P = Polychrony.Pipeline
module CS = Polychrony.Case_study
module Prog = Polysim.Prog
module Compile = Polysim.Compile
module E = Polysim.Explore
module S = Polysim.Symbolic
module M = Polysim.Models

let ve = Types.Vevent
let vi n = Types.Vint n
let vb b = Types.Vbool b

(* integer counter modulo 3, advanced by [tk] *)
let mod_counter =
  lazy
    (N.process_exn
       (B.proc ~name:"mod_counter"
          ~inputs:[ Ast.var "tk" Types.Tevent ]
          ~outputs:[ Ast.var "out" Types.Tint ]
          ~locals:[ Ast.var "c" Types.Tint; Ast.var "pc" Types.Tint ]
          B.[
            "pc" := delay ~init:(vi 0) (v "c");
            "c" := (v "pc" + i 1) mod i 3;
            v "c" ^= v "tk";
            "out" := v "c";
          ]))

let mod_counter_inputs = [ ("tk", [ None; Some ve ]) ]

(* a bounded FIFO, to cover the queue state encoding *)
let queue_model =
  lazy
    (N.process_exn
       (B.proc ~name:"queue"
          ~inputs:[ Ast.var "x" Types.Tint; Ast.var "pop" Types.Tevent ]
          ~outputs:[ Ast.var "d" Types.Tint; Ast.var "s" Types.Tint ]
          B.[
            inst
              ~params:[ vi 2; Types.Vstring "dropoldest" ]
              ~label:"q" "fifo"
              [ v "x"; v "pop" ]
              [ "d"; "s" ];
          ]))

let queue_inputs = [ ("x", [ None; Some (vi 1) ]); ("pop", [ None; Some ve ]) ]

(* the parity corpus: (label, kernel, inputs, prop) *)
let corpus =
  lazy
    (let counter_props k =
       [ M.counters_prop;
         S.Never_value ("lo0", vb true);
         S.Never_value ("lo0", vb false);
         S.Never_value ("hi0", vb true) ]
       @ (if k >= 2 then [ S.Never_present "lo1" ] else [])
     in
     List.concat_map
       (fun k ->
         List.map
           (fun p -> (Printf.sprintf "counters%d" k, M.counters k,
                      M.counters_inputs k, p))
           (counter_props k))
       [ 1; 2; 3 ]
     @ List.map
         (fun p -> ("mod_counter", Lazy.force mod_counter,
                    mod_counter_inputs, p))
         [ S.Never_value ("out", vi 0);
           S.Never_value ("out", vi 1);
           S.Never_value ("out", vi 5);
           S.Never_present "out" ]
     @ List.map
         (fun p -> ("queue", Lazy.force queue_model, queue_inputs, p))
         [ S.Never_value ("s", vi 2);
           S.Never_present "d";
           S.Never_value ("d", vi 9) ])

(* ------------------------------------------------------------------ *)
(* Reference oracle for Symbolic.value_domains: the original list-based
   fixpoint, which re-sweeps every signal until nothing changes and
   recomputes each transfer from scratch, with string identity keys.
   It is slow but obviously correct; the engine's incremental fixpoint
   must return exactly its arrays, values in the same order (that
   order fixes the state codes). [sweeps] counts its full sweeps. *)
module Oracle = struct
  let vid = function
    | Types.Vint n -> "i" ^ string_of_int n
    | Types.Vbool true -> "T"
    | Types.Vbool false -> "F"
    | Types.Vevent -> "E"
    | Types.Vreal r -> "r" ^ Int64.to_string (Int64.bits_of_float r)
    | Types.Vstring s -> "s" ^ s

  let dom_cap = 64

  let dom_add d v =
    match d with
    | S.Dtop -> S.Dtop
    | S.Dset vs ->
      if List.exists (fun w -> String.equal (vid w) (vid v)) vs then d
      else if List.length vs >= dom_cap then S.Dtop
      else S.Dset (vs @ [ v ])

  let dom_join a b =
    match a, b with
    | S.Dtop, _ | _, S.Dtop -> S.Dtop
    | S.Dset _, S.Dset ws -> List.fold_left dom_add a ws

  let dom_size = function S.Dtop -> max_int | S.Dset vs -> List.length vs

  let arith bop a b =
    match a, b with
    | Types.Vint x, Types.Vint y -> (
      match bop with
      | Ast.Add -> Some (Types.Vint (x + y))
      | Ast.Sub -> Some (Types.Vint (x - y))
      | Ast.Mul -> Some (Types.Vint (x * y))
      | Ast.Div -> if y = 0 then None else Some (Types.Vint (x / y))
      | Ast.Mod -> if y = 0 then None else Some (Types.Vint (x mod y))
      | _ -> None)
    | Types.Vreal x, Types.Vreal y when bop <> Ast.Mod -> (
      match bop with
      | Ast.Add -> Some (Types.Vreal (x +. y))
      | Ast.Sub -> Some (Types.Vreal (x -. y))
      | Ast.Mul -> Some (Types.Vreal (x *. y))
      | Ast.Div -> Some (Types.Vreal (x /. y))
      | _ -> None)
    | _ -> None

  let domains (prog : Prog.t) (in_dom : S.dom array) =
    let n = prog.Prog.n in
    let doms = Array.make n (S.Dset []) in
    let adom = function
      | Prog.Avar y -> doms.(y)
      | Prog.Aconst v -> S.Dset [ v ]
    in
    let cross f a b =
      match a, b with
      | S.Dtop, _ | _, S.Dtop -> S.Dtop
      | S.Dset xs, S.Dset ys ->
        List.fold_left
          (fun acc x ->
            List.fold_left
              (fun acc y ->
                match f x y with Some v -> dom_add acc v | None -> acc)
              acc ys)
          (S.Dset []) xs
    in
    let map1 f = function
      | S.Dtop -> S.Dtop
      | S.Dset xs ->
        List.fold_left
          (fun acc x -> match f x with Some v -> dom_add acc v | None -> acc)
          (S.Dset []) xs
    in
    let transfer i =
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone -> if prog.Prog.is_input.(i) then in_dom.(i) else S.Dset []
      | Prog.Vfunc (op, args) -> (
        match op, Array.length args with
        | K.Pid, 1 -> adom args.(0)
        | K.Pclock, 1 -> S.Dset [ Types.Vevent ]
        | K.Punop Ast.Not, 1 ->
          map1
            (function
              | Types.Vbool b -> Some (Types.Vbool (not b))
              | Types.Vevent -> Some (Types.Vbool false)
              | _ -> None)
            (adom args.(0))
        | K.Punop Ast.Neg, 1 ->
          map1
            (function
              | Types.Vint x -> Some (Types.Vint (-x))
              | Types.Vreal x -> Some (Types.Vreal (-.x))
              | _ -> None)
            (adom args.(0))
        | K.Pif, 3 -> dom_join (adom args.(1)) (adom args.(2))
        | K.Pbinop bop, 2 -> (
          match bop with
          | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
            cross (arith bop) (adom args.(0)) (adom args.(1))
          | _ -> S.Dset [ Types.Vbool true; Types.Vbool false ])
        | _ -> S.Dset [])
      | Prog.Vdelay ->
        let d = dom_add doms.(i) prog.Prog.delay_init.(i) in
        let src = prog.Prog.delay_src.(i) in
        if src >= 0 then dom_join d doms.(src) else d
      | Prog.Vwhen a -> adom a
      | Prog.Vdefault (l, r) -> dom_join (adom l) (adom r)
      | Prog.Vprim (pi, pos) ->
        let lp = prog.Prog.prims.(pi) in
        if pos = 0 then adom (Prog.Avar lp.Prog.lp_ins.(0))
        else begin
          let d = ref (S.Dset []) in
          for k = 0 to max 1 lp.Prog.lp_capacity do
            d := dom_add !d (Types.Vint k)
          done;
          !d
        end
    in
    let sweeps = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      incr sweeps;
      for i = 0 to n - 1 do
        let d' = dom_join doms.(i) (transfer i) in
        if dom_size d' <> dom_size doms.(i) then begin
          doms.(i) <- d';
          changed := true
        end
      done
    done;
    (doms, !sweeps)

  (* run_exn's input domains: each listed input's distinct values *)
  let in_dom (prog : Prog.t) inputs =
    let d = Array.make prog.Prog.n (S.Dset []) in
    List.iter
      (fun (name, alts) ->
        match Prog.index_opt prog name with
        | None -> ()
        | Some i ->
          let vals =
            List.fold_left
              (fun acc a ->
                match a with
                | Some v
                  when not (List.exists (fun w -> vid w = vid v) acc) ->
                  acc @ [ v ]
                | _ -> acc)
              [] alts
          in
          d.(i) <- S.Dset vals)
      inputs;
    d

  let show = function
    | S.Dtop -> "top"
    | S.Dset vs -> "{" ^ String.concat "," (List.map vid vs) ^ "}"
end

let sym_prog kp =
  match Compile.compile kp with
  | Ok c -> (Compile.sym_view c).Compile.sv_prog
  | Error m -> Alcotest.fail m

(* the engine's fixpoint against the oracle on one model *)
let check_domains label kp inputs =
  let prog = sym_prog kp in
  let in_dom = Oracle.in_dom prog inputs in
  let want, _ = Oracle.domains prog in_dom in
  let got = S.value_domains prog in_dom in
  Array.iteri
    (fun i d ->
      let w = Oracle.show want.(i) and g = Oracle.show d in
      if w <> g then
        Alcotest.failf "%s: signal %s: oracle %s, engine %s" label
          prog.Prog.names.(i) w g)
    got

let case_study =
  lazy
    (match P.analyze ~registry:CS.registry_nominal CS.aadl_source with
     | Ok a -> a
     | Error m -> failwith (Putil.Diag.list_to_string m))

(* one parity comparison; returns an error description or None *)
let compare_engines ?(strict_states = true) label kp inputs prop depth =
  let sym = E.check_symbolic ~depth ~inputs ~prop kp in
  let exp =
    E.check ~depth ~jobs:1 ~inputs ~safe:(S.safe_of_prop prop) kp
  in
  match (sym, exp) with
  | Ok (E.Holds, s1), Ok (E.Holds, s2) ->
    if strict_states && s1 <> s2 then
      Some
        (Printf.sprintf "%s depth %d: symbolic %d states, explicit %d"
           label depth s1 s2)
    else None
  | Ok (E.Violated _, _), Ok (E.Violated _, _) -> None
  | Error d, _ when d.Putil.Diag.code = S.code_unsupported ->
    Some (Printf.sprintf "%s: unexpectedly outside the fragment" label)
  | Error d1, Error d2 ->
    if d1.Putil.Diag.code = d2.Putil.Diag.code then None
    else
      Some
        (Printf.sprintf "%s depth %d: codes differ (%s vs %s)" label depth
           d1.Putil.Diag.code d2.Putil.Diag.code)
  | _ ->
    let show = function
      | Ok (E.Holds, s) -> Printf.sprintf "Holds/%d" s
      | Ok (E.Violated t, _) -> Printf.sprintf "Violated/%d" (List.length t)
      | Error d -> Printf.sprintf "Error[%s]" d.Putil.Diag.code
    in
    Some
      (Printf.sprintf "%s depth %d: symbolic %s, explicit %s" label depth
         (show sym) (show exp))

(* exhaustive sweep of the corpus at every small depth *)
let test_parity_sweep () =
  List.iter
    (fun (label, kp, inputs, prop) ->
      List.iter
        (fun depth ->
          match compare_engines label kp inputs prop depth with
          | None -> ()
          | Some m -> Alcotest.fail m)
        [ 1; 2; 3; 4 ])
    (Lazy.force corpus)

(* the same parity, sampled as a qcheck property (random case/depth) *)
let prop_parity =
  QCheck2.Test.make ~name:"symbolic/explicit verdict parity" ~count:40
    QCheck2.Gen.(
      let n = List.length (Lazy.force corpus) in
      pair (int_range 0 (n - 1)) (int_range 1 5))
    (fun (ci, depth) ->
      let label, kp, inputs, prop = List.nth (Lazy.force corpus) ci in
      check_domains label kp inputs;
      match compare_engines label kp inputs prop depth with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* the counter family holds with exactly 3^k states, both engines *)
let test_counters_exact_states () =
  let kp = M.counters 3 in
  let inputs = M.counters_inputs 3 in
  (match E.check_symbolic ~depth:8 ~inputs ~prop:M.counters_prop kp with
  | Ok (E.Holds, s) -> Alcotest.(check int) "symbolic 3^3 states" 27 s
  | Ok (E.Violated _, _) -> Alcotest.fail "alarm is unreachable"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d));
  match
    E.check ~depth:8 ~jobs:1 ~inputs
      ~safe:(S.safe_of_prop M.counters_prop) kp
  with
  | Ok (E.Holds, s) -> Alcotest.(check int) "explicit 3^3 states" 27 s
  | Ok (E.Violated _, _) -> Alcotest.fail "alarm is unreachable (explicit)"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

(* a symbolic counterexample is replayed before being reported, so a
   Violated verdict carries an explicitly-validated stimulus sequence *)
let test_counters_violation_replays () =
  let kp = M.counters 2 in
  let inputs = M.counters_inputs 2 in
  match
    E.check_symbolic ~depth:2 ~inputs
      ~prop:(S.Never_value ("lo0", vb true)) kp
  with
  | Ok (E.Violated trail, _) ->
    Alcotest.(check int) "violated at the first instant" 1
      (List.length trail);
    Alcotest.(check bool) "the violating stimulus fires e0" true
      (List.mem_assoc "e0" (List.hd trail))
  | Ok (E.Holds, _) -> Alcotest.fail "lo0=true is reachable at depth 1"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

(* runtime errors surface with the same code as the explicit engine *)
let test_runtime_error_parity () =
  let kp =
    N.process_exn
      (B.proc ~name:"divz"
         ~inputs:[ Ast.var "y" Types.Tint ]
         ~outputs:[ Ast.var "q" Types.Tint ]
         B.[ "q" := i 6 / v "y" ])
  in
  let inputs = [ ("y", [ Some (vi 0); Some (vi 3) ]) ] in
  let prop = S.Never_value ("q", vi 99) in
  let code = function
    | Error d -> d.Putil.Diag.code
    | Ok _ -> "no error"
  in
  let sym = E.check_symbolic ~depth:2 ~inputs ~prop kp in
  let exp = E.check ~depth:2 ~jobs:1 ~inputs ~safe:(S.safe_of_prop prop) kp in
  Alcotest.(check string) "explicit raises EXPLORE-SIM-001"
    "EXPLORE-SIM-001" (code exp);
  Alcotest.(check string) "symbolic replays to the same code"
    "EXPLORE-SIM-001" (code sym)

(* unbounded value domains reaching a register are out of fragment *)
let test_unsupported_fragment () =
  let kp =
    N.process_exn
      (B.proc ~name:"unbounded"
         ~inputs:[ Ast.var "tk" Types.Tevent ]
         ~outputs:[ Ast.var "out" Types.Tint ]
         ~locals:[ Ast.var "c" Types.Tint; Ast.var "pc" Types.Tint ]
         B.[
           "pc" := delay ~init:(vi 0) (v "c");
           "c" := v "pc" + i 1;
           v "c" ^= v "tk";
           "out" := v "c";
         ])
  in
  match
    E.check_symbolic ~depth:3 ~inputs:[ ("tk", [ None; Some ve ]) ]
      ~prop:(S.Never_value ("out", vi 5)) kp
  with
  | Error d ->
    Alcotest.(check string) "EXPLORE-SYM-001" S.code_unsupported
      d.Putil.Diag.code
  | Ok _ -> Alcotest.fail "unbounded counter must be rejected"

(* stimulus validation is shared by all engines *)
let test_stimulus_validation () =
  let kp = M.counters 1 in
  let bad = [ ("nope", [ None; Some ve ]) ] in
  let check_code r =
    match r with
    | Error d ->
      Alcotest.(check string) "EXPLORE-SIM-001" "EXPLORE-SIM-001"
        d.Putil.Diag.code
    | Ok _ -> Alcotest.fail "unknown stimulus target must be rejected"
  in
  check_code (E.check ~depth:2 ~jobs:1 ~inputs:bad ~safe:(fun _ -> true) kp);
  check_code (E.check_dfs ~depth:2 ~inputs:bad ~safe:(fun _ -> true) kp);
  check_code
    (E.check_symbolic ~depth:2 ~inputs:bad ~prop:M.counters_prop kp);
  (* all-absent alternatives for an unknown signal stay harmless *)
  match
    E.check ~depth:2 ~jobs:1
      ~inputs:(("ghost", [ None ]) :: M.counters_inputs 1)
      ~safe:(fun _ -> true) kp
  with
  | Ok (E.Holds, _) -> ()
  | Ok (E.Violated _, _) | Error _ ->
    Alcotest.fail "all-absent unknown stimulus must be ignored"

(* satellite: the visited-set key must not allocate beyond the digest —
   per-call cost is a small constant, unlike a Marshal image *)
let test_state_key_allocation () =
  let kp = M.counters 4 in
  let c = Result.get_ok (Compile.compile kp) in
  let kb = Compile.keybuf () in
  ignore (Compile.state_key c kb);
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Compile.state_key c kb)
    done;
    Gc.minor_words () -. w0
  in
  let per_call = words 2000 /. 2000. in
  Alcotest.(check bool)
    (Printf.sprintf "state_key allocates %.1f words/call" per_call)
    true (per_call < 64.)

(* the incremental value-domain fixpoint returns the oracle's arrays
   on the parity corpus, the counter family and the case study *)
let test_domains_oracle () =
  List.iter
    (fun (label, kp, inputs, _) -> check_domains label kp inputs)
    (Lazy.force corpus);
  List.iter
    (fun k ->
      check_domains
        (Printf.sprintf "counters%d" k)
        (M.counters k) (M.counters_inputs k))
    [ 2; 4; 8 ];
  let a = Lazy.force case_study in
  check_domains "case study" a.P.kernel (P.verify_inputs a)

let domain_evals () =
  Putil.Metrics.counter_value Putil.Metrics.global "explore.sym.domain_evals"

(* The case study carries an integer counter, so `Auto gives up on
   symbolic and the explicit engine decides. The gate is a work count,
   not a timer: transfer evaluations of the value-domain fixpoint
   against the full-sweep count (signals x sweeps) of the oracle.
   Measured once: 663 signals x 131 sweeps = 86853 full-sweep
   evaluations against 8214 incremental ones (10.6x fewer); the
   assertion requires 8x. *)
let test_auto_fallback_work () =
  let a = Lazy.force case_study in
  let e0 = domain_evals () in
  (match P.verify ~depth:6 ~jobs:1 ~engine:`Auto ~never:"Alarm" a with
  | Ok (E.Holds, states, `Explicit) ->
    Alcotest.(check int) "explicit state count" 18 states
  | Ok (_, _, `Symbolic) -> Alcotest.fail "expected the explicit engine"
  | Ok (E.Violated _, _, _) -> Alcotest.fail "Alarm is unreachable"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d));
  let evals = domain_evals () - e0 in
  (match P.verify ~depth:6 ~jobs:1 ~engine:`Symbolic ~never:"Alarm" a with
  | Error d ->
    Alcotest.(check string) "symbolic gives up"
      "delay register prProdCons_thConsTimer___t89 has an unbounded value \
       domain"
      d.Putil.Diag.message
  | Ok _ -> Alcotest.fail "the case study is outside the symbolic fragment");
  let prog = sym_prog a.P.kernel in
  let _, sweeps = Oracle.domains prog (Oracle.in_dom prog (P.verify_inputs a)) in
  let full = prog.Prog.n * sweeps in
  if evals * 8 > full then
    Alcotest.failf "%d domain evaluations, full sweeps take %d (%d x %d)"
      evals full prog.Prog.n sweeps

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_parity ]

let suite =
  [ ("symbolic",
     [ Alcotest.test_case "engine parity sweep" `Quick test_parity_sweep;
       Alcotest.test_case "counters exact state count" `Quick
         test_counters_exact_states;
       Alcotest.test_case "counterexample replays" `Quick
         test_counters_violation_replays;
       Alcotest.test_case "runtime error parity" `Quick
         test_runtime_error_parity;
       Alcotest.test_case "unsupported fragment" `Quick
         test_unsupported_fragment;
       Alcotest.test_case "stimulus validation" `Quick
         test_stimulus_validation;
       Alcotest.test_case "state_key allocation" `Quick
         test_state_key_allocation;
       Alcotest.test_case "value domains match the oracle" `Quick
         test_domains_oracle;
       Alcotest.test_case "auto fallback work count" `Quick
         test_auto_fallback_work ]
     @ qsuite) ]
