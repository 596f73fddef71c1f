module K = Signal_lang.Kernel
module Stdproc = Signal_lang.Stdproc

type cycle = {
  signals : string list;
  feasible : bool;
}

type report = {
  cycles : cycle list;
  deadlock_free : bool;
}

(* Formal port orders of the primitives, mirroring Stdproc models. *)
let prim_ins = function
  | Stdproc.Pfifo -> [ "push"; "pop" ]
  | Stdproc.Pfifo_reset -> [ "push"; "pop"; "reset" ]
  | Stdproc.Pin_event_port -> [ "arrival"; "frozen_time" ]
  | Stdproc.Pout_event_port -> [ "item"; "output_time" ]

let prim_outs = function
  | Stdproc.Pfifo | Stdproc.Pfifo_reset -> [ "data"; "size" ]
  | Stdproc.Pin_event_port -> [ "frozen"; "frozen_count" ]
  | Stdproc.Pout_event_port -> [ "sent" ]

let dependency_graph ?(extra_edges = []) kp =
  let g = Digraph.create () in
  List.iter (fun (a, b) -> Digraph.add_edge g a b) extra_edges;
  List.iter (fun vd -> Digraph.add_vertex g vd.Signal_lang.Ast.var_name)
    (K.signals kp);
  let dep src dst =
    match src with
    | K.Avar x -> Digraph.add_edge g x dst
    | K.Aconst _ -> ()
  in
  List.iter
    (fun eq ->
      match eq with
      | K.Kfunc { dst; args; _ } -> List.iter (fun a -> dep a dst) args
      | K.Kdelay _ -> ()
      | K.Kwhen { dst; src; cond } -> dep src dst; dep cond dst
      | K.Kdefault { dst; left; right } -> dep left dst; dep right dst)
    kp.K.keqs;
  List.iter
    (fun ki ->
      let ins = List.combine (prim_ins ki.K.ki_prim) ki.K.ki_ins in
      let outs = List.combine (prim_outs ki.K.ki_prim) ki.K.ki_outs in
      List.iter
        (fun (fi, fo) ->
          match List.assoc_opt fi ins, List.assoc_opt fo outs with
          | Some src, Some dst -> Digraph.add_edge g src dst
          | _, _ -> ())
        (Stdproc.instantaneous_deps ki.K.ki_prim))
    kp.K.kinstances;
  g

let analyze ?calc ?extra_edges kp =
  Putil.Tracing.with_span "analysis.deadlock"
    ~args:[ ("process", Putil.Tracing.Astr kp.K.kname) ]
  @@ fun () ->
  let g = dependency_graph ?extra_edges kp in
  let feasible_cycle members =
    match calc with
    | None -> true
    | Some c -> (
      (* the cycle is harmful iff the conjunction of the members'
         clocks is satisfiable under Φ *)
      try
        not
          (Clocks.Bdd.conj_empty (Clocks.Calculus.manager c)
             ((Clocks.Calculus.context c, false)
             :: List.map (fun x -> (Clocks.Calculus.clock_of c x, false))
                  members))
      with Not_found -> true)
  in
  let cycles =
    List.map
      (fun members -> { signals = members; feasible = feasible_cycle members })
      (Digraph.nontrivial_sccs g)
  in
  { cycles; deadlock_free = not (List.exists (fun c -> c.feasible) cycles) }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>deadlock analysis: %s@,"
    (if r.deadlock_free then "deadlock-free" else "DEADLOCK possible");
  List.iter
    (fun c ->
      Format.fprintf ppf "cycle (%s): %a@,"
        (if c.feasible then "feasible" else "false cycle, clock-disjoint")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
           Format.pp_print_string)
        c.signals)
    r.cycles;
  Format.fprintf ppf "@]"

(* ---- structured diagnostics ---- *)

let code_cycle =
  Putil.Diag.code "ANA-DLK-001" "feasible instantaneous dependency cycle"
let code_false_cycle =
  Putil.Diag.code "ANA-DLK-002"
    "clock-disjoint dependency cycle (false cycle, harmless)"

let diags_of_report r =
  List.map
    (fun c ->
      let chain = String.concat " -> " c.signals in
      if c.feasible then
        Putil.Diag.errorf ~code:code_cycle
          "possible deadlock: instantaneous dependency cycle %s can be \
           active at one instant" chain
      else
        Putil.Diag.notef ~code:code_false_cycle
          "false cycle %s: members have provably disjoint clocks" chain)
    r.cycles
