module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module Syn = Aadl.Syntax
module Inst = Aadl.Instance

(* Stable translation error codes. *)
let code_mode =
  Putil.Diag.code "TRANS-001" "mode automaton cannot be translated"
let code_iface =
  Putil.Diag.code "TRANS-002"
    "behaviour references a port or access the thread does not declare"

(* Raised on defects in the translated model (as opposed to caller
   bugs, which keep raising Invalid_argument). *)
exception Trans_diag of Putil.Diag.t

let fail ?loc ~code fmt =
  Format.kasprintf
    (fun m ->
      let span =
        match loc with
        | Some l when l.Syn.l_line > 0 ->
          Some (Putil.Diag.span ~line:l.Syn.l_line ~col:l.Syn.l_col ())
        | Some _ | None -> None
      in
      raise (Trans_diag (Putil.Diag.errorf ?span ~code "%s" m)))
    fmt

let sanitize path = String.map (fun c -> if c = '.' then '_' else c) path

let process_name inst = "th_" ^ sanitize inst.Inst.i_path

let port_queue_size f =
  match f with
  | Syn.Port { fprops; _ } -> (
    match Aadl.Props.queue_size fprops with
    | Some n when n > 0 -> n
    | Some _ | None -> 1)
  | Syn.Data_access _ | Syn.Subprogram_access _ -> 1

let port_overflow f =
  match f with
  | Syn.Port { fprops; _ } -> (
    match Aadl.Props.overflow_protocol fprops with
    | Some Aadl.Props.Drop_oldest | None -> "dropoldest"
    | Some Aadl.Props.Drop_newest -> "dropnewest"
    | Some Aadl.Props.Overflow_error -> "error")
  | Syn.Data_access _ | Syn.Subprogram_access _ -> "dropoldest"

let in_ports inst =
  List.filter_map
    (fun f ->
      match f with
      | Syn.Port { dir = Syn.Din | Syn.Dinout; fname; kind; _ } ->
        Some (fname, kind, port_queue_size f)
      | Syn.Port _ | Syn.Data_access _ | Syn.Subprogram_access _ -> None)
    inst.Inst.i_features

let out_ports inst =
  List.filter_map
    (fun f ->
      match f with
      | Syn.Port { dir = Syn.Dout | Syn.Dinout; fname; kind; _ } ->
        Some (fname, kind, port_queue_size f)
      | Syn.Port _ | Syn.Data_access _ | Syn.Subprogram_access _ -> None)
    inst.Inst.i_features

(* overflow protocol string of a port, by name *)
let overflow_of inst pname =
  match
    List.find_opt
      (fun f -> String.equal (Syn.feature_name f) pname)
      inst.Inst.i_features
  with
  | Some f -> port_overflow f
  | None -> "dropoldest"

let accesses inst =
  List.filter_map
    (function
      | Syn.Data_access { fname; right; _ } -> Some (fname, right)
      | Syn.Port _ | Syn.Subprogram_access _ -> None)
    inst.Inst.i_features

let read_accesses inst =
  List.filter_map
    (fun (n, r) ->
      match r with
      | Syn.Read_only | Syn.Read_write -> Some n
      | Syn.Write_only -> None)
    (accesses inst)

let write_accesses inst =
  List.filter_map
    (fun (n, r) ->
      match r with
      | Syn.Write_only | Syn.Read_write -> Some n
      | Syn.Read_only -> None)
    (accesses inst)

let translate_uncached ~registry inst =
  if inst.Inst.i_category <> Syn.Thread then
    invalid_arg "Thread_trans.translate: not a thread instance";
  let ins = in_ports inst and outs = out_ports inst in
  let reads = read_accesses inst and writes = write_accesses inst in
  let locals = ref [] in
  let stmts = ref [] in
  let fresh_counter = ref 0 in
  let declare name typ =
    locals := Ast.var name typ :: !locals;
    name
  in
  let fresh_local typ =
    incr fresh_counter;
    declare (Printf.sprintf "b%d" !fresh_counter) typ
  in
  let emit s = stmts := s :: !stmts in
  (* booleans marking control instants *)
  let start_b = declare "start_b" Types.Tbool in
  emit B.(start_b := when_ (b true) (clk (v "Start")));
  let deadline_b = declare "deadline_b" Types.Tbool in
  emit B.(deadline_b := when_ (b true) (clk (v "Deadline")));
  (* in ports: freeze at p_time, memorize at Start *)
  let frozen_at_start = Hashtbl.create 4 in
  let count_at_start = Hashtbl.create 4 in
  List.iter
    (fun (p, kind, qsize) ->
      match kind with
      | Syn.Event_port | Syn.Event_data_port ->
        let frz = declare (p ^ "_frozen") Types.Tint in
        let cnt = declare (p ^ "_count") Types.Tint in
        emit
          (B.inst
             ~params:[ Types.Vint qsize; Types.Vstring (overflow_of inst p) ]
             ~label:(p ^ "_port") "in_event_port"
             B.[ v p; v (p ^ "_time") ]
             [ frz; cnt ]);
        let at_start = declare (p ^ "_value") Types.Tint in
        emit
          (B.inst ~label:(p ^ "_mem") "fm"
             B.[ v frz; v start_b ] [ at_start ]);
        let cnt_start = declare (p ^ "_count_s") Types.Tint in
        emit
          (B.inst ~label:(p ^ "_cmem") "fm"
             B.[ v cnt; v start_b ] [ cnt_start ]);
        Hashtbl.replace frozen_at_start p at_start;
        Hashtbl.replace count_at_start p cnt_start
      | Syn.Data_port ->
        let frz = declare (p ^ "_frozen") Types.Tint in
        emit
          (B.inst ~label:(p ^ "_port") "freeze"
             B.[ v p; v (p ^ "_time") ] [ frz ]);
        let at_start = declare (p ^ "_value") Types.Tint in
        emit
          (B.inst ~label:(p ^ "_mem") "fm"
             B.[ v frz; v start_b ] [ at_start ]);
        Hashtbl.replace frozen_at_start p at_start;
        (* a data port always has exactly its current value *)
        let one = declare (p ^ "_count_s") Types.Tint in
        emit B.(one := when_ (i 1) (v start_b));
        Hashtbl.replace count_at_start p one)
    ins;
  (* mode automaton (modes extension): an integer state signal on the
     Dispatch clock, switched by trigger-port arrivals — the SIGNAL
     automaton encoding the paper's Sec. VII perspective describes.
     Transition guards are PARTIAL definitions: overlapping transitions
     from one mode are caught by the determinism analysis, and the
     [pre_mode = k] equality literals let the clock calculus prove
     transitions from distinct modes exclusive. *)
  let modes = inst.Inst.i_modes in
  let has_modes = modes <> [] in
  let mode_idx ?loc name =
    let rec go k = function
      | [] ->
        fail ?loc ~code:code_mode "thread %s: unknown mode %s"
          inst.Inst.i_path name
      | m :: rest ->
        if String.equal m.Syn.m_name name then k else go (k + 1) rest
    in
    go 0 modes
  in
  let mode_at_start = declare "mode_at_start" Types.Tint in
  if has_modes then begin
    let init_idx =
      match List.find_opt (fun m -> m.Syn.m_initial) modes with
      | Some m -> mode_idx m.Syn.m_name
      | None -> 0
    in
    let pre_mode = declare "pre_mode" Types.Tint in
    emit B.(pre_mode := delay ~init:(Types.Vint init_idx) (v "Mode"));
    emit B.(clk (v "Mode") ^= clk (v "Dispatch"));
    let guards =
      List.map
        (fun tr ->
          let trigger_ok =
            List.exists
              (fun (p, kind, _) ->
                String.equal p tr.Syn.mt_trigger
                && (kind = Syn.Event_port || kind = Syn.Event_data_port))
              ins
          in
          if not trigger_ok then
            fail ~loc:tr.Syn.mt_loc ~code:code_mode
              "thread %s: mode transition %s: trigger %s is not an in \
               event port"
              inst.Inst.i_path tr.Syn.mt_name tr.Syn.mt_trigger;
          let g = declare ("guard_" ^ tr.Syn.mt_name) Types.Tbool in
          emit
            B.(g
               := (v pre_mode = i (mode_idx ~loc:tr.Syn.mt_loc tr.Syn.mt_src))
                  && (v (tr.Syn.mt_trigger ^ "_count") > i 0));
          (g, mode_idx ~loc:tr.Syn.mt_loc tr.Syn.mt_dst))
        inst.Inst.i_transitions
    in
    List.iter
      (fun (g, dst) -> emit B.("Mode" =:: when_ (i dst) (v g)))
      guards;
    let no_guard =
      List.fold_left
        (fun acc (g, _) -> B.(acc && not_ (v g)))
        (B.b true) guards
    in
    emit B.("Mode" =:: when_ (v pre_mode) no_guard)
  end;
  (* the mode as seen by the behaviour, memorized at Start *)
  if has_modes then
    emit (B.inst ~label:"mode_mem" "fm" B.[ v "Mode"; v start_b ]
            [ mode_at_start ])
  else emit B.(mode_at_start := when_ (i 0) (v start_b));
  (* read accesses: memorize popped value at Start *)
  let read_at_start = Hashtbl.create 4 in
  List.iter
    (fun a ->
      let at_start = declare (a ^ "_value") Types.Tint in
      emit
        (B.inst ~label:(a ^ "_mem") "fm"
           B.[ v (a ^ "_r"); v start_b ] [ at_start ]);
      Hashtbl.replace read_at_start a at_start)
    reads;
  (* behaviour *)
  let ctx =
    { Behavior.start_event = B.v "Start";
      start_bool = B.v start_b;
      frozen =
        (fun p ->
          match Hashtbl.find_opt frozen_at_start p with
          | Some s -> B.v s
          | None ->
            fail ~loc:inst.Inst.i_loc ~code:code_iface
              "thread %s: behaviour reads unknown in port %s"
              inst.Inst.i_path p);
      frozen_count =
        (fun p ->
          match Hashtbl.find_opt count_at_start p with
          | Some s -> B.v s
          | None ->
            fail ~loc:inst.Inst.i_loc ~code:code_iface
              "thread %s: behaviour reads unknown in port %s"
              inst.Inst.i_path p);
      out_item = (fun p -> p ^ "_item");
      read_value =
        (fun a ->
          match Hashtbl.find_opt read_at_start a with
          | Some s -> B.v s
          | None ->
            fail ~loc:inst.Inst.i_loc ~code:code_iface
              "thread %s: behaviour reads unknown read access %s"
              inst.Inst.i_path a);
      pop_signal = (fun a -> a ^ "_pop");
      write_signal = (fun a -> a ^ "_w");
      fresh_local;
      in_mode =
        (fun m ->
          if has_modes then B.(v mode_at_start = i (mode_idx m))
          else B.b true);
      modes = List.map (fun m -> m.Syn.m_name) modes;
      props = inst.Inst.i_props;
      in_ports = List.map (fun (p, _, _) -> p) ins;
      out_ports = List.map (fun (p, _, _) -> p) outs;
      read_accesses = reads;
      write_accesses = writes }
  in
  let behavior =
    let base = Syn.impl_base_name inst.Inst.i_classifier in
    match Behavior.find registry base with
    | Some b -> b
    | None -> (
      match Behavior.find registry inst.Inst.i_name with
      | Some b -> b
      | None -> Behavior.default)
  in
  List.iter (fun (p, _, _) -> ignore (declare (p ^ "_item") Types.Tint)) outs;
  List.iter emit (behavior ctx);
  (* out ports *)
  List.iter
    (fun (p, kind, qsize) ->
      match kind with
      | Syn.Event_port | Syn.Event_data_port ->
        emit
          (B.inst
             ~params:[ Types.Vint qsize; Types.Vstring (overflow_of inst p) ]
             ~label:(p ^ "_port") "out_event_port"
             B.[ v (p ^ "_item"); v (p ^ "_time") ]
             [ p ])
      | Syn.Data_port ->
        emit
          (B.inst ~label:(p ^ "_port") "send"
             B.[ v (p ^ "_item"); v (p ^ "_time") ]
             [ p ]))
    outs;
  (* ctl2: instantaneous logical completion at Start *)
  emit B.("Complete" := clk (v "Start"));
  (* alarm: at a Deadline instant, fewer jobs have completed than have
     come due (a same-instant Complete counts as on time) *)
  let ndl = declare "due" Types.Tint in
  let nc = declare "completed" Types.Tint in
  emit B.(ndl := delay (v ndl) + i 1);
  emit B.(clk (v ndl) ^= clk (v "Deadline"));
  emit B.(nc := delay (v nc) + i 1);
  emit B.(clk (v nc) ^= clk (v "Complete"));
  let nc_at = declare "completed_at_dl" Types.Tint in
  emit (B.inst ~label:"nc_mem" "fm" B.[ v nc; v deadline_b ] [ nc_at ]);
  emit B.("Alarm" := on (v nc_at < v ndl));
  (* a port's value signal carries the source position of the AADL
     feature that produced it, so a type error on the signal can point
     back at the declaration *)
  let port_var p typ =
    match
      List.find_opt
        (fun f -> String.equal (Syn.feature_name f) p)
        inst.Inst.i_features
    with
    | Some f ->
      let l = Syn.feature_loc f in
      if l.Syn.l_line > 0 then
        Ast.var_at
          ~span:(Putil.Diag.span ~line:l.Syn.l_line ~col:l.Syn.l_col ())
          p typ
      else Ast.var p typ
    | None -> Ast.var p typ
  in
  let inputs =
    [ Ast.var "Dispatch" Types.Tevent;
      Ast.var "Start" Types.Tevent;
      Ast.var "Deadline" Types.Tevent ]
    @ List.concat_map
        (fun (p, _, _) ->
          [ port_var p Types.Tint; Ast.var (p ^ "_time") Types.Tevent ])
        ins
    @ List.map (fun (p, _, _) -> Ast.var (p ^ "_time") Types.Tevent) outs
    @ List.map (fun a -> Ast.var (a ^ "_r") Types.Tint) reads
  in
  let outputs =
    [ Ast.var "Complete" Types.Tevent; Ast.var "Alarm" Types.Tevent ]
    @ (if has_modes then [ Ast.var "Mode" Types.Tint ] else [])
    @ List.map (fun (p, _, _) -> port_var p Types.Tint) outs
    @ List.map (fun a -> Ast.var (a ^ "_pop") Types.Tevent) reads
    @ List.map (fun a -> Ast.var (a ^ "_w") Types.Tint) writes
  in
  { Ast.proc_name = process_name inst;
    params = [];
    inputs;
    outputs;
    locals = List.rev !locals;
    body = List.rev !stmts;
    subprocesses = [];
    pragmas =
      [ ("aadl", inst.Inst.i_path);
        ("aadl_classifier", inst.Inst.i_classifier) ] }

(* ------------------------------------------------------------------ *)
(* Per-process memoization                                             *)
(* ------------------------------------------------------------------ *)

(* [translate] is a pure function of the thread instance subtree and
   the behaviour registry (closures — keyed by the registry's stable
   id, see {!Behavior.make}), so its result is memoized per process:
   re-translating a system after editing one thread reruns exactly
   that thread's translation. Only successes are cached ([Trans_diag]
   defects are cheap to rediscover and must not be masked). *)
let memo : Ast.process Putil.Memo.t =
  Putil.Memo.create ~cap:512 ~per_unit:true "incr.translate"

let translate ~registry inst =
  Putil.Tracing.with_span "trans.thread"
    ~args:[ ("thread", Putil.Tracing.Astr inst.Inst.i_path) ]
  @@ fun () ->
  Putil.Memo.get memo (Putil.Memo.key (Behavior.id registry, inst))
    (fun () -> translate_uncached ~registry inst)
