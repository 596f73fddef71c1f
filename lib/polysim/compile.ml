module K = Signal_lang.Kernel
module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Calc = Clocks.Calculus
module Bdd = Clocks.Bdd
module Metrics = Putil.Metrics

let m_compilations = Metrics.counter "compile.compilations"
let m_plan_ops = Metrics.gauge "compile.plan_ops"
let m_bdd_nodes = Metrics.gauge "compile.bdd_nodes"
let m_bdd_apply_calls = Metrics.gauge "compile.bdd_apply_calls"
let m_bdd_apply_hit_pct = Metrics.gauge "compile.bdd_apply_hit_pct"
let m_free_classes = Metrics.gauge "compile.free_classes"
let m_instants = Metrics.counter "compile.instants"
let m_codegen_bytes = Metrics.gauge "compile.codegen_bytes"

exception Comp_error of string

let errf fmt = Format.kasprintf (fun m -> raise (Comp_error m)) fmt

(* how a class's presence is decided *)
type pdef =
  | Pinput of int list             (* input signal indices in the class *)
  | Pprim of int * int             (* primitive index, output position *)
  | Pderived                       (* evaluate the clock function *)
  | Palias of int                  (* mirror another class's presence *)
  | Pfree                          (* default to absent *)

type op =
  | Opres of int
  | Oval of int

(* BDD variable, resolved at compile time so the per-instant clock
   evaluation is pure array indexing *)
type varres =
  | Rpresent of int                (* class id *)
  | Rcond of int                   (* boolean signal index *)
  | Rcondeq of int * int           (* integer signal index, constant *)
  | Rnone

(* Clock functions are flattened to decision trees at plan time so the
   per-instant evaluation is a branch walk with no manager access and
   no environment closure. Pathologically large functions fall back to
   shared-BDD evaluation. *)
type ctree =
  | Cleaf of bool
  | Cnode of varres * ctree * ctree   (* if var then hi else lo *)
  | Cbdd of Bdd.t

(* Values live unboxed in structure-of-arrays slots: a small tag plus
   one payload cell per representation kind. Booleans and events share
   the int payload. *)
let tg_int = 0
let tg_bool = 1
let tg_event = 2
let tg_real = 3
let tg_string = 4

(* compiled atoms: constants are pre-split by representation *)
type catom =
  | CAvar of int
  | CAconst_i of int * int             (* tag (int/bool/event), payload *)
  | CAconst_r of float
  | CAconst_s of string

(* FIFO state as unboxed ring buffers of [cap] cells (mirroring the
   ring layout the C backend emits) *)
type prim_st = {
  lp : Prog.lprim;
  cap : int;                       (* ring capacity, >= 1 *)
  q_ri : int array;                (* cap payload cells *)
  q_rr : float array;
  q_rs : string array;
  q_tg : int array;
  mutable q_len : int;
  mutable q_head : int;
}

(* The compiler is split in two: an immutable [plan] — everything that
   depends only on the kernel (lowered IR, clock analysis, presence
   definitions, decision-tree clock functions, the topologically
   sorted op schedule compiled to closures) — and a mutable instance
   [t] holding per-run state: one copy of every per-signal array,
   indexed directly by dense signal index (the presence array by class
   id). Plans are memoized on the kernel's structural digest and shared
   freely, including across domains: stepping an instance only reads
   the plan, so each worker of the parallel explorer instantiates its
   own [t] over the one shared plan. *)
type plan = {
  p_prog : Prog.t;                 (* shared lowered IR (same as Engine) *)
  p_calc : Calc.t;
  p_class_of : int array;
  p_nclasses : int;
  p_pdefs : pdef array;
  p_clock_bdd : Bdd.t array;       (* per class (kept for the C backend) *)
  p_bddvars : varres array;        (* bdd variable -> resolution *)
  p_plan : op array;
  p_ops : (t -> unit) array;       (* the schedule, compiled to closures *)
  p_n_free : int;                  (* statically free classes *)
  p_decls : Ast.nvardecl list;     (* cached for cheap instantiation *)
}

and t = {
  pl : plan;
  (* plan fields, aliased for direct access on the hot path *)
  prog : Prog.t;
  calc : Calc.t;
  class_of : int array;
  nclasses : int;
  pdefs : pdef array;
  clock_bdd : Bdd.t array;
  bddvars : varres array;
  plan : op array;
  ops : (t -> unit) array;
  n_free : int;
  (* instance-owned state *)
  n : int;                         (* signal count *)
  (* per-instant SoA slots *)
  ri : int array;
  rr : float array;
  rs : string array;
  tg : int array;
  has : bool array;                (* slot holds a value this instant *)
  stim_p : bool array;             (* input stimulated this instant *)
  pres : bool array;               (* per class *)
  (* delay registers, same slot layout *)
  di : int array;
  dr : float array;
  ds : string array;
  dtg : int array;
  prims : prim_st array;
  trace : Trace.t;
  mutable instants : int;
  mutable recording : bool;
}

(* ------------------------------------------------------------------ *)
(* Unboxed slot operations                                             *)
(* ------------------------------------------------------------------ *)

let everrf st fmt =
  Format.kasprintf
    (fun m -> raise (Comp_error (Printf.sprintf "instant %d: %s" st.instants m)))
    fmt

let slot_value st j =
  match st.tg.(j) with
  | 0 -> Types.Vint st.ri.(j)
  | 1 -> if st.ri.(j) <> 0 then Types.Vbool true else Types.Vbool false
  | 2 -> Types.Vevent
  | 3 -> Types.Vreal st.rr.(j)
  | _ -> Types.Vstring st.rs.(j)

let set_slot_value st j v =
  (match v with
   | Types.Vint n -> st.tg.(j) <- tg_int; st.ri.(j) <- n
   | Types.Vbool b -> st.tg.(j) <- tg_bool; st.ri.(j) <- (if b then 1 else 0)
   | Types.Vevent -> st.tg.(j) <- tg_event; st.ri.(j) <- 1
   | Types.Vreal r -> st.tg.(j) <- tg_real; st.rr.(j) <- r
   | Types.Vstring s -> st.tg.(j) <- tg_string; st.rs.(j) <- s);
  st.has.(j) <- true

let set_i st j n = st.tg.(j) <- tg_int; st.ri.(j) <- n; st.has.(j) <- true
let set_b st j b =
  st.tg.(j) <- tg_bool; st.ri.(j) <- (if b then 1 else 0); st.has.(j) <- true
let set_e st j = st.tg.(j) <- tg_event; st.ri.(j) <- 1; st.has.(j) <- true
let set_r st j r = st.tg.(j) <- tg_real; st.rr.(j) <- r; st.has.(j) <- true

let copy_sig st dst src =
  let t = st.tg.(src) in
  st.tg.(dst) <- t;
  (match t with
   | 3 -> st.rr.(dst) <- st.rr.(src)
   | 4 -> st.rs.(dst) <- st.rs.(src)
   | _ -> st.ri.(dst) <- st.ri.(src));
  st.has.(dst) <- true

(* delay register <-> value slot (same index layout) *)
let copy_delay_to_sig st j =
  let t = st.dtg.(j) in
  st.tg.(j) <- t;
  (match t with
   | 3 -> st.rr.(j) <- st.dr.(j)
   | 4 -> st.rs.(j) <- st.ds.(j)
   | _ -> st.ri.(j) <- st.di.(j));
  st.has.(j) <- true

let copy_sig_to_delay st src dst =
  let t = st.tg.(src) in
  st.dtg.(dst) <- t;
  match t with
  | 3 -> st.dr.(dst) <- st.rr.(src)
  | 4 -> st.ds.(dst) <- st.rs.(src)
  | _ -> st.di.(dst) <- st.ri.(src)

let delay_boxed st j =
  match st.dtg.(j) with
  | 0 -> Types.Vint st.di.(j)
  | 1 -> if st.di.(j) <> 0 then Types.Vbool true else Types.Vbool false
  | 2 -> Types.Vevent
  | 3 -> Types.Vreal st.dr.(j)
  | _ -> Types.Vstring st.ds.(j)

let set_delay_slot st j v =
  match v with
  | Types.Vint n -> st.dtg.(j) <- tg_int; st.di.(j) <- n
  | Types.Vbool b -> st.dtg.(j) <- tg_bool; st.di.(j) <- (if b then 1 else 0)
  | Types.Vevent -> st.dtg.(j) <- tg_event; st.di.(j) <- 1
  | Types.Vreal r -> st.dtg.(j) <- tg_real; st.dr.(j) <- r
  | Types.Vstring s -> st.dtg.(j) <- tg_string; st.ds.(j) <- s

let slot_bool st j =
  match st.tg.(j) with
  | 1 -> st.ri.(j) <> 0
  | 2 -> true
  | _ ->
    everrf st "boolean operation on %s"
      (Types.value_to_string (slot_value st j))

(* ------------------------------------------------------------------ *)
(* Compiled atoms                                                      *)
(* ------------------------------------------------------------------ *)

let atom_check st = function
  | CAvar y ->
    if not st.has.(y) then
      errf "instant %d: signal %s used before being computed"
        st.instants st.prog.Prog.names.(y)
  | CAconst_i _ | CAconst_r _ | CAconst_s _ -> ()

let atom_tag st = function
  | CAvar y -> st.tg.(y)
  | CAconst_i (t, _) -> t
  | CAconst_r _ -> tg_real
  | CAconst_s _ -> tg_string

let atom_i st = function
  | CAvar y -> st.ri.(y)
  | CAconst_i (_, n) -> n
  | CAconst_r _ | CAconst_s _ -> 0

let atom_r st = function
  | CAvar y -> st.rr.(y)
  | CAconst_r r -> r
  | CAconst_i _ | CAconst_s _ -> 0.

let atom_s st = function
  | CAvar y -> st.rs.(y)
  | CAconst_s s -> s
  | CAconst_i _ | CAconst_r _ -> ""

let atom_boxed st = function
  | CAvar y -> slot_value st y
  | CAconst_i (t, n) ->
    if t = tg_int then Types.Vint n
    else if t = tg_bool then (if n <> 0 then Types.Vbool true else Types.Vbool false)
    else Types.Vevent
  | CAconst_r r -> Types.Vreal r
  | CAconst_s s -> Types.Vstring s

let atom_bool st a =
  match atom_tag st a with
  | 1 -> atom_i st a <> 0
  | 2 -> true
  | _ ->
    everrf st "boolean operation on %s" (Types.value_to_string (atom_boxed st a))

let copy_atom st dst a =
  match a with
  | CAvar y -> copy_sig st dst y
  | CAconst_i (t, n) -> st.tg.(dst) <- t; st.ri.(dst) <- n; st.has.(dst) <- true
  | CAconst_r r -> set_r st dst r
  | CAconst_s s -> st.tg.(dst) <- tg_string; st.rs.(dst) <- s; st.has.(dst) <- true

(* mirrors Types.equal_value, including the event/bool cross case *)
let atom_equal st a b =
  let ta = atom_tag st a and tb = atom_tag st b in
  if ta = tg_event then
    (if tb = tg_event then true
     else if tb = tg_bool then atom_i st b <> 0
     else false)
  else if tb = tg_event then (if ta = tg_bool then atom_i st a <> 0 else false)
  else if ta <> tb then false
  else
    match ta with
    | 0 | 1 -> atom_i st a = atom_i st b
    | 3 -> atom_r st a = atom_r st b
    | _ -> String.equal (atom_s st a) (atom_s st b)

(* mirrors Eval.compare_num *)
let atom_cmp st a b =
  match atom_tag st a, atom_tag st b with
  | 0, 0 -> Int.compare (atom_i st a) (atom_i st b)
  | 3, 3 -> Float.compare (atom_r st a) (atom_r st b)
  | 4, 4 -> String.compare (atom_s st a) (atom_s st b)
  | _, _ ->
    everrf st "comparison of %s and %s"
      (Types.value_to_string (atom_boxed st a))
      (Types.value_to_string (atom_boxed st b))

(* mirrors Eval.eval_binop over unboxed slots (same error messages,
   same short-circuiting) *)
let exec_binop st dst bop a b =
  match bop with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
    match atom_tag st a, atom_tag st b with
    | 0, 0 ->
      let x = atom_i st a and y = atom_i st b in
      set_i st dst
        (match bop with
         | Ast.Add -> x + y
         | Ast.Sub -> x - y
         | Ast.Mul -> x * y
         | Ast.Div ->
           if y = 0 then everrf st "division by zero" else x / y
         | _ -> if y = 0 then everrf st "modulo by zero" else x mod y)
    | 3, 3 when bop <> Ast.Mod ->
      let x = atom_r st a and y = atom_r st b in
      set_r st dst
        (match bop with
         | Ast.Add -> x +. y
         | Ast.Sub -> x -. y
         | Ast.Mul -> x *. y
         | _ -> x /. y)
    | _, _ ->
      everrf st "arithmetic on %s and %s"
        (Types.value_to_string (atom_boxed st a))
        (Types.value_to_string (atom_boxed st b)))
  | Ast.And ->
    set_b st dst (if atom_bool st a then atom_bool st b else false)
  | Ast.Or -> set_b st dst (if atom_bool st a then true else atom_bool st b)
  | Ast.Xor -> set_b st dst (atom_bool st a <> atom_bool st b)
  | Ast.Eq -> set_b st dst (atom_equal st a b)
  | Ast.Neq -> set_b st dst (not (atom_equal st a b))
  | Ast.Lt -> set_b st dst (atom_cmp st a b < 0)
  | Ast.Le -> set_b st dst (atom_cmp st a b <= 0)
  | Ast.Gt -> set_b st dst (atom_cmp st a b > 0)
  | Ast.Ge -> set_b st dst (atom_cmp st a b >= 0)

let rec check_args_then_malformed st cargs k =
  if k < Array.length cargs then begin
    atom_check st cargs.(k);
    check_args_then_malformed st cargs (k + 1)
  end
  else everrf st "malformed kernel function application"

(* ------------------------------------------------------------------ *)
(* Clock evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let bdd_env st v =
  if v >= Array.length st.bddvars then false
  else
    match st.bddvars.(v) with
    | Rpresent c -> st.pres.(c)
    | Rcond bi ->
      st.pres.(st.class_of.(bi)) && st.has.(bi) && slot_bool st bi
    | Rcondeq (xi, k) ->
      st.pres.(st.class_of.(xi))
      && st.has.(xi) && st.tg.(xi) = tg_int && st.ri.(xi) = k
    | Rnone -> false

let rec ceval st = function
  | Cleaf b -> b
  | Cnode (r, hi, lo) ->
    let v =
      match r with
      | Rpresent c -> st.pres.(c)
      | Rcond bi ->
        st.pres.(st.class_of.(bi)) && st.has.(bi) && slot_bool st bi
      | Rcondeq (xi, k) ->
        st.pres.(st.class_of.(xi))
        && st.has.(xi) && st.tg.(xi) = tg_int && st.ri.(xi) = k
      | Rnone -> false
    in
    if v then ceval st hi else ceval st lo
  | Cbdd b -> Bdd.eval (Calc.manager st.calc) (bdd_env st) b

(* ------------------------------------------------------------------ *)
(* FIFO ring buffers                                                   *)
(* ------------------------------------------------------------------ *)

let copy_queue_head st p dst =
  let idx = p.q_head in
  let t = p.q_tg.(idx) in
  st.tg.(dst) <- t;
  (match t with
   | 3 -> st.rr.(dst) <- p.q_rr.(idx)
   | 4 -> st.rs.(dst) <- p.q_rs.(idx)
   | _ -> st.ri.(dst) <- p.q_ri.(idx));
  st.has.(dst) <- true

let qclear p =
  p.q_len <- 0;
  p.q_head <- 0

let qpop p =
  if p.q_len > 0 then begin
    p.q_head <- (p.q_head + 1) mod p.cap;
    p.q_len <- p.q_len - 1
  end

let qwrite_tail st p src =
  let idx = (p.q_head + p.q_len) mod p.cap in
  let t = st.tg.(src) in
  p.q_tg.(idx) <- t;
  (match t with
   | 3 -> p.q_rr.(idx) <- st.rr.(src)
   | 4 -> p.q_rs.(idx) <- st.rs.(src)
   | _ -> p.q_ri.(idx) <- st.ri.(src));
  p.q_len <- p.q_len + 1

let qpush_bounded st p src =
  if p.q_len >= p.cap then begin
    match p.lp.Prog.lp_policy with
    | Prog.Drop_oldest ->
      qpop p;
      qwrite_tail st p src
    | Prog.Drop_newest -> ()
    | Prog.Overflow_error ->
      errf "queue overflow on %s (Overflow_Handling_Protocol => Error)"
        p.lp.Prog.lp_ki.K.ki_label
  end
  else qwrite_tail st p src

let commit_prim st p =
  let ins = p.lp.Prog.lp_ins in
  match p.lp.Prog.lp_ki.K.ki_prim with
  | Stdproc.Pfifo | Stdproc.Pfifo_reset ->
    if Array.length ins = 3
       && st.pres.(st.class_of.(ins.(2)))
    then qclear p;
    if st.pres.(st.class_of.(ins.(0))) then
      qpush_bounded st p ins.(0);
    if st.pres.(st.class_of.(ins.(1))) then qpop p
  | Stdproc.Pin_event_port ->
    if st.pres.(st.class_of.(ins.(1))) then qclear p;
    (* NOTE: the engine moves in_fifo to frozen_fifo; since [frozen]
       only ever exposes the head at Frozen_time, dropping the old
       frozen content and re-freezing is equivalent observably; the
       in_fifo is cleared after a freeze, matching Engine.commit. *)
    if st.pres.(st.class_of.(ins.(0))) then
      qpush_bounded st p ins.(0)
  | Stdproc.Pout_event_port ->
    if st.pres.(st.class_of.(ins.(0))) then
      qpush_bounded st p ins.(0);
    if st.pres.(st.class_of.(ins.(1))) then qpop p

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec stim_any st ms k =
  k < Array.length ms
  && (st.stim_p.(ms.(k)) || stim_any st ms (k + 1))

let rec check_stim_agree st ms p k =
  if k < Array.length ms then begin
    let i = ms.(k) in
    if st.stim_p.(i) <> p then
      errf "instant %d: synchronous inputs %s disagree on presence"
        st.instants st.prog.Prog.names.(i);
    check_stim_agree st ms p (k + 1)
  end

let check_computed st y =
  if not st.has.(y) then
    errf "instant %d: signal %s used before being computed"
      st.instants st.prog.Prog.names.(y)

let compile_impl kp =
  try
    let prog = Prog.of_kprocess kp in
    let calc = Calc.analyze kp in
    if not (Calc.consistent calc) then
      errf "clock constraint system is unsatisfiable";
    let nsignals = prog.Prog.n in
    let index x =
      match Prog.index_opt prog x with
      | Some i -> i
      | None -> errf "undeclared signal %s" x
    in
    let class_of =
      Array.init nsignals (fun i ->
          Calc.class_id_of calc prog.Prog.names.(i))
    in
    let nclasses = Calc.class_count calc in
    let clock_bdd =
      Array.init nclasses (fun c -> Calc.clock_of_class_id calc c)
    in
    let is_input = prog.Prog.is_input in
    let lprims = prog.Prog.prims in
    (* presence sources per class *)
    let pdefs = Array.make nclasses Pfree in
    let mgr = Calc.manager calc in
    for c = 0 to nclasses - 1 do
      let support = Bdd.support mgr clock_bdd.(c) in
      let refers_self =
        List.exists
          (fun v ->
            match Calc.var_kind calc v with
            | Some (`Present c') -> c' = c
            | _ -> false)
          support
      in
      pdefs.(c) <- (if refers_self then Pfree else Pderived)
    done;
    (* stateful primitive outputs override *)
    let stateful_outs lp =
      match lp.Prog.lp_ki.K.ki_prim with
      | Stdproc.Pfifo | Stdproc.Pfifo_reset -> [ 0 ]       (* data *)
      | Stdproc.Pin_event_port -> [ 0 ]                     (* frozen *)
      | Stdproc.Pout_event_port -> [ 0 ]                    (* sent *)
    in
    Array.iteri
      (fun pi lp ->
        List.iter
          (fun pos ->
            pdefs.(class_of.(lp.Prog.lp_outs.(pos))) <- Pprim (pi, pos))
          (stateful_outs lp))
      lprims;
    (* input classes *)
    for i = 0 to nsignals - 1 do
      if is_input.(i) then begin
        let c = class_of.(i) in
        match pdefs.(c) with
        | Pinput members -> pdefs.(c) <- Pinput (i :: members)
        | Pfree -> pdefs.(c) <- Pinput [ i ]
        | Pderived ->
          (* an input whose presence is derived from other clocks: we
             trust the derivation and check the stimulus against it *)
          pdefs.(c) <- Pinput [ i ]
        | Palias _ -> assert false           (* not assigned yet *)
        | Pprim _ ->
          errf "input %s is synchronized with a FIFO-driven clock"
            prog.Prog.names.(i)
      end
    done;
    (* A free presence variable pinned absent is only sound while
       nothing observable forces it true. When the calculus solved an
       observable class's clock as exactly that variable — the
       hierarchy picked the free class as representative, so an input
       (or FIFO-driven) class [c] has clock_bdd = Present c' with c'
       free — the stimulus deciding [c] decides [c'] too: mirror it
       instead of pinning it. *)
    for c = 0 to nclasses - 1 do
      match pdefs.(c) with
      | Pinput _ | Pprim _ -> (
        match Bdd.view mgr clock_bdd.(c) with
        | `Node (v, lo, hi)
          when Bdd.view mgr lo = `Leaf false
               && Bdd.view mgr hi = `Leaf true -> (
          match Calc.var_kind calc v with
          | Some (`Present c') when c' <> c && pdefs.(c') = Pfree ->
            pdefs.(c') <- Palias c
          | _ -> ())
        | _ -> ())
      | Pderived | Pfree | Palias _ -> ()
    done;
    let n_free =
      Array.fold_left
        (fun acc p -> match p with Pfree -> acc + 1 | _ -> acc)
        0 pdefs
    in
    (* resolve every bdd variable appearing in a clock function once,
       so evaluation never consults a name table *)
    let max_var =
      Array.fold_left
        (fun acc b ->
          List.fold_left max acc (Bdd.support mgr b))
        (-1) clock_bdd
    in
    let bddvars = Array.make (max_var + 1) Rnone in
    Array.iter
      (fun b ->
        List.iter
          (fun v ->
            match Calc.var_kind calc v with
            | Some (`Present c) -> bddvars.(v) <- Rpresent c
            | Some (`Cond bsig) -> bddvars.(v) <- Rcond (index bsig)
            | Some (`CondEq (x, k)) -> bddvars.(v) <- Rcondeq (index x, k)
            | None -> ())
          (Bdd.support mgr b))
      clock_bdd;
    (* dependency graph over presence/value nodes *)
    let g = Analysis.Digraph.create () in
    let pnode c = "P" ^ string_of_int c in
    let vnode i = "V" ^ string_of_int i in
    for c = 0 to nclasses - 1 do
      Analysis.Digraph.add_vertex g (pnode c)
    done;
    for i = 0 to nsignals - 1 do
      Analysis.Digraph.add_vertex g (vnode i);
      (* a value needs its class presence *)
      Analysis.Digraph.add_edge g (pnode class_of.(i)) (vnode i)
    done;
    for c = 0 to nclasses - 1 do
      match pdefs.(c) with
      | Pfree -> ()
      | Pinput _ -> ()
      | Palias src -> Analysis.Digraph.add_edge g (pnode src) (pnode c)
      | Pprim (pi, _) ->
        Array.iter
          (fun i -> Analysis.Digraph.add_edge g (pnode class_of.(i)) (pnode c))
          lprims.(pi).Prog.lp_ins
      | Pderived ->
        List.iter
          (fun v ->
            match bddvars.(v) with
            | Rpresent c' ->
              if c' <> c then Analysis.Digraph.add_edge g (pnode c') (pnode c)
            | Rcond bi ->
              Analysis.Digraph.add_edge g (vnode bi) (pnode c);
              Analysis.Digraph.add_edge g (pnode class_of.(bi)) (pnode c)
            | Rcondeq (xi, _) ->
              Analysis.Digraph.add_edge g (vnode xi) (pnode c);
              Analysis.Digraph.add_edge g (pnode class_of.(xi)) (pnode c)
            | Rnone -> ())
          (Bdd.support mgr clock_bdd.(c))
    done;
    let dep_atom dst = function
      | Prog.Avar y -> Analysis.Digraph.add_edge g (vnode y) (vnode dst)
      | Prog.Aconst _ -> ()
    in
    for i = 0 to nsignals - 1 do
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone | Prog.Vdelay -> ()
      | Prog.Vfunc (_, args) -> Array.iter (dep_atom i) args
      | Prog.Vwhen src -> dep_atom i src
      | Prog.Vdefault (l, r) ->
        dep_atom i l;
        dep_atom i r;
        (match l with
         | Prog.Avar y ->
           Analysis.Digraph.add_edge g (pnode class_of.(y)) (vnode i)
         | Prog.Aconst _ -> ());
        (match r with
         | Prog.Avar y ->
           Analysis.Digraph.add_edge g (pnode class_of.(y)) (vnode i)
         | Prog.Aconst _ -> ())
      | Prog.Vprim (pi, _) ->
        Array.iter
          (fun j ->
            Analysis.Digraph.add_edge g (vnode j) (vnode i);
            Analysis.Digraph.add_edge g (pnode class_of.(j)) (vnode i))
          lprims.(pi).Prog.lp_ins
    done;
    let order =
      match Analysis.Digraph.topological_sort g with
      | Ok order -> order
      | Error cycle ->
        errf "causality cycle prevents compilation: %s"
          (String.concat " -> " cycle)
    in
    let plan =
      Array.of_list
        (List.map
           (fun node ->
             let k = int_of_string (String.sub node 1 (String.length node - 1)) in
             if node.[0] = 'P' then Opres k else Oval k)
           order)
    in
    (* ---- compile the schedule to closures over the SoA state ---- *)
    let names = prog.Prog.names in
    let catom = function
      | Prog.Avar y -> CAvar y
      | Prog.Aconst v -> (
        match v with
        | Types.Vint n -> CAconst_i (tg_int, n)
        | Types.Vbool b -> CAconst_i (tg_bool, if b then 1 else 0)
        | Types.Vevent -> CAconst_i (tg_event, 1)
        | Types.Vreal r -> CAconst_r r
        | Types.Vstring s -> CAconst_s s)
    in
    (* decision trees can blow up on shared BDDs; past a global budget
       the remaining classes keep shared-BDD evaluation *)
    let tree_budget = ref 20_000 in
    let rec ctree_of b =
      match Bdd.view mgr b with
      | `Leaf bb -> Cleaf bb
      | `Node (var, lo, hi) ->
        if !tree_budget <= 0 then Cbdd b
        else begin
          decr tree_budget;
          let r =
            if var < Array.length bddvars then bddvars.(var) else Rnone
          in
          let hi' = ctree_of hi in
          let lo' = ctree_of lo in
          Cnode (r, hi', lo')
        end
    in
    let compile_prim_pres c pi pos =
      let lp = lprims.(pi) in
      let ins = lp.Prog.lp_ins in
      match lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        fun st ->
          let p = st.prims.(pi) in
          let reset_p = has_reset && st.pres.(c2) in
          let push_p = st.pres.(c0) in
          let pop_p = st.pres.(c1) in
          let qlen0 = if reset_p then 0 else p.q_len in
          st.pres.(c) <- pop_p && qlen0 + (if push_p then 1 else 0) > 0
      | Stdproc.Pin_event_port, 0 ->
        let c1 = class_of.(ins.(1)) in
        fun st -> st.pres.(c) <- st.pres.(c1) && st.prims.(pi).q_len > 0
      | Stdproc.Pout_event_port, 0 ->
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        fun st ->
          st.pres.(c) <-
            st.pres.(c1) && (st.pres.(c0) || st.prims.(pi).q_len > 0)
      | _, _ -> fun _ -> assert false
    in
    let compile_pres c =
      match pdefs.(c) with
      | Pfree -> (fun st -> st.pres.(c) <- false)
      | Palias src ->
        fun st -> st.pres.(c) <- st.pres.(src)
      | Pinput members ->
        let ms = Array.of_list members in
        fun st ->
          let p = stim_any st ms 0 in
          check_stim_agree st ms p 0;
          st.pres.(c) <- p
      | Pprim (pi, pos) -> compile_prim_pres c pi pos
      | Pderived -> (
        match ctree_of clock_bdd.(c) with
        | Cleaf b -> fun st -> st.pres.(c) <- b
        | ct -> fun st -> st.pres.(c) <- ceval st ct)
    in
    let compile_func i c op args =
      let cargs = Array.map catom args in
      match op, Array.length args with
      | K.Pid, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            copy_atom st i a
          end
      | K.Pclock, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            set_e st i
          end
      | K.Punop Ast.Not, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            set_b st i (not (atom_bool st a))
          end
      | K.Punop Ast.Neg, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            match atom_tag st a with
            | 0 -> set_i st i (-atom_i st a)
            | 3 -> set_r st i (-.atom_r st a)
            | _ -> everrf st "malformed kernel function application"
          end
      | K.Pif, 3 ->
        let a = cargs.(0) and bt = cargs.(1) and bf = cargs.(2) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            atom_check st bt;
            atom_check st bf;
            copy_atom st i (if atom_bool st a then bt else bf)
          end
      | K.Pbinop bop, 2 ->
        let a = cargs.(0) and b = cargs.(1) in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            atom_check st b;
            exec_binop st i bop a b
          end
      | (K.Punop _ | K.Pbinop _ | K.Pif | K.Pid | K.Pclock), _ ->
        fun st ->
          if st.pres.(c) then
            check_args_then_malformed st cargs 0
    in
    let compile_prim_val i c pi pos =
      let lp = lprims.(pi) in
      let ins = lp.Prog.lp_ins in
      match lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        let in0 = ins.(0) in
        fun st ->
          if st.pres.(c) then begin
            let p = st.prims.(pi) in
            let reset_p = has_reset && st.pres.(c2) in
            let qlen0 = if reset_p then 0 else p.q_len in
            if qlen0 > 0 then copy_queue_head st p i
            else begin
              check_computed st in0;
              copy_sig st i in0
            end
          end
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 1 ->
        let has_reset = Array.length ins = 3 in
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        fun st ->
          if st.pres.(c) then begin
            let p = st.prims.(pi) in
            let reset_p = has_reset && st.pres.(c2) in
            let push_p = st.pres.(c0) in
            let pop_p = st.pres.(c1) in
            let qlen0 = if reset_p then 0 else p.q_len in
            let n1 =
              if push_p then (
                let m = qlen0 + 1 in
                if m < p.cap then m else p.cap)
              else qlen0
            in
            set_i st i (if pop_p && n1 > 0 then n1 - 1 else n1)
          end
      | Stdproc.Pin_event_port, 0 ->
        fun st -> if st.pres.(c) then copy_queue_head st st.prims.(pi) i
      | Stdproc.Pin_event_port, 1 ->
        fun st -> if st.pres.(c) then set_i st i st.prims.(pi).q_len
      | Stdproc.Pout_event_port, 0 ->
        let in0 = ins.(0) in
        fun st ->
          if st.pres.(c) then begin
            let p = st.prims.(pi) in
            if p.q_len = 0 then begin
              check_computed st in0;
              copy_sig st i in0
            end
            else copy_queue_head st p i
          end
      | _, _ -> fun _ -> assert false
    in
    let compile_val i =
      let c = class_of.(i) in
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone ->
        fun st ->
          if st.pres.(c) && not st.has.(i) then
            errf "instant %d: present signal %s has no value (missing input?)"
              st.instants names.(i)
      | Prog.Vfunc (op, args) -> compile_func i c op args
      | Prog.Vdelay ->
        fun st -> if st.pres.(c) then copy_delay_to_sig st i
      | Prog.Vwhen src ->
        let a = catom src in
        fun st ->
          if st.pres.(c) then begin
            atom_check st a;
            copy_atom st i a
          end
      | Prog.Vdefault (l, r) -> (
        match l with
        | Prog.Aconst _ ->
          let cl = catom l in
          fun st ->
            if st.pres.(c) then copy_atom st i cl
        | Prog.Avar y -> (
          let cy = class_of.(y) in
          match r with
          | Prog.Aconst _ ->
            let cr = catom r in
            fun st ->
              if st.pres.(c) then
                if st.pres.(cy) then begin
                  check_computed st y;
                  copy_sig st i y
                end
                else copy_atom st i cr
          | Prog.Avar z ->
            let cz = class_of.(z) in
            fun st ->
              if st.pres.(c) then
                if st.pres.(cy) then begin
                  check_computed st y;
                  copy_sig st i y
                end
                else if st.pres.(cz) then begin
                  check_computed st z;
                  copy_sig st i z
                end
                else
                  errf "instant %d: merge %s present with both branches absent"
                    st.instants names.(i)))
      | Prog.Vprim (pi, pos) -> compile_prim_val i c pi pos
    in
    let ops =
      Array.map
        (function Opres c -> compile_pres c | Oval i -> compile_val i)
        plan
    in
    Ok
      { p_prog = prog; p_calc = calc; p_class_of = class_of;
        p_nclasses = nclasses; p_pdefs = pdefs; p_clock_bdd = clock_bdd;
        p_bddvars = bddvars; p_plan = plan; p_ops = ops; p_n_free = n_free;
        p_decls = Prog.decls prog }
  with
  | Comp_error m -> Error m
  | Prog.Lower_error m -> Error m
  | Invalid_argument m -> Error m

(* a fresh mutable instance over a (possibly shared) plan *)
let instantiate pl =
  let prog = pl.p_prog in
  let n = prog.Prog.n in
  let st =
    { pl;
      prog;
      calc = pl.p_calc;
      class_of = pl.p_class_of;
      nclasses = pl.p_nclasses;
      pdefs = pl.p_pdefs;
      clock_bdd = pl.p_clock_bdd;
      bddvars = pl.p_bddvars;
      plan = pl.p_plan;
      ops = pl.p_ops;
      n_free = pl.p_n_free;
      n;
      ri = Array.make n 0;
      rr = Array.make n 0.;
      rs = Array.make n "";
      tg = Array.make n 0;
      has = Array.make n false;
      stim_p = Array.make n false;
      pres = Array.make pl.p_nclasses false;
      di = Array.make n 0;
      dr = Array.make n 0.;
      ds = Array.make n "";
      dtg = Array.make n 0;
      prims =
        Array.map
          (fun lp ->
            let cap = max 1 lp.Prog.lp_capacity in
            { lp; cap;
              q_ri = Array.make cap 0;
              q_rr = Array.make cap 0.;
              q_rs = Array.make cap "";
              q_tg = Array.make cap 0;
              q_len = 0;
              q_head = 0 })
          prog.Prog.prims;
      trace = Trace.create pl.p_decls;
      instants = 0;
      recording = true }
  in
  for i = 0 to n - 1 do
    set_delay_slot st i prog.Prog.delay_init.(i)
  done;
  st

let record_plan_metrics pl =
  let mgr = Calc.manager pl.p_calc in
  Metrics.set m_plan_ops (Array.length pl.p_plan);
  Metrics.set m_bdd_nodes (Bdd.node_count mgr);
  let calls, hits = Bdd.apply_stats mgr in
  Metrics.set m_bdd_apply_calls calls;
  Metrics.set m_bdd_apply_hit_pct
    (if calls = 0 then 0 else 100 * hits / calls);
  Metrics.set m_free_classes pl.p_n_free

(* Plans are memoized on the kernel digest (compile errors too — they
   are just as deterministic, so the memo's value is the result). The
   memo computes under its own lock: the explorer's worker domains may
   consult it, and two domains never build one plan twice. *)
let plans : (plan, string) result Putil.Memo.t =
  Putil.Memo.create ~cap:256 "incr.plan"

(* every plan build, memoized or not, is one [compile.plan] span *)
let build_plan kp =
  let r =
    Putil.Tracing.with_span "compile.plan"
      ~args:[ ("signals", Putil.Tracing.Aint (K.st_count (K.sigtab kp))) ]
      (fun () -> compile_impl kp)
  in
  (match r with Ok pl -> record_plan_metrics pl | Error _ -> ());
  r

let plan_of_digest kp =
  Putil.Memo.get plans (K.digest kp) (fun () -> build_plan kp)

(* Physical-equality fast path over the digest memo: re-instantiating
   the same in-memory kernel (the common case in batched and
   multi-scenario runs) skips the Marshal-based digest entirely. *)
let plan_last : (K.kprocess * (plan, string) result) option Atomic.t =
  Atomic.make None

let plan_of kp =
  match Atomic.get plan_last with
  | Some (kp0, r) when kp0 == kp -> Putil.Memo.hit plans; r
  | _ ->
    let r = plan_of_digest kp in
    Atomic.set plan_last (Some (kp, r));
    r

let compile kp =
  Metrics.incr m_compilations;
  Result.map (fun pl -> instantiate pl) (plan_of kp)

let compile_uncached kp =
  Metrics.incr m_compilations;
  Result.map (fun pl -> instantiate pl) (build_plan kp)

let fork st = instantiate st.pl

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let n_signals st = st.n
let signal_index st x = Prog.index_opt st.prog x
let signal_name st i = st.prog.Prog.names.(i)
let is_input st i = st.prog.Prog.is_input.(i)

let stim_clear st =
  Array.fill st.has 0 st.n false;
  Array.fill st.stim_p 0 st.n false

let set_stim st i v =
  if i < 0 || i >= st.n then errf "stimulus index %d out of range" i;
  if not st.prog.Prog.is_input.(i) then
    errf "stimulus for non-input signal %s" st.prog.Prog.names.(i);
  st.stim_p.(i) <- true;
  set_slot_value st i v

(* presence/value sanity pass; returns the present count *)
let rec check_present st i acc =
  if i >= st.n then acc
  else if st.pres.(st.class_of.(i)) then begin
    if not st.has.(i) then
      errf "instant %d: signal %s present without a value" st.instants
        st.prog.Prog.names.(i);
    check_present st (i + 1) (acc + 1)
  end
  else check_present st (i + 1) acc

let rec fill_row st i k row =
  if i < st.n then
    if st.pres.(st.class_of.(i)) then begin
      row.(k) <- (i, slot_value st i);
      fill_row st (i + 1) (k + 1) row
    end
    else fill_row st (i + 1) k row

(* one instant; stimulus must already be in the stim buffer.
   Allocation-free in steady state when recording is off (and when on,
   allocates only the trace row). *)
let exec_instant st =
  Array.fill st.pres 0 st.nclasses false;
  let ops = st.ops in
  for k = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops k) st
  done;
  let class_of = st.class_of in
  (* sanity: inputs marked present must be in present classes *)
  for i = 0 to st.n - 1 do
    if st.stim_p.(i) && not st.pres.(class_of.(i)) then
      errf "instant %d: input %s present against its derived clock"
        st.instants st.prog.Prog.names.(i)
  done;
  let cnt = check_present st 0 0 in
  if st.recording then begin
    let row = Array.make cnt (0, Types.Vevent) in
    fill_row st 0 0 row;
    Trace.push_row st.trace row
  end;
  (* commit: delays then queues *)
  let delay_src = st.prog.Prog.delay_src in
  for i = 0 to st.n - 1 do
    let src = delay_src.(i) in
    if src >= 0 && st.pres.(class_of.(src)) then copy_sig_to_delay st src i
  done;
  let prims = st.prims in
  for k = 0 to Array.length prims - 1 do
    commit_prim st prims.(k)
  done;
  Metrics.incr m_instants

(* The one guarded step loop behind every stepping call: [n] instants,
   each prepared by [fill st k] and then executed; the first failing
   instant ends the loop with its message. *)
let step_loop st ~n ~fill =
  try
    for k = 0 to n - 1 do
      fill st k;
      exec_instant st;
      st.instants <- st.instants + 1
    done;
    Ok ()
  with Comp_error m -> Error m

(* no span: the explorer calls this once per transition, inside its
   own [explore.check] span *)
let step_prepared st = step_loop st ~n:1 ~fill:(fun _ _ -> ())

let run_batched st ~n ~fill =
  Putil.Tracing.with_span "compile.step" @@ fun () ->
  step_loop st ~n ~fill:(fun st k ->
      stim_clear st;
      fill st k)

let rec present_assoc_from st i =
  if i >= st.n then []
  else if st.pres.(st.class_of.(i)) then
    (st.prog.Prog.names.(i), slot_value st i) :: present_assoc_from st (i + 1)
  else present_assoc_from st (i + 1)

let out_present st i = st.pres.(st.class_of.(i))

let out_value st i =
  if st.pres.(st.class_of.(i)) && st.has.(i) then Some (slot_value st i)
  else None

let iter_present st f =
  for i = 0 to st.n - 1 do
    if st.pres.(st.class_of.(i)) then f i (slot_value st i)
  done

let run kp ~stimuli =
  Result.bind (compile kp) @@ fun st ->
  let stimuli = Array.of_list stimuli in
  (* named stimulus → dense buffer *)
  let fill st k =
    List.iter
      (fun (x, v) ->
        match Prog.index_opt st.prog x with
        | Some i -> set_stim st i v
        | None -> errf "stimulus for unknown signal %s" x)
      stimuli.(k)
  in
  Result.map
    (fun () -> st.trace)
    (run_batched st ~n:(Array.length stimuli) ~fill)

let trace st = st.trace
let instant st = st.instants

(* ------------------------------------------------------------------ *)
(* State management                                                    *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_dstate : Types.value array;          (* boxed delay registers *)
  s_queues : Types.value list array;     (* per primitive, front first *)
  s_instants : int;
}

let queue_list p =
  List.init p.q_len (fun k ->
      let idx = (p.q_head + k) mod p.cap in
      match p.q_tg.(idx) with
      | 0 -> Types.Vint p.q_ri.(idx)
      | 1 -> if p.q_ri.(idx) <> 0 then Types.Vbool true else Types.Vbool false
      | 2 -> Types.Vevent
      | 3 -> Types.Vreal p.q_rr.(idx)
      | _ -> Types.Vstring p.q_rs.(idx))

let snapshot st =
  { s_dstate = Array.init st.n (delay_boxed st);
    s_queues = Array.map queue_list st.prims;
    s_instants = st.instants }

let restore st snap =
  Array.iteri (set_delay_slot st) snap.s_dstate;
  Array.iteri
    (fun k vs ->
      let p = st.prims.(k) in
      qclear p;
      List.iter
        (fun v ->
          let idx = (p.q_head + p.q_len) mod p.cap in
          (match v with
           | Types.Vint n -> p.q_tg.(idx) <- tg_int; p.q_ri.(idx) <- n
           | Types.Vbool b ->
             p.q_tg.(idx) <- tg_bool;
             p.q_ri.(idx) <- (if b then 1 else 0)
           | Types.Vevent -> p.q_tg.(idx) <- tg_event; p.q_ri.(idx) <- 1
           | Types.Vreal r -> p.q_tg.(idx) <- tg_real; p.q_rr.(idx) <- r
           | Types.Vstring s -> p.q_tg.(idx) <- tg_string; p.q_rs.(idx) <- s);
          p.q_len <- p.q_len + 1)
        vs)
    snap.s_queues;
  st.instants <- snap.s_instants

let set_recording st b = st.recording <- b

let state_digest st =
  let sn = snapshot st in
  Marshal.to_string (sn.s_dstate, sn.s_queues) []

(* Fixed-width state keys for visited sets: serialize the mutable state
   (delay registers + FIFO rings, the same fields [snapshot] captures
   minus the instant counter) into a reused byte buffer, then hash to a
   16-byte MD5. Unlike [state_digest], the per-call garbage is one
   16-byte string instead of a Marshal image of the boxed state. *)

type keybuf = { mutable kbytes : Bytes.t; mutable kpos : int }

let keybuf () = { kbytes = Bytes.create 512; kpos = 0 }

let kb_ensure kb extra =
  let need = kb.kpos + extra in
  let cap = Bytes.length kb.kbytes in
  if need > cap then begin
    let ncap = ref (cap * 2) in
    while !ncap < need do ncap := !ncap * 2 done;
    let b = Bytes.create !ncap in
    Bytes.blit kb.kbytes 0 b 0 kb.kpos;
    kb.kbytes <- b
  end

let kb_byte kb v =
  kb_ensure kb 1;
  Bytes.unsafe_set kb.kbytes kb.kpos (Char.unsafe_chr (v land 0xff));
  kb.kpos <- kb.kpos + 1

let kb_int kb v =
  kb_ensure kb 8;
  let b = kb.kbytes and p = kb.kpos in
  Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (p + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (p + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (p + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (p + 7) (Char.unsafe_chr ((v asr 56) land 0xff));
  kb.kpos <- p + 8

(* all 64 bits matter (sign included), so split before the 63-bit int *)
let kb_float kb f =
  let bits = Int64.bits_of_float f in
  kb_int kb (Int64.to_int (Int64.shift_right_logical bits 32));
  kb_int kb (Int64.to_int (Int64.logand bits 0xFFFFFFFFL))

let kb_string kb s =
  let len = String.length s in
  kb_int kb len;
  kb_ensure kb len;
  Bytes.blit_string s 0 kb.kbytes kb.kpos len;
  kb.kpos <- kb.kpos + len

let state_key st kb =
  kb.kpos <- 0;
  for j = 0 to st.n - 1 do
    let t = st.dtg.(j) in
    kb_byte kb t;
    (match t with
     | 3 -> kb_float kb st.dr.(j)
     | 4 -> kb_string kb st.ds.(j)
     | _ -> kb_int kb st.di.(j))
  done;
  Array.iter
    (fun p ->
      kb_int kb p.q_len;
      for k = 0 to p.q_len - 1 do
        let idx = (p.q_head + k) mod p.cap in
        let t = p.q_tg.(idx) in
        kb_byte kb t;
        match t with
        | 3 -> kb_float kb p.q_rr.(idx)
        | 4 -> kb_string kb p.q_rs.(idx)
        | _ -> kb_int kb p.q_ri.(idx)
      done)
    st.prims;
  Digest.subbytes kb.kbytes 0 kb.kpos

let plan_length st = Array.length st.plan
let free_classes st = st.n_free

let present_assoc st = present_assoc_from st 0

(* ------------------------------------------------------------------ *)
(* Symbolic introspection: a read-only view of the compiled plan so    *)
(* the symbolic reachability engine can rebuild the same presence and  *)
(* value semantics as BDD formulas instead of imperative closures.     *)
(* ------------------------------------------------------------------ *)

type sym_pdef =
  | Sym_free
  | Sym_input of int list
  | Sym_prim of int * int
  | Sym_derived
  | Sym_alias of int

type sym_varres =
  | Sym_present of int
  | Sym_cond of int
  | Sym_condeq of int * int
  | Sym_none

type sym_view = {
  sv_prog : Prog.t;
  sv_nclasses : int;
  sv_class_of : int array;
  sv_pdefs : sym_pdef array;
  sv_mgr : Bdd.manager;
  sv_clock_bdd : Bdd.t array;
  sv_bddvars : sym_varres array;
  sv_order : [ `Pres of int | `Val of int ] array;
}

let sym_view st =
  { sv_prog = st.prog;
    sv_nclasses = st.nclasses;
    sv_class_of = st.class_of;
    sv_pdefs =
      Array.map
        (function
          | Pfree -> Sym_free
          | Pinput l -> Sym_input l
          | Pprim (p, k) -> Sym_prim (p, k)
          | Pderived -> Sym_derived
          | Palias src -> Sym_alias src)
        st.pdefs;
    sv_mgr = Calc.manager st.calc;
    sv_clock_bdd = st.clock_bdd;
    sv_bddvars =
      Array.map
        (function
          | Rpresent c -> Sym_present c
          | Rcond i -> Sym_cond i
          | Rcondeq (i, k) -> Sym_condeq (i, k)
          | Rnone -> Sym_none)
        st.bddvars;
    sv_order =
      Array.map (function Opres c -> `Pres c | Oval i -> `Val i) st.plan }

let free_class_members st =
  let acc = ref [] in
  for i = st.prog.Prog.n - 1 downto 0 do
    match st.pdefs.(st.class_of.(i)) with
    | Pfree -> acc := st.prog.Prog.names.(i) :: !acc
    | Pinput _ | Pprim _ | Pderived | Palias _ -> ()
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* C code generation (the Polychrony back-end pillar, ref [15]):       *)
(* compile the execution plan to a self-contained C program.           *)
(* ------------------------------------------------------------------ *)

let styp_of st i = st.prog.Prog.types.(i)

let to_c ?(name = "signal_step") st =
  let buf = Buffer.create 16384 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let prog = st.prog in
  let nsignals = prog.Prog.n in
  let names = prog.Prog.names in
  let is_real i = styp_of st i = Types.Treal in
  (* reject string-typed signals: no C mapping *)
  let has_string =
    Array.exists (fun ty -> ty = Types.Tstring) prog.Prog.types
  in
  if has_string then Error "string signals have no C mapping"
  else begin
    let v i = Printf.sprintf "v_%d" i in
    let p c = Printf.sprintf "p_%d" c in
    let inputs = prog.Prog.inputs in
    let input_index =
      let h = Hashtbl.create 8 in
      Array.iteri (fun k i -> Hashtbl.replace h i k) inputs;
      h
    in
    pf "/* generated by polychrony-aadl from process %s */\n"
      prog.Prog.kp.K.kname;
    pf "#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n";
    pf "static long sdiv(long a, long b){ if(!b){fprintf(stderr,\"division by zero\\n\");exit(2);} return a/b; }\n";
    pf "static long smod(long a, long b){ if(!b){fprintf(stderr,\"modulo by zero\\n\");exit(2);} return a%%b; }\n\n";
    (* signal storage *)
    for i = 0 to nsignals - 1 do
      if is_real i then pf "static double %s; /* %s */\n" (v i) names.(i)
      else pf "static long %s; /* %s */\n" (v i) names.(i)
    done;
    for c = 0 to st.nclasses - 1 do
      pf "static int %s;\n" (p c)
    done;
    (* delay state (the instance's registers hold the current values) *)
    for i = 0 to nsignals - 1 do
      if prog.Prog.delay_src.(i) >= 0 then begin
        match delay_boxed st i with
        | Types.Vreal r -> pf "static double d_%d = %.17g;\n" i r
        | Types.Vint n -> pf "static long d_%d = %d;\n" i n
        | Types.Vbool b -> pf "static long d_%d = %d;\n" i (if b then 1 else 0)
        | Types.Vevent -> pf "static long d_%d = 1;\n" i
        | Types.Vstring _ -> ()
      end
    done;
    (* primitive queues *)
    Array.iteri
      (fun k pr ->
        pf "static long q%d_buf[%d]; static int q%d_len = 0, q%d_head = 0;\n"
          k pr.lp.Prog.lp_capacity k k)
      st.prims;
    pf "\nstatic void qpush(long*buf,int cap,int*len,int*head,int policy,long x){\n";
    pf "  if(*len >= cap){\n";
    pf "    if(policy==0){ buf[*head]= 0; *head=(*head+1)%%cap; (*len)--; }\n";
    pf "    else if(policy==1){ return; }\n";
    pf "    else { fprintf(stderr,\"queue overflow\\n\"); exit(3); }\n";
    pf "  }\n";
    pf "  buf[(*head + *len) %% cap] = x; (*len)++;\n}\n";
    pf "static long qpeek(long*buf,int cap,int head){ (void)cap; return buf[head]; }\n";
    pf "static void qpop(int cap,int*len,int*head){ if(*len>0){ *head=(*head+1)%%cap; (*len)--; } }\n\n";
    (* input buffers *)
    let ni = Array.length inputs in
    pf "static int in_p[%d]; static double in_raw[%d];\n\n" (max ni 1) (max ni 1);
    (* BDD compilation *)
    let mgr = Calc.manager st.calc in
    let rec bdd_expr b =
      match Bdd.view mgr b with
      | `Leaf true -> "1"
      | `Leaf false -> "0"
      | `Node (var, lo, hi) ->
        let cond =
          match
            (if var < Array.length st.bddvars then st.bddvars.(var) else Rnone)
          with
          | Rpresent c -> p c
          | Rcond bi ->
            Printf.sprintf "(%s && %s)" (p st.class_of.(bi)) (v bi)
          | Rcondeq (xi, k) ->
            Printf.sprintf "(%s && %s == %d)" (p st.class_of.(xi)) (v xi) k
          | Rnone -> "0"
        in
        Printf.sprintf "(%s ? %s : %s)" cond (bdd_expr hi) (bdd_expr lo)
    in
    let atom_expr = function
      | Prog.Avar y -> v y
      | Prog.Aconst (Types.Vint n) -> string_of_int n
      | Prog.Aconst (Types.Vbool b) -> if b then "1" else "0"
      | Prog.Aconst Types.Vevent -> "1"
      | Prog.Aconst (Types.Vreal r) -> Printf.sprintf "%.17g" r
      | Prog.Aconst (Types.Vstring _) -> "0"
    in
    let prim_id pr st =
      let rec go k = if st.prims.(k) == pr then k else go (k + 1) in
      go 0
    in
    let prim_pres_expr pr pos =
      let ins = pr.lp.Prog.lp_ins in
      let pin k = p st.class_of.(ins.(k)) in
      match pr.lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let k = prim_id pr st in
        Printf.sprintf
          "(%s && ((%s ? 0 : q%d_len) + (%s ? 1 : 0) > 0))"
          (pin 1)
          (if has_reset then pin 2 else "0")
          k (pin 0)
      | Stdproc.Pin_event_port, 0 ->
        Printf.sprintf "(%s && q%d_len > 0)" (pin 1) (prim_id pr st)
      | Stdproc.Pout_event_port, 0 ->
        Printf.sprintf "(%s && (%s || q%d_len > 0))" (pin 1) (pin 0)
          (prim_id pr st)
      | _ -> "0"
    in
    let prim_val_expr pr pos =
      let ins = pr.lp.Prog.lp_ins in
      let cap = pr.lp.Prog.lp_capacity in
      let pin k = p st.class_of.(ins.(k)) in
      let vin k = v ins.(k) in
      let k = prim_id pr st in
      match pr.lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        Printf.sprintf
          "(((%s ? 0 : q%d_len) > 0) ? qpeek(q%d_buf,%d,q%d_head) : %s)"
          (if has_reset then pin 2 else "0")
          k k cap k (vin 0)
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 1 ->
        let has_reset = Array.length ins = 3 in
        let n0 =
          Printf.sprintf "(%s ? 0 : q%d_len)"
            (if has_reset then pin 2 else "0") k
        in
        let n1 =
          Printf.sprintf
            "(%s ? ((%s + 1) < %d ? (%s + 1) : %d) : %s)"
            (pin 0) n0 cap n0 cap n0
        in
        Printf.sprintf "((%s && %s > 0) ? %s - 1 : %s)" (pin 1) n1 n1 n1
      | Stdproc.Pin_event_port, 0 ->
        Printf.sprintf "qpeek(q%d_buf,%d,q%d_head)" k cap k
      | Stdproc.Pin_event_port, 1 -> Printf.sprintf "(long)q%d_len" k
      | Stdproc.Pout_event_port, 0 ->
        Printf.sprintf "(q%d_len > 0 ? qpeek(q%d_buf,%d,q%d_head) : %s)"
          k k cap k (vin 0)
      | _ -> "0"
    in
    (* step function *)
    pf "static void step(void){\n";
    Array.iter
      (fun op ->
        match op with
        | Opres c -> (
          match st.pdefs.(c) with
          | Pfree -> pf "  %s = 0;\n" (p c)
          | Pinput members ->
            let flags =
              List.map
                (fun i ->
                  Printf.sprintf "in_p[%d]" (Hashtbl.find input_index i))
                members
            in
            pf "  %s = %s;\n" (p c) (String.concat " || " flags)
          | Pprim (pi, pos) ->
            pf "  %s = %s;\n" (p c) (prim_pres_expr st.prims.(pi) pos)
          | Palias src -> pf "  %s = %s;\n" (p c) (p src)
          | Pderived -> pf "  %s = %s;\n" (p c) (bdd_expr st.clock_bdd.(c)))
        | Oval i ->
          let guard = p st.class_of.(i) in
          (match prog.Prog.vdefs.(i) with
           | Prog.Vnone ->
             if prog.Prog.is_input.(i) then begin
               let k = Hashtbl.find input_index i in
               if is_real i then
                 pf "  if (%s) %s = in_raw[%d];\n" guard (v i) k
               else pf "  if (%s) %s = (long)in_raw[%d];\n" guard (v i) k
             end
           | Prog.Vfunc (op, args) ->
             let e =
               match op, Array.to_list args with
               | K.Pid, [ a ] -> atom_expr a
               | K.Pclock, [ _ ] -> "1"
               | K.Punop Ast.Not, [ a ] ->
                 Printf.sprintf "(!%s)" (atom_expr a)
               | K.Punop Ast.Neg, [ a ] ->
                 Printf.sprintf "(-%s)" (atom_expr a)
               | K.Pif, [ c0; t; f ] ->
                 Printf.sprintf "(%s ? %s : %s)" (atom_expr c0) (atom_expr t)
                   (atom_expr f)
               | K.Pbinop bop, [ a; b ] ->
                 let x = atom_expr a and y = atom_expr b in
                 (match bop with
                  | Ast.Add -> Printf.sprintf "(%s + %s)" x y
                  | Ast.Sub -> Printf.sprintf "(%s - %s)" x y
                  | Ast.Mul -> Printf.sprintf "(%s * %s)" x y
                  | Ast.Div ->
                    if is_real i then Printf.sprintf "(%s / %s)" x y
                    else Printf.sprintf "sdiv(%s, %s)" x y
                  | Ast.Mod -> Printf.sprintf "smod(%s, %s)" x y
                  | Ast.And -> Printf.sprintf "(%s && %s)" x y
                  | Ast.Or -> Printf.sprintf "(%s || %s)" x y
                  | Ast.Xor -> Printf.sprintf "(!!%s != !!%s)" x y
                  | Ast.Eq -> Printf.sprintf "(%s == %s)" x y
                  | Ast.Neq -> Printf.sprintf "(%s != %s)" x y
                  | Ast.Lt -> Printf.sprintf "(%s < %s)" x y
                  | Ast.Le -> Printf.sprintf "(%s <= %s)" x y
                  | Ast.Gt -> Printf.sprintf "(%s > %s)" x y
                  | Ast.Ge -> Printf.sprintf "(%s >= %s)" x y)
               | _, _ -> "0"
             in
             pf "  if (%s) %s = %s;\n" guard (v i) e
           | Prog.Vdelay -> pf "  if (%s) %s = d_%d;\n" guard (v i) i
           | Prog.Vwhen src ->
             pf "  if (%s) %s = %s;\n" guard (v i) (atom_expr src)
           | Prog.Vdefault (l, r) ->
             let rhs =
               match l, r with
               | Prog.Aconst _, _ -> atom_expr l
               | Prog.Avar y, Prog.Aconst _ ->
                 Printf.sprintf "(%s ? %s : %s)" (p st.class_of.(y)) (v y)
                   (atom_expr r)
               | Prog.Avar y, Prog.Avar z ->
                 Printf.sprintf "(%s ? %s : %s)" (p st.class_of.(y)) (v y)
                   (v z)
             in
             pf "  if (%s) %s = %s;\n" guard (v i) rhs
           | Prog.Vprim (pi, pos) ->
             pf "  if (%s) %s = %s;\n" guard (v i)
               (prim_val_expr st.prims.(pi) pos)))
      st.plan;
    (* commit: delays then queues *)
    for i = 0 to nsignals - 1 do
      let src = prog.Prog.delay_src.(i) in
      if src >= 0 then
        pf "  if (%s) d_%d = %s;\n" (p st.class_of.(src)) i (v src)
    done;
    Array.iteri
      (fun k pr ->
        let ins = pr.lp.Prog.lp_ins in
        let cap = pr.lp.Prog.lp_capacity in
        let pin j = p st.class_of.(ins.(j)) in
        let vin j = v ins.(j) in
        let policy =
          match pr.lp.Prog.lp_policy with
          | Prog.Drop_oldest -> 0
          | Prog.Drop_newest -> 1
          | Prog.Overflow_error -> 2
        in
        match pr.lp.Prog.lp_ki.K.ki_prim with
        | Stdproc.Pfifo | Stdproc.Pfifo_reset ->
          if Array.length ins = 3 then
            pf "  if (%s) { q%d_len = 0; q%d_head = 0; }\n" (pin 2) k k;
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0);
          pf "  if (%s) qpop(%d,&q%d_len,&q%d_head);\n" (pin 1) cap k k
        | Stdproc.Pin_event_port ->
          pf "  if (%s) { q%d_len = 0; q%d_head = 0; }\n" (pin 1) k k;
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0)
        | Stdproc.Pout_event_port ->
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0);
          pf "  if (%s) qpop(%d,&q%d_len,&q%d_head);\n" (pin 1) cap k k)
      st.prims;
    pf "}\n\n";
    (* main: read stimuli lines, run, print present signals *)
    pf "int main(void){\n";
    pf "  char line[1 << 16];\n";
    pf "  while (fgets(line, sizeof line, stdin)) {\n";
    pf "    char *tok = strtok(line, \" \\t\\r\\n\");\n";
    pf "    for (int k = 0; k < %d; k++) {\n" ni;
    pf "      if (!tok || (tok[0]=='-' && tok[1]==0)) { in_p[k]=0; in_raw[k]=0; }\n";
    pf "      else { in_p[k]=1; in_raw[k]=strtod(tok, 0); }\n";
    pf "      if (tok) tok = strtok(0, \" \\t\\r\\n\");\n";
    pf "    }\n";
    pf "    step();\n";
    for i = 0 to nsignals - 1 do
      if is_real i then
        pf "    if (%s) printf(\"%s=%%.17g \", %s);\n" (p st.class_of.(i))
          names.(i) (v i)
      else
        pf "    if (%s) printf(\"%s=%%ld \", %s);\n" (p st.class_of.(i))
          names.(i) (v i)
    done;
    pf "    printf(\"\\n\");\n";
    pf "  }\n  return 0;\n}\n";
    ignore name;
    Metrics.set m_codegen_bytes (Buffer.length buf);
    Ok (Buffer.contents buf)
  end
