(* Symbolic bounded reachability over BDDs: current/next/input variable
   rails, a relational-product image step, and exact error regions, all
   rebuilt from the compiled plan's introspection view. *)

module K = Signal_lang.Kernel
module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Bdd = Clocks.Bdd
module Metrics = Putil.Metrics
module Tracing = Putil.Tracing

let m_checks = Metrics.counter "explore.sym.checks"
let m_images = Metrics.counter "explore.sym.image_steps"
let m_unsupported = Metrics.counter "explore.sym.unsupported"
let m_states = Metrics.gauge "explore.sym.states"
let m_state_bits = Metrics.gauge "explore.sym.state_bits"
let m_trans_nodes = Metrics.gauge "explore.sym.trans_nodes"
let m_peak_nodes = Metrics.gauge "explore.sym.peak_nodes"
let m_gcs = Metrics.gauge "explore.sym.gc_collections"
let m_check_ns = Metrics.timer "explore.sym.check_ns"
let m_domain_evals = Metrics.counter "explore.sym.domain_evals"

let code_unsupported =
  Putil.Diag.code "EXPLORE-SYM-001"
    "process is outside the symbolically checkable fragment"

(* Raised (internally) on any construct the encoding cannot express
   exactly; surfaced as an EXPLORE-SYM-001 diagnostic so `--engine
   auto` can fall back to the explicit engine. *)
exception Unsupported of string

let unsup fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

type prop =
  | Never_present of Ast.ident
  | Never_value of Ast.ident * Types.value

let safe_of_prop prop present =
  match prop with
  | Never_present x -> not (List.mem_assoc x present)
  | Never_value (x, v) ->
    not
      (List.exists
         (fun (n, v') -> String.equal n x && Types.equal_value v' v)
         present)

type outcome =
  | Sym_holds of { states : float; depth_used : int; fixpoint : bool }
  | Sym_cex of {
      kind : [ `Violation | `Runtime_error ];
      stimuli : (Ast.ident * Types.value) list list;
      states : float;
    }

(* ------------------------------------------------------------------ *)
(* Value identity and finite domains                                   *)
(* ------------------------------------------------------------------ *)

(* Structural identity. NOT Types.equal_value: state codes must
   distinguish Vevent from Vbool true, and reals compare by bits. *)
let same_value a b =
  match a, b with
  | Types.Vint x, Types.Vint y -> Int.equal x y
  | Types.Vbool x, Types.Vbool y -> Bool.equal x y
  | Types.Vevent, Types.Vevent -> true
  | Types.Vreal x, Types.Vreal y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Types.Vstring x, Types.Vstring y -> String.equal x y
  | _ -> false

(* [same_value] implies structural equality, so the generic hash (no
   allocation) is compatible with it *)
module Vtbl = Hashtbl.Make (struct
  type t = Types.value

  let equal = same_value
  let hash = Hashtbl.hash
end)

(* Mirrors Compile.atom_equal / Types.equal_value (event/bool cross). *)
let veq a b =
  match a, b with
  | Types.Vevent, Types.Vevent -> true
  | Types.Vevent, Types.Vbool b | Types.Vbool b, Types.Vevent -> b
  | Types.Vint x, Types.Vint y -> x = y
  | Types.Vbool x, Types.Vbool y -> x = y
  | Types.Vreal x, Types.Vreal y -> x = y
  | Types.Vstring x, Types.Vstring y -> String.equal x y
  | _ -> false

type dom = Dset of Types.value list | Dtop

let dom_cap = 64
let queue_cap_max = 16
let part_cap = 128

(* Non-error result of an arithmetic binop on two concrete values;
   mirrors Compile.exec_binop (int ops, real ops sans Mod). *)
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

(* A domain under construction: values in insertion order (that order
   becomes the register's state codes) plus an index for membership.
   Adding a value past [dom_cap] turns the domain into top. *)
type vdom = {
  mutable top : bool;
  mutable vals : Types.value array;
  mutable len : int;
  index : unit Vtbl.t;
}

let vdom_add d v =
  if not (d.top || Vtbl.mem d.index v) then
    if d.len >= dom_cap then d.top <- true
    else begin
      if d.len = Array.length d.vals then begin
        let vals = Array.make (min dom_cap (max 4 (2 * d.len))) v in
        Array.blit d.vals 0 vals 0 d.len;
        d.vals <- vals
      end;
      d.vals.(d.len) <- v;
      d.len <- d.len + 1;
      Vtbl.add d.index v ()
    end

(* The atoms whose values a signal's transfer maps into its domain, in
   the order it reads them; a constant stands for a value the transfer
   always adds *)
let operands (prog : Prog.t) (in_dom : dom array) i =
  let consts vs = Array.of_list (List.map (fun v -> Prog.Aconst v) vs) in
  match prog.Prog.vdefs.(i) with
  | Prog.Vnone -> (
    match in_dom.(i) with
    | Dset vs when prog.Prog.is_input.(i) -> consts vs
    | _ -> [||])
  | Prog.Vfunc (op, args) -> (
    match op, Array.length args with
    | (K.Pid | K.Punop _), 1 -> args
    | K.Pclock, 1 -> consts [ Types.Vevent ]
    | K.Pif, 3 -> [| args.(1); args.(2) |]
    | K.Pbinop (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), 2 -> args
    | K.Pbinop _, 2 -> consts [ Types.Vbool true; Types.Vbool false ]
    | _ -> [||])
  | Prog.Vdelay ->
    let init = Prog.Aconst prog.Prog.delay_init.(i) in
    let src = prog.Prog.delay_src.(i) in
    if src >= 0 then [| init; Prog.Avar src |] else [| init |]
  | Prog.Vwhen a -> [| a |]
  | Prog.Vdefault (l, r) -> [| l; r |]
  | Prog.Vprim (pi, pos) ->
    let lp = prog.Prog.prims.(pi) in
    if pos = 0 then [| Prog.Avar lp.Prog.lp_ins.(0) |]
    else consts (List.init (max 1 lp.Prog.lp_capacity + 1) (fun k -> Types.Vint k))

(* Least fixpoint of per-signal value domains. [in_dom.(i)] is the
   domain an input signal draws from its stimulus alternatives.

   Signals are swept in index order until a sweep changes nothing, and
   each transfer adds its results straight into the signal's domain.
   Domains only grow, so a domain's length is its change stamp: each
   signal remembers the operand lengths its transfer last consumed, is
   skipped while none of them grew, and otherwise reads only the
   operand values added since. Every value the transfer would compute
   from the older operand values is already in its domain, so re-adding
   it would change nothing: the result — values and their order — is
   that of re-evaluating every transfer in full on every sweep. Any top
   operand makes the result top. *)
let value_domains (prog : Prog.t) (in_dom : dom array) =
  let n = prog.Prog.n in
  let doms =
    Array.init n (fun i ->
        let top =
          match prog.Prog.vdefs.(i), in_dom.(i) with
          | Prog.Vnone, Dtop -> prog.Prog.is_input.(i)
          | _ -> false
        in
        { top; vals = [||]; len = 0; index = Vtbl.create 8 })
  in
  let args = Array.init n (operands prog in_dom) in
  (* [seen.(i).(k)]: length of operand k when transfer i last ran *)
  let seen = Array.map (fun a -> Array.make (Array.length a) 0) args in
  let len = function Prog.Aconst _ -> 1 | Prog.Avar y -> doms.(y).len in
  let is_top = function
    | Prog.Aconst _ -> false
    | Prog.Avar y -> doms.(y).top
  in
  let get a k =
    match a with Prog.Aconst v -> v | Prog.Avar y -> doms.(y).vals.(k)
  in
  let stale i =
    let a = args.(i) and lo = seen.(i) in
    let rec grew k =
      k < Array.length a && (is_top a.(k) || len a.(k) > lo.(k) || grew (k + 1))
    in
    grew 0
  in
  (* add to [d] the results on operand values at [lo, hi) *)
  let transfer i d lo hi =
    let a = args.(i) in
    let map f =
      Array.iteri
        (fun k x ->
          for j = lo.(k) to hi.(k) - 1 do
            Option.iter (vdom_add d) (f (get x j))
          done)
        a
    in
    match prog.Prog.vdefs.(i) with
    | Prog.Vfunc (K.Punop Ast.Not, _) ->
      map (function
        | Types.Vbool b -> Some (Types.Vbool (not b))
        | Types.Vevent -> Some (Types.Vbool false)
        | _ -> None)
    | Prog.Vfunc (K.Punop Ast.Neg, _) ->
      map (function
        | Types.Vint x -> Some (Types.Vint (-x))
        | Types.Vreal x -> Some (Types.Vreal (-.x))
        | _ -> None)
    | Prog.Vfunc
        (K.Pbinop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as bop), _)
      ->
      (* the pairs with at least one new component, in the full cross
         product's order; a product with more than [dom_cap] distinct
         results overflows [d], which receives them all *)
      for x = 0 to hi.(0) - 1 do
        for y = (if x < lo.(0) then lo.(1) else 0) to hi.(1) - 1 do
          Option.iter (vdom_add d) (arith bop (get a.(0) x) (get a.(1) y))
        done
      done
    | _ -> map Option.some
  in
  let evals = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let d = doms.(i) in
      if (not d.top) && stale i then begin
        incr evals;
        let len0 = d.len in
        if Array.exists is_top args.(i) then d.top <- true
        else begin
          let hi = Array.map len args.(i) in
          transfer i d seen.(i) hi;
          seen.(i) <- hi
        end;
        if d.top || d.len <> len0 then changed := true
      end
    done
  done;
  Metrics.incr ~by:!evals m_domain_evals;
  Array.map
    (fun d ->
      if d.top then Dtop else Dset (Array.to_list (Array.sub d.vals 0 d.len)))
    doms

(* ------------------------------------------------------------------ *)
(* Bit encodings                                                       *)
(* ------------------------------------------------------------------ *)

(* bits needed to encode codes 0..m-1 *)
let ceil_log2 m =
  if m <= 1 then 0
  else begin
    let b = ref 0 in
    while 1 lsl !b < m do
      incr b
    done;
    !b
  end

(* A finite-value register encoding over a contiguous run of state
   bits: code j <-> vals.(j), binary over ebits bits from ebase. *)
type enc = { vals : Types.value array; ebits : int; ebase : int }

(* One listed input: presence guard, optional selector rail, and the
   per-value stimulus guards (entry guards are disjoint, sum to
   [ipres]; selector codes >= m-1 alias the last value). *)
type ienc = {
  ii : int;
  ipres : Bdd.t;
  ipvar : int; (* presence var id, -1 when statically decided *)
  ivals : Types.value array;
  iselbase : int; (* first selector var id, -1 when 0/1 values *)
  iselbits : int;
  ientries : (Types.value * Bdd.t) list;
}

(* One FIFO primitive: canonical shift-register cells (cell 0 = head,
   cells >= len forced to code 0) plus an int-coded length. *)
type qenc = {
  qpi : int;
  qcap : int;
  qpolicy : Prog.overflow_policy;
  qcell : Types.value array;
  qcbits : int;
  qcbase : int array; (* per cell: first state bit *)
  qlbits : int;
  qlbase : int;
}

let vindex vals v =
  Option.value ~default:(-1) (Array.find_index (same_value v) vals)

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let run_exn ~depth ~inputs ~prop c =
  let sv = Compile.sym_view c in
  let prog = sv.Compile.sv_prog in
  let n = prog.Prog.n in
  if depth <= 0 then
    Sym_holds { states = 0.; depth_used = 0; fixpoint = false }
  else if List.exists (fun (_, alts) -> alts = []) inputs then
    (* no stimulus combination exists: the explicit engines explore
       nothing beyond the initial state *)
    Sym_holds { states = 1.; depth_used = 0; fixpoint = true }
  else begin
    let in_specs =
      List.map
        (fun (name, alts) ->
          match Prog.index_opt prog name with
          | None -> unsup "stimulus for unknown signal %s" name
          | Some i ->
            if not prog.Prog.is_input.(i) then
              unsup "stimulus for non-input signal %s" name;
            let has_none = List.mem None alts in
            let vals =
              List.fold_left
                (fun acc a ->
                  match a with
                  | None -> acc
                  | Some v ->
                    if List.exists (same_value v) acc then acc
                    else v :: acc)
                [] alts
            in
            (i, has_none, Array.of_list (List.rev vals)))
        inputs
    in
    (* a doubly-listed input would make the explicit cross-product
       enumerate it twice (the later assoc entry overwriting the
       earlier stimulus write); refuse rather than approximate *)
    let seen_in = Hashtbl.create 8 in
    List.iter
      (fun (i, _, _) ->
        if Hashtbl.mem seen_in i then
          unsup "input %s listed twice" prog.Prog.names.(i);
        Hashtbl.add seen_in i ())
      in_specs;
    let in_dom = Array.make n (Dset []) in
    List.iter
      (fun (i, _, vals) -> in_dom.(i) <- Dset (Array.to_list vals))
      in_specs;
    let doms = value_domains prog in_dom in
    (* ---- state bit allocation: delay registers, then queues ---- *)
    let sbn = ref 0 in
    let alloc bits =
      let b = !sbn in
      sbn := !sbn + bits;
      b
    in
    let regs =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        match prog.Prog.vdefs.(i) with
        | Prog.Vdelay -> (
          match doms.(i) with
          | Dtop ->
            unsup "delay register %s has an unbounded value domain"
              prog.Prog.names.(i)
          | Dset vs -> acc := (i, Array.of_list vs) :: !acc)
        | _ -> ()
      done;
      List.map
        (fun (i, vals) ->
          let b = ceil_log2 (Array.length vals) in
          (i, { vals; ebits = b; ebase = alloc b }))
        !acc
    in
    let reg_of = Array.make n None in
    List.iter (fun (i, e) -> reg_of.(i) <- Some e) regs;
    let queues =
      Array.mapi
        (fun pi lp ->
          let cap = max 1 lp.Prog.lp_capacity in
          if cap > queue_cap_max then
            unsup "queue %s capacity %d exceeds the symbolic bound %d"
              lp.Prog.lp_ki.K.ki_label cap queue_cap_max;
          let qcell =
            match doms.(lp.Prog.lp_ins.(0)) with
            | Dtop ->
              unsup "queue %s has an unbounded element domain"
                lp.Prog.lp_ki.K.ki_label
            | Dset vs -> Array.of_list vs
          in
          let qcbits = ceil_log2 (Array.length qcell) in
          let qlbits = ceil_log2 (cap + 1) in
          let qlbase = alloc qlbits in
          let qcbase = Array.init cap (fun _ -> alloc qcbits) in
          { qpi = pi; qcap = cap; qpolicy = lp.Prog.lp_policy; qcell;
            qcbits; qcbase; qlbits; qlbase })
        prog.Prog.prims
    in
    let nbits = !sbn in
    Metrics.set m_state_bits nbits;
    (* ---- variable order ----
       Current/next state bits stay interleaved (cur = v, next = v+1),
       but blocks are laid out per synchronization class with that
       class's INPUT variables immediately after its state bits. With
       inputs above every state rail instead, the transition relation
       of k independent components must remember one pending input
       constraint per component across the whole state section — an
       exponential cut. Keeping each input next to the registers it
       clocks keeps the relation linear in k (measured: the counter
       family drops from exponential to linear node counts). *)
    let class_of i = sv.Compile.sv_class_of.(i) in
    let sb_class = Array.make (max nbits 1) (-1) in
    List.iter
      (fun (i, e) -> Array.fill sb_class e.ebase e.ebits (class_of i))
      regs;
    Array.iter
      (fun q ->
        let lp = prog.Prog.prims.(q.qpi) in
        let c = class_of lp.Prog.lp_ins.(0) in
        Array.fill sb_class q.qlbase q.qlbits c;
        Array.iter (fun cb -> Array.fill sb_class cb q.qcbits c) q.qcbase)
      queues;
    let in_width (_, has_none, vals) =
      let m = Array.length vals in
      (if has_none && m > 0 then 1 else 0) + ceil_log2 m
    in
    let svar = Array.make (max nbits 1) (-1) in
    let ibase = Hashtbl.create 8 in
    let nvars =
      let vctr = ref 0 in
      let seen = Hashtbl.create 8 in
      let classes = ref [] in
      for sb = 0 to nbits - 1 do
        let c = sb_class.(sb) in
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          classes := c :: !classes
        end
      done;
      List.iter
        (fun (i, _, _) ->
          let c = class_of i in
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            classes := c :: !classes
          end)
        in_specs;
      List.iter
        (fun c ->
          for sb = 0 to nbits - 1 do
            if sb_class.(sb) = c then begin
              svar.(sb) <- !vctr;
              vctr := !vctr + 2
            end
          done;
          List.iter
            (fun ((i, _, _) as spec) ->
              if class_of i = c then begin
                Hashtbl.replace ibase i !vctr;
                vctr := !vctr + in_width spec
              end)
            in_specs)
        (List.rev !classes);
      !vctr
    in
    let mgr = Bdd.manager () in
    let zero = Bdd.zero mgr and one = Bdd.one mgr in
    let b_and = Bdd.and_ mgr
    and b_or = Bdd.or_ mgr
    and b_not = Bdd.not_ mgr in
    let cur sb = Bdd.var mgr svar.(sb) in
    let nxt sb = Bdd.var mgr (svar.(sb) + 1) in
    (* bits [base..base+bits-1] on [rail] hold the binary code *)
    let code_guard rail base bits code =
      let g = ref one in
      for b = 0 to bits - 1 do
        let v = rail (base + b) in
        g := b_and !g (if (code lsr b) land 1 = 1 then v else b_not v)
      done;
      !g
    in
    let iencs =
      List.map
        (fun (i, has_none, vals) ->
          let m = Array.length vals in
          let base = Hashtbl.find ibase i in
          let ipvar = if has_none && m > 0 then base else -1 in
          let ipres =
            if m = 0 then zero
            else if ipvar >= 0 then Bdd.var mgr ipvar
            else one
          in
          let iselbits = ceil_log2 m in
          let iselbase =
            if iselbits > 0 then base + (if ipvar >= 0 then 1 else 0)
            else -1
          in
          let irail v = Bdd.var mgr v in
          let ientries =
            if m = 0 then []
            else if m = 1 then [ (vals.(0), ipres) ]
            else begin
              let gs =
                Array.init (m - 1) (fun j ->
                  code_guard irail iselbase iselbits j)
              in
              let others = Array.fold_left b_or zero gs in
              List.init m (fun j ->
                let g = if j < m - 1 then gs.(j) else b_not others in
                (vals.(j), b_and ipres g))
            end
          in
          { ii = i; ipres; ipvar; ivals = vals; iselbase; iselbits;
            ientries })
        in_specs
    in
    let ienc_of = Array.make n None in
    List.iter (fun ie -> ienc_of.(ie.ii) <- Some ie) iencs;
    (* ---- one symbolic instant, in plan order: class presence,
       per-signal value partitions, and the exact error region.
       A partition maps each producible value to the (state, input)
       region producing it; the region left uncovered under the
       class's presence is precisely where the explicit step raises,
       so err accumulates pc ∧ ¬Σguards per value op. ---- *)
    let nclasses = sv.Compile.sv_nclasses in
    let class_of = sv.Compile.sv_class_of in
    let pres_b = Array.make nclasses zero in
    let parts : (Types.value * Bdd.t) list array = Array.make n [] in
    let err = ref zero in
    let add_err g = err := b_or !err g in
    let sum es = List.fold_left (fun a (_, g) -> b_or a g) zero es in
    let truthy es =
      sum
        (List.filter
           (fun (v, _) ->
             match v with
             | Types.Vbool true | Types.Vevent -> true
             | _ -> false)
           es)
    in
    let falsy es =
      sum
        (List.filter
           (fun (v, _) -> match v with Types.Vbool false -> true | _ -> false)
           es)
    in
    let merge es =
      let slot = Vtbl.create 8 in
      let out = ref [] in (* newest first *)
      List.iter
        (fun (v, g) ->
          if not (Bdd.is_zero g) then
            match Vtbl.find_opt slot v with
            | Some r -> r := b_or !r g
            | None ->
              let r = ref g in
              Vtbl.add slot v r;
              out := (v, r) :: !out)
        es;
      let es = List.rev_map (fun (v, r) -> (v, !r)) !out in
      if List.length es > part_cap then
        unsup "a value partition exceeds %d entries" part_cap;
      es
    in
    let apart = function
      | Prog.Avar y -> parts.(y)
      | Prog.Aconst v -> [ (v, one) ]
    in
    let avail a = sum (apart a) in
    let q_len_is q l = code_guard cur q.qlbase q.qlbits l in
    let q_len_pos q = b_not (q_len_is q 0) in
    (* clear/push/pop guards in unified commit order (absent ops are
       the zero clock), mirroring Compile.commit_prim *)
    let prim_guards pi =
      let lp = prog.Prog.prims.(pi) in
      let ins = lp.Prog.lp_ins in
      let p k = pres_b.(class_of.(ins.(k))) in
      match lp.Prog.lp_ki.K.ki_prim with
      | Stdproc.Pfifo | Stdproc.Pfifo_reset ->
        ((if Array.length ins = 3 then p 2 else zero), p 0, p 1)
      | Stdproc.Pin_event_port -> (p 1, p 0, zero)
      | Stdproc.Pout_event_port -> (zero, p 0, p 1)
    in
    (* clock-calculus BDD -> (value, error) formulas over our rails;
       mirrors Compile.bdd_env including its && short-circuits (an
       absent or unset condition variable reads false, no error) *)
    let resolve_var var =
      if var >= Array.length sv.Compile.sv_bddvars then (zero, zero)
      else
        match sv.Compile.sv_bddvars.(var) with
        | Compile.Sym_present cl -> (pres_b.(cl), zero)
        | Compile.Sym_cond bi ->
          let es = parts.(bi) in
          let nonbool =
            sum
              (List.filter
                 (fun (v, _) ->
                   match v with
                   | Types.Vbool _ | Types.Vevent -> false
                   | _ -> true)
                 es)
          in
          (truthy es, nonbool)
        | Compile.Sym_condeq (xi, k) ->
          let es = parts.(xi) in
          ( sum
              (List.filter
                 (fun (v, _) ->
                   match v with Types.Vint j -> j = k | _ -> false)
                 es),
            zero )
        | Compile.Sym_none -> (zero, zero)
    in
    let convmemo : (int, Bdd.t * Bdd.t) Hashtbl.t = Hashtbl.create 64 in
    let smgr = sv.Compile.sv_mgr in
    let rec conv_clock b =
      match Hashtbl.find_opt convmemo (Bdd.id b) with
      | Some r -> r
      | None ->
        let r =
          match Bdd.view smgr b with
          | `Leaf bb -> ((if bb then one else zero), zero)
          | `Node (var, lo, hi) ->
            let vv, ve = resolve_var var in
            let lv, le = conv_clock lo in
            let hv, he = conv_clock hi in
            ( b_or (b_and vv hv) (b_and (b_not vv) lv),
              b_or ve (b_or (b_and vv he) (b_and (b_not vv) le)) )
        in
        Hashtbl.add convmemo (Bdd.id b) r;
        r
    in
    let compute_pres cls =
      match sv.Compile.sv_pdefs.(cls) with
      | Compile.Sym_free -> zero
      | Compile.Sym_input ms ->
        let g_of i =
          match ienc_of.(i) with Some ie -> ie.ipres | None -> zero
        in
        let pc = List.fold_left (fun a i -> b_or a (g_of i)) zero ms in
        (* synchronous inputs disagreeing on presence is a step error *)
        List.iter (fun i -> add_err (b_and pc (b_not (g_of i)))) ms;
        pc
      | Compile.Sym_prim (pi, pos) -> (
        let q = queues.(pi) in
        let cl, pu, po = prim_guards pi in
        match prog.Prog.prims.(pi).Prog.lp_ki.K.ki_prim, pos with
        | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
          b_and po (b_or pu (b_and (b_not cl) (q_len_pos q)))
        | Stdproc.Pin_event_port, 0 -> b_and cl (q_len_pos q)
        | Stdproc.Pout_event_port, 0 -> b_and po (b_or pu (q_len_pos q))
        | _, _ -> unsup "unsupported primitive presence shape")
      | Compile.Sym_derived ->
        let v, e = conv_clock sv.Compile.sv_clock_bdd.(cls) in
        add_err e;
        v
      | Compile.Sym_alias _ ->
        (* handled at the plan-order walk, where the source class's
           presence formula is already available *)
        assert false
    in
    (* non-error result regions of a binop, mirroring
       Compile.exec_binop's checks and short-circuits exactly *)
    let binop_entries bop ea eb =
      let ab = sum eb in
      match bop with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
        List.concat_map
          (fun (va, ga) ->
            List.filter_map
              (fun (vb, gb) ->
                match arith bop va vb with
                | Some v -> Some (v, b_and ga gb)
                | None -> None)
              eb)
          ea
      | Ast.And ->
        let ta = truthy ea and fa = falsy ea in
        let tb = truthy eb and fb = falsy eb in
        (* false && x short-circuits x's boolean check *)
        [ (Types.Vbool false, b_and fa ab);
          (Types.Vbool true, b_and ta tb);
          (Types.Vbool false, b_and ta fb) ]
      | Ast.Or ->
        let ta = truthy ea and fa = falsy ea in
        let tb = truthy eb and fb = falsy eb in
        [ (Types.Vbool true, b_and ta ab);
          (Types.Vbool true, b_and fa tb);
          (Types.Vbool false, b_and fa fb) ]
      | Ast.Xor ->
        let ta = truthy ea and fa = falsy ea in
        let tb = truthy eb and fb = falsy eb in
        [ (Types.Vbool true, b_or (b_and ta fb) (b_and fa tb));
          (Types.Vbool false, b_or (b_and ta tb) (b_and fa fb)) ]
      | Ast.Eq | Ast.Neq ->
        let neg = bop = Ast.Neq in
        List.concat_map
          (fun (va, ga) ->
            List.map
              (fun (vb, gb) ->
                (Types.Vbool (veq va vb <> neg), b_and ga gb))
              eb)
          ea
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        List.concat_map
          (fun (va, ga) ->
            List.filter_map
              (fun (vb, gb) ->
                let cmp =
                  match va, vb with
                  | Types.Vint x, Types.Vint y -> Some (Int.compare x y)
                  | Types.Vreal x, Types.Vreal y -> Some (Float.compare x y)
                  | Types.Vstring x, Types.Vstring y ->
                    Some (String.compare x y)
                  | _ -> None
                in
                match cmp with
                | None -> None
                | Some r ->
                  let b =
                    match bop with
                    | Ast.Lt -> r < 0
                    | Ast.Le -> r <= 0
                    | Ast.Gt -> r > 0
                    | _ -> r >= 0
                  in
                  Some (Types.Vbool b, b_and ga gb))
              eb)
          ea
    in
    let compute_entries i =
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone -> (
        match ienc_of.(i) with Some ie -> ie.ientries | None -> [])
      | Prog.Vfunc (op, args) -> (
        match op, Array.length args with
        | K.Pid, 1 -> apart args.(0)
        | K.Pclock, 1 -> [ (Types.Vevent, avail args.(0)) ]
        | K.Punop Ast.Not, 1 ->
          List.filter_map
            (fun (v, g) ->
              match v with
              | Types.Vbool b -> Some (Types.Vbool (not b), g)
              | Types.Vevent -> Some (Types.Vbool false, g)
              | _ -> None)
            (apart args.(0))
        | K.Punop Ast.Neg, 1 ->
          List.filter_map
            (fun (v, g) ->
              match v with
              | Types.Vint x -> Some (Types.Vint (-x), g)
              | Types.Vreal x -> Some (Types.Vreal (-.x), g)
              | _ -> None)
            (apart args.(0))
        | K.Pif, 3 ->
          let ea = apart args.(0) in
          let et = apart args.(1) and ef = apart args.(2) in
          let at = sum et and af = sum ef in
          let ct = truthy ea and cf = falsy ea in
          List.map (fun (v, g) -> (v, b_and g (b_and ct af))) et
          @ List.map (fun (v, g) -> (v, b_and g (b_and cf at))) ef
        | K.Pbinop bop, 2 -> binop_entries bop (apart args.(0)) (apart args.(1))
        | _ -> [] (* malformed arity: always errors when present *))
      | Prog.Vdelay -> (
        match reg_of.(i) with
        | Some e ->
          List.init (Array.length e.vals) (fun j ->
            (e.vals.(j), code_guard cur e.ebase e.ebits j))
        | None -> assert false)
      | Prog.Vwhen a -> apart a
      | Prog.Vdefault (l, r) -> (
        match l with
        | Prog.Aconst v -> [ (v, one) ]
        | Prog.Avar y ->
          let pcy = pres_b.(class_of.(y)) in
          let rest =
            match r with
            | Prog.Aconst v -> [ (v, b_not pcy) ]
            | Prog.Avar z ->
              List.map (fun (v, g) -> (v, b_and g (b_not pcy))) parts.(z)
          in
          parts.(y) @ rest)
      | Prog.Vprim (pi, pos) -> (
        let lp = prog.Prog.prims.(pi) in
        let q = queues.(pi) in
        let cl, pu, po = prim_guards pi in
        let head_entries g =
          List.init (Array.length q.qcell) (fun j ->
            (q.qcell.(j), b_and g (code_guard cur q.qcbase.(0) q.qcbits j)))
        in
        match lp.Prog.lp_ki.K.ki_prim, pos with
        | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
          let qpos = b_and (b_not cl) (q_len_pos q) in
          head_entries qpos
          @ List.map
              (fun (v, g) -> (v, b_and g (b_not qpos)))
              parts.(lp.Prog.lp_ins.(0))
        | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 1 ->
          let out = ref [] in
          for l = 0 to q.qcap do
            let lg = q_len_is q l in
            List.iter
              (fun (gc, qlen0) ->
                let pushed =
                  let m = qlen0 + 1 in
                  if m < q.qcap then m else q.qcap
                in
                List.iter
                  (fun (gp, n1) ->
                    List.iter
                      (fun (go, res) ->
                        out :=
                          ( Types.Vint res,
                            b_and lg (b_and gc (b_and gp go)) )
                          :: !out)
                      [ (po, (if n1 > 0 then n1 - 1 else n1));
                        (b_not po, n1) ])
                  [ (pu, pushed); (b_not pu, qlen0) ])
              [ (cl, 0); (b_not cl, l) ]
          done;
          !out
        | Stdproc.Pin_event_port, 0 -> head_entries one
        | Stdproc.Pin_event_port, 1 ->
          List.init (q.qcap + 1) (fun l -> (Types.Vint l, q_len_is q l))
        | Stdproc.Pout_event_port, 0 ->
          let lpos = q_len_pos q in
          head_entries lpos
          @ List.map
              (fun (v, g) -> (v, b_and g (b_not lpos)))
              parts.(lp.Prog.lp_ins.(0))
        | _, _ -> unsup "unsupported primitive value shape")
    in
    (* walk the toposorted schedule *)
    Array.iter
      (function
        | `Pres cls ->
          pres_b.(cls) <-
            (match sv.Compile.sv_pdefs.(cls) with
            (* plan order guarantees the source class is computed *)
            | Compile.Sym_alias src -> pres_b.(src)
            | _ -> compute_pres cls)
        | `Val i ->
          let pc = pres_b.(class_of.(i)) in
          let es =
            merge (List.map (fun (v, g) -> (v, b_and g pc)) (compute_entries i))
          in
          parts.(i) <- es;
          add_err (b_and pc (b_not (sum es))))
      sv.Compile.sv_order;
    (* ---- transition relation: next-rail constraints over delay
       registers and queue shift-registers; error regions make no
       transition ---- *)
    let xnor a b = b_not (Bdd.xor_ mgr a b) in
    let t_rel = ref one in
    let () =
      Tracing.with_span "explore.sym.build" @@ fun () ->
      List.iter
        (fun (i, e) ->
          let src = prog.Prog.delay_src.(i) in
          let psrc = if src >= 0 then pres_b.(class_of.(src)) else zero in
          let m = Array.length e.vals in
          let ng = Array.make m zero in
          if src >= 0 then
            List.iter
              (fun (v, g) ->
                let j = vindex e.vals v in
                if j < 0 then
                  unsup "register %s: committed value outside its domain"
                    prog.Prog.names.(i)
                else ng.(j) <- b_or ng.(j) g)
              parts.(src);
          for j = 0 to m - 1 do
            ng.(j) <-
              b_or ng.(j)
                (b_and (b_not psrc) (code_guard cur e.ebase e.ebits j))
          done;
          for b = 0 to e.ebits - 1 do
            let f = ref zero in
            for j = 0 to m - 1 do
              if (j lsr b) land 1 = 1 then f := b_or !f ng.(j)
            done;
            t_rel := b_and !t_rel (xnor (nxt (e.ebase + b)) !f)
          done)
        regs;
      Array.iter
        (fun q ->
          let lp = prog.Prog.prims.(q.qpi) in
          let cl, pu, po = prim_guards q.qpi in
          (* bit formulas of the pushed value's cell code *)
          let pv = Array.make (max 1 q.qcbits) zero in
          List.iter
            (fun (v, g) ->
              let j = vindex q.qcell v in
              if j >= 0 then
                for b = 0 to q.qcbits - 1 do
                  if (j lsr b) land 1 = 1 then pv.(b) <- b_or pv.(b) g
                done)
            parts.(lp.Prog.lp_ins.(0));
          let len_f = Array.make (max 1 q.qlbits) zero in
          let cell_f = Array.make_matrix q.qcap (max 1 q.qcbits) zero in
          (* [lay] is the final live layout: `O j = old cell j, `N =
             the pushed value; dead cells keep code 0 *)
          let add_branch g lay =
            if not (Bdd.is_zero g) then begin
              let nl = Array.length lay in
              for b = 0 to q.qlbits - 1 do
                if (nl lsr b) land 1 = 1 then
                  len_f.(b) <- b_or len_f.(b) g
              done;
              Array.iteri
                (fun k src ->
                  match src with
                  | `N ->
                    for b = 0 to q.qcbits - 1 do
                      cell_f.(k).(b) <-
                        b_or cell_f.(k).(b) (b_and g pv.(b))
                    done
                  | `O j ->
                    for b = 0 to q.qcbits - 1 do
                      cell_f.(k).(b) <-
                        b_or cell_f.(k).(b)
                          (b_and g (cur (q.qcbase.(j) + b)))
                    done)
                lay
            end
          in
          for l = 0 to q.qcap do
            let lg = q_len_is q l in
            List.iter
              (fun (gc, l0) ->
                List.iter
                  (fun (gp, push) ->
                    let after_push =
                      if not push then
                        Some (Array.init l0 (fun k -> `O k))
                      else if l0 < q.qcap then
                        Some
                          (Array.init (l0 + 1) (fun k ->
                               if k = l0 then `N else `O k))
                      else
                        match q.qpolicy with
                        | Prog.Drop_oldest ->
                          Some
                            (Array.init q.qcap (fun k ->
                                 if k = q.qcap - 1 then `N else `O (k + 1)))
                        | Prog.Drop_newest ->
                          Some (Array.init q.qcap (fun k -> `O k))
                        | Prog.Overflow_error -> None
                    in
                    match after_push with
                    | None ->
                      (* overflow with Error policy aborts the step *)
                      add_err (b_and lg (b_and gc gp))
                    | Some lay ->
                      List.iter
                        (fun (go, pop) ->
                          let l1 = Array.length lay in
                          let fin =
                            if pop && l1 > 0 then Array.sub lay 1 (l1 - 1)
                            else lay
                          in
                          add_branch (b_and lg (b_and gc (b_and gp go))) fin)
                        [ (po, true); (b_not po, false) ])
                  [ (pu, true); (b_not pu, false) ])
              [ (cl, 0); (b_not cl, l) ]
          done;
          for b = 0 to q.qlbits - 1 do
            t_rel := b_and !t_rel (xnor (nxt (q.qlbase + b)) len_f.(b))
          done;
          for k = 0 to q.qcap - 1 do
            for b = 0 to q.qcbits - 1 do
              t_rel :=
                b_and !t_rel (xnor (nxt (q.qcbase.(k) + b)) cell_f.(k).(b))
            done
          done)
        queues
    in
    let err_f = !err in
    let bad =
      match prop with
      | Never_present x -> (
        match Prog.index_opt prog x with
        | None -> zero
        | Some i -> pres_b.(class_of.(i)))
      | Never_value (x, v) -> (
        match Prog.index_opt prog x with
        | None -> zero
        | Some i ->
          sum (List.filter (fun (w, _) -> veq w v) parts.(i)))
    in
    let init_b =
      let g = ref one in
      List.iter
        (fun (i, e) ->
          let j = vindex e.vals prog.Prog.delay_init.(i) in
          if j < 0 then
            unsup "register %s: initial value outside its domain"
              prog.Prog.names.(i);
          g := b_and !g (code_guard cur e.ebase e.ebits j))
        regs;
      Array.iter
        (fun q ->
          for b = 0 to q.qlbits - 1 do
            g := b_and !g (b_not (cur (q.qlbase + b)))
          done;
          for k = 0 to q.qcap - 1 do
            for b = 0 to q.qcbits - 1 do
              g := b_and !g (b_not (cur (q.qcbase.(k) + b)))
            done
          done)
        queues;
      !g
    in
    let cube_cur_in =
      let l = ref [] in
      for sb = 0 to nbits - 1 do
        l := svar.(sb) :: !l
      done;
      List.iter
        (fun ie ->
          if ie.ipvar >= 0 then l := ie.ipvar :: !l;
          for b = 0 to ie.iselbits - 1 do
            l := (ie.iselbase + b) :: !l
          done)
        iencs;
      Bdd.cube mgr !l
    in
    let cube_next =
      Bdd.cube mgr (List.init nbits (fun sb -> svar.(sb) + 1))
    in
    let rmap =
      let map = Array.init nvars (fun v -> v) in
      for sb = 0 to nbits - 1 do
        map.(svar.(sb) + 1) <- svar.(sb)
      done;
      map
    in
    Metrics.set m_trans_nodes (Bdd.node_count mgr);
    (* ---- frontier iteration with on-growth compaction ---- *)
    let trans = ref (b_and !t_rel (b_not err_f)) in
    let bad = ref bad and err_f = ref err_f in
    let init_r = ref init_b
    and ccube = ref cube_cur_in
    and ncube = ref cube_next in
    let r_set = ref init_b and front = ref init_b in
    let layers = ref [ init_b ] in (* newest first: hd = current F *)
    let peak = ref (Bdd.node_count mgr) in
    let note_peak () =
      let nc = Bdd.node_count mgr in
      if nc > !peak then peak := nc
    in
    let gc_threshold = ref (max 65536 (4 * Bdd.node_count mgr)) in
    let maybe_gc () =
      if Bdd.node_count mgr > !gc_threshold then begin
        let lay = Array.of_list !layers in
        let roots =
          Array.concat
            [ [| !trans; !bad; !err_f; !init_r; !ccube; !ncube;
                 !r_set; !front |];
              lay ]
        in
        let live = Bdd.gc mgr ~roots in
        trans := roots.(0);
        bad := roots.(1);
        err_f := roots.(2);
        init_r := roots.(3);
        ccube := roots.(4);
        ncube := roots.(5);
        r_set := roots.(6);
        front := roots.(7);
        layers := Array.to_list (Array.sub roots 8 (Array.length lay));
        gc_threshold := max 65536 (4 * live);
        Metrics.set m_gcs (fst (Bdd.gc_stats mgr))
      end
    in
    let violation = ref None in
    let fixpoint = ref false in
    let depth_used = ref 0 in
    let () =
      Tracing.with_span "explore.sym.fixpoint"
        ~args:[ ("depth", Tracing.Aint depth) ]
      @@ fun () ->
      let d = ref 1 in
      while !violation = None && (not !fixpoint) && !d <= depth do
        (* step !d executes from frontier F_{d-1} = !front *)
        let cbad = b_and !front (b_and !bad (b_not !err_f)) in
        if not (Bdd.is_zero cbad) then
          violation := Some (`Violation, !d, cbad)
        else begin
          let cerr = b_and !front !err_f in
          if not (Bdd.is_zero cerr) then
            violation := Some (`Runtime_error, !d, cerr)
          else begin
            depth_used := !d;
            if !d < depth then begin
              Metrics.incr m_images;
              let img =
                Bdd.rename mgr ~map:rmap
                  (Bdd.and_exists mgr ~cube:!ccube !trans !front)
              in
              let fresh = Bdd.diff mgr img !r_set in
              if Bdd.is_zero fresh then fixpoint := true
              else begin
                r_set := b_or !r_set fresh;
                front := fresh;
                layers := fresh :: !layers;
                note_peak ();
                maybe_gc ()
              end
            end;
            incr d
          end
        end
      done
    in
    let cur_vars =
      let a = Array.sub svar 0 nbits in
      Array.sort compare a;
      a
    in
    let states = Bdd.sat_count mgr ~vars:cur_vars !r_set in
    Metrics.set m_states (int_of_float states);
    Metrics.set m_peak_nodes !peak;
    Metrics.set m_gcs (fst (Bdd.gc_stats mgr));
    match !violation with
    | None ->
      Sym_holds { states; depth_used = !depth_used; fixpoint = !fixpoint }
    | Some (kind, vd, region) ->
      (* Extract one satisfying run: any_sat on the violating layer
         gives the step-vd inputs and the state before it (a BDD path
         pins every constrained variable, so the default-false
         completion still lies inside the layer), then walk back
         through the saved frontiers via backward images. *)
      let assign_of b =
        match Bdd.any_sat mgr b with
        | None -> assert false
        | Some l ->
          let h = Hashtbl.create 32 in
          List.iter (fun (v, x) -> Hashtbl.replace h v x) l;
          h
      in
      let getv h v =
        match Hashtbl.find_opt h v with Some b -> b | None -> false
      in
      let state_of h = Array.init nbits (fun sb -> getv h svar.(sb)) in
      let stim_of h =
        List.filter_map
          (fun ie ->
            let presb =
              if ie.ipvar >= 0 then getv h ie.ipvar
              else not (Bdd.is_zero ie.ipres)
            in
            if not presb then None
            else begin
              let m = Array.length ie.ivals in
              let code = ref 0 in
              for b = 0 to ie.iselbits - 1 do
                if getv h (ie.iselbase + b) then
                  code := !code lor (1 lsl b)
              done;
              let j = if !code < m - 1 then !code else m - 1 in
              Some (prog.Prog.names.(ie.ii), ie.ivals.(j))
            end)
          iencs
      in
      let next_state_cube s =
        let g = ref one in
        for sb = 0 to nbits - 1 do
          let v = nxt sb in
          g := b_and !g (if s.(sb) then v else b_not v)
        done;
        !g
      in
      let lay = Array.of_list (List.rev !layers) in
      (* lay.(t) = F_t *)
      let h0 = assign_of region in
      let stimuli = ref [ stim_of h0 ] in
      let s = ref (state_of h0) in
      for t = vd - 1 downto 1 do
        let pre =
          b_and
            (Bdd.and_exists mgr ~cube:!ncube !trans (next_state_cube !s))
            lay.(t - 1)
        in
        let h = assign_of pre in
        stimuli := stim_of h :: !stimuli;
        s := state_of h
      done;
      Sym_cex { kind; stimuli = !stimuli; states }
  end

let run ?(depth = 8) ~inputs ~prop c =
  Metrics.incr m_checks;
  Tracing.with_span "explore.sym.check"
    ~args:[ ("depth", Tracing.Aint depth) ]
  @@ fun () ->
  Metrics.time m_check_ns @@ fun () ->
  match run_exn ~depth ~inputs ~prop c with
  | outcome -> Ok outcome
  | exception Unsupported m ->
    Metrics.incr m_unsupported;
    Error (Putil.Diag.errorf ~code:code_unsupported "%s" m)
