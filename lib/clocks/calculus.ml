module K = Signal_lang.Kernel
module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Metrics = Putil.Metrics

let m_uf_finds = Metrics.counter "calculus.uf_finds"
let m_uf_unions = Metrics.counter "calculus.uf_unions"
let m_constraints = Metrics.counter "calculus.constraints"
let m_signals = Metrics.gauge "calculus.signals"
let m_classes = Metrics.gauge "calculus.classes"

(* ------------------------------------------------------------------ *)
(* Union-find over signal indices                                      *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  type t = { parent : int array; rank : int array }

  let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

  let rec root uf i =
    let p = uf.parent.(i) in
    if p = i then i
    else begin
      let r = root uf p in
      uf.parent.(i) <- r;
      r
    end

  let find uf i =
    Metrics.incr m_uf_finds;
    root uf i

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then begin
      Metrics.incr m_uf_unions;
      if uf.rank.(ri) < uf.rank.(rj) then uf.parent.(ri) <- rj
      else if uf.rank.(ri) > uf.rank.(rj) then uf.parent.(rj) <- ri
      else begin
        uf.parent.(rj) <- ri;
        uf.rank.(ri) <- uf.rank.(ri) + 1
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

(* Boolean structure of a sampling condition, resolved down to base
   literals (condition signals whose value is opaque). Decomposing
   and/or/not lets the calculus prove exclusions like
   [x when c] ^# [x when (d and not c)]. *)
type cform =
  | Ftrue
  | Ffalse
  | Flit of Ast.ident * bool    (* value of boolean signal, polarity *)
  | Feq of Ast.ident * int * bool
      (* integer signal compared to a constant; distinct constants on
         the same signal are mutually exclusive (mode automata) *)
  | Fand of cform * cform
  | For of cform * cform

let rec neg_cform = function
  | Ftrue -> Ffalse
  | Ffalse -> Ftrue
  | Flit (x, pos) -> Flit (x, not pos)
  | Feq (x, k, pos) -> Feq (x, k, not pos)
  | Fand (a, b) -> For (neg_cform a, neg_cform b)
  | For (a, b) -> Fand (neg_cform a, neg_cform b)

(* A clock definition attached to a synchronization class. *)
type cdef =
  | Dwhen of int option * int option * cform
      (* src class ∧ cond class ∧ condition formula; [None] for
         constant operands whose clock is contextual *)
  | Dunion of int list         (* union of classes *)

type t = {
  mgr : Bdd.manager;
  tab : K.sigtab;                           (* signal <-> dense index *)
  names : Ast.ident array;                  (* dense index -> signal *)
  uf : Uf.t;
  mutable class_ids : int array;            (* root index -> class id *)
  mutable reprs : int array;                (* class id -> root index *)
  mutable clocks : Bdd.t array;             (* class id -> clock bdd *)
  mutable phi : Bdd.t;
  mutable confl : string list;
  cond_vars : (Ast.ident, int) Hashtbl.t;   (* condition signal -> bdd var *)
  mutable nvars : int;
  mutable var_doc :
    (int * [ `Present of int | `Cond of Ast.ident
           | `CondEq of Ast.ident * int ]) list;
}

let sig_index st x =
  match K.st_index_opt st.tab x with
  | Some i -> i
  | None -> raise Not_found

let fresh_var st doc =
  let v = st.nvars in
  st.nvars <- v + 1;
  st.var_doc <- (v, doc) :: st.var_doc;
  v

(* ------------------------------------------------------------------ *)
(* Definition extraction                                               *)
(* ------------------------------------------------------------------ *)

let defmap_of kp =
  let h = Hashtbl.create 64 in
  List.iter
    (fun eq ->
      let dst =
        match eq with
        | K.Kfunc { dst; _ } | K.Kdelay { dst; _ } | K.Kwhen { dst; _ }
        | K.Kdefault { dst; _ } -> dst
      in
      if not (Hashtbl.mem h dst) then Hashtbl.add h dst eq)
    kp.K.keqs;
  h

(* Signals that are [true] whenever present: event-typed signals, the
   constant true propagated through copies, merges and sampling. *)
let always_true_set kp defmap =
  let types = Hashtbl.create 64 in
  List.iter
    (fun vd -> Hashtbl.replace types vd.Ast.var_name vd.Ast.var_type)
    (K.signals kp);
  let memo = Hashtbl.create 64 in
  let rec atrue ?(stack = []) x =
    match Hashtbl.find_opt memo x with
    | Some b -> b
    | None ->
      if List.mem x stack then false
      else begin
        let stack = x :: stack in
        let b =
          (match Hashtbl.find_opt types x with
           | Some Types.Tevent -> true
           | _ -> (
             match Hashtbl.find_opt defmap x with
             | Some (K.Kfunc { op = K.Pid; args = [ a ]; _ }) -> atom_true stack a
             | Some (K.Kfunc { op = K.Pclock; _ }) -> true
             | Some (K.Kwhen { src; _ }) -> atom_true stack src
             | Some (K.Kdefault { left; right; _ }) ->
               atom_true stack left && atom_true stack right
             | Some (K.Kdelay { src; init; _ }) ->
               (match init with
                | Types.Vbool true | Types.Vevent -> atrue ~stack src
                | _ -> false)
             | _ -> false))
        in
        Hashtbl.replace memo x b;
        b
      end
  and atom_true stack = function
    | K.Aconst (Types.Vbool true) | K.Aconst Types.Vevent -> true
    | K.Aconst _ -> false
    | K.Avar y -> atrue ~stack y
  in
  atrue

(* Resolve a boolean condition signal to a formula over base literals,
   chasing copies, negations and (synchronous) boolean connectives. *)
let rec resolve_cond ~atrue ~defmap ?(stack = []) x pos =
  if List.mem x stack then Flit (x, pos)
  else if atrue x then if pos then Ftrue else Ffalse
  else
    let stack = x :: stack in
    let atom a p =
      match a with
      | K.Avar y -> resolve_cond ~atrue ~defmap ~stack y p
      | K.Aconst (Types.Vbool b) -> if b = p then Ftrue else Ffalse
      | K.Aconst Types.Vevent -> if p then Ftrue else Ffalse
      | K.Aconst (Types.Vint _ | Types.Vreal _ | Types.Vstring _) ->
        Flit (x, pos)
    in
    match Hashtbl.find_opt defmap x with
    | Some (K.Kfunc { op = K.Pid; args = [ a ]; _ }) -> atom a pos
    | Some (K.Kfunc { op = K.Punop Ast.Not; args = [ a ]; _ }) ->
      atom a (not pos)
    | Some (K.Kfunc { op = K.Pbinop Ast.And; args = [ a; b ]; _ }) ->
      let f = Fand (atom a true, atom b true) in
      if pos then f else neg_cform f
    | Some (K.Kfunc { op = K.Pbinop Ast.Or; args = [ a; b ]; _ }) ->
      let f = For (atom a true, atom b true) in
      if pos then f else neg_cform f
    | Some (K.Kfunc { op = K.Pbinop Ast.Eq;
                      args = [ K.Avar y; K.Aconst (Types.Vint k) ]; _ })
    | Some (K.Kfunc { op = K.Pbinop Ast.Eq;
                      args = [ K.Aconst (Types.Vint k); K.Avar y ]; _ }) ->
      Feq (resolve_copy ~defmap y, k, pos)
    | Some (K.Kfunc { op = K.Pbinop Ast.Neq;
                      args = [ K.Avar y; K.Aconst (Types.Vint k) ]; _ })
    | Some (K.Kfunc { op = K.Pbinop Ast.Neq;
                      args = [ K.Aconst (Types.Vint k); K.Avar y ]; _ }) ->
      Feq (resolve_copy ~defmap y, k, not pos)
    | _ -> Flit (x, pos)

(* canonical signal through Pid copies, so "m = 1" and "m = 2" on the
   same memory are recognized as comparisons of one signal *)
and resolve_copy ~defmap ?(fuel = 32) x =
  if fuel = 0 then x
  else
    match Hashtbl.find_opt defmap x with
    | Some (K.Kfunc { op = K.Pid; args = [ K.Avar y ]; _ }) ->
      resolve_copy ~defmap ~fuel:(fuel - 1) y
    | _ -> x

(* ------------------------------------------------------------------ *)
(* Main analysis                                                       *)
(* ------------------------------------------------------------------ *)

let analyze_impl (kp : K.kprocess) =
  let tab = K.sigtab kp in
  let n = K.st_count tab in
  let names = Array.init n (K.st_name tab) in
  let uf = Uf.create n in
  let idx x =
    match K.st_index_opt tab x with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Calculus.analyze: undeclared %s" x)
  in
  (* Phase 1: synchrony classes. *)
  let sync a b = Uf.union uf (idx a) (idx b) in
  List.iter
    (fun eq ->
      match eq with
      | K.Kfunc { dst; args; _ } ->
        List.iter (function K.Avar x -> sync dst x | K.Aconst _ -> ()) args
      | K.Kdelay { dst; src; _ } -> sync dst src
      | K.Kwhen _ | K.Kdefault _ -> ())
    kp.K.keqs;
  List.iter
    (function
      | K.Ceq (a, b) -> sync a b
      | K.Cle _ | K.Cex _ -> ())
    kp.K.kconstraints;
  (* Primitive contracts contributing synchrony. *)
  List.iter
    (fun ki ->
      match ki.K.ki_prim, ki.K.ki_ins, ki.K.ki_outs with
      | Stdproc.Pin_event_port, [ _arrival; frozen_time ], [ _frozen; frozen_count ] ->
        sync frozen_count frozen_time
      | _ -> ())
    kp.K.kinstances;
  (* Dense class ids. *)
  let class_of_root = Hashtbl.create n in
  let nclasses = ref 0 in
  for i = 0 to n - 1 do
    let r = Uf.find uf i in
    if not (Hashtbl.mem class_of_root r) then begin
      Hashtbl.add class_of_root r !nclasses;
      incr nclasses
    end
  done;
  let nclasses = !nclasses in
  let class_ids = Array.make (max n 1) (-1) in
  for i = 0 to n - 1 do
    class_ids.(i) <- Hashtbl.find class_of_root (Uf.find uf i)
  done;
  let reprs = Array.make (max nclasses 1) 0 in
  (* representative = lowest-index member, deterministic *)
  for i = n - 1 downto 0 do
    reprs.(class_ids.(i)) <- i
  done;
  let mgr = Bdd.manager () in
  let st =
    { mgr; tab; names; uf; class_ids; reprs;
      clocks = Array.make (max nclasses 1) (Bdd.one mgr);
      phi = Bdd.one mgr; confl = [];
      cond_vars = Hashtbl.create 16; nvars = 0; var_doc = [] }
  in
  let defmap = defmap_of kp in
  let atrue = always_true_set kp defmap in
  let class_of x = class_ids.(idx x) in
  (* Phase 2: collect per-class clock definitions. *)
  let defs : (int, cdef list) Hashtbl.t = Hashtbl.create nclasses in
  let add_def c d =
    let prev = Option.value ~default:[] (Hashtbl.find_opt defs c) in
    Hashtbl.replace defs c (d :: prev)
  in
  let cond_of_atom = function
    | K.Aconst (Types.Vbool true) | K.Aconst Types.Vevent -> (None, Ftrue)
    | K.Aconst (Types.Vbool false) -> (None, Ffalse)
    | K.Aconst _ -> (None, Ftrue)
    | K.Avar b -> (Some (class_of b), resolve_cond ~atrue ~defmap b true)
  in
  List.iter
    (fun eq ->
      match eq with
      | K.Kfunc _ | K.Kdelay _ -> ()
      | K.Kwhen { dst; src; cond } ->
        let src_class =
          match src with
          | K.Avar x -> Some (class_of x)
          | K.Aconst _ -> None
        in
        let bclass, lit = cond_of_atom cond in
        if src_class <> None || bclass <> None then
          add_def (class_of dst) (Dwhen (src_class, bclass, lit))
        else if lit = Ffalse then
          (* fully constant, condition false: the null clock *)
          add_def (class_of dst) (Dwhen (None, None, Ffalse))
      | K.Kdefault { dst; left; right } ->
        let classes =
          List.filter_map
            (function K.Avar x -> Some (class_of x) | K.Aconst _ -> None)
            [ left; right ]
        in
        (match classes with
         | [] -> ()
         | cs -> add_def (class_of dst) (Dunion cs)))
    kp.K.keqs;
  (* Primitive contracts as definitions / constraints (mirrors
     Stdproc contracts). *)
  let prim_constraints = ref [] in
  List.iter
    (fun ki ->
      match ki.K.ki_prim, ki.K.ki_ins, ki.K.ki_outs with
      | Stdproc.Pfifo, [ push; pop ], [ data; size ] ->
        prim_constraints := K.Cle (data, pop) :: !prim_constraints;
        add_def (class_of size) (Dunion [ class_of push; class_of pop ])
      | Stdproc.Pfifo_reset, [ push; pop; reset ], [ data; size ] ->
        prim_constraints := K.Cle (data, pop) :: !prim_constraints;
        add_def (class_of size)
          (Dunion [ class_of push; class_of pop; class_of reset ])
      | Stdproc.Pin_event_port, [ _arrival; frozen_time ], [ frozen; _cnt ] ->
        prim_constraints := K.Cle (frozen, frozen_time) :: !prim_constraints
      | Stdproc.Pout_event_port, [ _item; output_time ], [ sent ] ->
        prim_constraints := K.Cle (sent, output_time) :: !prim_constraints
      | _ ->
        st.confl <-
          Printf.sprintf "instance %s: arity mismatch with primitive contract"
            ki.K.ki_label
          :: st.confl)
    kp.K.kinstances;
  (* Phase 3: clock BDD per class, with cycle cut-off. *)
  let lit_bdd b pos =
    let v =
      match Hashtbl.find_opt st.cond_vars b with
      | Some v -> v
      | None ->
        let v = fresh_var st (`Cond b) in
        Hashtbl.replace st.cond_vars b v;
        v
    in
    let bv = Bdd.var mgr v in
    if pos then bv else Bdd.not_ mgr bv
  in
  (* one variable per (signal, constant) equality; equalities of the
     same signal against distinct constants exclude each other in Φ *)
  let eq_vars : (Ast.ident * int, int) Hashtbl.t = Hashtbl.create 8 in
  let eq_bdd x k pos =
    let v =
      match Hashtbl.find_opt eq_vars (x, k) with
      | Some v -> v
      | None ->
        let v = fresh_var st (`CondEq (x, k)) in
        Hashtbl.replace eq_vars (x, k) v;
        (* exclusivity against previously seen constants of x *)
        Hashtbl.iter
          (fun (x', k') v' ->
            if String.equal x' x && k' <> k then
              st.phi <-
                Bdd.and_ mgr st.phi
                  (Bdd.not_ mgr
                     (Bdd.and_ mgr (Bdd.var mgr v) (Bdd.var mgr v'))))
          eq_vars;
        v
    in
    let bv = Bdd.var mgr v in
    if pos then bv else Bdd.not_ mgr bv
  in
  let rec cond_bdd = function
    | Ftrue -> Bdd.one mgr
    | Ffalse -> Bdd.zero mgr
    | Flit (b, pos) -> lit_bdd b pos
    | Feq (x, k, pos) -> eq_bdd x k pos
    | Fand (a, b) -> Bdd.and_ mgr (cond_bdd a) (cond_bdd b)
    | For (a, b) -> Bdd.or_ mgr (cond_bdd a) (cond_bdd b)
  in
  let status = Array.make (max nclasses 1) `Todo in
  let clocks = Array.make (max nclasses 1) (Bdd.one mgr) in
  let free_clock c =
    let v = fresh_var st (`Present c) in
    Bdd.var mgr v
  in
  (* A class may have several definitions (merged by [^=]) and they may
     be mutually recursive through memory patterns. Each definition is
     tried in turn; one whose evaluation loops back to the class itself
     is abandoned ([Cyclic]) and retried as a Φ constraint once the
     class got its clock from an acyclic definition — or from a fresh
     free variable when every definition is cyclic. *)
  let exception Cyclic in
  let rec clock_of_class c =
    match status.(c) with
    | `Done -> clocks.(c)
    | `Busy -> raise Cyclic
    | `Todo -> (
      status.(c) <- `Busy;
      let eval = function
        | Dwhen (base, bclass, lit) ->
          let opt = function
            | Some ci -> clock_of_class ci
            | None -> Bdd.one mgr
          in
          Bdd.and_ mgr (opt base) (Bdd.and_ mgr (opt bclass) (cond_bdd lit))
        | Dunion cs ->
          List.fold_left
            (fun acc ci -> Bdd.or_ mgr acc (clock_of_class ci))
            (Bdd.zero mgr) cs
      in
      (* definitions in source order: in translated programs the
         driving definition (e.g. the scheduler's event) precedes
         memory feedback, so trying them in order avoids most cuts *)
      let all_defs =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt defs c))
      in
      (* choose the first acyclically evaluable definition *)
      let chosen = ref None in
      let deferred = ref [] in
      List.iter
        (fun d ->
          match !chosen with
          | Some _ -> deferred := d :: !deferred
          | None -> (
            match eval d with
            | b -> chosen := Some b
            | exception Cyclic -> deferred := d :: !deferred))
        all_defs;
      (match !chosen with
       | Some b -> clocks.(c) <- b
       | None -> clocks.(c) <- free_clock c);
      status.(c) <- `Done;
      (* deferred/redundant definitions become context constraints,
         processed after every class has its clock *)
      List.iter (fun d -> pending_constraints := (c, d) :: !pending_constraints)
        !deferred;
      clocks.(c))
  and pending_constraints = ref [] in
  for c = 0 to nclasses - 1 do
    match clock_of_class c with
    | _ -> ()
    | exception Cyclic -> ()
  done;
  (* second pass: all classes are Done, deferred definitions evaluate
     without cycles and pin the free variables in Φ *)
  let eval_done = function
    | Dwhen (base, bclass, lit) ->
      let opt = function
        | Some ci -> clocks.(ci)
        | None -> Bdd.one mgr
      in
      Bdd.and_ mgr (opt base) (Bdd.and_ mgr (opt bclass) (cond_bdd lit))
    | Dunion cs ->
      List.fold_left
        (fun acc ci -> Bdd.or_ mgr acc clocks.(ci))
        (Bdd.zero mgr) cs
  in
  List.iter
    (fun (c, d) ->
      let bi = eval_done d in
      let eq =
        Bdd.and_ mgr (Bdd.imp mgr bi clocks.(c)) (Bdd.imp mgr clocks.(c) bi)
      in
      st.phi <- Bdd.and_ mgr st.phi eq)
    (List.rev !pending_constraints);
  st.clocks <- clocks;
  (* Phase 4: declared + primitive constraints into Φ. *)
  let clock_of_sig x = clocks.(class_of x) in
  List.iter
    (fun c ->
      Metrics.incr m_constraints;
      match c with
      | K.Ceq _ -> ()
      | K.Cle (a, b) ->
        st.phi <-
          Bdd.and_ mgr st.phi (Bdd.imp mgr (clock_of_sig a) (clock_of_sig b))
      | K.Cex (a, b) ->
        st.phi <-
          Bdd.and_ mgr st.phi
            (Bdd.not_ mgr (Bdd.and_ mgr (clock_of_sig a) (clock_of_sig b))))
    (kp.K.kconstraints @ !prim_constraints);
  if Bdd.is_zero st.phi then
    st.confl <- "clock constraint system is unsatisfiable" :: st.confl;
  st

(* Analyses are memoized on the kernel's structural digest: the state
   and its BDD manager are only mutated during [analyze_impl], and
   every later query reads them without creating a node, so handing
   the same [t] to every caller, on any domain, is sound. The memo
   computes under its own lock, so the explorer's worker domains may
   consult it and concurrent callers never analyze one kernel twice. *)
let memo : t Putil.Memo.t = Putil.Memo.create ~cap:256 "incr.calculus"

let analyze kp =
  Putil.Memo.get memo (K.digest kp) @@ fun () ->
  let st =
    Putil.Tracing.with_span "clocks.calculus"
      ~args:[ ("signals", Putil.Tracing.Aint (K.st_count (K.sigtab kp))) ]
      (fun () -> analyze_impl kp)
  in
  Metrics.set m_signals (K.st_count st.tab);
  Metrics.set m_classes (Array.length st.reprs);
  st

let reset_cache () = Putil.Memo.clear memo

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let manager st = st.mgr
let context st = st.phi
let consistent st = not (Bdd.is_zero st.phi)

let class_of_exn st x = st.class_ids.(sig_index st x)

(* the kernel's declarations promoted to the [clocked] phase: each mark
   keeps the source span and records the synchronization class *)
let clocked_decls st =
  List.init (K.st_count st.tab) (fun i ->
      let vd = K.st_decl st.tab i in
      { Ast.var_name = vd.Ast.var_name;
        var_type = vd.Ast.var_type;
        var_mark =
          Ast.Mclocked
            (Ast.mark_span vd.Ast.var_mark, Some st.class_ids.(i)) })

let clock_of st x =
  let c = class_of_exn st x in
  st.clocks.(c)

let same_class st a b = class_of_exn st a = class_of_exn st b

let class_count st =
  Array.length st.reprs

let class_members st =
  let buckets = Array.make (Array.length st.reprs) [] in
  let n = K.st_count st.tab in
  for i = n - 1 downto 0 do
    let c = st.class_ids.(i) in
    buckets.(c) <- st.names.(i) :: buckets.(c)
  done;
  Array.to_list buckets

let class_reprs st =
  Array.to_list (Array.mapi (fun c r -> (c, st.names.(r))) st.reprs)

let clock_of_class_id st c = st.clocks.(c)

let class_id_of st x = class_of_exn st x

let var_kind st v = List.assoc_opt v st.var_doc

let representative st x =
  let c = class_of_exn st x in
  st.names.(st.reprs.(c))

(* Post-analysis queries are emptiness tests under Φ that create no
   node: the memoized manager is frozen once [analyze] publishes it,
   so one [t] serves concurrent pipeline sessions without a lock. *)
let is_null st x =
  Bdd.conj_empty st.mgr [ (st.phi, false); (clock_of st x, false) ]

let subclock st a b =
  Bdd.conj_empty st.mgr
    [ (st.phi, false); (clock_of st a, false); (clock_of st b, true) ]

let exclusive st a b =
  Bdd.conj_empty st.mgr
    [ (st.phi, false); (clock_of st a, false); (clock_of st b, false) ]

let null_signals st =
  Putil.Tracing.with_span "clocks.null_signals"
    ~args:[ ("classes", Putil.Tracing.Aint (Array.length st.reprs)) ]
  @@ fun () ->
  (* Nullness is a property of the synchronization class: test each
     class once against Φ instead of each signal (typically 3-4×
     fewer emptiness tests). *)
  let null_class =
    Array.map (fun c -> Bdd.conj_empty st.mgr [ (st.phi, false); (c, false) ])
      st.clocks
  in
  let n = K.st_count st.tab in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if null_class.(st.class_ids.(i)) then acc := st.names.(i) :: !acc
  done;
  !acc

let conflicts st = List.rev st.confl

let pp_var st ppf v =
  match List.assoc_opt v st.var_doc with
  | Some (`Present c) -> Format.fprintf ppf "^%s" st.names.(st.reprs.(c))
  | Some (`Cond b) -> Format.fprintf ppf "[%s]" b
  | Some (`CondEq (x, k)) -> Format.fprintf ppf "[%s=%d]" x k
  | None -> Format.fprintf ppf "v%d" v

let pp_clock st ppf x =
  Bdd.pp st.mgr ~pp_var:(pp_var st) ppf (clock_of st x)

let pp_summary ppf st =
  Format.fprintf ppf "@[<v>clock calculus: %d signals, %d classes@,"
    (K.st_count st.tab) (class_count st);
  if not (consistent st) then
    Format.fprintf ppf "INCONSISTENT constraint system@,";
  List.iter (fun m -> Format.fprintf ppf "conflict: %s@," m) (conflicts st);
  (match null_signals st with
   | [] -> ()
   | l ->
     Format.fprintf ppf "null-clocked signals: %a@,"
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
          Format.pp_print_string)
       l);
  Format.fprintf ppf "@]"

(* ---- structured diagnostics ---- *)

let code_conflict =
  Putil.Diag.code "CLK-CONSTR-001" "contradictory clock constraint"
let code_inconsistent =
  Putil.Diag.code "CLK-CONSTR-002" "unsatisfiable clock constraint system"
let code_null =
  Putil.Diag.code "CLK-NULL-001" "signal with a provably empty clock"

let diags st =
  let c = Putil.Diag.collector () in
  List.iter
    (fun m -> Putil.Diag.add c (Putil.Diag.errorf ~code:code_conflict "%s" m))
    (conflicts st);
  if not (consistent st) then
    Putil.Diag.add c
      (Putil.Diag.errorf ~code:code_inconsistent
         "clock constraint system is unsatisfiable: no behaviour has any \
          signal present");
  List.iter
    (fun x ->
      Putil.Diag.add c
        (Putil.Diag.notef ~code:code_null
           "signal %s has a provably empty clock (never present)" x))
    (null_signals st);
  Putil.Diag.result c
