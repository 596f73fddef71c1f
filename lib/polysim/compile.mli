(** Clock-directed compilation of kernel SIGNAL processes
    (paper ref [15]: "Compilation of polychronous data flow
    equations").

    Where {!Engine} resolves presence by a per-instant fixpoint, the
    compiler runs the clock calculus once, derives a boolean clock
    function per synchronization class, orders presence and value
    computations topologically, and emits a straight-line execution
    plan compiled to closures over unboxed structure-of-arrays state.
    A step then:

    + reads input presence from the dense stimulus buffer;
    + evaluates each class's clock function (free classes take their
      presence from inputs or primitive FIFO state; everything else is
      decided by a decision tree flattened from the clock BDD);
    + computes values of present signals in dataflow order — no
      iteration, no retraction, no per-value boxing;
    + commits delay registers and FIFO ring buffers.

    The steady-state step loop is allocation-flat: with trace
    recording off, {!run_batched} performs no per-instant heap
    allocation (values live in int/float/string payload arrays indexed
    by signal, tagged per instant).

    Compilation {e fails} (with a diagnostic) on programs whose
    combined presence/value dependency graph is cyclic — exactly the
    programs the causality analysis flags — so callers can fall back to
    the interpreter. On the translated AADL systems, the compiled step
    and the interpreter produce identical traces (tested). *)

type t

val compile : Signal_lang.Kernel.kprocess -> (t, string) result
(** Compile, or fetch the memoized compilation. The expensive immutable
    part — clock analysis, clock BDDs, the toposorted execution plan
    compiled to closures — is cached on {!Signal_lang.Kernel.digest}
    in a {!Putil.Memo} of 256 entries that clears when full (with a
    physical-equality fast path for repeated compiles of the same
    in-memory kernel) and shared between all instances of a kernel.
    Compile errors are cached too. The memo counts its traffic as
    [incr.plan.ran] / [incr.plan.skipped] (fast-path hits included).
    Each call returns a fresh mutable instance (own delay
    registers, FIFO queues, trace). Instances over one plan are
    independent: stepping one never observes another, and distinct
    domains may each step their own instance concurrently (the shared
    plan is read-only at step time). *)

val compile_uncached : Signal_lang.Kernel.kprocess -> (t, string) result
(** [compile] bypassing the plan memo: always rebuilds. For benches
    that want to measure a cold compilation, and tests. *)

val fork : t -> t
(** A fresh instance (initial state, empty trace) over the same
    already-built plan. Never fails: no re-compilation happens. The
    fork shares nothing mutable with its parent, so stepping one never
    changes the other's trace or state, and each may be stepped on its
    own domain. *)

(** {1 Dense stimulus ABI}

    The zero-allocation convention: inputs are addressed by their
    dense signal index and written into a preallocated stimulus
    buffer; outputs are read back from the instance without
    materializing lists. One instant is:

    {[ Compile.stim_clear c;
       Compile.set_stim c i v;          (* per present input *)
       Compile.step_prepared c;
       Compile.iter_present c (fun i v -> ...) ]} *)

val n_signals : t -> int

val signal_index : t -> Signal_lang.Ast.ident -> int option
(** Dense index of a signal name (inputs and outputs alike). *)

val signal_name : t -> int -> Signal_lang.Ast.ident

val is_input : t -> int -> bool
(** Whether dense index [i] names an input signal (stimulus target). *)

val stim_clear : t -> unit
(** Reset the stimulus buffer: every input becomes absent for the next
    instant. *)

val set_stim : t -> int -> Signal_lang.Types.value -> unit
(** Mark input [i] present with the given value for the next instant.
    Raising paths (non-input or out-of-range index) surface as the
    [Error] of the enclosing {!step_prepared}/{!run_batched} call. *)

val step_prepared : t -> (unit, string) result
(** Execute one instant from the current stimulus buffer. Read results
    back with {!out_present}/{!out_value}/{!iter_present}. *)

val out_present : t -> int -> bool
(** Whether signal [i] was present at the last executed instant. *)

val out_value : t -> int -> Signal_lang.Types.value option
(** Value of signal [i] at the last executed instant, if present. *)

val iter_present : t -> (int -> Signal_lang.Types.value -> unit) -> unit
(** Iterate present signals of the last executed instant in ascending
    index order. *)

val present_assoc :
  t -> (Signal_lang.Ast.ident * Signal_lang.Types.value) list
(** Present signals of the last executed instant as a name/value assoc
    list (ascending index order), for dense ABI callers that still
    need the boxed view (e.g. safety predicates). *)

(** {1 Stepping} *)

val run_batched : t -> n:int -> fill:(t -> int -> unit) -> (unit, string) result
(** Execute [n] instants in one call, with plan and metrics lookups
    hoisted out of the loop and no intermediate lists.
    [fill c k] must set the stimulus for relative instant [k] via
    {!set_stim} (the buffer is cleared before each call). With
    recording off the loop does not allocate per instant. *)

val run :
  Signal_lang.Kernel.kprocess ->
  stimuli:(Signal_lang.Ast.ident * Signal_lang.Types.value) list list ->
  (Trace.t, string) result

val trace : t -> Trace.t

val instant : t -> int

val plan_length : t -> int
(** Number of micro-operations in the execution plan. *)

val free_classes : t -> int
(** Synchronization classes whose presence is neither input-driven,
    nor FIFO-driven, nor derivable from the clock functions — they
    default to absent each instant (0 for endochronous programs). *)

val free_class_members : t -> string list
(** Signals belonging to the free classes, for diagnostics. *)

(** {1 State management}

    Used by {!Explore} to walk the reachable state space: the mutable
    state of a compiled process is its delay memories and FIFO
    contents. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val set_recording : t -> bool -> unit
(** Disable trace recording during exploration (default on). *)

val state_digest : t -> string
(** Canonical byte string of the mutable state (delay memories and
    FIFO contents, excluding the instant counter); equal digests mean
    behaviourally identical continuations. *)

type keybuf
(** Reusable serialization buffer for {!state_key}; one per worker. *)

val keybuf : unit -> keybuf

val state_key : t -> keybuf -> string
(** Fixed-width (16-byte MD5) key of the same state {!state_digest}
    covers, serialized through the reused [keybuf] — the visited-set
    key of the explicit explorer. Per call it allocates only the
    digest string (plus one box per float-typed register), not a
    Marshal image of the boxed state. *)

(** {1 Symbolic introspection}

    A read-only view of the compiled plan for the symbolic
    reachability engine ({!Symbolic}): how each synchronization
    class's presence is decided, the clock functions as BDDs over the
    clock calculus's manager, and the topological op order, so the
    engine can rebuild the exact step semantics as boolean formulas. *)

type sym_pdef =
  | Sym_free                       (** statically absent *)
  | Sym_input of int list          (** presence = stimulus of members *)
  | Sym_prim of int * int          (** decided by FIFO state (prim, pos) *)
  | Sym_derived                    (** evaluate the clock function *)
  | Sym_alias of int
      (** mirror class [c]'s presence: the calculus solved an
          observable class's clock as exactly this class's free
          presence variable, so that observation decides it *)

type sym_varres =
  | Sym_present of int             (** clock var = class [c] present *)
  | Sym_cond of int                (** boolean signal [i] present-and-true *)
  | Sym_condeq of int * int        (** integer signal [i] equals [k] *)
  | Sym_none

type sym_view = {
  sv_prog : Prog.t;
  sv_nclasses : int;
  sv_class_of : int array;         (** signal -> synchronization class *)
  sv_pdefs : sym_pdef array;       (** per class *)
  sv_mgr : Clocks.Bdd.manager;     (** manager owning [sv_clock_bdd] *)
  sv_clock_bdd : Clocks.Bdd.t array;  (** per class *)
  sv_bddvars : sym_varres array;   (** clock BDD variable -> resolution *)
  sv_order : [ `Pres of int | `Val of int ] array;
      (** the toposorted schedule: presence of class / value of signal *)
}

val sym_view : t -> sym_view

(** {1 C code generation}

    The Polychrony back-end pillar (ref [15]): the execution plan is
    emitted as a self-contained C program. Its [main] reads one line
    per instant from stdin — one token per process input, in interface
    order, ["-"] meaning absent — executes the compiled step and prints
    every present signal as [name=value]. The generated code is
    compiled with a real C compiler and diffed against the OCaml
    simulator in the test suite. *)

val to_c : ?name:string -> t -> (string, string) result
(** Fails on processes with string-typed signals (no C mapping). *)
