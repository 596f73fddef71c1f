(** The SIGNAL clock calculus over {!Signal_lang.Kernel} processes.

    Clocks are encoded as boolean functions (BDDs) over two kinds of
    variables: the {e presence} of a synchronization class, and the
    {e value} of a boolean condition signal at the instants where it is
    present. The calculus:

    - partitions signals into synchronization classes (union-find over
      step-wise functions, delays and [^=] constraints);
    - derives one clock function per class from [when] / [default]
      definitions, allocating a free presence variable for classes
      without definitions (inputs) or with recursive definitions;
    - accumulates declared constraints ([^<], [^#], redundant
      definitions, primitive-instance contracts) in a context formula Φ;
    - decides emptiness, inclusion and exclusion of clocks relative
      to Φ, flags contradictions and null-clocked signals. *)

type t

val analyze : Signal_lang.Kernel.kprocess -> t
(** Analyze a kernel process. Memoized on {!Signal_lang.Kernel.digest}
    in a {!Putil.Memo} of 256 entries that clears when full:
    structurally equal processes share one analysis (and one BDD
    manager), so repeated pipeline runs pay for the clock calculus
    once. The memo counts its traffic as [incr.calculus.ran] /
    [incr.calculus.skipped] and computes under its own lock, so it is
    safe to consult from several domains. So is the returned [t]: its
    manager is {e frozen} once published — every query below decides
    emptiness with {!Bdd.conj_empty} and creates no node — so any
    number of domains may query one analysis, and consumers may read
    its manager ({!Bdd.eval}, {!Bdd.view}, {!Bdd.support},
    {!Bdd.conj_empty}, ...) without a lock. They must not create nodes
    on it. *)

val reset_cache : unit -> unit
(** Drop the analysis memo (cold-start benchmarking; safe to call
    concurrently with {!analyze}). Existing [t] values stay valid. *)

(** {1 Queries} *)

val manager : t -> Bdd.manager
(** The analysis's frozen manager: read-only operations only. *)

val clocked_decls :
  t -> Signal_lang.Ast.clocked Signal_lang.Ast.gvardecl list
(** The analyzed kernel's signal declarations promoted to the
    [clocked] phase: each mark carries the declaration's source span
    and the signal's synchronization class id, in sigtab order. *)

val context : t -> Bdd.t
(** The accumulated constraint formula Φ. *)

val consistent : t -> bool
(** Φ is satisfiable: the clock system has at least one behaviour with
    some signal present. *)

val clock_of : t -> Signal_lang.Ast.ident -> Bdd.t
(** The clock function of a signal.
    @raise Not_found for unknown signals. *)

val same_class : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** Both signals were proved synchronous. *)

val class_count : t -> int
(** Number of synchronization classes, the metric of the paper's
    "several thousand clocks" claim. *)

val class_members : t -> Signal_lang.Ast.ident list list
(** Signals grouped by synchronization class. *)

val class_reprs : t -> (int * Signal_lang.Ast.ident) list
(** Class ids with their canonical representative signal. *)

val clock_of_class_id : t -> int -> Bdd.t
(** Clock function of a class, by id. *)

val class_id_of : t -> Signal_lang.Ast.ident -> int
(** Class id of a signal. @raise Not_found for unknown signals. *)

val var_kind :
  t -> int ->
  [ `Present of int
  | `Cond of Signal_lang.Ast.ident
  | `CondEq of Signal_lang.Ast.ident * int ]
  option
(** Interpretation of a BDD variable used by the clock functions: the
    presence of a synchronization class, the value of a boolean
    condition signal, or an integer signal's equality with a constant
    (mode automata). Used by the clock-directed compiler. *)

val representative : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident
(** Canonical signal of the argument's class. *)

val is_null : t -> Signal_lang.Ast.ident -> bool
(** The signal's clock is empty under Φ (it can never be present). *)

val subclock : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** [subclock t a b] iff every instant of [a] is an instant of [b],
    under Φ. *)

val exclusive : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** The two signals can never be present together, under Φ. *)

val null_signals : t -> Signal_lang.Ast.ident list
(** Declared signals whose clock is provably empty. *)

val conflicts : t -> string list
(** Human-readable contradictions detected during the analysis
    (e.g. unsatisfiable constraint system). *)

val pp_clock : t -> Format.formatter -> Signal_lang.Ast.ident -> unit
(** Render a signal's clock as a sum of products over class
    representatives and conditions. *)

val pp_summary : Format.formatter -> t -> unit

val code_conflict : string
val code_inconsistent : string
val code_null : string
(** Diagnostic codes of {!diags}, exposed so callers that merge
    per-process analysis results can regenerate identical
    diagnostics. *)

val diags : t -> Putil.Diag.t list
(** The analysis verdict as structured diagnostics: one
    [CLK-CONSTR-001] error per recorded contradiction, a
    [CLK-CONSTR-002] error when Φ is unsatisfiable, and one
    [CLK-NULL-001] note per null-clocked signal (translation creates
    intentionally-absent signals, so emptiness alone is not an
    error). *)
