(** Fully symbolic bounded reachability over the compiled plan.

    The compiled process's mutable state (delay registers, FIFO
    contents) and its per-instant stimulus choices are encoded as BDD
    variables on three rails — current state on even variables, next
    state on the interleaved odd variables, inputs above both — and a
    symbolic transition relation is rebuilt from
    {!Compile.sym_view}: class presence as boolean formulas, signal
    values as finite {e partitions} (value → producing region), and
    the region where the explicit step would raise as an exact [err]
    formula. Reachability then iterates the relational product
    ({!Clocks.Bdd.and_exists} + {!Clocks.Bdd.rename}) from the
    initial state to a fixpoint or the depth bound, checking the
    safety predicate symbolically on every frontier.

    The engine is {e exact} on its fragment: it returns the same
    verdict as {!Explore.check} (tested by property). Programs
    outside the fragment — unbounded value domains reaching a
    register or queue, queues deeper than 16 — are rejected with an
    [EXPLORE-SYM-001] diagnostic so callers can fall back to the
    explicit engine. *)

val code_unsupported : string
(** Diagnostic code emitted when the process is outside the
    symbolically checkable fragment ([EXPLORE-SYM-001]). *)

(** A signal's finite value domain, or [Dtop] when it is unbounded.
    A domain holds at most 64 values; one more makes it [Dtop]. *)
type dom = Dset of Signal_lang.Types.value list | Dtop

val value_domains : Prog.t -> dom array -> dom array
(** [value_domains prog in_dom] is the least fixpoint of per-signal
    value domains, [in_dom.(i)] being the domain input [i] draws from
    its stimulus alternatives. Each [Dset] lists its values in the
    order they were first produced, sweeping signals in index order;
    that order fixes every register's state codes. A delay register
    or queue element whose domain is [Dtop] puts the process outside
    the symbolic fragment. Counts transfer evaluations on the
    [explore.sym.domain_evals] counter. *)

(** Safety properties checkable symbolically (and replayable on the
    explicit simulator). *)
type prop =
  | Never_present of Signal_lang.Ast.ident
      (** the signal never occurs *)
  | Never_value of Signal_lang.Ast.ident * Signal_lang.Types.value
      (** the signal never carries this value
          ({!Signal_lang.Types.equal_value} semantics) *)

val safe_of_prop :
  prop ->
  (Signal_lang.Ast.ident * Signal_lang.Types.value) list ->
  bool
(** The explicit-engine safety predicate equivalent to a {!prop},
    for {!Explore.check} parity and counterexample replay. *)

type outcome =
  | Sym_holds of { states : float; depth_used : int; fixpoint : bool }
      (** no violation within the bound; [states] is the exact
          reachable-state count (within [depth - 1] steps, matching
          the explicit engine's accounting), [fixpoint] whether the
          frontier emptied before the bound *)
  | Sym_cex of {
      kind : [ `Violation | `Runtime_error ];
      stimuli :
        (Signal_lang.Ast.ident * Signal_lang.Types.value) list list;
      states : float;
    }
      (** a violating (or erroring) input sequence, one stimulus per
          instant, extracted by walking saved frontiers backward;
          replay it on the compiled simulator to get the explicit
          trace *)

val run :
  ?depth:int ->
  inputs :
    (Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  prop:prop ->
  Compile.t ->
  (outcome, Putil.Diag.t) result
(** Symbolic bounded check of [prop] over the instance's plan (the
    instance's mutable state is not consulted; exploration always
    starts from the initial state). [inputs] uses the same
    alternatives convention as {!Explore.check}; [depth] defaults to
    8 instants. Builds a private BDD manager per call — collected as
    a whole when the check returns. *)
