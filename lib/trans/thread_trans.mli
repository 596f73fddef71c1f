(** Translation of an AADL thread instance to a SIGNAL process
    (the paper's Fig. 4 pattern).

    The generated process has:
    - control inputs [Dispatch], [Start], [Deadline] (the ctl1 bundle,
      produced by the synthesized scheduler);
    - per in port [p]: a value input [p] and the [p_time] Frozen_time
      event (the time1 bundle); the port body is an [in_event_port]
      (event/event-data ports, Fig. 5) or a [freeze] (data ports);
    - per out port [p]: a [p_time] Output_time event input and the sent
      value output [p], via [out_event_port] / [send];
    - per data access [a]: [a_r]/[a_pop] (read) or [a_w] (write)
      wired to the enclosing process's shared-data FIFO (Fig. 6);
    - outputs [Complete] (the ctl2 bundle) and [Alarm], raised at a
      Deadline occurrence when some dispatched job has not completed. *)

exception Trans_diag of Putil.Diag.t
(** Raised on a defect in the translated model: a mode automaton that
    cannot be translated ([TRANS-001]) or a behaviour referencing a
    port/access the thread does not declare ([TRANS-002]). Caller bugs
    (passing a non-thread instance) keep raising [Invalid_argument]. *)

val port_queue_size : Aadl.Syntax.feature -> int
(** The port's Queue_Size property, default 1 (AADL default). *)

val translate :
  registry:Behavior.registry ->
  Aadl.Instance.instance ->
  Signal_lang.Ast.process
(** Memoized per thread in a process-wide {!Putil.Memo} of 512
    entries that clears when full, keyed on the behaviour registry's
    stable id and the thread instance; counted as
    [incr.translate.proc_ran] / [incr.translate.proc_skipped]. Only
    successes are memoized.
    @raise Invalid_argument if the instance is not a thread.
    @raise Trans_diag on a model-level defect (see above). *)

val process_name : Aadl.Instance.instance -> string
(** Deterministic SIGNAL process-model name for a thread instance
    (sanitized instance path, traceability preserved in a pragma). *)

(** {1 Interface-shape helpers}

    The assembly stage ({!System_trans}) must instantiate thread models
    with positionally matching arguments; these expose the exact
    ordering used when generating the interface. *)

val in_ports :
  Aadl.Instance.instance -> (string * Aadl.Syntax.port_kind * int) list
(** In and in-out ports with their kind and queue size, declaration
    order. *)

val out_ports :
  Aadl.Instance.instance -> (string * Aadl.Syntax.port_kind * int) list

val read_accesses : Aadl.Instance.instance -> string list
val write_accesses : Aadl.Instance.instance -> string list
