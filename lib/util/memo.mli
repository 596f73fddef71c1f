(** One memo for every cache in the tool chain.

    A memo is a mutex-guarded table of [slot → (key, value)], with an
    optional {!Cache_store} behind it. Its one lookup, {!find}, answers
    from memory when the slot holds the same key, then from the store,
    and only then computes. Only [Ok] results are recorded, and a
    computation that raises records nothing.

    Three shapes cover every cache:
    - a pipeline-session stage is a memo with [~cap:1]: one entry,
      latest key wins;
    - a per-process unit inside a stage passes the process name as
      [~slot]: one entry per process, replaced when that process's key
      changes;
    - a process-wide memo ([Clocks.Calculus.analyze], the compiled-plan
      memo, thread translation) keys its slots on the key itself and
      clears the whole table when it reaches its [cap].

    {b Locking.} The computation runs under the memo's own mutex, so
    concurrent callers asking for one key compute it once. A
    computation may consult other memos (a stage consults its
    per-process units, a plan build consults the calculus memo): locks
    are then taken in call-nesting order. A computation must not
    consult its own memo. A memo with [~cap:0] holds nothing and takes
    no lock.

    {b Persistence.} Only a memo created with both [~store] and [~tag]
    writes to or replays from the store; the tag is the store's stage
    name. Store entries are decoded by a fresh process, so a tagged
    memo's values must be pure data {e without interned}
    {!Uid}{e s}: a Uid is a dense index into one process's interner
    and would resolve against an unrelated interner on replay. Values
    carrying Uids (the AADL instance, the translation's traceability
    table) go in untagged, memory-only memos.

    {b Counters.} A memo named [n] counts lookups answered without
    computing in [n.skipped] and computations in [n.ran] (with
    [~per_unit:true]: [n.proc_skipped] / [n.proc_ran]) in the global
    {!Metrics} registry. *)

type 'v t

val key : 'a -> string
(** Hex digest of a pure-data value, the key of every memo lookup.
    This is the trust boundary of the caches: a closure inside the
    value would digest its code pointer — or look stable across
    semantically different runs — so it raises [Invalid_argument]
    instead. Registries of behaviour closures fold their stable string
    id into the key in their place. *)

val create :
  ?store:Cache_store.t ->
  ?tag:string ->
  ?cap:int ->
  ?per_unit:bool ->
  string ->
  'v t
(** [create name] is an empty memo counting under [name]. [cap]
    (default unbounded) bounds the number of slots: recording a new
    slot in a full table clears the table first. *)

val find :
  'v t ->
  ?slot:string ->
  ?units:('v -> int) ->
  string ->
  (unit -> ('v, 'e) result) ->
  ('v, 'e) result
(** [find m key compute] returns the value recorded for [key] in the
    slot [slot] (default: [key]), else the store's entry for [key],
    else [compute ()]. A store replay is recorded in memory. [units]
    credits a store replay of a whole stage to the per-process
    counter: [n.proc_skipped] grows by [units v], since every unit the
    replayed value covers was not redone. *)

val get :
  'v t -> ?slot:string -> ?units:('v -> int) -> string -> (unit -> 'v) -> 'v
(** {!find} for a computation that cannot fail. *)

val hit : 'v t -> unit
(** Count one lookup that the caller answered from its own fast path
    (a physical-equality check in front of the memo) as skipped. *)

val clear : 'v t -> unit
(** Drop every in-memory entry (the store is untouched). Safe to call
    concurrently with {!find}. *)
