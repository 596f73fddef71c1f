(** Reduced ordered binary decision diagrams over integer variables.

    The clock calculus encodes clocks as boolean functions over
    presence and condition variables; BDDs give canonical forms, so
    clock equality is O(1), and inclusion, exclusion and emptiness
    under a context are decided by {!conj_empty} without building the
    conjunction. Nodes are hash-consed: structural equality is
    physical equality.

    A fresh manager is cheap; all nodes belong to the manager that
    created them and must not be mixed across managers.

    Operations fall in two groups. The {e node-creating} ones ({!var},
    {!not_}, {!and_}, {!or_}, {!xor_}, {!diff}, {!imp}, {!cube},
    {!exists}, {!and_exists}, {!rename}, {!gc}) write the manager's
    node arrays, unique table and caches; a manager is single-writer.
    The {e read-only} ones ({!conj_empty}, {!implies}, {!exclusive},
    {!eval}, {!view}, {!support}, {!any_sat}, {!sat_count}, {!pp} and
    the counters) write nothing, so once no more nodes are created —
    a {e frozen} manager, like the one a clock-calculus analysis
    publishes — any number of domains may run them concurrently. *)

type manager
type t

val manager : unit -> manager

val zero : manager -> t
(** The constant false (the null clock). *)

val one : manager -> t
(** The constant true (the always-present context). *)

val var : manager -> int -> t
(** The projection on variable [i] (variables are ordered by [int]). *)

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t
val diff : manager -> t -> t -> t
(** [diff m a b] is [a ∧ ¬b]. *)

val imp : manager -> t -> t -> t

val equal : t -> t -> bool
(** Physical equality (valid thanks to hash-consing). *)

val is_zero : t -> bool
val is_one : t -> bool

val conj_empty : manager -> (t * bool) list -> bool
(** [conj_empty m lits] iff the conjunction of the literals is
    unsatisfiable, where [(a, false)] reads [a] and [(a, true)] reads
    [¬a]. The empty list is the constant true. Read-only: a
    depth-first walk of the product that creates no node, stops at the
    first satisfying path and keeps a per-call table of the
    sub-products it found empty. *)

val implies : manager -> t -> t -> bool
(** [implies m a b] iff [a ∧ ¬b] is unsatisfiable ({!conj_empty} with
    [b] complemented; read-only). *)

val exclusive : manager -> t -> t -> bool
(** [exclusive m a b] iff [a ∧ b] is unsatisfiable ({!conj_empty};
    read-only). *)

val cube : manager -> int list -> t
(** The conjunction of positive literals over the given variables; the
    shape expected by the [~cube] arguments below. *)

val exists : manager -> cube:t -> t -> t
(** [exists m ~cube a] existentially quantifies every variable of
    [cube] (a positive-literal cube) out of [a]. *)

val and_exists : manager -> cube:t -> t -> t -> t
(** [and_exists m ~cube a b] is [exists m ~cube (and_ m a b)] computed
    in one pass (the relational product), with a dedicated ternary
    apply cache — the image-computation hot path. *)

val rename : manager -> map:int array -> t -> t
(** [rename m ~map a] substitutes variable [v] by [map.(v)] (identity
    past the end of the array). The map must be strictly increasing on
    the support of [a] — e.g. the next→current shift on interleaved
    variable rails. *)

val sat_count : manager -> vars:int array -> t -> float
(** Number of satisfying assignments over exactly the variables in
    [vars] (ascending; must contain the support of the argument). *)

val gc : manager -> roots:t array -> int
(** Compacting mark-and-sweep collection. Keeps exactly the nodes
    reachable from [roots], rewrites [roots] in place with the
    relocated handles, flushes the apply caches, and returns the live
    node count. Every handle not passed as a root is invalid after the
    call. *)

val relprod_stats : manager -> int * int
(** [(consultations, hits)] of the relational-product cache. *)

val gc_stats : manager -> int * int
(** [(collections, nodes swept)] since manager creation. *)

val eval : manager -> (int -> bool) -> t -> bool
(** Evaluate the function under a total assignment of its variables. *)

val id : t -> int
(** Stable integer identity of a node (valid until the next {!gc}),
    for memo tables keyed on nodes. *)

val view : manager -> t -> [ `Leaf of bool | `Node of int * t * t ]
(** Structure of a node: [`Node (var, low, high)]. Used by code
    generators to compile clock functions to decision code. *)

val support : manager -> t -> int list
(** Variables the function actually depends on, ascending. *)

val any_sat : manager -> t -> (int * bool) list option
(** A satisfying assignment (partial, over the support), or [None] for
    the zero function. *)

val node_count : manager -> int
(** Number of live hash-consed nodes, for benches. *)

val apply_stats : manager -> int * int
(** [(consultations, hits)] of the binary apply cache since manager
    creation, for cache-hit-rate metrics. *)

val pp :
  manager -> pp_var:(Format.formatter -> int -> unit) ->
  Format.formatter -> t -> unit
(** Sum-of-products rendering; exponential in the worst case, meant for
    small clock expressions in reports. *)
