(** The resource governor: byte-budgeted execution and admission control.

    The paper's top-down family is defined by what "fits in memory", and
    Gray et al. already observed that memory is the binding constraint of
    cube computation. This module makes that constraint explicit: a
    {!t} is a global byte pool shared by every concurrently running query,
    an {!account} is one query's private budget drawn against it, and the
    algorithms request {e reservations} from their account at block,
    refine and pass boundaries (the same checkpoints the deadline/cancel
    machinery uses). Over-budget pressure first forces COUNTER's spill
    path (counter eviction) and only once its floor is hit does the run
    stop with a typed [Over_budget] partial; every other reservation
    stops the run as soon as it is refused.

    Accounting is estimate-based but conservative and two-sided: every
    reservation is paired with a release, so a long-running session's
    pool usage tracks live structures, not history. The unit costs below
    are the documented cost model — deliberately simple integers so that
    budget arithmetic is deterministic across runs.

    {!Admission} is the load-shedding front door: a bounded number of
    queries run at once, a bounded number wait, and everything beyond
    that is rejected immediately with a typed reason instead of grinding
    the whole process into swap. *)

(** {1 Cost model} *)

val counter_cost : int
(** Estimated bytes of one live group counter: the hash-table slot, the
    boxed group key and the aggregate cell. *)

val sort_record_cost : Group_key.shape -> int
(** Bytes of one (key, row) record in TD's in-memory sort array for a
    cuboid of this key shape, its array slot included: 48 for a [Packed]
    key, [56 + 8k] for a [Wide] key of [k] present axes. *)

(** {1 The global pool} *)

type t

val create : ?max_bytes:int -> unit -> t
(** A pool of [max_bytes] (default: unlimited). *)

val limit : t -> int
val used : t -> int
val peak : t -> int

val shed : t -> int
(** Reservations refused because the pool (not the account) was full —
    the pool-level load-shedding counter. *)

(** {1 Per-query accounts} *)

type account

val unbounded : account
(** The no-governor account: every reservation succeeds. [Context]
    defaults to it, so ungoverned runs pay one branch per reservation. *)

val open_account : ?max_bytes:int -> t option -> account
(** An account drawing on the pool (or on nothing when [None]), capped at
    [max_bytes] (default: unlimited). Reservations fail once either the
    account cap or the pool limit would be exceeded. *)

val is_unbounded : account -> bool
(** [true] only for {!unbounded} — lets hot paths skip accounting
    entirely when no budget is in force. *)

val reserve : account -> int -> bool
(** [reserve a n] books [n] more bytes; [false] if the account cap or the
    pool is exhausted (nothing is booked then). Domain-safe. *)

val release : account -> int -> unit
(** Return [n] bytes to the account and the pool. *)

val account_used : account -> int
val account_peak : account -> int

val remaining : account -> int
(** Bytes the account can still reserve — [max_int] when unbounded.
    COUNTER derives its per-pass counter budget from this. *)

val close : account -> unit
(** Release everything the account still holds back to the pool.
    Idempotent. *)

(** {1 Admission control} *)

module Admission : sig
  type t

  val create : ?max_in_flight:int -> ?max_waiting:int -> unit -> t
  (** At most [max_in_flight] (default 4) queries hold slots at once; at
      most [max_waiting] (default 16) wait for one. *)

  type rejection =
    | Saturated of { in_flight : int; waiting : int }
        (** the wait queue was already full — shed immediately *)
    | Timed_out of { waited : float }
        (** a slot did not free within the caller's patience *)

  val pp_rejection : Format.formatter -> rejection -> unit

  val admit : ?max_wait:float -> t -> (unit, rejection) result
  (** Take a slot, waiting up to [max_wait] seconds (default: as long as
      it takes) while the queue has room. [Error] is the typed shed
      decision. Domain-safe; waiters block on a condition variable (zero
      CPU between wakeups) and are admitted strictly FIFO — a freed slot
      always goes to the longest waiter. Timed waits are enforced by a
      per-door watchdog thread started lazily on the first timed waiter,
      so deadlines hold even though stdlib [Condition] has no timed
      wait. *)

  val release : t -> unit
  (** Give the slot back (must pair with a successful {!admit}). *)

  val in_flight : t -> int
  val waiting : t -> int
  val admitted_total : t -> int
  val rejected_total : t -> int
end
