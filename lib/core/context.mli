(** Shared run context for the cube-computation algorithms. *)

type stop_reason = Cancelled | Deadline_exceeded | Over_budget

exception Stop of stop_reason
(** Raised by {!check}/{!checkpoint} once a stop is requested. The
    algorithms catch it at their outermost loop and return whatever cells
    they have — {!stopped} tells the engine the result is partial. *)

type control

type t = {
  table : X3_pattern.Witness.t;  (** the materialised witness table *)
  lattice : X3_lattice.Lattice.t;
  widths : int array;
      (** key bits per axis, from the table's dictionary sizes when the
          context was created *)
  shapes : Group_key.shape array;  (** each cuboid's key shape, by id *)
  measure : int -> float;  (** fact id -> measure value (1.0 for COUNT) *)
  instr : Instrument.t;
  counter_budget : int;
      (** max simultaneously-live group counters for COUNTER — the paper's
          "fits in memory" knob *)
  radix_bits : int;
      (** grouping-strategy threshold: cuboids whose compact key domain
          fits this many bits group through a radix kernel; 0 disables the
          radix tiers (every cuboid takes the hash path) *)
  account : Governor.account;  (** byte-budget account — see {!reserve} *)
  control : control;  (** cooperative stop state — see {!check} *)
  mutable cols_cache : X3_pattern.Witness.Columnar.t option;
  mutable block_measures_cache : float array option;
}

val create :
  ?counter_budget:int ->
  ?radix_bits:int ->
  ?account:Governor.account ->
  table:X3_pattern.Witness.t ->
  lattice:X3_lattice.Lattice.t ->
  measure:(int -> float) ->
  unit ->
  t
(** [counter_budget] defaults to 1_000_000 counters. [radix_bits]
    defaults to {!Radix.default_radix_bits}. [account] defaults to
    {!Governor.unbounded}; a governed account immediately books the
    witness table's resident footprint ({!X3_pattern.Witness.approx_bytes})
    — if even that fails, the first {!check} stops with [Over_budget]. *)

(** {1 Cancellation and deadlines}

    Stops are cooperative: the algorithms call {!check} (or the amortised
    {!checkpoint}) at block, cuboid and pass boundaries, and a pending
    cancellation or an expired deadline raises {!Stop} there — never in
    the middle of updating a cell, so the partially filled result stays
    internally consistent. *)

val set_deadline_at : t -> float -> unit
(** Stop the run at an absolute [Unix.gettimeofday] time — what a
    retrying caller uses so the budget spans all attempts. *)

val set_cancel_hook : t -> (unit -> bool) -> unit
(** A poll the checks consult; returning [true] cancels the run. *)

val cancel : t -> unit
(** Request cancellation (domain-safe; takes effect at the next check). *)

val clear_deadline : t -> unit
(** Drop the deadline — a long-lived context (a serve session) clears the
    previous request's budget before the next one starts. *)

val clear_stop : t -> unit
(** Reset the stop state (recorded reason, pending stop, cancel flag) so
    a context that stopped one request can run the next.  The cancel
    hook stays installed. *)

val set_trace_scope : t -> X3_obs.Trace.scope option -> unit
(** Attach (or clear) the request's trace capture. The scope rides the
    context like the deadline does — per-request state on a long-lived
    session — and {!Engine.Session.with_request} binds it around the
    compute so every probe the request emits lands in its own scope. *)

val trace_scope : t -> X3_obs.Trace.scope option

val stopped : t -> stop_reason option
(** Why the run stopped early, if it did — the engine turns [Some] into a
    [Partial] outcome. *)

val reason_name : stop_reason -> string
(** ["cancelled"], ["deadline_exceeded"], ["over_budget"] — the stable
    names traces, wire responses and exit-code mapping share. *)

val check : t -> unit
(** Raise {!Stop} if a stop is pending; record the reason for {!stopped}. *)

val stop : t -> stop_reason -> 'a
(** Stop the run now: record the reason and raise {!Stop} — how
    COUNTER's spill path reports hitting its floor ([Over_budget]). *)

val checkpoint : t -> unit
(** {!check}, amortised: only every 64th call consults the hook and the
    clock — cheap enough for per-row scan loops. *)

(** {1 Byte accounting}

    Thin veneer over the context's {!Governor.account}. Algorithms reserve
    bytes for the structures they are about to grow (group tables, TD's
    sort arrays, the columnar view) at the same boundaries where they
    {!check}. COUNTER is the one algorithm that spills: it evicts counters
    ({!try_reserve}) before a refused reservation stops it; everywhere
    else a refused reservation stops the run with [Over_budget]. *)

val account : t -> Governor.account

val reserve : t -> int -> unit
(** Book [n] bytes or raise {!Stop}[ Over_budget] (recording it for
    {!stopped}). *)

val with_scratch : t -> int -> (unit -> 'a) -> 'a
(** [with_scratch t bytes f] books [bytes] of transient radix scratch
    (slot arrays, partition buffers) around [f], releasing them however
    [f] exits, and records them as a radix-scratch high-water mark on
    [t.instr]. *)

val try_reserve : t -> int -> bool
(** Book [n] bytes; [false] (with nothing booked) when the budget is
    exhausted — for callers that can spill instead of stopping. *)

val release : t -> int -> unit
(** Return [n] bytes to the account. *)

val budget_remaining : t -> int
(** Bytes still reservable — [max_int] when ungoverned. COUNTER derives
    its per-pass counter budget from this. *)

(** {1 Columnar view}

    Every cube algorithm, materialised view and observed property reads
    the witness table through an unboxed column-major view
    ({!X3_pattern.Witness.Columnar}): one Bigarray id column and one tag
    column per axis. Building it is the one instrumented pass over the
    table's pages through the buffer pool — faults and corruption surface
    there — after which the columns are cached on the context and, since
    a column set's rows never change, safe to share across domains. *)

val cols : t -> X3_pattern.Witness.Columnar.t
(** The table's columnar view, built (and byte-booked) on first use.
    Counts as one table scan. *)

val block_measures : t -> X3_pattern.Witness.Columnar.t -> float array
(** Measure per fact block, forced once on first use (the measure
    function may memoise and must not run concurrently) — what the
    grouping kernels read instead of calling [measure] per row. After
    {!note_append} the array may be longer than the block count. *)

val note_append : t -> X3_pattern.Witness.row list -> unit
(** The ingest path appended [rows] (fresh facts, already interned into
    [table]) — extend the cached columnar view and block-measure array in
    place rather than rebuilding them on the next request. Only sessions
    append, and their account is unbounded, so the growth is not
    booked. *)
