(** End-to-end X³ execution.

    A {!spec} is the programmatic form of an X³ query (the parsed language
    lives in [x3_ql] and compiles to this). {!prepare} evaluates the most
    relaxed fully instantiated pattern, materialises the witness table and
    builds the lattice; {!run} executes one algorithm over the prepared
    input, returning the cube and the run's instrumentation. *)

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type filter = {
  filter_path : X3_pattern.Axis.step list;  (** relative to the fact *)
  op : comparison;
  operand : string;
}
(** A WHERE predicate: the fact qualifies iff {e some} binding of
    [filter_path] satisfies [op] against [operand] — XPath's existential
    comparison semantics. Comparison is numeric when both sides parse as
    numbers, lexicographic otherwise. *)

type spec = {
  fact_path : X3_pattern.Eval.fact_path;
  axes : X3_pattern.Axis.t array;
  func : Aggregate.func;
  measure_path : X3_pattern.Axis.step list option;
      (** [None] aggregates the constant 1 per fact (COUNT); [Some path]
          reads the first matching descendant's numeric string value,
          defaulting to 0 when absent or non-numeric. *)
  filters : filter list;  (** conjunction; empty = no WHERE clause *)
}

val filter_holds :
  X3_xdb.Store.t -> filter -> fact:X3_xdb.Store.node -> bool

val count_spec :
  fact_path:X3_pattern.Eval.fact_path -> axes:X3_pattern.Axis.t array -> spec
(** The paper's COUNT($b) form. *)

val fact_tag : spec -> string
(** Element tag of the fact nodes (last step of the fact path). *)

type prepared

val prepare :
  pool:X3_storage.Buffer_pool.t -> store:X3_xdb.Store.t -> spec -> prepared
(** Pre-evaluates the pattern and materialises the witness table — the
    paper measures cube computation separately from this step, and so do
    the benchmarks. *)

val spec_of : prepared -> spec
val table : prepared -> X3_pattern.Witness.t
val lattice : prepared -> X3_lattice.Lattice.t
val measure : prepared -> int -> float

type algorithm =
  | Naive
  | Counter
  | Buc
  | Bucopt
  | Buccust
  | Td
  | Tdopt
  | Tdoptall
  | Tdcust

val all_algorithms : algorithm list

val algorithm_to_string : algorithm -> string
(** The paper's names: COUNTER, BUC, BUCOPT, BUCCUST, TD, TDOPT, TDOPTALL,
    TDCUST — and NAIVE for the reference. *)

val algorithm_of_string : string -> algorithm option

val correct_under :
  algorithm -> disjoint:bool -> coverage:bool -> bool
(** §3's correctness conditions: BUCOPT and TDOPT need disjointness,
    TDOPTALL needs both; everything else is unconditionally correct. *)

type config = {
  counter_budget : int;  (** COUNTER's max simultaneously-live counters *)
  radix_bits : int;
      (** grouping-strategy threshold (see {!Radix.plan}): cuboids whose
          compact key domain fits this many bits group through a radix
          kernel; 0 disables the radix tiers entirely *)
}

val default_config : config

val run :
  ?props:X3_lattice.Properties.t ->
  ?config:config ->
  prepared ->
  algorithm ->
  Cube_result.t * Instrument.t
(** [props] feeds the custom variants (BUCCUST/TDCUST); it defaults to "no
    knowledge", making them degrade to BUC/TD. Every family runs on the
    calling domain and adds a group's base-data measures in table order,
    so a float SUM/AVG cell computed from base data carries NAIVE's bits;
    a TDOPTALL/TDCUST roll-up adds the finer cells' totals instead. *)

(** {1 Ingest deltas}

    The crash-safe ingest path appends facts to a live session without
    rebuilding anything: a fragment is staged into witness rows against
    the fragment alone ({!stage_fragment}), appended to the table's tail,
    and propagated into cached views cell-by-cell
    ({!Session.apply_delta}). Every step either proves its own soundness
    or refuses with a typed reason, in which case the caller falls back
    to a cold rebuild of the grafted document — exact by construction. *)

val synthetic_fact_base : int

val synthetic_fact_id : lsn:int -> int
(** Fact id of the fragment ingested at WAL sequence number [lsn]:
    deterministic, so replay after a crash or a warm restore reproduces
    the same ids, and disjoint from real store node ids. *)

type staged_fragment =
  | Staged of X3_pattern.Witness.Staged.row list
      (** the fragment's witness rows, ready for
          {!Session.apply_delta} — empty when a WHERE filter excludes
          the fact (the document grows, the table does not) *)
  | Not_a_fact
      (** the fragment contributes no fact match — graft it and move on *)
  | Unsupported of string
      (** the fragment-only evaluation cannot prove it sees the same
          bindings the grafted document would; rebuild cold *)

val stage_fragment :
  spec -> fragment:X3_xml.Tree.element -> fact_id:int -> staged_fragment
(** Evaluate the cube pattern over [fragment] alone. Sound exactly when
    the fragment subtree is the fact's whole match context: a single-step
    [//t] fact path whose unique match is the fragment root (grouping
    axes, WHERE filters and SP relaxations all evaluate strictly below
    the fact node). A single-step [/t] path selects only the document
    element, which a grafted fragment never is, so it is [Not_a_fact].
    The staged rows carry [fact_id] (see {!synthetic_fact_id}). *)

type delta_fallback =
  | Layout_overflow of string
      (** this axis's dictionary would outgrow the key bits the
          session's frozen per-axis widths allocated for it *)
  | Measure_unsupported
      (** measured cubes resolve fact ids against the host store;
          synthetic ingest facts have no node there *)
  | Fragment_unsupported of string  (** {!stage_fragment} refused *)

val fallback_reason_name : delta_fallback -> string
(** Stable snake_case names ("layout_overflow", ...) for metrics and wire
    responses. *)

val pp_fallback : Format.formatter -> delta_fallback -> unit

(** {1 Resident sessions}

    The serve daemon's entry point into the engine: a {!Session.t} wraps
    one prepared query with a persistent context (columnar layout and
    byte bookings survive across requests) and the {e observed}
    summarizability properties of its witness table — the soundness
    oracle a cuboid cache consults before answering a requested cuboid
    by rolling up a cached finer one instead of rescanning base data. *)

module Session : sig
  type t

  val create : prepared -> t
  (** Builds the context and its columnar view ({!Context.cols}, the one
      table scan) and measures ground-truth properties over the columns
      with {!X3_lattice.Properties.observe_columns}. Every session
      operation runs on the calling domain, under an unbounded account
      and the default budgets. Sessions are {e not} thread-safe — the
      buffer pool underneath is unsynchronised, so callers must serialize
      access. *)

  val prepared : t -> prepared
  val context : t -> Context.t

  val props : t -> X3_lattice.Properties.t
  (** Observed disjointness/coverage — what {!rollup} checks against.
      {!apply_delta} refreshes it ({!X3_lattice.Properties.restrict}), so
      rollups stay sound after ingests. *)

  val apply_delta :
    t ->
    X3_pattern.Witness.Staged.row list ->
    views:Materialized.t list ->
    (X3_pattern.Witness.row list * int, delta_fallback) result
  (** Append one staged fact batch to the session's witness table and
      patch [views] cell-by-cell — only the cells whose packed group
      keys the new facts touch change, nothing is rebuilt. On success
      the table, the context's columnar caches, every given view and
      the observed properties are all consistent with a cold rebuild of
      the extended table; [Ok (rows, patched)] returns the coded rows
      and how many (fact, group) additions the views took. A typed
      [Error] means the delta could not be proven sound
      ({!delta_fallback}) and {e nothing was mutated} — the caller must
      rebuild cold. The patch needs no disjointness or coverage: it adds
      each new fact once to each of its groups. The facts must be fresh
      (a batch applied twice counts twice); the serve daemon guards
      replay by WAL sequence number. *)

  val materialize : t -> cuboid:int -> Materialized.t
  (** Base computation by TD's per-cuboid step, in TDCUST's mode
      ({!Materialized.materialize}). *)

  val rollup :
    t -> Materialized.t -> coarser:int -> (Materialized.t, string) result
  (** Answer [coarser] from a finer view's cells without touching base
      data, where TDCUST's rule ({!X3_lattice.Properties.rollup_refusal})
      admits it; [Error] names the property that fails. *)

  val result_of_views : t -> Materialized.t list -> Cube_result.t
  (** A cube result holding the views' cells (one view per lattice cuboid
      for a full cube). The daemon does not call it: it prints its views
      directly ({!Export.views_csv_string}). It is kept only because the
      frozen end-to-end bench ([e2e/]) replays a request through it, and
      goes when that bench exports from views. *)

  val table_bytes : t -> int
  (** Resident footprint of the witness table
      ({!X3_pattern.Witness.approx_bytes}) — what a cache charges for
      keeping the session loaded. The session's columnar view is not
      counted. *)

  val with_request :
    t ->
    ?scope:X3_obs.Trace.scope ->
    ?deadline_at:float ->
    (unit -> 'a) ->
    ('a, Context.stop_reason) result
  (** Run [f] under one request's compute budget and trace scope: arm
      the session context's deadline at the absolute time [deadline_at]
      (none = unbounded), attach [scope] to the context
      ({!Context.set_trace_scope}) and bind it to the calling thread, so
      every probe this request's compute emits lands in the request's own
      capture. Afterwards the deadline is disarmed, the stop state cleared
      and the scope detached, so the long-lived session can serve its next
      request. [Error reason] when
      the run stopped (deadline, cancel hook, byte budget); views
      completed before the stop remain valid. *)
end

(** {1 Graceful degradation}

    {!run_safe} is {!run} with a failure model: typed outcomes instead of
    storage exceptions, a deadline/cancellation hook the algorithms poll
    at block boundaries, and bounded retry with exponential backoff for
    transient I/O faults. *)

type error =
  | Corrupt of string
      (** the input pages failed checksum/format verification — retrying
          cannot help *)
  | Io_fault of string
      (** an I/O fault (injected or real) survived the retry budget, or
          the disk crashed mid-run *)

type outcome =
  | Complete of Cube_result.t * Instrument.t
  | Partial of Context.stop_reason * Cube_result.t * Instrument.t
      (** the run was cancelled, overran its deadline, or exhausted its
          byte budget (past COUNTER's spill floor); the result holds every
          cell completed before the stop *)
  | Failed of error

type run_stats = {
  io : X3_storage.Stats.t;
      (** pool + disk counter deltas attributable to this call (both the
          witness table's buffer pool and its backing disk, summed) *)
  mutable peak_bytes : int;
      (** highest byte reservation across all attempts; 0 when ungoverned *)
  mutable attempts : int;  (** attempts made, including the successful one *)
}
(** Query-attributed substrate counters: pass one to {!run_safe} and it is
    filled with the {!X3_storage.Stats} delta the call produced — the
    global counters are monotonic and shared, so attribution works by
    snapshot/diff around the run. Reusable across calls (deltas
    accumulate). *)

val fresh_run_stats : unit -> run_stats

val cuboid_label : prepared -> int -> string
(** The cuboid's relaxed tree pattern (Fig. 3 style), e.g.
    [publication[.//author[./name]][./year]] — used to label per-cuboid
    trace events and [x3 explain] rows. *)

val run_safe :
  ?props:X3_lattice.Properties.t ->
  ?config:config ->
  ?workers:int ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  ?retries:int ->
  ?backoff:float ->
  ?governor:Governor.t ->
  ?max_bytes:int ->
  ?stats:run_stats ->
  prepared ->
  algorithm ->
  outcome
(** [deadline] is seconds of wall clock for the whole call, spanning every
    retry attempt. [cancel] is polled at check points; returning [true]
    stops the run. [retries] (default 2) bounds re-runs after a transient
    fault, sleeping [backoff * 2^attempt] seconds (default 0.01) between
    attempts. Exceptions that are neither storage faults nor corruption
    (bugs, [Out_of_memory], ...) still raise.

    [governor]/[max_bytes] put the run under a byte budget: a fresh
    {!Governor.account} (capped at [max_bytes], drawing on [governor]'s
    shared pool when given) is opened per attempt and closed — releasing
    everything — when the attempt ends, so retries and concurrent queries
    see an honest pool. Over-budget pressure first squeezes COUNTER's
    spill path (counter eviction) and only past its floor yields
    [Partial (Over_budget, ...)]; TD books its radix scratch and sort
    arrays up front and yields the partial as soon as they do not fit.

    [workers] is ignored: every family runs on the calling domain. It is
    accepted only because the frozen end-to-end bench ([e2e/]) still
    passes it, and goes when that bench drops its worker rows. *)
