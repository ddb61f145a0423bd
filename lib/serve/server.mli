(** The resident [x3 serve] daemon.

    A long-lived process keeping parsed documents, prepared queries
    (witness table, columnar layout) and computed cuboid views in a
    byte-budgeted LRU cache ({!Cuboid_cache}) charged to a dedicated
    {!X3_core.Governor} account. A requested cuboid is answered, in
    order of preference: directly from the cache; by rolling up a
    cached/finer materialised view when the observed coverage properties
    prove it sound (the lattice-ancestor reuse of §3.6); by a base
    witness-table scan otherwise. Answers are byte-identical to a cold
    [Engine.run] export for COUNT queries — the cache changes latency,
    never bytes.

    Concurrency model: every connection gets a thread; cube requests are
    gated by a {!X3_core.Governor.Admission} door and the engine work is
    serialized under one compute lock (the storage substrate beneath a
    session is unsynchronised). Cache bookkeeping is internally locked,
    so STATS/PING never wait on a running cube.

    Robustness model: accepted sockets are non-blocking and every frame
    read/write runs under [io_deadline] (slow or silent peers are reaped
    without disturbing other connections); the accept loop survives
    transient errors (EMFILE, ENFILE, ...) with logged backoff; {!stop}
    triggers a drained shutdown — stop accepting, let in-flight requests
    finish under [drain_deadline], then cancel the active compute (its
    client gets a typed response) and finally sever stragglers; with
    [snapshot_path] set, the drained daemon persists its cache index
    through {!Warm_store} and a restarted daemon rebuilds those sessions
    and their views before it serves. *)

type address = Unix_sock of string | Tcp of string * int

type config = {
  address : address;
  cache_bytes : int;
      (** LRU budget for document stores, sessions and cuboid views *)
  max_in_flight : int;  (** admission door width *)
  max_waiting : int;
  admission_timeout : float option;  (** [None] = wait forever *)
  max_input_bytes : int option;  (** refuse larger XML documents *)
  max_frame_bytes : int;  (** wire-frame payload cap *)
  io_deadline : float option;
      (** per-frame socket deadline in seconds; a peer that cannot
          deliver (or accept) one frame within it is disconnected —
          the slow-loris defense. [None] = wait forever. *)
  drain_deadline : float;
      (** seconds {!stop} waits for in-flight requests before cancelling
          the active compute *)
  snapshot_path : string option;
      (** where the drained daemon persists its cache index for warm
          restart; [None] = no snapshot. Corrupt or retired snapshots,
          and entries whose document or query no longer loads,
          cold-start, never fail. *)
  wal_path : string option;
      (** where ingested fragments are durably logged
          ({!X3_storage.Wal}); [None] disables the [ingest] verb. On
          startup the log is recovered (torn tail truncated) and its
          fragments are grafted into every later document load, so an
          ingest survives any crash after its [Ingest_ok]. A session
          prepared over a cached store folds in the fragments logged
          after the store was built instead. *)
  fault : Net_fault.t option;
      (** deterministic socket-fault plan installed on every accepted
          connection's reads/writes and on accept itself — tests only *)
  access_log_path : string option;
      (** JSONL access log, one record per request ({!Access_log});
          [None] disables it *)
  access_log_max_bytes : int;
      (** access-log size cap before single-level rotation to [FILE.1] *)
  prom_port : int option;
      (** loopback HTTP port for [GET /metrics] (Prometheus text),
          [/healthz] and [/readyz] ({!Http_endpoint}); 0 = ephemeral,
          [None] = no endpoint *)
  slow_ms : float option;
      (** requests slower than this run under their own trace scope and,
          past the threshold, have their span tree spooled as a
          Chrome-trace file; [None] disables per-request tracing *)
  trace_dir : string option;
      (** the slow-query capture spool directory (created on first
          capture); [None] disables capture even with [slow_ms] set *)
  trace_cap : int;  (** max spooled captures; oldest deleted beyond it *)
}

val default_config : address -> config
(** 64 MiB cache, 4 in flight, 16 waiting, no admission timeout,
    no input cap, {!Protocol.default_max_frame_bytes},
    30 s io deadline, 5 s drain deadline, no snapshot, no WAL, no
    faults, no access log, no scrape endpoint, no slow-query capture
    (16 MiB access-log cap and 32-capture spool when enabled). *)

val build_version : string
(** The version string stamped into [stats_document] meta and the
    [x3_build_info] Prometheus gauge. *)

type t

val create : config -> (t, string) result
(** Bind and listen (unlinking a stale unix-socket path); [Error] on
    bind/listen failure. SIGPIPE is ignored process-wide — a client
    dying mid-response must not kill the daemon. With [snapshot_path]
    set, attempts a warm restore before returning: each query the
    snapshot lists is served into the cache as a cube request would be,
    its session prepared over its document's cached store, which is
    parsed once, with every durable ingest grafted in; anything that fails
    cold-starts with a note to stderr. *)

val registry : t -> X3_obs.Metrics.t
(** The daemon's metrics registry ([serve.cache.*], [serve.latency.*],
    [serve.cuboids.*], [serve.requests.*], [serve.net.*], [wal.*]). *)

val prom_port : t -> int option
(** The bound scrape-endpoint port, when [prom_port] was configured
    (resolves an ephemeral [~port:0] to the kernel's pick). *)

val stats_document : t -> X3_obs.Json.t
(** The x3-metrics/1 document the STATS verb returns (gauges refreshed
    at call time). *)

val run : t -> unit
(** The accept loop: blocks until {!stop} or a SHUTDOWN frame, then
    drains in-flight connections, persists the cache snapshot (when
    configured) and removes the unix socket path. Each connection is
    served on its own thread; dead clients (EOF, EPIPE, oversized or
    malformed frames) terminate their connection only. *)

val stop : t -> unit
(** Begin drained shutdown: stop accepting and wake the accept loop.
    Idempotent, lock-free and async-signal-safe — a SIGTERM/SIGINT
    handler may call it directly. The drain itself runs on the {!run}
    thread's way out. *)

val live_connections : t -> int
(** Currently-registered connection threads — 0 once fully drained. *)

val set_fault : t -> Net_fault.t option -> unit
(** Swap the daemon's socket-fault plan at runtime (tests clear a
    crash-mode plan to prove the daemon recovered). Applies to frames
    and accepts that consult the plan after the swap. *)

(** {1 Client} *)

module Client : sig
  type conn

  val connect :
    ?max_frame_bytes:int ->
    ?fault:Net_fault.t ->
    address ->
    (conn, string) result
  (** [fault] installs a deterministic fault plan on this connection's
      own reads/writes (tests of client-side retry). *)

  val request :
    ?deadline:float ->
    conn ->
    Protocol.request ->
    (Protocol.response, string) result
  (** One request/response exchange. [deadline] (seconds, spanning the
      write and the read) turns a stalled server into
      [Error "frame timed out..."] instead of blocking forever. *)

  val close : conn -> unit

  val request_with_retry :
    ?retries:int ->
    ?backoff:float ->
    ?seed:int ->
    ?max_frame_bytes:int ->
    ?fault:Net_fault.t ->
    ?deadline:float ->
    address ->
    Protocol.request ->
    (Protocol.response, string) result
  (** Connect-per-attempt request with jittered exponential backoff:
      retries transport failures (connect refused, dropped connections,
      frame faults) and typed responses whose code satisfies
      {!Protocol.retryable_error} — up to [retries] (default 3) extra
      attempts, sleeping [backoff * 2^attempt * jitter] seconds between
      them (default base 0.05 s, jitter in [0.5, 1.5) drawn from a
      splitmix64 stream seeded by [seed], so schedules are
      reproducible). Non-retryable failures return immediately. *)
end
