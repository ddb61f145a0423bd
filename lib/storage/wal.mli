(** Write-ahead ingest log: checksummed, LSN-stamped records with group
    commit and torn-tail truncation on recovery.

    The log owns its {!Disk} (nothing else may allocate from it) and lays
    a record stream over sequential pages. [append] only buffers; [commit]
    writes every buffered record and issues {e one} [Disk.sync] — fsync
    batching, the group-commit contract. Each batch is padded to a page
    boundary so a synced page is never rewritten: a torn write can only
    hit bytes that were never acknowledged as durable.

    Recovery ({!open_disk} / {!open_file}) scans the stream and truncates
    at the last record that passes its length, CRC-32 and LSN-density
    checks: a crash mid-commit recovers to the exact state of the last
    completed commit, never a torn one. Because appends go through the
    disk layer, the {!Fault} injector covers every WAL write, sync and
    allocation for crash-at-every-write sweeps.

    Replay idempotence is by LSN: consumers record the highest LSN they
    have applied and {!replay} from there — applying the same prefix
    twice is the caller's bug, skipping by LSN is the protocol. *)

type t

type record = { lsn : int; payload : string }

val open_disk : Disk.t -> t
(** Recover a log over a caller-owned disk (tests; the memory backend).
    The disk must be dedicated to the WAL. {!close} leaves it open. *)

val open_file : ?page_size:int -> string -> t
(** Create (or reopen and recover) a file-backed log. The file is created
    if missing, its directory then fsynced ({!Disk.sync_dir}) so the new
    name is durable, and it is {e not} removed on {!close}. *)

val close : t -> unit

val append : t -> string -> int
(** Buffer one record and return its LSN. Nothing is durable until
    {!commit}. Raises [Invalid_argument] on an empty payload. *)

val commit : t -> unit
(** Write every buffered record and fsync once (no-op when nothing is
    pending). On return the batch is durable: {!durable_lsn} advances to
    the last appended LSN. *)

val durable_lsn : t -> int
(** Highest LSN known durable on disk. *)

val records : t -> record list
(** Every committed record, oldest first. *)

val replay : t -> after:int -> (record -> unit) -> unit
(** Apply every committed record with [lsn > after], oldest first — the
    warm-restart path: [after] is the snapshot's LSN. *)

val rescan : t -> (record list, string) result
(** Re-read and re-validate the stream from disk (exercises the codec;
    [Error] when the on-disk bytes no longer parse cleanly). *)

val batches : t -> int
(** Group-commit batches written so far (this process). *)

val record_count : t -> int

val dropped_bytes : t -> int
(** Torn bytes discarded by recovery at open (0 for a clean log). *)

val attach_metrics : t -> X3_obs.Metrics.t -> unit
(** Wire the log into a metrics registry. From now on [append] bumps
    [wal.appends] and [commit] bumps [wal.commits] / [wal.commit_bytes]
    (logical batch bytes, before page padding) and observes the
    [Disk.sync] latency on the [wal.latency.commit_fsync] histogram
    (seconds). Attaching also records the recovery story once:
    [wal.recovered_records] is bumped by the records found at open, and
    a torn-tail truncation bumps [wal.torn_tail_truncations] (plus
    [wal.torn_bytes_dropped] by the discarded byte count). *)
