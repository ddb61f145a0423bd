(** Write-ahead ingest log: one append-only file of checksummed,
    LSN-stamped records, with group commit and torn-tail truncation on
    recovery.

    The file is an 8-byte header (magic ["X3WL"], u32 version 1)
    followed by records back to back, each
    [u32 len | u64 lsn | u32 crc | payload] (little-endian; the CRC-32
    covers the LSN and the payload; LSNs are dense from 1). There is no
    padding: after [n] commits the file is the header plus the bytes of
    every committed record.

    [append] only buffers; [commit] writes the batch at the committed
    end of the file in one write and fsyncs once — the group-commit
    contract. A failed commit keeps its batch, so a retry writes the same
    bytes at the same offset.

    {!open_file} keeps the longest prefix of valid records (length, CRC
    and LSN density all check), truncates the file there and fsyncs it,
    so a crash mid-commit recovers to the exact state of the last
    completed commit, never a torn one, and every record replayed is on
    disk. Writes and fsyncs go through {!File_io}, where
    {!Fault} plans can fail, tear or crash them.

    Replay idempotence is by LSN: consumers record the highest LSN they
    have applied and {!replay} from there — applying the same prefix
    twice is the caller's bug, skipping by LSN is the protocol. *)

type t

type record = { lsn : int; payload : string }

exception Not_a_log of string
(** {!open_file} found a file (this path) that does not start with the
    log header. The file is left untouched. *)

val open_file : string -> t
(** Create, or reopen and recover, the log at [path]. A missing file —
    or one shorter than the header whose bytes are a prefix of it, a log
    whose creation crashed — gets a fresh header, is fsynced, and its
    directory is fsynced ({!File_io.sync_dir}) so the name is durable.
    Any other file must start with the header, or {!Not_a_log} is
    raised. *)

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
(** Re-read and re-validate the file (exercises the codec; [Error] when
    the bytes on disk no longer parse cleanly to their end). *)

val batches : t -> int
(** Group-commit batches written so far (this process). *)

val record_count : t -> int

val dropped_bytes : t -> int
(** Torn bytes discarded by recovery at open (0 for a clean log). *)

val attach_metrics : t -> X3_obs.Metrics.t -> unit
(** Wire the log into a metrics registry. From now on [append] bumps
    [wal.appends] and [commit] bumps [wal.commits] / [wal.commit_bytes]
    (the bytes the commit wrote) and observes the fsync latency on the
    [wal.latency.commit_fsync] histogram (seconds). Attaching also
    records the recovery story once: [wal.recovered_records] is bumped
    by the records found at open, and a torn-tail truncation bumps
    [wal.torn_tail_truncations] (plus [wal.torn_bytes_dropped] by the
    discarded byte count). *)
