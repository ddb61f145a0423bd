(** Deterministic, seedable fault injection over a {!Disk} or the
    {!File_io} seam.

    A plan wraps a disk ({!install}, through {!Disk.set_injector}) or
    every file write, fsync, rename and directory fsync of the WAL and
    the snapshot store ({!install_files}, through
    {!File_io.set_injector}). Per operation it decides whether to let it
    proceed, fail it, tear it, or declare the process crashed. Plans
    carry their own operation counters, so the same plan over the same
    workload injects the same faults — a fault schedule is an input, not
    an environment.

    The crash model: {!crash_after}[ n] lets the first [n] operations
    through and crashes on the next. A crashing write is dropped, or with
    [~torn:k] keeps its first [k] bytes; every operation after it raises
    {!Crashed}. The media image at that point is exactly what a recovery
    path reopening the store sees; {!clear} / {!clear_files} remove the
    injector, playing the part of the restart. *)

type error_class = Read_error | Write_error | Sync_error | Enospc

exception Injected of { cls : error_class; page : int }
(** A transient injected I/O error ([page] is [-1] for sync, allocate
    and every file-seam operation). *)

exception Crashed
(** Raised by the crash point (unless it tears a write) and by every
    operation after it. *)

type t

(** {1 Schedules} *)

val fail_nth_read : int -> t
(** The [n]th read (1-based, counted by this plan) raises {!Injected};
    reads before and after proceed — a transient error a retry absorbs. *)

val fail_nth_write : int -> t

val fail_nth_sync : int -> t
(** Counts disk syncs, file fsyncs and directory fsyncs alike. *)

val enospc_on_allocate : int -> t
(** The [n]th allocation fails — out of space. *)

val crash_after : ?torn:int -> int -> t
(** Let [n] operations of any kind through; the next one is the crash.
    A crashing write is dropped, or with [~torn:k] keeps its first [k]
    bytes (a torn page fails checksum verification on the next read);
    any other crashing operation does not happen. Every operation after
    the crash raises {!Crashed}. [n = 0] crashes on the very first
    operation. *)

val seeded : seed:int -> rate:float -> error_class list -> t
(** Pseudo-random transient faults: every operation matching one of the
    classes draws from a splitmix64 stream seeded by [seed] and fails with
    probability [rate]. Deterministic given seed and operation sequence. *)

val combine : t list -> t
(** One plan applying all the given plans' rules, with fresh counters. *)

(** {1 Wiring} *)

val install : t -> Disk.t -> unit
(** Start injecting: every disk operation consults the plan. *)

val clear : Disk.t -> unit
(** Remove any injector — the "restart" before recovery. *)

val install_files : t -> unit
(** Start injecting on the {!File_io} seam (process-wide). *)

val clear_files : unit -> unit

(** {1 Observation} *)

val crashed : t -> bool
(** Did the crash point fire? *)

val injected_faults : t -> int
(** Transient faults injected so far (crash aborts not included). *)
