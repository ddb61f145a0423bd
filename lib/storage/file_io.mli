(** The file seam: every write, fsync, rename and directory fsync that
    the ingest WAL ({!Wal}) and the snapshot store ({!Snapshot_store})
    make goes through here.

    One process-wide injector, consulted {e before} each operation, may
    raise (an injected I/O error or a crash) or answer [Torn n]: only
    the first [n] bytes of that write reach the file. {!Fault} plans
    install on it with [Fault.install_files], as they install on a
    {!Disk} with [Fault.install]. *)

type event =
  | Write of int  (** a write of this many bytes *)
  | Sync  (** fsync of a file *)
  | Rename  (** a rename over the destination *)
  | Sync_dir of string  (** fsync of this directory *)

type verdict = Proceed | Torn of int

val set_injector : (event -> verdict) option -> unit
(** Install (or clear, with [None]) the injector. *)

val write : Unix.file_descr -> at:int -> string -> unit
(** [write fd ~at data] writes all of [data] at file offset [at]. *)

val fsync : Unix.file_descr -> unit

val rename : string -> string -> unit
(** [rename src dst], as [Sys.rename]. *)

val sync_dir : string -> unit
(** Open [path] (a directory) read-only and fsync it, so a file created
    or renamed in it keeps its name across power loss. Soft-fails on
    filesystems that refuse directory fsync; an injected fault still
    raises. *)
