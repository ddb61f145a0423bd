(** The serve daemon's warm-restart snapshot file.

    On drained shutdown the daemon packs its cuboid-cache index — which
    (document, query) sessions were resident, in LRU order — into the
    records of one checksummed {!X3_storage.Snapshot_store} file, written
    beside the old one and renamed over it. On restart it loads
    each listed document once, with every durable ingest grafted in, and
    re-runs each session's cube into the cache, exactly as a cube
    request would.

    No view is stored, so there is nothing to keep in step with the
    document bytes: a restored answer is always computed from the file
    on disk. This module checks record shape only (length, checksum and
    count are the file's job); every failure is an [Error], never an exception —
    snapshot loss is a cold start, not a fault. *)

type entry = {
  ws_query : string;  (** X^3 query text, compiled again on restore *)
  ws_doc_path : string;  (** resolved document path at save time *)
}

val save : path:string -> entry list -> (unit, string) result
(** Atomic (write [path ^ ".tmp"], fsync, rename into place, fsync the
    directory) via {!X3_storage.Snapshot_store.save_file}. *)

val load : path:string -> (entry list, string) result
(** Verify-on-load via {!X3_storage.Snapshot_store.load_file}; [Error]
    on a missing or truncated file, a checksum failure, a malformed
    stream, or a stream written under another format version (["warm
    snapshot: unsupported version ..."]). *)

(**/**)

val encode : entry list -> string list
val decode : string list -> (entry list, string) result
