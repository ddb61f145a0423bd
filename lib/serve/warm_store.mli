(** The serve daemon's warm-restart snapshot file.

    On drained shutdown the daemon packs its cuboid-cache index — which
    (document, query) sessions were resident, in LRU order — and every
    cached {!X3_core.Materialized} view into one checksummed
    {!X3_storage.Snapshot_store} file; on restart it restores whatever
    still verifies and serves the rest cold.

    The soundness rule: a restored view may only be served against
    document bytes {e identical} to the bytes it was computed from, so
    each document carries the MD5 digest taken at save time.  This
    module checks stream shape only (checksums are the store's job,
    digests and re-parsing the server's); every failure is an [Error],
    never an exception — snapshot loss is a cold start, not a fault. *)

type doc_snapshot = {
  ws_query : string;  (** X^3 query text, compiled again on restore *)
  ws_doc_path : string;  (** resolved document path at save time *)
  ws_digest : string;  (** [Digest.file ws_doc_path] at save time *)
  ws_wal_lsn : int;
      (** ingest-WAL high-water folded into the views at save time; the
          restorer replays WAL records with greater LSNs on top *)
  ws_views : string list list;
      (** per cached view, its {!X3_core.Materialized.to_records}
          stream, in cache LRU order *)
}

val save : path:string -> doc_snapshot list -> (unit, string) result
(** Atomic (write-beside, rename-into-place) via
    {!X3_storage.Snapshot_store.save_file}. *)

val load : path:string -> (doc_snapshot list, string) result
(** Verify-on-load via {!X3_storage.Snapshot_store.load_file}; [Error]
    on a missing file, any checksum failure, a malformed stream, or a
    stream written under another format version (["warm snapshot:
    unsupported version ..."]). *)

(**/**)

val encode : doc_snapshot list -> string list
val decode : string list -> (doc_snapshot list, string) result
