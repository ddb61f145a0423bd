(** One-file snapshots: an ordered list of opaque string records written
    as one checksummed file that is replaced atomically — the serve
    daemon's warm-restart snapshot.

    The file is a fixed header followed by the record stream:

{v
     0  magic         "X3SF"
     4  version       u32 (1)
     8  record count  u32
     12 stream bytes  u32
     16 stream CRC-32 u32
     20 stream        u32 LE length + bytes, once per record
v}

    All integers are little-endian. The header carries no checksum of its
    own: a changed magic or version is refused, a changed length no
    longer matches the file size, a changed count no longer matches the
    parsed stream, and a changed CRC no longer matches the stream bytes,
    so every single-byte change and every truncation loads as an
    [Error]. *)

val save_file : string -> string list -> (unit, string) result
(** Write [records] to [path ^ ".tmp"] (truncating any leftover), fsync
    it, rename it over [path], then fsync [path]'s directory
    ({!File_io.sync_dir}) so the new name survives power loss. [path] is
    only ever replaced by the rename, so a crash mid-save leaves the
    previous file or the new one, never a torn mix. Any failure removes
    the tmp file and is an [Error]; an [Error] from the directory fsync
    means the rename happened but may not be durable. *)

val load_file : string -> (string list, string) result
(** Read back a {!save_file} snapshot, checking the magic, version, exact
    file length, stream CRC and record count before a record is
    returned. Any failure — missing file, truncation, corruption, another
    format — is an [Error], never an exception: callers treat snapshot
    loss as a cold start, not a fault. *)
