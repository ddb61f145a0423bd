(** The disk layer: a flat, growable array of fixed-size pages.

    Two backends share one interface. [in_memory] keeps pages in an OCaml
    array — deterministic, fast, what every witness table's pool uses.
    [on_file] keeps them in a real file accessed with [pread]/[pwrite]-style
    positioned I/O — the WAL's log. Either way, {!Stats.t} counts page
    transfers; every table access is expected to go through
    {!Buffer_pool}, which is what turns the paper's 512 MB / 8 KB page
    configuration into a knob. Pages are only ever allocated, never
    freed: nothing in the engine keeps temporary pages.

    {b Page format.} {!V1} (the default) prefixes every on-media page with a
    16-byte header — magic, format version, an LSN stamp (the disk's write
    counter) and a CRC-32 over header and payload — verified on every
    {!read_into}: a torn write or flipped bit raises {!Corruption} instead
    of being decoded into garbage records. The header is invisible to
    callers ([page_size] is the payload size). {!V0} is the seed's
    headerless format; it is the reference of [bench/smoke]'s
    checksum-overhead gate and nothing in the engine writes it.

    {b Fault injection.} {!set_injector} installs a hook consulted at the
    start of every read, write, sync and allocation; the hook may raise (an
    injected I/O error) or ask for a {e torn} write (only the first [n]
    bytes of the physical page reach the media). See {!Fault} for
    deterministic schedules built on this. *)

type t

val default_page_size : int
(** 8192 bytes, the paper's TIMBER configuration. *)

type format = V0  (** headerless raw pages (the seed format) *)
            | V1  (** checksummed pages: 16-byte header + payload *)

val header_bytes : int
(** Physical header size of {!V1} pages (16). *)

exception Corruption of { page : int; reason : string }
(** A {!V1} page failed verification: bad magic, unknown version, or CRC
    mismatch — the page was torn mid-write or rotted on media. *)

exception Short_read of { page : int; got : int; want : int }
(** The file backend returned fewer bytes than a full page — the backing
    file was truncated; zero-filling would silently fabricate a blank
    page. *)

(** {1 Fault-injection hook} *)

type event = Read of int | Write of int | Sync | Allocate
(** One disk operation, fired {e before} any media access; [Read]/[Write]
    carry the page id. *)

type verdict = Proceed | Torn of int
(** The injector's answer: [Torn n] (meaningful on writes) truncates the
    physical write to its first [n] bytes — a torn write the {!V1} checksum
    must catch on the next read. Raising from the hook injects an error. *)

val set_injector : t -> (event -> verdict) option -> unit

val in_memory : ?page_size:int -> ?format:format -> unit -> t

val on_file : ?page_size:int -> ?format:format -> ?temp:bool -> string -> t
(** [on_file path] creates or truncates [path]. With [temp] (the default)
    the file is removed on {!close}; pass [~temp:false] for a persistent
    store that {!reopen} can later see. *)

val reopen : ?page_size:int -> ?format:format -> string -> t
(** Open an existing page file without truncating — what recovery does
    after a crash. The page count is taken from the file size (rounded up,
    so a file truncated mid-page still addresses its torn last page and
    reading it raises {!Short_read}). The file is kept on {!close}. *)

val page_size : t -> int

val physical_page_size : t -> int
(** On-media bytes per page: [page_size] plus the {!V1} header. *)

val page_count : t -> int
(** Every page ever allocated. *)

val allocate : t -> int
(** Allocate a zeroed page at the end of the disk and return its id. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t id buf] fills [buf] (of length [page_size t]) with page
    [id]'s payload. Raises [Invalid_argument] on bad ids or buffer
    sizes, {!Short_read} when the file backend comes up short, and — on
    {!V1} — {!Corruption} when the page fails checksum verification. A
    never-written page reads as all zeroes. *)

val write : t -> int -> bytes -> unit
(** [write t id buf] stores [buf] as page [id]'s payload, stamping and
    checksumming the header on {!V1}. *)

val page_lsn : t -> int -> int
(** The LSN stamped into a {!V1} page's header when it was last written
    (0 for unwritten pages and on {!V0}). Does not verify the checksum. *)

val sync : t -> unit
(** Durability barrier: [fsync] on the file backend, a no-op on the memory
    backend. Counted in {!Stats.t}[.syncs] either way. *)

val stats : t -> Stats.t
val close : t -> unit

(** {1 Directory durability}

    A rename (or file creation) is only durable once the parent
    directory itself is fsynced — the file's own fsync does not cover
    its {e name}. [Snapshot_store.save_file] syncs after its rename and
    [Wal.open_file] after creating a new log. *)

val sync_dir : string -> unit
(** Open [path] (a directory) read-only and fsync it; soft-fails on
    filesystems that refuse directory fsync. Consults the
    {!set_dir_sync_hook} seam first. *)

val set_dir_sync_hook : (string -> unit) option -> unit
(** Install (or clear, with [None]) the fault-injection seam: the hook
    runs before each directory fsync and its exceptions propagate to the
    caller of {!sync_dir}. *)
