(** The disk layer: a flat, growable array of fixed-size pages.

    Two backends share one interface. [in_memory] keeps pages in an OCaml
    array — deterministic, fast, the default for tests. [on_file] keeps them
    in a real file accessed with [pread]/[pwrite]-style positioned I/O —
    used when a workload must exceed memory, and to make external-sort
    spills real. Either way, {!Stats.t} counts page transfers; every access
    is expected to go through {!Buffer_pool}, which is what turns the paper's
    512 MB / 8 KB page configuration into a knob.

    Freed pages ({!free}) go on a free list that {!allocate} reuses LIFO, so
    temporary structures (external-sort runs, spilled cuboids) do not grow
    the disk for the life of the process. Accessing a freed page raises.

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
    the file is removed on {!close} — spill files are temporaries; pass
    [~temp:false] for a persistent store that {!reopen} can later see. *)

val reopen : ?page_size:int -> ?format:format -> string -> t
(** Open an existing page file without truncating — what recovery does
    after a crash. The page count is taken from the file size (rounded up,
    so a file truncated mid-page still addresses its torn last page and
    reading it raises {!Short_read}); the free list starts empty. The file
    is kept on {!close}. *)

val page_size : t -> int

val physical_page_size : t -> int
(** On-media bytes per page: [page_size] plus the {!V1} header. *)

val page_count : t -> int
(** High-water page count: every id ever allocated, including freed ones. *)

val live_page_count : t -> int
(** Currently allocated pages — {!page_count} minus the free list. This is
    the number external-sort leak tests gate on. *)

val allocate : t -> int
(** Allocate a zeroed page and return its id — a recycled free-list page
    (re-zeroed) when one exists, a fresh id otherwise. *)

val free : t -> int -> unit
(** Return a page to the free list. Raises [Invalid_argument] on bad ids or
    double frees. Callers holding pages in a {!Buffer_pool} must free
    through [Buffer_pool.free_page] so the resident frame is invalidated
    first. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t id buf] fills [buf] (of length [page_size t]) with page
    [id]'s payload. Raises [Invalid_argument] on bad/freed ids or buffer
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
