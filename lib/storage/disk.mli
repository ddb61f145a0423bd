(** The disk layer beneath witness tables: a flat, growable array of
    fixed-size pages kept in memory.

    {!Stats.t} counts page transfers; every table access is expected to
    go through {!Buffer_pool}, which is what turns the paper's 512 MB /
    8 KB page configuration into a knob. Pages are only ever allocated,
    never freed: nothing in the engine keeps temporary pages. Files —
    the ingest WAL and the warm snapshot — do not use pages; they write
    through {!File_io}.

    {b Page format.} {!V1} (the default) prefixes every page with a
    16-byte header — magic, format version, an LSN stamp (the disk's
    write counter) and a CRC-32 over header and payload — verified on
    every {!read_into}: a torn write raises {!Corruption} instead of
    being decoded into garbage records. The header is invisible to
    callers ([page_size] is the payload size). {!V0} is the seed's
    headerless format; it is the reference of [bench/smoke]'s
    checksum-overhead gate and nothing in the engine writes it.

    {b Fault injection.} {!set_injector} installs a hook consulted at the
    start of every read, write, sync and allocation; the hook may raise (an
    injected I/O error) or ask for a {e torn} write (only the first [n]
    bytes of the physical page are written). See {!Fault} for
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
    mismatch — the page was torn mid-write. *)

(** {1 Fault-injection hook} *)

type event = Read of int | Write of int | Sync | Allocate
(** One disk operation, fired {e before} the page is touched;
    [Read]/[Write] carry the page id. *)

type verdict = File_io.verdict = Proceed | Torn of int
(** The injector's answer: [Torn n] (meaningful on writes) truncates the
    physical write to its first [n] bytes — a torn write the {!V1} checksum
    must catch on the next read. Raising from the hook injects an error. *)

val set_injector : t -> (event -> verdict) option -> unit

val in_memory : ?page_size:int -> ?format:format -> unit -> t

val page_size : t -> int

val physical_page_size : t -> int
(** Bytes per stored page: [page_size] plus the {!V1} header. *)

val page_count : t -> int
(** Every page ever allocated. *)

val allocate : t -> int
(** Allocate a zeroed page at the end of the disk and return its id. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t id buf] fills [buf] (of length [page_size t]) with page
    [id]'s payload. Raises [Invalid_argument] on bad ids or buffer
    sizes and — on {!V1} — {!Corruption} when the page fails checksum
    verification. A never-written page reads as all zeroes. *)

val write : t -> int -> bytes -> unit
(** [write t id buf] stores [buf] as page [id]'s payload, stamping and
    checksumming the header on {!V1}. *)

val page_lsn : t -> int -> int
(** The LSN stamped into a {!V1} page's header when it was last written
    (0 for unwritten pages and on {!V0}). Does not verify the checksum. *)

val sync : t -> unit
(** The durability barrier of the page interface: nothing to flush in
    memory, but counted in {!Stats.t}[.syncs] and seen by the injector. *)

val stats : t -> Stats.t
val close : t -> unit
