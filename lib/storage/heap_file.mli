(** Unordered record files over pooled pages.

    A heap file is a chain of pages holding length-prefixed records; it is
    how witness tables live on the (simulated or real) disk. Records never
    span pages, so a record is limited to [page_size - 6] bytes — ample for
    witness rows.

    Page layout: [u16 record-count | u16 free-offset | records...], each
    record being [u16 length | payload]. *)

type t

val create : Buffer_pool.t -> t
(** A new, empty heap file in the pool's disk. *)

val append : t -> string -> unit
(** Add one record at the end. Raises [Invalid_argument] if the record
    cannot fit on an empty page. *)

val iter : (string -> unit) -> t -> unit
(** Scan every record in insertion order, touching pages through the
    pool. *)

val record_count : t -> int
val page_count : t -> int
val pool : t -> Buffer_pool.t

val capacity_bytes : t -> int
(** Largest record payload that fits on one (empty) page of this file. *)
