(** CRC-32 (IEEE 802.3) — the checksum of the versioned page format, of
    each WAL record and of a snapshot file's stream. *)

val digest : bytes -> pos:int -> len:int -> int
(** Checksum of [len] bytes starting at [pos]; always in [0, 0xFFFFFFFF]. *)

val update : int -> bytes -> pos:int -> len:int -> int
(** Continue a checksum: [update (digest a) b] = digest of [a ^ b]. *)

val string : string -> int
