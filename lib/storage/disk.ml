let default_page_size = 8192

(* --- versioned page format --------------------------------------------- *)
(* V1 pages carry a 16-byte physical header in front of the payload:

     offset  size  field
     0       4     magic "X3PG"
     4       2     format version (1)
     6       2     flags (zero, reserved)
     8       4     LSN — the disk's write counter when the page was written
     12      4     CRC-32 over magic..lsn and the payload

   The header is invisible to callers: [page_size] is the payload size and
   [read_into]/[write] translate. A page whose header is all zeroes has
   never been written (fresh allocations, re-zeroed recycled pages) and
   reads as an all-zero payload; anything else must carry a valid magic,
   version and checksum or [read_into] raises {!Corruption} instead of
   decoding a torn or rotten page into garbage. V0 is the seed's headerless
   format, the reference of the bench smoke's checksum-overhead gate. *)

type format = V0 | V1

let header_bytes = 16
let magic = "X3PG"
let version = 1

exception Corruption of { page : int; reason : string }

type event = Read of int | Write of int | Sync | Allocate
type verdict = File_io.verdict = Proceed | Torn of int

let () =
  Printexc.register_printer (function
    | Corruption { page; reason } ->
        Some (Printf.sprintf "Disk.Corruption(page %d: %s)" page reason)
    | _ -> None)

type t = {
  page_size : int;  (** payload bytes callers see *)
  physical : int;  (** stored page size: payload + header on V1 *)
  format : format;
  mutable lsn : int;  (** monotonic write counter, stamped into V1 headers *)
  mutable pages : int;  (** pages allocated so far *)
  mutable store : bytes array;  (** physical pages; grows by doubling *)
  stats : Stats.t;
  mutable closed : bool;
  mutable injector : (event -> verdict) option;
  scratch : bytes;  (** staging buffer for one physical page *)
}

let in_memory ?(page_size = default_page_size) ?(format = V1) () =
  let physical =
    match format with V0 -> page_size | V1 -> page_size + header_bytes
  in
  {
    page_size;
    physical;
    format;
    lsn = 0;
    pages = 0;
    store = [||];
    stats = Stats.create ();
    closed = false;
    injector = None;
    scratch = Bytes.make physical '\000';
  }

let page_size t = t.page_size
let physical_page_size t = t.physical
let page_count t = t.pages
let stats t = t.stats
let set_injector t injector = t.injector <- injector

let fire t event =
  match t.injector with None -> Proceed | Some f -> f event

let check_open t = if t.closed then invalid_arg "Disk: already closed"

let check_id t id =
  if id < 0 || id >= t.pages then
    invalid_arg (Printf.sprintf "Disk: page %d out of range [0, %d)" id t.pages)

let allocate t =
  check_open t;
  (match fire t Allocate with Proceed | Torn _ -> ());
  t.stats.pages_allocated <- t.stats.pages_allocated + 1;
  let id = t.pages in
  t.pages <- t.pages + 1;
  if id >= Array.length t.store then begin
    let grown = Array.make (max 64 (2 * Array.length t.store)) Bytes.empty in
    Array.blit t.store 0 grown 0 (Array.length t.store);
    t.store <- grown
  end;
  t.store.(id) <- Bytes.make t.physical '\000';
  id

(* --- V1 header codec --------------------------------------------------- *)

let get_u32 buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let set_u32 buf off v =
  Bytes.set buf off (Char.chr (v land 0xFF));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set buf (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let get_u16 buf off =
  Char.code (Bytes.get buf off) lor (Char.code (Bytes.get buf (off + 1)) lsl 8)

let set_u16 buf off v =
  Bytes.set buf off (Char.chr (v land 0xFF));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xFF))

(* The page checksum covers magic, version, flags and LSN (bytes 0-11) plus
   the payload — everything but the CRC field itself. *)
let page_crc t =
  Crc32.update
    (Crc32.digest t.scratch ~pos:0 ~len:12)
    t.scratch ~pos:header_bytes
    ~len:(t.physical - header_bytes)

let header_is_zero t =
  let rec go i = i >= header_bytes || (Bytes.get t.scratch i = '\000' && go (i + 1)) in
  go 0

let encode_header t =
  t.lsn <- t.lsn + 1;
  Bytes.blit_string magic 0 t.scratch 0 4;
  set_u16 t.scratch 4 version;
  set_u16 t.scratch 6 0;
  set_u32 t.scratch 8 (t.lsn land 0xFFFFFFFF);
  set_u32 t.scratch 12 0;
  set_u32 t.scratch 12 (page_crc t)

let decode_header t ~page buf =
  if header_is_zero t then
    (* Never written: the payload is the zero page [allocate] promised. *)
    Bytes.fill buf 0 t.page_size '\000'
  else begin
    if Bytes.sub_string t.scratch 0 4 <> magic then
      raise
        (Corruption { page; reason = "bad magic — not a versioned page" });
    let v = get_u16 t.scratch 4 in
    if v <> version then
      raise
        (Corruption
           { page; reason = Printf.sprintf "unknown page version %d" v });
    let stored = get_u32 t.scratch 12 in
    set_u32 t.scratch 12 0;
    let computed = page_crc t in
    set_u32 t.scratch 12 stored;
    if stored <> computed then
      raise
        (Corruption
           {
             page;
             reason =
               Printf.sprintf
                 "checksum mismatch (stored %08x, computed %08x) — torn \
                  write or bit rot"
                 stored computed;
           });
    Bytes.blit t.scratch header_bytes buf 0 t.page_size
  end

let read_physical t id = Bytes.blit t.store.(id) 0 t.scratch 0 t.physical

let read_into t id buf =
  check_open t;
  check_id t id;
  if Bytes.length buf <> t.page_size then
    invalid_arg "Disk.read_into: buffer size mismatch";
  (match fire t (Read id) with Proceed | Torn _ -> ());
  t.stats.page_reads <- t.stats.page_reads + 1;
  match t.format with
  | V0 -> Bytes.blit t.store.(id) 0 buf 0 t.page_size
  | V1 ->
      read_physical t id;
      decode_header t ~page:id buf

let write t id buf =
  check_open t;
  check_id t id;
  if Bytes.length buf <> t.page_size then
    invalid_arg "Disk.write: buffer size mismatch";
  let verdict = fire t (Write id) in
  t.stats.page_writes <- t.stats.page_writes + 1;
  match t.format with
  | V0 ->
      let len =
        match verdict with
        | Proceed -> t.page_size
        | Torn n -> max 0 (min n t.page_size)
      in
      Bytes.blit buf 0 t.store.(id) 0 len
  | V1 ->
      Bytes.blit buf 0 t.scratch header_bytes t.page_size;
      encode_header t;
      let len =
        match verdict with
        | Proceed -> t.physical
        | Torn n -> max 0 (min n t.physical)
      in
      Bytes.blit t.scratch 0 t.store.(id) 0 len

let page_lsn t id =
  check_open t;
  check_id t id;
  match t.format with
  | V0 -> 0
  | V1 ->
      read_physical t id;
      if header_is_zero t then 0 else get_u32 t.scratch 8

let sync t =
  check_open t;
  (match fire t Sync with Proceed | Torn _ -> ());
  t.stats.syncs <- t.stats.syncs + 1

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.store <- [||]
  end
