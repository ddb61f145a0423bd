(* Write-ahead ingest log: one append-only file.

     offset  size  field
     0       8     header: magic "X3WL", u32 version 1 (little-endian)
     8       ...   records, back to back

   One record is

     offset  size  field
     0       4     payload length (little-endian; never 0)
     4       8     LSN (little-endian; dense from 1)
     12      4     CRC-32 over the 8 LSN bytes and the payload
     16      len   payload

   The record CRC is the only checksum. The first record that fails its
   length, checksum or LSN-density check ends the log (the torn tail);
   recovery truncates the file there, so stale bytes from a dead batch
   can never resurrect as ghost records after the log grows past them
   again, and fsyncs what it keeps. *)

let file_header = "X3WL\001\000\000\000"
let record_header = 16
let max_record_bytes = 1 lsl 28

type record = { lsn : int; payload : string }

exception Not_a_log of string

let () =
  Printexc.register_printer (function
    | Not_a_log path ->
        Some
          (Printf.sprintf "Wal.Not_a_log(%s: does not start with the X3WL header)"
             path)
    | _ -> None)

(* Optional instrumentation, attached by the owner after recovery (the
   serve daemon wires its registry in). Updates are unconditional counter
   bumps on the append/commit path — negligible beside the fsync. *)
type meters = {
  mm_appends : X3_obs.Metrics.counter;
  mm_commits : X3_obs.Metrics.counter;
  mm_commit_bytes : X3_obs.Metrics.counter;
  mm_fsync : X3_obs.Metrics.histogram;
}

type t = {
  fd : Unix.file_descr;
  mutable file_len : int;  (** committed bytes, header included *)
  mutable next_lsn : int;
  mutable durable_lsn : int;
  pending : Buffer.t;  (** encoded records awaiting the next commit *)
  mutable pending_records : record list;  (** newest first *)
  mutable committed : record list;  (** newest first *)
  mutable batches : int;
  dropped_bytes : int;  (** torn bytes discarded by recovery *)
  recovered : int;  (** records recovered from disk at open *)
  mutable closed : bool;
  mutable meters : meters option;
}

let check_open t = if t.closed then invalid_arg "Wal: already closed"

(* --- codec --------------------------------------------------------------- *)

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF

let record_crc ~lsn payload ~pos ~len =
  let lsn_bytes = Bytes.create 8 in
  Bytes.set_int64_le lsn_bytes 0 (Int64.of_int lsn);
  Crc32.update
    (Crc32.digest lsn_bytes ~pos:0 ~len:8)
    (Bytes.unsafe_of_string payload)
    ~pos ~len

(* The records of [data] after the file header, oldest first, and the
   offset where the valid prefix ends. *)
let parse data =
  let avail = String.length data in
  let rec go acc ~pos ~last =
    let stop () = (List.rev acc, pos) in
    if pos + record_header > avail then stop ()
    else
      let len = get_u32 data pos in
      let lsn = Int64.to_int (String.get_int64_le data (pos + 4)) in
      if
        len = 0 || len > max_record_bytes
        || pos + record_header + len > avail
        || lsn <> last + 1
        || get_u32 data (pos + 12)
           <> record_crc ~lsn data ~pos:(pos + record_header) ~len
      then stop ()
      else
        go
          ({ lsn; payload = String.sub data (pos + record_header) len } :: acc)
          ~pos:(pos + record_header + len) ~last:lsn
  in
  go [] ~pos:(String.length file_header) ~last:0

let read_all fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create size in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec go off =
    if off >= size then off
    else match Unix.read fd buf off (size - off) with 0 -> off | n -> go (off + n)
  in
  Bytes.sub_string buf 0 (go 0)

(* --- recovery ------------------------------------------------------------ *)

let recover ~path fd =
  let data = read_all fd in
  let size = String.length data in
  if size < String.length file_header && String.starts_with ~prefix:data file_header
  then begin
    (* Missing, or its creation crashed before the header was complete:
       a new log, whose name is durable only once its directory is. *)
    File_io.write fd ~at:0 file_header;
    File_io.fsync fd;
    File_io.sync_dir (Filename.dirname path);
    ([], String.length file_header, 0)
  end
  else if not (String.starts_with ~prefix:file_header data) then
    raise (Not_a_log path)
  else begin
    let records, valid_end = parse data in
    if valid_end < size then Unix.ftruncate fd valid_end;
    (* Even a clean log is synced: a crashed process may have written
       records it never fsynced, and they are about to be replayed. *)
    File_io.fsync fd;
    (records, valid_end, size - valid_end)
  end

let open_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; O_CREAT; O_CLOEXEC ] 0o600 in
  match recover ~path fd with
  | records, file_len, dropped_bytes ->
      let last = List.length records in
      {
        fd;
        file_len;
        next_lsn = last + 1;
        durable_lsn = last;
        pending = Buffer.create 256;
        pending_records = [];
        committed = List.rev records;
        batches = 0;
        dropped_bytes;
        recovered = last;
        closed = false;
        meters = None;
      }
  | exception e ->
      Unix.close fd;
      raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

(* --- instrumentation ---------------------------------------------------- *)

module Metrics = X3_obs.Metrics

let attach_metrics t registry =
  (* The recovery story is history by now, so it lands as one-time bumps:
     how many durable records the open found, and whether it had to
     truncate a torn tail. *)
  Metrics.inc ~by:t.recovered (Metrics.counter registry "wal.recovered_records");
  if t.dropped_bytes > 0 then begin
    Metrics.inc (Metrics.counter registry "wal.torn_tail_truncations");
    Metrics.inc ~by:t.dropped_bytes
      (Metrics.counter registry "wal.torn_bytes_dropped")
  end;
  t.meters <-
    Some
      {
        mm_appends = Metrics.counter registry "wal.appends";
        mm_commits = Metrics.counter registry "wal.commits";
        mm_commit_bytes = Metrics.counter registry "wal.commit_bytes";
        mm_fsync = Metrics.histogram registry "wal.latency.commit_fsync";
      }

(* --- appends ------------------------------------------------------------ *)

let append t payload =
  check_open t;
  let len = String.length payload in
  if len = 0 then invalid_arg "Wal.append: empty payload";
  if len > max_record_bytes then invalid_arg "Wal.append: payload too large";
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  Buffer.add_int32_le t.pending (Int32.of_int len);
  Buffer.add_int64_le t.pending (Int64.of_int lsn);
  Buffer.add_int32_le t.pending
    (Int32.of_int (record_crc ~lsn payload ~pos:0 ~len));
  Buffer.add_string t.pending payload;
  t.pending_records <- { lsn; payload } :: t.pending_records;
  (match t.meters with
  | Some m -> Metrics.inc m.mm_appends
  | None -> ());
  lsn

let commit t =
  check_open t;
  if Buffer.length t.pending > 0 then begin
    let data = Buffer.contents t.pending in
    let n = String.length data in
    File_io.write t.fd ~at:t.file_len data;
    (match t.meters with
    | Some m ->
        let t0 = Unix.gettimeofday () in
        File_io.fsync t.fd;
        Metrics.observe m.mm_fsync (Unix.gettimeofday () -. t0);
        Metrics.inc m.mm_commits;
        Metrics.inc ~by:n m.mm_commit_bytes
    | None -> File_io.fsync t.fd);
    (* One fsync made the whole batch durable — group commit. The batch
       is only drained now: a commit that faulted mid-write keeps its
       records (and their LSNs) pending, so a retried commit rewrites
       the same bytes at the same offset and the log stays dense —
       dropping them would burn LSNs and make every later record
       unparseable. *)
    Buffer.clear t.pending;
    let batch = t.pending_records in
    t.pending_records <- [];
    t.file_len <- t.file_len + n;
    t.committed <- batch @ t.committed;
    t.durable_lsn <- t.next_lsn - 1;
    t.batches <- t.batches + 1
  end

(* --- observation -------------------------------------------------------- *)

let durable_lsn t = t.durable_lsn
let batches t = t.batches
let dropped_bytes t = t.dropped_bytes
let record_count t = List.length t.committed

let records t = List.rev t.committed

let replay t ~after f =
  List.iter (fun r -> if r.lsn > after then f r) (records t)

let rescan t =
  check_open t;
  let data = read_all t.fd in
  let records, valid_end = parse data in
  if String.starts_with ~prefix:file_header data && valid_end = String.length data
  then Ok records
  else Error "wal: file does not parse cleanly"
