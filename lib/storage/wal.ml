(* Write-ahead ingest log over a Disk.

   The log is a byte stream laid out over sequential page ids (the WAL
   owns its disk; nothing else allocates from it). One record is

     offset  size  field
     0       4     payload length (little-endian; never 0)
     4       8     LSN (little-endian; dense from 1)
     12      4     CRC-32 over the 8 LSN bytes and the payload
     16      len   payload

   and records are packed back to back. Every group commit pads its batch
   to a page boundary with zero bytes, so a page is written exactly once
   per sync and a synced page is never rewritten — a torn write can only
   destroy bytes that were never acknowledged. The parser treats a zero
   length field as padding and skips to the next page boundary; the first
   record that fails its length, checksum or LSN-density check ends the
   log (the torn tail).

   Recovery re-reads the stream, truncates at the last valid record
   boundary, rewrites the torn tail page (valid prefix + zero padding)
   and zeroes any later pages, so stale bytes from a dead batch can never
   resurrect as ghost records after the log grows past them again. A log
   that parses cleanly is recovered without writing anything. *)

let header_bytes = 16
let max_record_bytes = 1 lsl 28

type record = { lsn : int; payload : string }

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
  disk : Disk.t;
  owns_disk : bool;
  ps : int;  (** page payload size: the stream's page granularity *)
  mutable stream_len : int;  (** committed stream bytes, page-aligned *)
  mutable next_lsn : int;
  mutable durable_lsn : int;
  pending : Buffer.t;  (** encoded records awaiting the next commit *)
  mutable pending_records : record list;  (** newest first *)
  mutable committed : record list;  (** newest first *)
  mutable batches : int;
  mutable dropped_bytes : int;  (** torn bytes discarded by recovery *)
  mutable recovered : int;  (** records recovered from disk at open *)
  mutable closed : bool;
  mutable meters : meters option;
}

let check_open t = if t.closed then invalid_arg "Wal: already closed"

(* --- little-endian codec ------------------------------------------------ *)

let add_u32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let add_u64 buf v =
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let get_u32 s pos =
  let u8 p = Char.code s.[p] in
  u8 pos
  lor (u8 (pos + 1) lsl 8)
  lor (u8 (pos + 2) lsl 16)
  lor (u8 (pos + 3) lsl 24)

let get_u64 s pos =
  let v = ref 0 in
  for shift = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + shift]
  done;
  !v

let record_crc ~lsn payload ~pos ~len =
  let lsn_bytes = Bytes.create 8 in
  for shift = 0 to 7 do
    Bytes.set lsn_bytes shift (Char.chr ((lsn lsr (8 * shift)) land 0xFF))
  done;
  Crc32.update
    (Crc32.digest lsn_bytes ~pos:0 ~len:8)
    (Bytes.unsafe_of_string payload)
    ~pos ~len

(* --- parsing ------------------------------------------------------------ *)

(* Returns (records oldest-first, last lsn, end of last record, dirty).
   [dirty] is true when the stream ends on garbage rather than padding —
   recovery then owes the disk a cleaning pass. *)
let parse ~ps stream =
  let avail = String.length stream in
  let records = ref [] in
  let pos = ref 0 and last = ref 0 and valid_end = ref 0 in
  let fin = ref false and dirty = ref false in
  while not !fin do
    if !pos + header_bytes > avail then fin := true
    else begin
      let len = get_u32 stream !pos in
      if len = 0 then begin
        (* Commit padding: resume at the next page boundary. *)
        let next = ((!pos / ps) + 1) * ps in
        if next + header_bytes > avail then fin := true else pos := next
      end
      else if len > max_record_bytes || !pos + header_bytes + len > avail
      then begin
        fin := true;
        dirty := true
      end
      else begin
        let lsn = get_u64 stream (!pos + 4) in
        let stored = get_u32 stream (!pos + 12) in
        if
          lsn <> !last + 1
          || stored <> record_crc ~lsn stream ~pos:(!pos + header_bytes) ~len
        then begin
          fin := true;
          dirty := true
        end
        else begin
          records :=
            { lsn; payload = String.sub stream (!pos + header_bytes) len }
            :: !records;
          last := lsn;
          pos := !pos + header_bytes + len;
          valid_end := !pos
        end
      end
    end
  done;
  (List.rev !records, !last, !valid_end, !dirty)

(* --- recovery ----------------------------------------------------------- *)

let read_stream disk =
  let ps = Disk.page_size disk in
  let npages = Disk.page_count disk in
  let buf = Bytes.create ps in
  let data = Buffer.create (max 64 (npages * ps)) in
  let complete =
    try
      for i = 0 to npages - 1 do
        Disk.read_into disk i buf;
        Buffer.add_bytes data buf
      done;
      true
    with Disk.Corruption _ | Disk.Short_read _ -> false
  in
  (Buffer.contents data, complete)

let ensure_pages t need =
  while Disk.page_count t.disk < need do
    ignore (Disk.allocate t.disk)
  done

let recover_disk ~owns_disk disk =
  let ps = Disk.page_size disk in
  let stream, complete = read_stream disk in
  let records, last, valid_end, parse_dirty = parse ~ps stream in
  let dirty = parse_dirty || not complete in
  let stream_len = (valid_end + ps - 1) / ps * ps in
  let dropped =
    max 0 ((Disk.page_count disk * ps) - valid_end)
  in
  if dirty then begin
    (* Truncate the torn tail: rewrite the page holding the last valid
       record with its valid prefix (zero-padded), zero every later page,
       and make the cleaning durable before accepting new appends. *)
    let page = Bytes.create ps in
    let tail_page = valid_end / ps in
    if valid_end mod ps <> 0 then begin
      Bytes.fill page 0 ps '\000';
      Bytes.blit_string stream (tail_page * ps) page 0 (valid_end mod ps);
      Disk.write disk tail_page page
    end;
    Bytes.fill page 0 ps '\000';
    for i = stream_len / ps to Disk.page_count disk - 1 do
      Disk.write disk i page
    done;
    Disk.sync disk
  end;
  {
    disk;
    owns_disk;
    ps;
    stream_len;
    next_lsn = last + 1;
    durable_lsn = last;
    pending = Buffer.create 256;
    pending_records = [];
    committed = List.rev records;
    batches = 0;
    dropped_bytes = (if dirty then dropped else 0);
    recovered = List.length records;
    closed = false;
    meters = None;
  }

let open_disk disk = recover_disk ~owns_disk:false disk

let open_file ?page_size path =
  let fresh = not (Sys.file_exists path) in
  let disk =
    if fresh then Disk.on_file ?page_size ~temp:false path
    else Disk.reopen ?page_size path
  in
  match
    (* A new log's name is durable only once its directory is: without
       this, commits acknowledged into it can vanish with the name. *)
    if fresh then Disk.sync_dir (Filename.dirname path);
    recover_disk ~owns_disk:true disk
  with
  | t -> t
  | exception e ->
      Disk.close disk;
      raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.owns_disk then Disk.close t.disk
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
  add_u32 t.pending len;
  add_u64 t.pending lsn;
  add_u32 t.pending (record_crc ~lsn payload ~pos:0 ~len);
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
    let npages = (n + t.ps - 1) / t.ps in
    let first = t.stream_len / t.ps in
    ensure_pages t (first + npages);
    let page = Bytes.create t.ps in
    for i = 0 to npages - 1 do
      Bytes.fill page 0 t.ps '\000';
      let off = i * t.ps in
      let k = min t.ps (n - off) in
      Bytes.blit_string data off page 0 k;
      Disk.write t.disk (first + i) page
    done;
    (match t.meters with
    | Some m ->
        let t0 = Unix.gettimeofday () in
        Disk.sync t.disk;
        Metrics.observe m.mm_fsync (Unix.gettimeofday () -. t0);
        Metrics.inc m.mm_commits;
        Metrics.inc ~by:n m.mm_commit_bytes
    | None -> Disk.sync t.disk);
    (* One fsync made the whole batch durable — group commit. The batch
       is only drained now: a commit that faulted mid-write keeps its
       records (and their LSNs) pending, so a retried commit rewrites
       the same bytes at the same offset and the stream stays dense —
       dropping them would burn LSNs and make every later record
       unparseable. *)
    Buffer.clear t.pending;
    let batch = t.pending_records in
    t.pending_records <- [];
    t.stream_len <- t.stream_len + (npages * t.ps);
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
  let stream, complete = read_stream t.disk in
  let records, _, _, dirty = parse ~ps:t.ps stream in
  if complete && not dirty then Ok records
  else Error "wal: stream does not parse cleanly"
