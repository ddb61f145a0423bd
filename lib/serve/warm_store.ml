(* The serve daemon's warm-restart snapshot: the cuboid cache's index
   (which (document, query) sessions were resident) plus every cached
   Materialized view, packed into one checksummed Snapshot_store file.

   The record stream is:

     'W' magic                       x3-warm/2
     'D' doc record                  query text, document path, MD5 of
                                     the document bytes at save time,
                                     WAL high-water (8 bytes LE)
     'M' + 'G'* view records        (per view, verbatim from
                                     Materialized.to_records; the 'M'
                                     header carries the 'G' count)
     ... more 'D' groups, in cache LRU order (oldest first)

   A view binds to the 'D' record before it.  The digest is the
   soundness anchor: a restored view is only served if the document
   bytes on disk are exactly the bytes the view was computed from —
   re-interning group keys against a changed document could succeed by
   value coincidence and then answer wrongly.  The loader checks shape
   only; the server checks digests, re-parses documents, and treats any
   failure as a cold start for that document.  A file under any other
   magic is an unsupported version: the whole cache starts cold. *)

type doc_snapshot = {
  ws_query : string;
  ws_doc_path : string;
  ws_digest : string;
  ws_wal_lsn : int;
  ws_views : string list list;
}

let magic = "x3-warm/2"

let add_u32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let read_u32 record pos =
  let u8 p = Char.code record.[p] in
  u8 pos lor (u8 (pos + 1) lsl 8) lor (u8 (pos + 2) lsl 16)
  lor (u8 (pos + 3) lsl 24)

let add_lstring buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

(* Returns (string, next_pos). *)
let read_lstring record pos =
  if pos + 4 > String.length record then failwith "warm snapshot: truncated"
  else begin
    let len = read_u32 record pos in
    if pos + 4 + len > String.length record then
      failwith "warm snapshot: truncated string"
    else (String.sub record (pos + 4) len, pos + 4 + len)
  end

let doc_record d =
  let buf = Buffer.create 128 in
  Buffer.add_char buf 'D';
  add_lstring buf d.ws_query;
  add_lstring buf d.ws_doc_path;
  add_lstring buf d.ws_digest;
  (* trailing 8-byte LE WAL high-water: the LSN up to which this
     document's ingested fragments are already folded into the views *)
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr ((d.ws_wal_lsn lsr (8 * shift)) land 0xFF))
  done;
  Buffer.contents buf

let parse_doc_record record =
  let query, pos = read_lstring record 1 in
  let doc_path, pos = read_lstring record pos in
  let digest, pos = read_lstring record pos in
  if pos + 8 <> String.length record then
    failwith "warm snapshot: doc trailer";
  let wal_lsn = ref 0 in
  for shift = 7 downto 0 do
    wal_lsn := (!wal_lsn lsl 8) lor Char.code record.[pos + shift]
  done;
  { ws_query = query; ws_doc_path = doc_path; ws_digest = digest;
    ws_wal_lsn = !wal_lsn; ws_views = [] }

let encode docs =
  ("W" ^ magic)
  :: List.concat_map
       (fun d -> doc_record d :: List.concat (List.rev d.ws_views))
       docs

(* Walk the stream statefully: a 'D' opens a document, an 'M' header
   announces how many 'G' records belong to the view that follows. *)
let decode records =
  match records with
  | [] -> Error "warm snapshot: empty"
  | head :: rest when head = "W" ^ magic -> (
      let finish current acc =
        match current with
        | None -> acc
        | Some d -> { d with ws_views = List.rev d.ws_views } :: acc
      in
      match
        let rec go current acc = function
          | [] -> List.rev (finish current acc)
          | record :: rest when String.length record > 0 && record.[0] = 'D'
            ->
              go (Some (parse_doc_record record)) (finish current acc) rest
          | record :: rest
            when String.length record = 9 && record.[0] = 'M' -> (
              match current with
              | None -> failwith "warm snapshot: view before any document"
              | Some d ->
                  let groups = read_u32 record 5 in
                  let rec take n taken = function
                    | rest when n = 0 -> (List.rev taken, rest)
                    | g :: rest
                      when String.length g > 0 && g.[0] = 'G' ->
                        take (n - 1) (g :: taken) rest
                    | _ -> failwith "warm snapshot: truncated view"
                  in
                  let group_records, rest = take groups [] rest in
                  go
                    (Some
                       {
                         d with
                         ws_views = (record :: group_records) :: d.ws_views;
                       })
                    acc rest)
          | _ -> failwith "warm snapshot: unknown record"
        in
        go None [] rest
      with
      | docs -> Ok docs
      | exception Failure msg -> Error msg)
  | head :: _ ->
      (* the head record is the tag and magic; show at most that much *)
      Error
        (Printf.sprintf "warm snapshot: unsupported version %S"
           (String.sub head 0 (min 16 (String.length head))))

let save ~path docs = X3_storage.Snapshot_store.save_file path (encode docs)

let load ~path =
  match X3_storage.Snapshot_store.load_file path with
  | Error _ as e -> e
  | Ok records -> decode records
