(* The serve daemon's warm-restart snapshot: the cuboid cache's index —
   which (document, query) sessions were resident, in LRU order (oldest
   first) — as the records of one checksummed Snapshot_store file,
   replaced by rename on each save.

   The record stream is:

     'W' magic                       x3-warm/3
     'D' entry record                query text, document path (each
                                     u32 LE length + bytes)
     ... one 'D' per resident session

   Views are not stored: restore re-runs each session from the document
   on disk, with every durable WAL fragment grafted in, so nothing it
   serves can drift from those bytes.  A file under any other magic is an
   unsupported version: the whole cache starts cold. *)

type entry = { ws_query : string; ws_doc_path : string }

let magic = "x3-warm/3"

let add_lstring buf s =
  let len = String.length s in
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * shift)) land 0xFF))
  done;
  Buffer.add_string buf s

(* Returns (string, next_pos). *)
let read_lstring record pos =
  if pos + 4 > String.length record then failwith "warm snapshot: truncated"
  else begin
    let u8 p = Char.code record.[pos + p] in
    let len = u8 0 lor (u8 1 lsl 8) lor (u8 2 lsl 16) lor (u8 3 lsl 24) in
    if pos + 4 + len > String.length record then
      failwith "warm snapshot: truncated string"
    else (String.sub record (pos + 4) len, pos + 4 + len)
  end

let entry_record e =
  let buf =
    Buffer.create (9 + String.length e.ws_query + String.length e.ws_doc_path)
  in
  Buffer.add_char buf 'D';
  add_lstring buf e.ws_query;
  add_lstring buf e.ws_doc_path;
  Buffer.contents buf

let parse_entry_record record =
  if String.length record = 0 || record.[0] <> 'D' then
    failwith "warm snapshot: unknown record";
  let query, pos = read_lstring record 1 in
  let doc_path, pos = read_lstring record pos in
  if pos <> String.length record then failwith "warm snapshot: entry trailer";
  { ws_query = query; ws_doc_path = doc_path }

let encode entries = ("W" ^ magic) :: List.map entry_record entries

let decode records =
  match records with
  | [] -> Error "warm snapshot: empty"
  | head :: rest when head = "W" ^ magic -> (
      match List.map parse_entry_record rest with
      | entries -> Ok entries
      | exception Failure msg -> Error msg)
  | head :: _ ->
      (* the head record is the tag and magic; show at most that much *)
      Error
        (Printf.sprintf "warm snapshot: unsupported version %S"
           (String.sub head 0 (min 16 (String.length head))))

let save ~path entries =
  X3_storage.Snapshot_store.save_file path (encode entries)

let load ~path =
  match X3_storage.Snapshot_store.load_file path with
  | Error _ as e -> e
  | Ok records -> decode records
