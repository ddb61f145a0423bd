(* One checksummed snapshot file, replaced by rename. See the .mli for
   the layout. *)

let magic = "X3SF"
let version = 1
let header_bytes = 20
let max_u32 = 0xFFFF_FFFF

let u32_get s pos = Int32.to_int (String.get_int32_le s pos) land max_u32
let u32_set b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

let encode records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.make header_bytes '\000');
  List.iter
    (fun r ->
      Buffer.add_int32_le buf (Int32.of_int (String.length r));
      Buffer.add_string buf r)
    records;
  let b = Buffer.to_bytes buf in
  let stream_bytes = Bytes.length b - header_bytes in
  if stream_bytes > max_u32 then failwith "snapshot stream exceeds 4 GiB";
  Bytes.blit_string magic 0 b 0 4;
  u32_set b 4 version;
  u32_set b 8 (List.length records);
  u32_set b 12 stream_bytes;
  u32_set b 16 (Crc32.digest b ~pos:header_bytes ~len:stream_bytes);
  b

let decode data =
  let size = String.length data in
  if size < header_bytes then Error "snapshot: truncated header"
  else if String.sub data 0 4 <> magic then Error "snapshot: bad magic"
  else if u32_get data 4 <> version then
    Error (Printf.sprintf "snapshot: unknown version %d" (u32_get data 4))
  else if u32_get data 12 <> size - header_bytes then
    Error "snapshot: file length does not match its header"
  else if
    u32_get data 16
    <> Crc32.digest (Bytes.unsafe_of_string data) ~pos:header_bytes
         ~len:(size - header_bytes)
  then Error "snapshot: stream checksum mismatch"
  else
    let rec records acc pos =
      if pos = size then Ok (List.rev acc)
      else if size - pos < 4 then Error "snapshot: truncated record length"
      else
        let len = u32_get data pos in
        if len > size - pos - 4 then Error "snapshot: truncated record"
        else records (String.sub data (pos + 4) len :: acc) (pos + 4 + len)
    in
    match records [] header_bytes with
    | Ok rs when List.length rs <> u32_get data 8 ->
        Error "snapshot: record count mismatch"
    | result -> result

let save_file path records =
  let tmp = path ^ ".tmp" in
  match
    let data = encode records in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        File_io.write fd ~at:0 (Bytes.unsafe_to_string data);
        File_io.fsync fd);
    File_io.rename tmp path;
    (* The rename is only durable once the parent directory's entry table
       is on media — fsyncing the file alone does not cover its name. *)
    File_io.sync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printexc.to_string e)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> decode data
  | exception Sys_error msg -> Error msg
