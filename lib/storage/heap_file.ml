type t = {
  pool : Buffer_pool.t;
  mutable pages : int list;  (** reverse chain: head = last page *)
  mutable page_order : int array option;  (** memoised forward order *)
  mutable records : int;
}

let header_bytes = 4
let record_header_bytes = 2

let create pool = { pool; pages = []; page_order = None; records = 0 }
let pool t = t.pool
let record_count t = t.records
let page_count t = List.length t.pages

let get_u16 buf off = Char.code (Bytes.get buf off) lor (Char.code (Bytes.get buf (off + 1)) lsl 8)

let set_u16 buf off v =
  Bytes.set buf off (Char.chr (v land 0xFF));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let capacity pool = Disk.page_size (Buffer_pool.disk pool) - header_bytes

(* Largest record that fits one page of this file's pool. *)
let capacity_bytes t = capacity t.pool - record_header_bytes

let append t record =
  let len = String.length record in
  if len + record_header_bytes > capacity t.pool then
    invalid_arg
      (Printf.sprintf "Heap_file.append: record of %d bytes exceeds page" len);
  let page_size = Disk.page_size (Buffer_pool.disk t.pool) in
  let write_into page =
    Buffer_pool.with_page_mut t.pool page (fun buf ->
        let free = get_u16 buf 2 in
        if free + record_header_bytes + len > page_size then false
        else begin
          set_u16 buf free len;
          Bytes.blit_string record 0 buf (free + record_header_bytes) len;
          set_u16 buf 0 (get_u16 buf 0 + 1);
          set_u16 buf 2 (free + record_header_bytes + len);
          true
        end)
  in
  let appended =
    match t.pages with [] -> false | page :: _ -> write_into page
  in
  if not appended then begin
    let page = Buffer_pool.allocate t.pool in
    Buffer_pool.with_page_mut t.pool page (fun buf ->
        set_u16 buf 0 0;
        set_u16 buf 2 header_bytes);
    t.pages <- page :: t.pages;
    t.page_order <- None;
    if not (write_into page) then assert false
  end;
  t.records <- t.records + 1

let forward_pages t =
  match t.page_order with
  | Some order -> order
  | None ->
      let order = Array.of_list (List.rev t.pages) in
      t.page_order <- Some order;
      order

let iter f t =
  let order = forward_pages t in
  Array.iter
    (fun page ->
      (* Copy the records out before calling [f]: the callback may touch
         other pages and evict this frame. *)
      let records =
        Buffer_pool.with_page t.pool page (fun buf ->
            let count = get_u16 buf 0 in
            let rec collect acc off remaining =
              if remaining = 0 then List.rev acc
              else begin
                let len = get_u16 buf off in
                let record =
                  Bytes.sub_string buf (off + record_header_bytes) len
                in
                collect (record :: acc)
                  (off + record_header_bytes + len)
                  (remaining - 1)
              end
            in
            collect [] header_bytes count)
      in
      List.iter f records)
    order
