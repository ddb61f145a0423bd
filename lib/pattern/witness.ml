(* The materialised witness table, dictionary-encoded: every distinct
   dimension string is interned once into a per-axis dictionary and witness
   cells carry dense integer ids. The cube algorithms group on those ids
   (see X3_core.Group_key); strings are only rebuilt at the export
   boundary. *)

(* --- per-axis value dictionary ---------------------------------------- *)

module Dict = struct
  type t = {
    mutable values : string array;  (** id -> string, dense *)
    mutable count : int;
    index : (string, int) Hashtbl.t;  (** string -> id *)
  }

  let create () =
    { values = Array.make 16 ""; count = 0; index = Hashtbl.create 64 }

  let size t = t.count

  let intern t s =
    match Hashtbl.find_opt t.index s with
    | Some id -> id
    | None ->
        let id = t.count in
        if id = Array.length t.values then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit t.values 0 bigger 0 id;
          t.values <- bigger
        end;
        t.values.(id) <- s;
        t.count <- id + 1;
        Hashtbl.add t.index s id;
        id

  let find t s = Hashtbl.find_opt t.index s

  let value t id =
    if id < 0 || id >= t.count then
      invalid_arg (Printf.sprintf "Dict.value: id %d out of range" id);
    t.values.(id)

  let iter f t =
    for id = 0 to t.count - 1 do
      f id t.values.(id)
    done
end

(* --- coded cells -------------------------------------------------------- *)

(* [id] is the per-axis dictionary id of the bound value, or [null_id] when
   the axis has no binding for the fact (the outer-join null of the
   cartesian witness layout). *)
type cell = { id : int; validity : int; first : bool }
type row = { fact : int; cells : cell array }

let null_id = -1

(* Rows as produced by the pattern evaluators, before interning: values are
   still strings. [materialize] converts them to coded rows. *)
module Staged = struct
  type cell = { value : string option; validity : int; first : bool }
  type row = { fact : int; cells : cell array }
end

(* --- row codec ---------------------------------------------------------- *)
(* Layout: fact (4 bytes LE) | cell count (1) | cells.
   Cell: validity (1 byte, bit 7 = first-binding flag) |
         LEB128 varint of (id + 1), so 0 encodes the null cell.
   Values live in the dictionary pages, not in the rows: a row costs a
   handful of bytes regardless of how long its dimension strings are. *)

let encode row =
  let buf = Buffer.create 16 in
  let add_u8 v = Buffer.add_char buf (Char.chr (v land 0xFF)) in
  let add_u16 v =
    add_u8 (v land 0xFF);
    add_u8 ((v lsr 8) land 0xFF)
  in
  let add_u32 v =
    add_u16 (v land 0xFFFF);
    add_u16 ((v lsr 16) land 0xFFFF)
  in
  let add_varint v =
    let v = ref v in
    while !v >= 0x80 do
      add_u8 (0x80 lor (!v land 0x7F));
      v := !v lsr 7
    done;
    add_u8 !v
  in
  add_u32 row.fact;
  if Array.length row.cells > 255 then
    invalid_arg "Witness.encode: more than 255 axes";
  add_u8 (Array.length row.cells);
  Array.iter
    (fun cell ->
      if cell.validity > 0x7F then
        invalid_arg "Witness.encode: validity out of range";
      if cell.id < null_id then invalid_arg "Witness.encode: negative id";
      add_u8 (cell.validity lor if cell.first then 0x80 else 0);
      add_varint (cell.id + 1))
    row.cells;
  Buffer.contents buf

let decode record =
  let pos = ref 0 in
  let len = String.length record in
  let u8 () =
    if !pos >= len then invalid_arg "Witness.decode: truncated record";
    let v = Char.code record.[!pos] in
    incr pos;
    v
  in
  let u16 () =
    let lo = u8 () in
    let hi = u8 () in
    lo lor (hi lsl 8)
  in
  let u32 () =
    let lo = u16 () in
    let hi = u16 () in
    lo lor (hi lsl 16)
  in
  let varint () =
    let rec go shift acc =
      let b = u8 () in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0
  in
  let fact = u32 () in
  let ncells = u8 () in
  let cells =
    Array.init ncells (fun _ ->
        let tag = u8 () in
        let validity = tag land 0x7F and first = tag land 0x80 <> 0 in
        let id = varint () - 1 in
        { id; validity; first })
  in
  if !pos <> len then invalid_arg "Witness.decode: trailing bytes";
  { fact; cells }

(* --- dictionary codec --------------------------------------------------- *)
(* Dictionary pages are stored in a side heap file, one or more records per
   value so that values of any length survive the page-capacity limit:
   axis (u16) | id (u32) | total length (u32) | chunk offset (u32) | bytes.
   Lengths are 32-bit — dictionary values are not subject to the 64 KiB
   ceiling the old inline-string witness codec imposed. *)

let dict_chunk_header = 14

let encode_dict_chunk ~axis ~id ~total ~offset chunk =
  let buf = Buffer.create (dict_chunk_header + String.length chunk) in
  let add_u8 v = Buffer.add_char buf (Char.chr (v land 0xFF)) in
  let add_u16 v =
    add_u8 (v land 0xFF);
    add_u8 ((v lsr 8) land 0xFF)
  in
  let add_u32 v =
    add_u16 (v land 0xFFFF);
    add_u16 ((v lsr 16) land 0xFFFF)
  in
  add_u16 axis;
  add_u32 id;
  add_u32 total;
  add_u32 offset;
  Buffer.add_string buf chunk;
  Buffer.contents buf

let decode_dict_chunk record =
  if String.length record < dict_chunk_header then
    invalid_arg "Witness.decode_dict_chunk: truncated";
  let u8 pos = Char.code record.[pos] in
  let u16 pos = u8 pos lor (u8 (pos + 1) lsl 8) in
  let u32 pos = u16 pos lor (u16 (pos + 2) lsl 16) in
  let axis = u16 0 in
  let id = u32 2 in
  let total = u32 6 in
  let offset = u32 10 in
  let chunk =
    String.sub record dict_chunk_header
      (String.length record - dict_chunk_header)
  in
  (axis, id, total, offset, chunk)

(* --- tables ------------------------------------------------------------ *)

type t = {
  axes : Axis.t array;
  dicts : Dict.t array;
  heap : X3_storage.Heap_file.t;
  dict_heap : X3_storage.Heap_file.t;  (** the on-disk dictionary pages *)
  mutable facts : int;
}

let write_dict_value dict_heap ~axis ~id value =
  let capacity =
    X3_storage.Heap_file.capacity_bytes dict_heap - dict_chunk_header
  in
  let total = String.length value in
  if total = 0 then
    X3_storage.Heap_file.append dict_heap
      (encode_dict_chunk ~axis ~id ~total ~offset:0 "")
  else begin
    let offset = ref 0 in
    while !offset < total do
      let n = min capacity (total - !offset) in
      X3_storage.Heap_file.append dict_heap
        (encode_dict_chunk ~axis ~id ~total ~offset:!offset
           (String.sub value !offset n));
      offset := !offset + n
    done
  end

let write_dicts dict_heap dicts =
  Array.iteri
    (fun axis dict ->
      Dict.iter (fun id value -> write_dict_value dict_heap ~axis ~id value) dict)
    dicts

(* Rebuild the dictionaries from their on-disk pages; chunks of one value
   arrive in offset order because [write_dicts] emits them that way. *)
let dicts_of_heap k dict_heap =
  let partial : (int * int, Buffer.t) Hashtbl.t = Hashtbl.create 256 in
  let sizes = Array.make k 0 in
  X3_storage.Heap_file.iter
    (fun record ->
      let axis, id, total, _offset, chunk = decode_dict_chunk record in
      if axis >= k then invalid_arg "Witness.load_dicts: axis out of range";
      let buf =
        match Hashtbl.find_opt partial (axis, id) with
        | Some buf -> buf
        | None ->
            let buf = Buffer.create (max 16 total) in
            Hashtbl.add partial (axis, id) buf;
            buf
      in
      Buffer.add_string buf chunk;
      if id + 1 > sizes.(axis) then sizes.(axis) <- id + 1)
    dict_heap;
  Array.init k (fun axis ->
      let dict = Dict.create () in
      for id = 0 to sizes.(axis) - 1 do
        match Hashtbl.find_opt partial (axis, id) with
        | None -> invalid_arg "Witness.load_dicts: missing id"
        | Some buf ->
            let got = Dict.intern dict (Buffer.contents buf) in
            if got <> id then invalid_arg "Witness.load_dicts: id collision"
      done;
      dict)

let load_dicts t = dicts_of_heap (Array.length t.axes) t.dict_heap

let materialize pool ~axes rows =
  let heap = X3_storage.Heap_file.create pool in
  let dict_heap = X3_storage.Heap_file.create pool in
  let dicts = Array.map (fun _ -> Dict.create ()) axes in
  let facts = ref 0 in
  let last_fact = ref (-1) in
  Seq.iter
    (fun (row : Staged.row) ->
      if row.Staged.fact <> !last_fact then begin
        incr facts;
        last_fact := row.Staged.fact
      end;
      let cells =
        Array.mapi
          (fun ai (cell : Staged.cell) ->
            let id =
              match cell.Staged.value with
              | None -> null_id
              | Some v -> Dict.intern dicts.(ai) v
            in
            {
              id;
              validity = cell.Staged.validity;
              first = cell.Staged.first;
            })
          row.Staged.cells
      in
      X3_storage.Heap_file.append heap (encode { fact = row.Staged.fact; cells }))
    rows;
  write_dicts dict_heap dicts;
  { axes; dicts; heap; dict_heap; facts = !facts }

(* The ingest append path: intern one batch of staged rows at the table's
   tail, growing the dictionaries in place, and flush only the dictionary
   tail this batch interned (ids below the pre-append sizes are already on
   their heap pages). The batch's fact ids must be fresh — rows of one
   fact contiguous, no fact already in the table — so the fact count and
   block geometry stay consistent without a rescan. *)
let append t staged =
  let sizes_before = Array.map Dict.size t.dicts in
  let last_fact = ref min_int in
  let coded =
    List.fold_left
      (fun acc (row : Staged.row) ->
        if Array.length row.Staged.cells <> Array.length t.axes then
          invalid_arg "Witness.append: axis count mismatch";
        if row.Staged.fact <> !last_fact then begin
          t.facts <- t.facts + 1;
          last_fact := row.Staged.fact
        end;
        let cells =
          Array.mapi
            (fun ai (cell : Staged.cell) ->
              let id =
                match cell.Staged.value with
                | None -> null_id
                | Some v -> Dict.intern t.dicts.(ai) v
              in
              {
                id;
                validity = cell.Staged.validity;
                first = cell.Staged.first;
              })
            row.Staged.cells
        in
        let r = { fact = row.Staged.fact; cells } in
        X3_storage.Heap_file.append t.heap (encode r);
        r :: acc)
      [] staged
  in
  Array.iteri
    (fun ai dict ->
      for id = sizes_before.(ai) to Dict.size dict - 1 do
        write_dict_value t.dict_heap ~axis:ai ~id (Dict.value dict id)
      done)
    t.dicts;
  List.rev coded

let axes t = t.axes
let dicts t = t.dicts
let dict t ai = t.dicts.(ai)
let dict_sizes t = Array.map Dict.size t.dicts

let total_dict_size t =
  Array.fold_left (fun acc d -> acc + Dict.size d) 0 t.dicts

let value t ~axis_index id = Dict.value t.dicts.(axis_index) id

let cell_value t ~axis_index cell =
  if cell.id < 0 then None else Some (Dict.value t.dicts.(axis_index) cell.id)

let row_count t = X3_storage.Heap_file.record_count t.heap
let fact_count t = t.facts
let page_count t = X3_storage.Heap_file.page_count t.heap
let dict_page_count t = X3_storage.Heap_file.page_count t.dict_heap
let pool t = X3_storage.Heap_file.pool t.heap

(* --- resident-footprint estimate --------------------------------------- *)

let approx_bytes t =
  (* The table's unavoidable resident floor: the buffer-pool frames its
     pages occupy (capped by the pool) plus the in-memory intern tables
     (values array slot + string + hashtable entry, ~48 bytes overhead per
     distinct value). The columnar view is booked by whoever builds it. *)
  let pool = pool t in
  let page_bytes = X3_storage.Disk.page_size (X3_storage.Buffer_pool.disk pool) in
  let frames =
    min (page_count t + dict_page_count t) (X3_storage.Buffer_pool.capacity pool)
  in
  let dict_bytes =
    Array.fold_left
      (fun acc d ->
        let strings = ref 0 in
        Dict.iter (fun _ v -> strings := !strings + String.length v) d;
        acc + !strings + (48 * Dict.size d))
      0 t.dicts
  in
  (frames * page_bytes) + dict_bytes
let iter f t = X3_storage.Heap_file.iter (fun r -> f (decode r)) t.heap

let to_list t =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) t;
  List.rev !acc

(* --- column-major view -------------------------------------------------- *)
(* The same table, transposed into unboxed Bigarray columns: one int32 id
   column and one byte tag column per axis (the tag byte is exactly the row
   codec's cell tag: validity bits 0-6, first-binding flag in bit 7), plus
   plain int arrays for the fact ids and the fact-block geometry. This is
   the one form every grouping and observation path reads. A version's
   rows never change once written ([extend] only appends past them), so
   columns can be shared across domains as they are. *)

module Columnar = struct
  type int32_col = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  type tag_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* The buffers may be longer than [c_rows] (and [c_blocks + 1]): spare
     room [extend] appends into. A version only ever reads its own prefix,
     so appending past it leaves the version unchanged. *)
  type t = {
    c_axes : int;
    c_rows : int;
    c_blocks : int;
    c_ids : int32_col array;  (** per axis; [null_id] for unbound cells *)
    c_tags : tag_col array;  (** per axis; validity lor (first ? 0x80 : 0) *)
    c_facts : int array;  (** per row *)
    c_row_block : int array;  (** per row: index of its fact block *)
    c_block_start : int array;  (** blocks + 1 row offsets, fenced *)
    c_written : int ref;
        (** rows written into these buffers by the newest version: only
            that version may append in place *)
  }

  let axes t = t.c_axes
  let rows t = t.c_rows
  let blocks t = t.c_blocks
  let fact t i = t.c_facts.(i)
  let block_of_row t i = t.c_row_block.(i)
  let block_lo t b = t.c_block_start.(b)
  let block_hi t b = t.c_block_start.(b + 1) - 1

  (* Raw columns, for kernels that hoist the array out of their row loop. *)
  let ids t ai = t.c_ids.(ai)
  let tags t ai = t.c_tags.(ai)

  let id t ~axis ~row = Int32.to_int (Bigarray.Array1.get t.c_ids.(axis) row)
  let tag t ~axis ~row = Bigarray.Array1.get t.c_tags.(axis) row
  let validity t ~axis ~row = tag t ~axis ~row land 0x7F
  let first t ~axis ~row = tag t ~axis ~row land 0x80 <> 0

  let qualifies t ~axis ~row ~state =
    id t ~axis ~row >= 0 && tag t ~axis ~row land (1 lsl state) <> 0

  (* Resident footprint of the columns: 4 id bytes + 1 tag byte per axis
     per row, two int words per row (fact + block index), the block fence,
     and a small fixed overhead per Bigarray header. *)
  let approx_bytes ~axes ~rows ~blocks =
    (rows * ((5 * axes) + 16)) + (8 * (blocks + 2)) + (128 * ((2 * axes) + 1))

  module Builder = struct
    type cols = t

    type t = {
      mutable next : int;
      mutable last_fact : int;
      mutable nblocks : int;
      ids : int32_col array;
      tags : tag_col array;
      facts : int array;
      row_block : int array;
      block_start : int array;  (* capacity rows + 1, trimmed on finish *)
      k : int;
      capacity : int;
    }

    let create ~axes ~rows =
      {
        next = 0;
        last_fact = min_int;
        nblocks = 0;
        ids =
          Array.init axes (fun _ ->
              Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout rows);
        tags =
          Array.init axes (fun _ ->
              Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout
                rows);
        facts = Array.make rows 0;
        row_block = Array.make rows 0;
        block_start = Array.make (rows + 1) 0;
        k = axes;
        capacity = rows;
      }

    let add b (row : row) =
      if b.next >= b.capacity then
        invalid_arg "Witness.Columnar.Builder.add: capacity exceeded";
      if Array.length row.cells <> b.k then
        invalid_arg "Witness.Columnar.Builder.add: axis count mismatch";
      let i = b.next in
      if row.fact <> b.last_fact then begin
        b.block_start.(b.nblocks) <- i;
        b.nblocks <- b.nblocks + 1;
        b.last_fact <- row.fact
      end;
      b.facts.(i) <- row.fact;
      b.row_block.(i) <- b.nblocks - 1;
      for ai = 0 to b.k - 1 do
        let cell = row.cells.(ai) in
        Bigarray.Array1.set b.ids.(ai) i (Int32.of_int cell.id);
        Bigarray.Array1.set b.tags.(ai) i
          ((cell.validity land 0x7F) lor if cell.first then 0x80 else 0)
      done;
      b.next <- i + 1

    let finish b =
      if b.next <> b.capacity then
        invalid_arg "Witness.Columnar.Builder.finish: rows missing";
      let block_start = Array.sub b.block_start 0 (b.nblocks + 1) in
      block_start.(b.nblocks) <- b.next;
      {
        c_axes = b.k;
        c_rows = b.next;
        c_blocks = b.nblocks;
        c_ids = b.ids;
        c_tags = b.tags;
        c_facts = b.facts;
        c_row_block = b.row_block;
        c_block_start = block_start;
        c_written = ref b.next;
      }
  end

  (* Fresh buffers of [capacity] rows holding [cols]'s rows. *)
  let grow cols ~capacity =
    let k = cols.c_axes and n = cols.c_rows in
    let copy kind src =
      let col = Bigarray.Array1.create kind Bigarray.c_layout capacity in
      Bigarray.Array1.blit (Bigarray.Array1.sub src 0 n)
        (Bigarray.Array1.sub col 0 n);
      col
    in
    let copy_ints src =
      let a = Array.make capacity 0 in
      Array.blit src 0 a 0 n;
      a
    in
    {
      cols with
      c_ids = Array.init k (fun ai -> copy Bigarray.int32 cols.c_ids.(ai));
      c_tags =
        Array.init k (fun ai -> copy Bigarray.int8_unsigned cols.c_tags.(ai));
      c_facts = copy_ints cols.c_facts;
      c_row_block = copy_ints cols.c_row_block;
      c_block_start =
        (let a = Array.make (capacity + 1) 0 in
         Array.blit cols.c_block_start 0 a 0 (cols.c_blocks + 1);
         a);
      c_written = ref n;
    }

  (* Grow an existing column set with a tail of appended rows, extending
     the fenced block offsets — no rebuild of the old rows. The newest
     version appends into its spare room in place; otherwise the rows are
     copied into buffers with an eighth to spare (at least 64 rows), so a
     run of small ingests costs one copy per eighth of growth instead of
     one per ingest. The tail's facts must be fresh (no block may straddle
     the seam). *)
  let extend cols added =
    match added with
    | [] -> cols
    | first :: _ ->
        let k = cols.c_axes in
        let old = cols.c_rows in
        let rows = old + List.length added in
        if old > 0 && first.fact = cols.c_facts.(old - 1) then
          invalid_arg "Witness.Columnar.extend: fact straddles the seam";
        let cols =
          if !(cols.c_written) = old && Array.length cols.c_facts >= rows then
            cols
          else grow cols ~capacity:(rows + max 64 (rows / 8))
        in
        let last_fact = ref min_int in
        let nb = ref cols.c_blocks in
        List.iteri
          (fun i (r : row) ->
            if Array.length r.cells <> k then
              invalid_arg "Witness.Columnar.extend: axis count mismatch";
            let idx = old + i in
            if r.fact <> !last_fact then begin
              cols.c_block_start.(!nb) <- idx;
              incr nb;
              last_fact := r.fact
            end;
            cols.c_facts.(idx) <- r.fact;
            cols.c_row_block.(idx) <- !nb - 1;
            for ai = 0 to k - 1 do
              let cell = r.cells.(ai) in
              Bigarray.Array1.set cols.c_ids.(ai) idx (Int32.of_int cell.id);
              Bigarray.Array1.set cols.c_tags.(ai) idx
                ((cell.validity land 0x7F) lor if cell.first then 0x80 else 0)
            done)
          added;
        cols.c_block_start.(!nb) <- rows;
        cols.c_written := rows;
        { cols with c_rows = rows; c_blocks = !nb }

  (* --- snapshot codec ---------------------------------------------------- *)
  (* One column chunk per record: 'C' | kind u8 | axis u16 | start u32 |
     count u32 | payload. Kinds: 0 = facts (u32 LE per row), 1 = axis ids
     (u32 LE of id + 1, so the null cell encodes as 0), 2 = axis tag bytes.
     The block geometry is not stored — it is a pure function of the fact
     column. *)

  let chunk_rows = 4096
  let chunk_header = 12

  let encode_chunk ~kind ~axis ~start cols n =
    let width = if kind = 2 then 1 else 4 in
    let buf = Buffer.create (chunk_header + (n * width)) in
    let add_u8 v = Buffer.add_char buf (Char.chr (v land 0xFF)) in
    let add_u16 v =
      add_u8 (v land 0xFF);
      add_u8 ((v lsr 8) land 0xFF)
    in
    let add_u32 v =
      add_u16 (v land 0xFFFF);
      add_u16 ((v lsr 16) land 0xFFFF)
    in
    Buffer.add_char buf 'C';
    add_u8 kind;
    add_u16 axis;
    add_u32 start;
    add_u32 n;
    for i = start to start + n - 1 do
      match kind with
      | 0 -> add_u32 cols.c_facts.(i)
      | 1 -> add_u32 (Int32.to_int (Bigarray.Array1.get cols.c_ids.(axis) i) + 1)
      | _ -> add_u8 (Bigarray.Array1.get cols.c_tags.(axis) i)
    done;
    Buffer.contents buf

  let records cols =
    let acc = ref [] in
    let emit ~kind ~axis =
      let n = cols.c_rows in
      let start = ref 0 in
      while !start < n do
        let count = min chunk_rows (n - !start) in
        acc := encode_chunk ~kind ~axis ~start:!start cols count :: !acc;
        start := !start + count
      done
    in
    emit ~kind:0 ~axis:0;
    for ai = 0 to cols.c_axes - 1 do
      emit ~kind:1 ~axis:ai;
      emit ~kind:2 ~axis:ai
    done;
    List.rev !acc

  (* [record] is the chunk body without its leading 'C' tag. *)
  let decode_chunk record =
    if String.length record < chunk_header - 1 then
      invalid_arg "witness snapshot: truncated column chunk";
    let u8 pos = Char.code record.[pos] in
    let u16 pos = u8 pos lor (u8 (pos + 1) lsl 8) in
    let u32 pos = u16 pos lor (u16 (pos + 2) lsl 16) in
    let kind = u8 0 in
    let axis = u16 1 in
    let start = u32 3 in
    let count = u32 7 in
    if kind > 2 then
      invalid_arg (Printf.sprintf "witness snapshot: column kind %d" kind);
    let width = if kind = 2 then 1 else 4 in
    if String.length record <> chunk_header - 1 + (count * width) then
      invalid_arg "witness snapshot: column chunk length mismatch";
    (kind, axis, start, count, record)
end

let columnar_of_table t =
  let b =
    Columnar.Builder.create ~axes:(Array.length t.axes) ~rows:(row_count t)
  in
  iter (Columnar.Builder.add b) t;
  Columnar.Builder.finish b

(* --- snapshot persistence ---------------------------------------------- *)
(* A witness table as one atomic snapshot: a header record, the rows as
   column-major 'C' chunks, then the dictionary heap's records verbatim
   ('D' chunks, self-contained through the dict codec above). The snapshot
   store supplies atomicity and checksums. *)

let snapshot_header k ~facts ~rows =
  let buf = Buffer.create 12 in
  Buffer.add_char buf 'H';
  Buffer.add_char buf (Char.chr (k land 0xFF));
  let add_u32 v =
    for shift = 0 to 3 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
    done
  in
  add_u32 facts;
  add_u32 rows;
  Buffer.contents buf

let parse_snapshot_header record =
  if String.length record <> 10 || record.[0] <> 'H' then
    Error "witness snapshot: bad header record"
  else
    let u8 pos = Char.code record.[pos] in
    let u32 pos =
      u8 pos lor (u8 (pos + 1) lsl 8) lor (u8 (pos + 2) lsl 16)
      lor (u8 (pos + 3) lsl 24)
    in
    Ok (u8 1, u32 2, u32 6)

let save t store =
  let cols = columnar_of_table t in
  let dict_records = ref [] in
  X3_storage.Heap_file.iter
    (fun r -> dict_records := ("D" ^ r) :: !dict_records)
    t.dict_heap;
  let header =
    snapshot_header (Array.length t.axes) ~facts:t.facts
      ~rows:(X3_storage.Heap_file.record_count t.heap)
  in
  X3_storage.Snapshot_store.commit store
    ((header :: Columnar.records cols) @ List.rev !dict_records)

let load store pool ~axes =
  match X3_storage.Snapshot_store.read store with
  | [] -> Error "witness snapshot: empty store"
  | header :: rest -> (
      match parse_snapshot_header header with
      | Error _ as e -> e
      | Ok (k, facts, rows) ->
          if k <> Array.length axes then
            Error
              (Printf.sprintf
                 "witness snapshot: %d axes on disk, %d expected" k
                 (Array.length axes))
          else begin
            let heap = X3_storage.Heap_file.create pool in
            let dict_heap = X3_storage.Heap_file.create pool in
            (* Columnar staging: one cursor per column ('C' chunks must
               arrive in row order per column, which is how [save] emits
               them); the boxed rows are synthesised once every column is
               complete. *)
            let cols = Columnar.Builder.create ~axes:k ~rows in
            let col_index ~kind ~axis =
              match kind with
              | 0 -> 0
              | 1 -> 1 + axis
              | _ -> 1 + k + axis
            in
            let cursor = Array.make (1 + (2 * k)) 0 in
            let apply_chunk body =
              let kind, axis, start, count, payload =
                Columnar.decode_chunk body
              in
              if kind > 0 && axis >= k then
                invalid_arg "witness snapshot: column axis out of range";
              let ci = col_index ~kind ~axis in
              if cursor.(ci) <> start then
                invalid_arg "witness snapshot: column chunk out of order";
              if start + count > rows then
                invalid_arg "witness snapshot: column chunk past row count";
              let u32 pos =
                Char.code payload.[pos]
                lor (Char.code payload.[pos + 1] lsl 8)
                lor (Char.code payload.[pos + 2] lsl 16)
                lor (Char.code payload.[pos + 3] lsl 24)
              in
              let base = Columnar.chunk_header - 1 in
              for i = 0 to count - 1 do
                match kind with
                | 0 -> cols.Columnar.Builder.facts.(start + i) <- u32 (base + (4 * i))
                | 1 ->
                    Bigarray.Array1.set
                      cols.Columnar.Builder.ids.(axis)
                      (start + i)
                      (Int32.of_int (u32 (base + (4 * i)) - 1))
                | _ ->
                    Bigarray.Array1.set
                      cols.Columnar.Builder.tags.(axis)
                      (start + i)
                      (Char.code payload.[base + i])
              done;
              cursor.(ci) <- start + count
            in
            match
              List.iter
                (fun record ->
                  if String.length record < 1 then
                    invalid_arg "witness snapshot: empty record";
                  let body = String.sub record 1 (String.length record - 1) in
                  match record.[0] with
                  | 'C' -> apply_chunk body
                  | 'D' ->
                      ignore (decode_dict_chunk body);
                      X3_storage.Heap_file.append dict_heap body
                  | c ->
                      invalid_arg
                        (Printf.sprintf "witness snapshot: unknown tag %C" c))
                rest;
              Array.iter
                (fun filled ->
                  if filled <> rows then
                    invalid_arg "witness snapshot: incomplete column")
                cursor;
              for i = 0 to rows - 1 do
                let cells =
                  Array.init k (fun ai ->
                      let id =
                        Int32.to_int
                          (Bigarray.Array1.get
                             cols.Columnar.Builder.ids.(ai) i)
                      in
                      let tag =
                        Bigarray.Array1.get cols.Columnar.Builder.tags.(ai) i
                      in
                      if id < null_id then
                        invalid_arg "witness snapshot: column id underflow";
                      { id; validity = tag land 0x7F;
                        first = tag land 0x80 <> 0 })
                in
                X3_storage.Heap_file.append heap
                  (encode { fact = cols.Columnar.Builder.facts.(i); cells })
              done
            with
            | exception Invalid_argument msg -> Error msg
            | () -> (
                match dicts_of_heap k dict_heap with
                | exception Invalid_argument msg -> Error msg
                | dicts -> Ok { axes; dicts; heap; dict_heap; facts })
          end)

let pp_row ppf row =
  Format.fprintf ppf "@[<h>fact=%d" row.fact;
  Array.iter
    (fun cell ->
      if cell.id < 0 then Format.fprintf ppf " ⊥"
      else Format.fprintf ppf " #%d/%x" cell.id cell.validity)
    row.cells;
  Format.fprintf ppf "@]"
