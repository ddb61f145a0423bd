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
    mutable ranks : int array;
        (** id -> position in [compare_value] order, over the first
            [Array.length ranks] ids; stale once the dictionary grows *)
  }

  let create () =
    {
      values = Array.make 16 "";
      count = 0;
      index = Hashtbl.create 64;
      ranks = [||];
    }

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

  (* The historical group order, value by value: the low length byte,
     then the rest of the length, then the bytes under [String.compare].
     It is the order that keys once encoded as [u16 LE length | bytes]
     had under [String.compare]; comparing [len lsr 8] whole extends it
     to values past 65535 bytes, which that encoding could not hold. *)
  let compare_value a b =
    let la = String.length a and lb = String.length b in
    let c = Int.compare (la land 0xFF) (lb land 0xFF) in
    if c <> 0 then c
    else
      let c = Int.compare (la lsr 8) (lb lsr 8) in
      if c <> 0 then c else String.compare a b

  (* Ids only ever get appended, so the memo is current exactly when it
     covers every id; interning a new value makes the next call re-sort. *)
  let ranks t =
    if Array.length t.ranks <> t.count then begin
      let order = Array.init t.count Fun.id in
      Array.stable_sort
        (fun a b -> compare_value t.values.(a) t.values.(b))
        order;
      let ranks = Array.make t.count 0 in
      Array.iteri (fun rank id -> ranks.(id) <- rank) order;
      t.ranks <- ranks
    end;
    t.ranks
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

(* --- row-group records ---------------------------------------------------- *)
(* The table's one stored form, on its heap pages. A record holds the consecutive rows [start, start + count),
   column by column, and is sized to fit one page:
     'G' | start u32 | count u32 | fact u32 x count |
     per axis: id int32 x count | tag u8 x count
   all little-endian. Ids are dictionary ids ([null_id] for unbound
   cells); the tag byte is validity (bits 0-6) lor the first-binding flag
   (bit 7). Both are exactly the columnar view's cells, so reading a record
   copies them across. The dictionary values are not on the pages: they
   live in the in-memory dictionaries. *)

let group_header = 9
let row_bytes k = 4 + (5 * k)

(* Offset of axis [ai]'s id column in a record of [count] rows; its tag
   column follows at [+ 4 * count]. *)
let axis_offset ~count ai = group_header + (count * (4 + (5 * ai)))

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF

let tag_of cell = (cell.validity land 0x7F) lor if cell.first then 0x80 else 0

let encode_group k ~start (rows : row array) count =
  let b = Bytes.create (group_header + (count * row_bytes k)) in
  let set_u32 pos v = Bytes.set_int32_le b pos (Int32.of_int v) in
  Bytes.set b 0 'G';
  set_u32 1 start;
  set_u32 5 count;
  for i = 0 to count - 1 do
    let row = rows.(i) in
    set_u32 (group_header + (4 * i)) row.fact;
    for ai = 0 to k - 1 do
      let cell = row.cells.(ai) in
      let ids = axis_offset ~count ai in
      set_u32 (ids + (4 * i)) cell.id;
      Bytes.set_uint8 b (ids + (4 * count) + i) (tag_of cell)
    done
  done;
  Bytes.unsafe_to_string b

(* [(start, count)] of a row-group record of a [k]-axis table. *)
let group_span k record =
  let len = String.length record in
  if len < group_header || record.[0] <> 'G' then
    invalid_arg "Witness: not a row-group record";
  let start = u32 record 1 and count = u32 record 5 in
  if len <> group_header + (count * row_bytes k) then
    invalid_arg "Witness: row-group record length mismatch";
  (start, count)

(* --- column-major view -------------------------------------------------- *)
(* The same table, transposed into unboxed Bigarray columns: one int32 id
   column and one byte tag column per axis (a row-group record's columns,
   copied out of its pages), plus plain int arrays for the fact ids and
   the fact-block geometry. This is the one form every grouping and
   observation path reads. A version's rows never change once written
   ([extend] only appends past them), so columns can be shared across
   domains as they are. *)

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

  let row t i =
    {
      fact = t.c_facts.(i);
      cells =
        Array.init t.c_axes (fun axis ->
            let tag = tag t ~axis ~row:i in
            { id = id t ~axis ~row:i; validity = tag land 0x7F;
              first = tag land 0x80 <> 0 });
    }

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

    (* Open row [i] of [fact], starting a new block when the fact changes. *)
    let start_row b i fact =
      if i >= b.capacity then
        invalid_arg "Witness.Columnar.Builder: capacity exceeded";
      if fact <> b.last_fact then begin
        b.block_start.(b.nblocks) <- i;
        b.nblocks <- b.nblocks + 1;
        b.last_fact <- fact
      end;
      b.facts.(i) <- fact;
      b.row_block.(i) <- b.nblocks - 1;
      b.next <- i + 1

    let add b (row : row) =
      if Array.length row.cells <> b.k then
        invalid_arg "Witness.Columnar.Builder.add: axis count mismatch";
      let i = b.next in
      start_row b i row.fact;
      Array.iteri
        (fun ai cell ->
          Bigarray.Array1.set b.ids.(ai) i (Int32.of_int cell.id);
          Bigarray.Array1.set b.tags.(ai) i (tag_of cell))
        row.cells

    (* Copy one row-group record's rows in, calling [poll] before each. *)
    let add_group b ~poll record =
      let start, count = group_span b.k record in
      if start <> b.next then invalid_arg "Witness: row group out of order";
      for i = 0 to count - 1 do
        poll ();
        let r = start + i in
        start_row b r (u32 record (group_header + (4 * i)));
        for ai = 0 to b.k - 1 do
          let ids = axis_offset ~count ai in
          Bigarray.Array1.set b.ids.(ai) r
            (String.get_int32_le record (ids + (4 * i)));
          Bigarray.Array1.set b.tags.(ai) r
            (String.get_uint8 record (ids + (4 * count) + i))
        done
      done

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
            Array.iteri
              (fun ai cell ->
                Bigarray.Array1.set cols.c_ids.(ai) idx (Int32.of_int cell.id);
                Bigarray.Array1.set cols.c_tags.(ai) idx (tag_of cell))
              r.cells)
          added;
        cols.c_block_start.(!nb) <- rows;
        cols.c_written := rows;
        { cols with c_rows = rows; c_blocks = !nb }
end

(* --- tables ------------------------------------------------------------ *)

type t = {
  axes : Axis.t array;
  dicts : Dict.t array;
  heap : X3_storage.Heap_file.t;  (** row-group records only *)
  mutable rows : int;
  mutable facts : int;
}

(* Interns one batch of staged rows in order, counting its fact blocks. *)
let coder t =
  let last_fact = ref min_int in
  fun (row : Staged.row) ->
    if Array.length row.Staged.cells <> Array.length t.axes then
      invalid_arg "Witness: axis count mismatch";
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
          if cell.Staged.validity > 0x7F then
            invalid_arg "Witness: validity out of range";
          { id; validity = cell.Staged.validity; first = cell.Staged.first })
        row.Staged.cells
    in
    { fact = row.Staged.fact; cells }

(* Write coded rows at the table's tail as row-group records, each holding
   as many rows as one page does; the batch's last record may be short. *)
let write_rows t rows =
  let k = Array.length t.axes in
  let per_record =
    (X3_storage.Heap_file.capacity_bytes t.heap - group_header) / row_bytes k
  in
  if per_record < 1 then invalid_arg "Witness: a row does not fit one page";
  let pending = Array.make per_record { fact = 0; cells = [||] } in
  let n = ref 0 in
  let flush () =
    if !n > 0 then begin
      X3_storage.Heap_file.append t.heap (encode_group k ~start:t.rows pending !n);
      t.rows <- t.rows + !n;
      n := 0
    end
  in
  Seq.iter
    (fun row ->
      pending.(!n) <- row;
      incr n;
      if !n = per_record then flush ())
    rows;
  flush ()

let empty pool ~axes =
  {
    axes;
    dicts = Array.map (fun _ -> Dict.create ()) axes;
    heap = X3_storage.Heap_file.create pool;
    rows = 0;
    facts = 0;
  }

let materialize pool ~axes rows =
  let t = empty pool ~axes in
  write_rows t (Seq.map (coder t) rows);
  t

(* The ingest append path: intern one batch of staged rows, growing the
   dictionaries in place, and write it as tail records. The batch's fact
   ids must be fresh — rows of one fact contiguous, no fact already in the
   table — so the fact count and block geometry stay consistent without a
   rescan. *)
let append t staged =
  let coded = List.map (coder t) staged in
  write_rows t (List.to_seq coded);
  coded

let axes t = t.axes
let dicts t = t.dicts
let dict t ai = t.dicts.(ai)
let dict_sizes t = Array.map Dict.size t.dicts

let total_dict_size t =
  Array.fold_left (fun acc d -> acc + Dict.size d) 0 t.dicts

let value t ~axis_index id = Dict.value t.dicts.(axis_index) id

let cell_value t ~axis_index cell =
  if cell.id < 0 then None else Some (Dict.value t.dicts.(axis_index) cell.id)

let row_count t = t.rows
let fact_count t = t.facts
let page_count t = X3_storage.Heap_file.page_count t.heap
let pool t = X3_storage.Heap_file.pool t.heap

(* --- resident-footprint estimate --------------------------------------- *)

let approx_bytes t =
  (* The table's unavoidable resident floor: the buffer-pool frames its
     pages occupy (capped by the pool) plus the in-memory intern tables
     (values array slot + string + hashtable entry, ~48 bytes overhead per
     distinct value). The columnar view is booked by whoever builds it. *)
  let pool = pool t in
  let page_bytes = X3_storage.Disk.page_size (X3_storage.Buffer_pool.disk pool) in
  let frames = min (page_count t) (X3_storage.Buffer_pool.capacity pool) in
  let dict_bytes =
    Array.fold_left
      (fun acc d ->
        let strings = ref 0 in
        Dict.iter (fun _ v -> strings := !strings + String.length v) d;
        acc + !strings + (48 * Dict.size d))
      0 t.dicts
  in
  (frames * page_bytes) + dict_bytes

(* The one reader of the pages: copy each row-group record into the
   columns, calling [poll] once per row. *)
let columnar_of_table ?(poll = ignore) t =
  let b = Columnar.Builder.create ~axes:(Array.length t.axes) ~rows:t.rows in
  X3_storage.Heap_file.iter (Columnar.Builder.add_group b ~poll) t.heap;
  Columnar.Builder.finish b

let to_list t =
  let cols = columnar_of_table t in
  List.init (Columnar.rows cols) (Columnar.row cols)

let pp_row ppf row =
  Format.fprintf ppf "@[<h>fact=%d" row.fact;
  Array.iter
    (fun cell ->
      if cell.id < 0 then Format.fprintf ppf " ⊥"
      else Format.fprintf ppf " #%d/%x" cell.id cell.validity)
    row.cells;
  Format.fprintf ppf "@]"
