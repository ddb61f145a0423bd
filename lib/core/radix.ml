(* Radix grouping kernels over the columnar witness layout.

   A cuboid's group key is the concatenation of its present axes' packed
   dictionary-id fields. Compacting those fields (dropping the removed
   axes' zero fields) gives a dense integer domain of [p_bits] bits:

   - [Direct]       the whole domain fits a slot array — aggregate into
                    unboxed per-slot accumulators, no hashing, no per-row
                    allocation;
   - [Partitioned]  the domain is larger: stable counting-sort scatter on
                    the key's high bits, then per-partition dense
                    aggregation over the low bits with generation stamps;
   - [Hash]         the domain exceeds [radix_bits] (or keys do not pack):
                    fall back to the [Group_key.Tbl] path.

   The choice is a pure function of (layout, cuboid, radix_bits), so a
   run's strategies are identical at any worker count. *)

module State = X3_lattice.State
module Columnar = X3_pattern.Witness.Columnar

type strategy = Direct | Partitioned | Hash

let strategy_name = function
  | Direct -> "radix-direct"
  | Partitioned -> "radix-partition"
  | Hash -> "hash"

(* Direct slot arrays cost ~40 bytes per slot; 12 bits caps one
   accumulator at ~160 KiB. Partitions above that share one 12-bit slot
   array, so [radix_bits] bounds only the scatter fan-out. *)
let direct_bits_cap = 12
let default_radix_bits = 20

type plan = {
  p_cuboid : State.t array;
  p_present : int array;  (** axis indices the cuboid keeps, ascending *)
  p_masks : int array;  (** validity-bit mask per present axis *)
  p_shifts : int array;  (** compact bit offset per present axis *)
  p_widths : int array;
  p_bits : int;  (** compact key width *)
  p_low_bits : int;  (** slot-array bits ([p_bits] when [Direct]) *)
  p_strategy : strategy;
}

let plan ~(layout : Group_key.layout) ~radix_bits cuboid =
  let k = Array.length cuboid in
  let present = ref [] in
  for ai = k - 1 downto 0 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present m -> present := (ai, m) :: !present
  done;
  let present_axes = Array.of_list (List.map fst !present) in
  let masks = Array.of_list (List.map (fun (_, m) -> 1 lsl m) !present) in
  let widths = Array.map (fun ai -> layout.Group_key.widths.(ai)) present_axes in
  let shifts = Array.make (Array.length widths) 0 in
  let bits = ref 0 in
  Array.iteri
    (fun i w ->
      shifts.(i) <- !bits;
      bits := !bits + w)
    widths;
  let bits = !bits in
  let direct_bits = min direct_bits_cap radix_bits in
  let strategy =
    if radix_bits <= 0 || not layout.Group_key.packed_fits then Hash
    else if bits <= direct_bits then Direct
    else if bits <= radix_bits then Partitioned
    else Hash
  in
  let low_bits = if strategy = Partitioned then direct_bits else bits in
  {
    p_cuboid = cuboid;
    p_present = present_axes;
    p_masks = masks;
    p_shifts = shifts;
    p_widths = widths;
    p_bits = bits;
    p_low_bits = low_bits;
    p_strategy = strategy;
  }

(* Reconstruct the per-axis ids of a compact key and build the canonical
   [Group_key.t] (which uses the layout's own offsets, not the compact
   ones). *)
let key_of_compact p (layout : Group_key.layout) compact =
  let k = Array.length p.p_cuboid in
  let ids = Array.make k 0 in
  Array.iteri
    (fun i ai ->
      ids.(ai) <- (compact lsr p.p_shifts.(i)) land ((1 lsl p.p_widths.(i)) - 1))
    p.p_present;
  Group_key.of_axis_ids layout p.p_cuboid ids

(* --- cursors: the per-row qualification + compact-key path --------------- *)

type cursor = {
  u_ids : Columnar.int32_col array;  (** present axes' id columns *)
  u_tags : Columnar.tag_col array;
  u_masks : int array;
  u_shifts : int array;
  u_removed_tags : Columnar.tag_col array;  (** removed axes' tag columns *)
}

let cursor p cols =
  let removed = ref [] in
  Array.iteri
    (fun ai state ->
      match state with
      | State.Removed -> removed := Columnar.tags cols ai :: !removed
      | State.Present _ -> ())
    p.p_cuboid;
  {
    u_ids = Array.map (Columnar.ids cols) p.p_present;
    u_tags = Array.map (Columnar.tags cols) p.p_present;
    u_masks = p.p_masks;
    u_shifts = p.p_shifts;
    u_removed_tags = Array.of_list !removed;
  }

(* Compact key of [row], or -1 when some present axis is unbound or not
   valid at the cuboid's state — [Cuboid.qualifies] + [Group_key.load_cols]
   fused into one pass over the hoisted columns. A [while] loop rather
   than a local recursive function: the latter would allocate a closure
   on every call, i.e. per row per cuboid. *)
let key cur row =
  let n = Array.length cur.u_ids in
  let acc = ref 0 and i = ref 0 in
  while !i < n do
    let id =
      Int32.to_int (Bigarray.Array1.unsafe_get cur.u_ids.(!i) row)
    in
    if
      id < 0
      || Bigarray.Array1.unsafe_get cur.u_tags.(!i) row land cur.u_masks.(!i)
         = 0
    then begin
      acc := -1;
      i := n
    end
    else begin
      acc := !acc lor (id lsl cur.u_shifts.(!i));
      incr i
    end
  done;
  !acc

(* Does [row] hold the fact's first binding on every removed axis — the
   representative half of [Cuboid.represents]. *)
let first_on_removed cur row =
  let tags = cur.u_removed_tags in
  let n = Array.length tags in
  let i = ref 0 in
  while !i < n && Bigarray.Array1.unsafe_get tags.(!i) row land 0x80 <> 0 do
    incr i
  done;
  !i >= n

(* --- direct accumulator -------------------------------------------------- *)
(* Unboxed parallel arrays, one slot per compact key. [mark] carries the
   caller's deduplication stamp (fact-block index or fact id): because a
   fact's rows are contiguous in the table, a slot's contributions from
   one fact are consecutive, so a single stamp per slot removes
   duplicates exactly. *)

type acc = {
  a_slots : int;
  a_n : int array;
  a_total : float array;
  a_low : float array;
  a_high : float array;
  a_mark : int array;
  mutable a_occupied : int;
}

let slot_cost = 40 (* 5 int/float arrays, 8 bytes per slot each *)

let acc_bytes p = (slot_cost * (1 lsl p.p_low_bits)) + 256

let acc_create p =
  let slots = 1 lsl p.p_low_bits in
  {
    a_slots = slots;
    a_n = Array.make slots 0;
    a_total = Array.make slots 0.;
    a_low = Array.make slots infinity;
    a_high = Array.make slots neg_infinity;
    a_mark = Array.make slots min_int;
    a_occupied = 0;
  }

let acc_occupied a = a.a_occupied

let[@inline] acc_bump a slot m =
  let fresh = a.a_n.(slot) = 0 in
  a.a_n.(slot) <- a.a_n.(slot) + 1;
  a.a_total.(slot) <- a.a_total.(slot) +. m;
  if m < a.a_low.(slot) then a.a_low.(slot) <- m;
  if m > a.a_high.(slot) then a.a_high.(slot) <- m;
  if fresh then a.a_occupied <- a.a_occupied + 1;
  fresh

(* Deduplicated add: at most one contribution per (mark, slot). Returns
   [true] when the slot became occupied — the live-counter signal COUNTER's
   eviction accounting needs. *)
let acc_add a ~slot ~mark m =
  if a.a_mark.(slot) = mark then false
  else begin
    a.a_mark.(slot) <- mark;
    acc_bump a slot m
  end

let acc_add_raw a ~slot m = acc_bump a slot m

(* Ascending slot order; empty slots skipped. The cell is freshly
   allocated — callers install it ([Cube_result.set_cell]) or merge it. *)
let acc_flush a ~f =
  for slot = 0 to a.a_slots - 1 do
    if a.a_n.(slot) > 0 then begin
      let cell = Aggregate.create () in
      cell.Aggregate.n <- float_of_int a.a_n.(slot);
      cell.Aggregate.total <- a.a_total.(slot);
      cell.Aggregate.low <- a.a_low.(slot);
      cell.Aggregate.high <- a.a_high.(slot);
      f slot cell
    end
  done

(* --- partitioned grouping ------------------------------------------------ *)
(* Two passes build a stable scatter of qualifying rows by the key's high
   bits; each partition then aggregates into one shared low-bits slot
   array, reset between partitions by generation stamp. Scatter order
   preserves row order inside a partition, so the [mark] dedup argument
   above still holds. Groups are emitted in ascending (partition, slot) =
   ascending compact-key order, matching the direct tier. *)

let partitioned_bytes p ~rows =
  (16 * rows) (* keys + scatter *)
  + (8 lsl max 0 (p.p_bits - p.p_low_bits)) (* partition offsets *)
  + ((slot_cost + 16) * (1 lsl p.p_low_bits)) (* slots + gen + mark *)
  + 512

let partitioned p ~rows ~key ~fact ~measure ~dedup ~emit =
  let low_bits = p.p_low_bits in
  let low_mask = (1 lsl low_bits) - 1 in
  let parts = 1 lsl (p.p_bits - low_bits) in
  let keys = Array.make (max 1 rows) 0 in
  let counts = Array.make (parts + 1) 0 in
  for r = 0 to rows - 1 do
    let k = key r in
    keys.(r) <- k;
    if k >= 0 then counts.(k lsr low_bits) <- counts.(k lsr low_bits) + 1
  done;
  (* prefix sums: counts.(pt) becomes the scatter cursor of partition pt *)
  let total = ref 0 in
  for pt = 0 to parts do
    let c = counts.(pt) in
    counts.(pt) <- !total;
    total := !total + c
  done;
  let order = Array.make (max 1 !total) 0 in
  let starts = Array.copy counts in
  for r = 0 to rows - 1 do
    if keys.(r) >= 0 then begin
      let pt = keys.(r) lsr low_bits in
      order.(counts.(pt)) <- r;
      counts.(pt) <- counts.(pt) + 1
    end
  done;
  let slots = 1 lsl low_bits in
  let n = Array.make slots 0 in
  let total_ = Array.make slots 0. in
  let low = Array.make slots infinity in
  let high = Array.make slots neg_infinity in
  let mark = Array.make slots min_int in
  let gen = Array.make slots (-1) in
  for pt = 0 to parts - 1 do
    let lo = starts.(pt) and hi = counts.(pt) - 1 in
    if hi >= lo then begin
      for oi = lo to hi do
        let r = order.(oi) in
        let slot = keys.(r) land low_mask in
        if gen.(slot) <> pt then begin
          gen.(slot) <- pt;
          n.(slot) <- 0;
          total_.(slot) <- 0.;
          low.(slot) <- infinity;
          high.(slot) <- neg_infinity;
          mark.(slot) <- min_int
        end;
        let dup = dedup && mark.(slot) = fact r in
        if not dup then begin
          mark.(slot) <- fact r;
          let m = measure r in
          n.(slot) <- n.(slot) + 1;
          total_.(slot) <- total_.(slot) +. m;
          if m < low.(slot) then low.(slot) <- m;
          if m > high.(slot) then high.(slot) <- m
        end
      done;
      for slot = 0 to slots - 1 do
        if gen.(slot) = pt && n.(slot) > 0 then begin
          let cell = Aggregate.create () in
          cell.Aggregate.n <- float_of_int n.(slot);
          cell.Aggregate.total <- total_.(slot);
          cell.Aggregate.low <- low.(slot);
          cell.Aggregate.high <- high.(slot);
          emit ((pt lsl low_bits) lor slot) cell
        end
      done
    end
  done

(* --- stable counting sort on dictionary ids ------------------------------ *)
(* BUC's partition step: when an axis's dictionary is small, a stable
   counting sort of the row indices replaces the comparison sort — O(n)
   and, being stable, a permutation that is a pure function of the input
   order at any worker count. *)

let counting_sort_bits_cap = direct_bits_cap

let counting_sort ~id ~size sub =
  let n = Array.length sub in
  let counts = Array.make (size + 1) 0 in
  for i = 0 to n - 1 do
    let v = id sub.(i) in
    counts.(v) <- counts.(v) + 1
  done;
  let total = ref 0 in
  for v = 0 to size do
    let c = counts.(v) in
    counts.(v) <- !total;
    total := !total + c
  done;
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let v = id sub.(i) in
    out.(counts.(v)) <- sub.(i);
    counts.(v) <- counts.(v) + 1
  done;
  Array.blit out 0 sub 0 n
