(* Radix grouping kernels over the columnar witness layout.

   A cuboid's packed group key ([Group_key.shape]) is the concatenation of
   its present axes' dictionary-id fields, a dense integer domain of
   [bits] bits:

   - [Direct]       the whole domain fits a slot array — aggregate into
                    unboxed per-slot accumulators, no hashing, no per-row
                    allocation;
   - [Partitioned]  the domain is larger: stable counting-sort scatter on
                    the key's high bits, then per-partition dense
                    aggregation over the low bits with generation stamps;
   - [Hash]         the domain exceeds [radix_bits]: fall back to the
                    [Group_key.Tbl] path.

   The choice is a pure function of (shape, radix_bits), so a run's
   strategies are identical on every run. *)

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
  p_shape : Group_key.shape;
  p_low_bits : int;  (** slot-array bits (the key's bits when [Direct]) *)
  p_strategy : strategy;
}

(* A wide shape's bits exceed 62, so it is [Hash] at any sane
   [radix_bits]; the packed test keeps a larger [radix_bits] safe. *)
let plan ~radix_bits (s : Group_key.shape) =
  let bits = s.Group_key.bits in
  let direct_bits = min direct_bits_cap radix_bits in
  let strategy =
    if radix_bits <= 0 || bits > radix_bits || not s.Group_key.packed then
      Hash
    else if bits <= direct_bits then Direct
    else Partitioned
  in
  let low_bits = if strategy = Partitioned then direct_bits else bits in
  { p_shape = s; p_low_bits = low_bits; p_strategy = strategy }

(* --- cursors: the per-row qualification + compact-key path --------------- *)

type cursor = {
  u_packed : bool;
  u_ids : Columnar.int32_col array;  (** present axes' id columns *)
  u_tags : Columnar.tag_col array;
  u_masks : int array;  (** validity-bit mask per present axis *)
  u_shifts : int array;
  u_removed_tags : Columnar.tag_col array;  (** removed axes' tag columns *)
}

let cursor (s : Group_key.shape) cols =
  let removed = ref [] and masks = ref [] in
  Array.iteri
    (fun ai state ->
      match state with
      | State.Removed -> removed := Columnar.tags cols ai :: !removed
      | State.Present m -> masks := (1 lsl m) :: !masks)
    s.Group_key.cuboid;
  {
    u_packed = s.Group_key.packed;
    u_ids = Array.map (Columnar.ids cols) s.Group_key.present;
    u_tags = Array.map (Columnar.tags cols) s.Group_key.present;
    u_masks = Array.of_list (List.rev !masks);
    u_shifts = s.Group_key.shifts;
    u_removed_tags = Array.of_list !removed;
  }

(* Is present field [i] of [row] bound and valid at the cuboid's state?
   Its id when so, else -1. *)
let[@inline] valid_id cur i row =
  let id = Int32.to_int (Bigarray.Array1.unsafe_get cur.u_ids.(i) row) in
  let tag = Bigarray.Array1.unsafe_get cur.u_tags.(i) row in
  if id < 0 || tag land cur.u_masks.(i) = 0 then -1 else id

(* Compact key of [row], or -1 when some present axis is unbound or not
   valid at the cuboid's state — [Cuboid.qualifies] and the key fused into
   one pass over the hoisted columns. A [while] loop rather than a local
   recursive function: the latter would allocate a closure on every call,
   i.e. per row per cuboid. *)
let key cur row =
  let n = Array.length cur.u_ids in
  let acc = ref 0 and i = ref 0 in
  while !i < n do
    let id = valid_id cur !i row in
    if id < 0 then begin
      acc := -1;
      i := n
    end
    else begin
      acc := !acc lor (id lsl cur.u_shifts.(!i));
      incr i
    end
  done;
  !acc

(* The hash tier's row path: [key] for a packed shape, the present ids
   into the scratch for a wide one. *)
let load cur scratch row =
  if cur.u_packed then begin
    let k = key cur row in
    Group_key.set_packed scratch k;
    k >= 0
  end
  else begin
    let n = Array.length cur.u_ids in
    let i = ref 0 in
    while !i < n do
      let id = valid_id cur !i row in
      if id < 0 then i := n + 1
      else begin
        Group_key.set_field scratch !i id;
        incr i
      end
    done;
    !i = n
  end

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
  + (8 lsl max 0 (p.p_shape.Group_key.bits - p.p_low_bits)) (* partitions *)
  + ((slot_cost + 16) * (1 lsl p.p_low_bits)) (* slots + gen + mark *)
  + 512

let partitioned p ~rows ~key ~fact ~measure ~dedup ~emit =
  let low_bits = p.p_low_bits in
  let low_mask = (1 lsl low_bits) - 1 in
  let parts = 1 lsl (p.p_shape.Group_key.bits - low_bits) in
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
   and, being stable, keeps equal ids in input order. *)

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
