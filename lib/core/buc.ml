module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar
module Quicksort = X3_storage.Quicksort

type variant = [ `Plain | `Opt | `Custom of X3_lattice.Properties.t ]

(* The recursion's state: the current restriction (states/ids) is
   mutated in place down the recursion. The rows themselves are indices
   into the shared immutable columns — partitions copy and reorder 8-byte
   ints, never boxed rows. [stamp] is the [Dedup] mark: a fact's rows form
   one fact block, so each cell's aggregation bumps [gen] and counts a
   block once, when its stamp is not yet the current generation. *)
type env = {
  states : State.t array;
  ids : int array;  (* current partition's dictionary id per present axis *)
  stamp : int array;  (* per fact block; empty when no cuboid deduplicates *)
  mutable gen : int;
}

let compute ~variant (ctx : Context.t) =
  let lattice = ctx.lattice in
  let axes = Lattice.axes lattice in
  let k = Array.length axes in
  let result = Cube_result.create ~table:ctx.table lattice in
  let instr = ctx.instr in
  try
    let cols = Context.cols ctx in
    let bm = Context.block_measures ctx cols in
    let nrows = Columnar.rows cols in
    let measure_row r = bm.(Columnar.block_of_row cols r) in
    let cell_id r ai = Columnar.id cols ~axis:ai ~row:r in
    let dict_sizes = Witness.dict_sizes ctx.table in
    (* Only rows holding the fact's first binding on every removed axis
       represent their fact here (see Cuboid.represents); the
       partition keeps the others because deeper refinements may make
       those axes present. This and the other per-row and per-cell
       walks over the axes are [while] loops: a local recursive function
       would allocate a closure per call. *)
    let represents env r =
      let ai = ref 0 in
      while
        !ai < k
        &&
        match env.states.(!ai) with
        | State.Removed -> Columnar.first cols ~axis:!ai ~row:r
        | State.Present _ -> true
      do
        incr ai
      done;
      !ai >= k
    in
    let aggregate_into env cid key rows_lo rows_hi part =
      (* Three aggregation modes (§3.4):
         - BUC: representative rows, deduplicated by fact id — always
           correct;
         - BUCOPT: raw row counts, assuming strict disjointness globally —
           cheap, and silently wrong when the assumption fails (a fact's
           cartesian duplicates all get counted);
         - BUCCUST: where the property oracle proves the cuboid disjoint,
           count representative rows without identity tracking; elsewhere
           run the full BUC aggregation. *)
      let mode =
        match variant with
        | `Plain -> `Dedup
        | `Opt -> `Raw
        | `Custom props ->
            if X3_lattice.Properties.cuboid_disjoint props cid then
              `Representative
            else `Dedup
      in
      let cell = lazy (Cube_result.cell result ~cuboid:cid ~key) in
      match mode with
      | `Raw ->
          for i = rows_lo to rows_hi do
            Aggregate.add (Lazy.force cell) (measure_row part.(i))
          done
      | `Representative ->
          for i = rows_lo to rows_hi do
            if represents env part.(i) then
              Aggregate.add (Lazy.force cell) (measure_row part.(i))
          done
      | `Dedup ->
          env.gen <- env.gen + 1;
          let gen = env.gen in
          let tracked = ref 0 in
          for i = rows_lo to rows_hi do
            let r = part.(i) in
            if represents env r then begin
              let b = Columnar.block_of_row cols r in
              if env.stamp.(b) <> gen then begin
                env.stamp.(b) <- gen;
                incr tracked;
                Aggregate.add (Lazy.force cell) bm.(b)
              end
            end
          done;
          instr.Instrument.dedup_tracked <-
            instr.Instrument.dedup_tracked + !tracked
    in
    (* The cuboid of the current state vector, by a mixed-radix code:
       axis [ai]'s digit is its mask when present and [removed.(ai)]
       when removed. An axis left Removed — skipped by the recursion or
       not yet reached — that does not allow LND has no digit: the
       restriction is only an intermediate step, not a cuboid, and the
       code is -1. The code-to-id table is filled once per run. *)
    let removed =
      Array.map
        (fun axis ->
          if Axis.allows_lnd axis then List.length (Axis.states axis) else -1)
        axes
    in
    let weight = Array.make k 1 in
    for ai = k - 2 downto 0 do
      weight.(ai) <-
        weight.(ai + 1) * List.length (State.all axes.(ai + 1))
    done;
    let code_of states =
      let code = ref 0 and ai = ref 0 in
      while !ai < k do
        let digit =
          match states.(!ai) with
          | State.Removed -> removed.(!ai)
          | State.Present m -> m
        in
        if digit < 0 then begin
          code := -1;
          ai := k
        end
        else begin
          code := !code + (digit * weight.(!ai));
          incr ai
        end
      done;
      !code
    in
    let cid_of_code = Array.make (Lattice.size lattice) (-1) in
    for cid = 0 to Lattice.size lattice - 1 do
      cid_of_code.(code_of (Lattice.cuboid lattice cid)) <- cid
    done;
    (* Result cells are booked at refine boundaries; partition sub-arrays
       transiently per branch. *)
    let governed = not (Governor.is_unbounded (Context.account ctx)) in
    let booked_cells = ref 0 in
    let book_result () =
      if governed then begin
        let cells = Cube_result.total_cells result in
        if cells > !booked_cells then begin
          Context.reserve ctx ((cells - !booked_cells) * Governor.counter_cost);
          booked_cells := cells
        end
      end
    in
    let rec refine env part lo hi next =
      (* Stop check at partition boundaries; a stop abandons the recursion
         with already-emitted cells intact. *)
      Context.check ctx;
      book_result ();
      (* Empty restrictions produce no groups (a group exists only if some
         fact is in it), matching the reference semantics. *)
      let code = if hi >= lo then code_of env.states else -1 in
      if code >= 0 then begin
        let cid = cid_of_code.(code) in
        instr.Instrument.keys_built <- instr.Instrument.keys_built + 1;
        aggregate_into env cid
          (Group_key.of_axis_ids ctx.shapes.(cid) env.ids)
          lo hi part
      end;
      for ai = next to k - 1 do
        List.iter
          (fun mask -> branch env part lo hi ai mask)
          (Axis.states axes.(ai))
      done
    and branch env part lo hi ai mask =
      (* Restrict to rows whose axis-[ai] binding is valid at [mask]:
         count, then fill, to avoid intermediate lists. *)
      let n = ref 0 in
      for i = lo to hi do
        if Columnar.qualifies cols ~axis:ai ~row:part.(i) ~state:mask then
          incr n
      done;
      let sub =
        if !n = 0 then [||]
        else begin
          let sub = Array.make !n 0 in
          let j = ref 0 in
          for i = lo to hi do
            let r = part.(i) in
            if Columnar.qualifies cols ~axis:ai ~row:r ~state:mask then begin
              sub.(!j) <- r;
              incr j
            end
          done;
          sub
        end
      in
      let n = Array.length sub in
      if n > 0 then begin
        (* The sub-array is live for the whole branch (and under it, the
           deeper sub-arrays of the recursion): book its words, releasing
           on the way back up. *)
        let sub_bytes = if governed then 8 * (n + 2) else 0 in
        Context.reserve ctx sub_bytes;
        Fun.protect ~finally:(fun () -> Context.release ctx sub_bytes)
        @@ fun () ->
        (* Partition on the grouping id. A small dictionary gets a stable
           O(n + size) counting sort on the ids (the radix tier of this
           family) — but only while the dictionary is at most 4x the
           partition, or clearing and scanning its histogram would dwarf
           the sort; otherwise quicksort, which is not stable, so it
           breaks ties on the row index. Either way a run's rows stay in
           table order, so every cell adds its measures in table order,
           as NAIVE does. Dictionary ids compare as plain ints — no
           string walks. The instrument is read
           through [ctx], which this closure holds anyway, so the closure
           built per branch gains no slot. *)
        let instr = ctx.instr in
        instr.Instrument.sort_ops <- instr.Instrument.sort_ops + 1;
        instr.Instrument.rows_sorted <- instr.Instrument.rows_sorted + n;
        let size = dict_sizes.(ai) in
        if
          ctx.radix_bits > 0
          && Group_key.bits_for size <= Radix.counting_sort_bits_cap
          && size <= 4 * n
        then begin
          instr.Instrument.radix_groupings <-
            instr.Instrument.radix_groupings + 1;
          Radix.counting_sort ~id:(fun r -> cell_id r ai) ~size sub
        end
        else begin
          instr.Instrument.hash_groupings <-
            instr.Instrument.hash_groupings + 1;
          Quicksort.sort
            ~compare:(fun a b ->
              let c = Int.compare (cell_id a ai) (cell_id b ai) in
              if c <> 0 then c else Int.compare a b)
            sub
        end;
        env.states.(ai) <- State.Present mask;
        let run_start = ref 0 in
        for i = 1 to n do
          let boundary =
            i = n || cell_id sub.(i) ai <> cell_id sub.(!run_start) ai
          in
          if boundary then begin
            env.ids.(ai) <- cell_id sub.(!run_start) ai;
            refine env sub !run_start (i - 1) (ai + 1);
            run_start := i
          end
        done;
        env.states.(ai) <- State.Removed
      end
    in
    (* The block stamps are resident for the whole run. *)
    let nstamps =
      match variant with
      | `Opt -> 0
      | `Plain | `Custom _ -> Columnar.blocks cols
    in
    (* The base witness set is the full row-index range; the recursion
       partitions index arrays in memory, as BUC does when the input fits
       (our scaled inputs do; the I/O cost of the initial columnarising
       read is counted by [Context.cols]). The root index array is
       resident for the whole recursion. *)
    let root = Array.init nrows Fun.id in
    if governed then
      Context.reserve ctx ((8 * (nrows + 2)) + (8 * (nstamps + 1)));
    (* The root emits the apex (everything Removed), then every branch
       (ai, mask) in axis order; branch (ai, mask) emits exactly the
       cuboids whose first present axis is [ai] with state [mask]. *)
    let env =
      {
        states = Array.make k State.Removed;
        ids = Array.make k 0;
        stamp = Array.make nstamps 0;
        gen = 0;
      }
    in
    refine env root 0 (nrows - 1) 0;
    book_result ();
    result
  with Context.Stop _ -> result
