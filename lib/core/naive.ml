module Lattice = X3_lattice.Lattice
module Cuboid = X3_lattice.Cuboid
module Columnar = X3_pattern.Witness.Columnar

(* NAIVE over the columnar view: one instrumented scan builds the columns,
   then every cuboid takes one tight pass over the rows. The grouping
   strategy per cuboid comes from [Radix.plan] — a pure function of
   (layout, cuboid, radix_bits), so the strategy counters are identical at
   any worker count. Dedup marks are fact-block indices: a fact's rows are
   contiguous, so a per-slot stamp removes within-fact duplicates exactly
   as the per-block [Group_key.Seen] did. *)

let note_strategies (instr : Instrument.t) plans =
  Array.iter
    (fun p ->
      match p.Radix.p_strategy with
      | Radix.Hash ->
          instr.Instrument.hash_groupings <-
            instr.Instrument.hash_groupings + 1
      | Radix.Direct | Radix.Partitioned ->
          instr.Instrument.radix_groupings <-
            instr.Instrument.radix_groupings + 1)
    plans

(* Radix scratch is transient (released after each cuboid's flush), so the
   instrument tracks its high-water mark separately from the governor's
   ledger. *)
type scratch_meter = { ctx : Context.t; mutable live : int }

let scratch_reserve m instr n =
  Context.reserve m.ctx n;
  m.live <- m.live + n;
  Instrument.bump_radix_scratch instr m.live

let scratch_release m n =
  Context.release m.ctx n;
  m.live <- m.live - n

(* One partitioned-strategy cuboid, aggregated on the calling domain (the
   kernel is a two-pass scatter over all rows — it does not decompose into
   block tasks, and its scratch is too large to replicate per worker). *)
let partitioned_cuboid (ctx : Context.t) instr meter result cols bm ~cid p =
  let rows = Columnar.rows cols in
  let bytes = Radix.partitioned_bytes p ~rows in
  scratch_reserve meter instr bytes;
  Fun.protect
    ~finally:(fun () -> scratch_release meter bytes)
    (fun () ->
      let cur = Radix.cursor p cols in
      Radix.partitioned p ~rows
        ~key:(fun r ->
          Context.checkpoint ctx;
          let k = Radix.key cur r in
          if k >= 0 && Radix.first_on_removed cur r then begin
            instr.Instrument.keys_built <- instr.Instrument.keys_built + 1;
            k
          end
          else -1)
        ~fact:(fun r -> Columnar.block_of_row cols r)
        ~measure:(fun r -> bm.(Columnar.block_of_row cols r))
        ~dedup:true
        ~emit:(fun compact cell ->
          Cube_result.set_cell result ~cuboid:cid
            ~key:(Radix.key_of_compact p ctx.Context.layout compact)
            cell))

let compute_sequential (ctx : Context.t) =
  let result = Cube_result.create ~table:ctx.table ctx.lattice in
  let instr = ctx.instr in
  let ids = Lattice.by_degree ctx.lattice in
  let cuboids = Array.map (Lattice.cuboid ctx.lattice) ids in
  (* NAIVE has no spill path: its only growing structure is the result
     itself, booked at cuboid boundaries. A refused booking is immediately
     the floor: stop, keeping the cuboids aggregated so far. *)
  let governed = not (Governor.is_unbounded (Context.account ctx)) in
  let booked = ref 0 in
  let book_result () =
    if governed then begin
      let cells = Cube_result.total_cells result in
      if cells > !booked then begin
        Context.reserve ctx ((cells - !booked) * Governor.counter_cost);
        booked := cells
      end
    end
  in
  (* A requested stop surfaces here, between cuboids: completed cuboids'
     cells stand, and the engine reports the result partial. *)
  try
    let cols = Context.cols ctx in
    let bm = Context.block_measures ctx cols in
    let rows = Columnar.rows cols in
    let plans =
      Array.map
        (Radix.plan ~layout:ctx.layout ~radix_bits:ctx.radix_bits)
        cuboids
    in
    note_strategies instr plans;
    let scratch = Group_key.make_scratch ctx.layout in
    let seen = Group_key.Seen.create () in
    let meter = { ctx; live = 0 } in
    X3_obs.Trace.with_span "naive.aggregate" (fun () ->
        Array.iteri
          (fun i cuboid ->
            Context.check ctx;
            let p = plans.(i) in
            (match p.Radix.p_strategy with
            | Radix.Hash ->
                (* Block-major with per-block key dedup — the original
                   NAIVE inner loop, reading the columns. *)
                let cur_block = ref (-1) in
                for r = 0 to rows - 1 do
                  Context.checkpoint ctx;
                  let b = Columnar.block_of_row cols r in
                  if b <> !cur_block then begin
                    cur_block := b;
                    Group_key.Seen.reset seen
                  end;
                  if Cuboid.represents cuboid cols ~row:r then begin
                    Group_key.load_cols scratch cuboid cols ~row:r;
                    instr.Instrument.keys_built <-
                      instr.Instrument.keys_built + 1;
                    if Group_key.Seen.add seen scratch then
                      Aggregate.add
                        (Cube_result.cell_scratch result ~cuboid:ids.(i)
                           scratch)
                        bm.(b)
                  end
                done
            | Radix.Direct ->
                let bytes = Radix.acc_bytes p in
                scratch_reserve meter instr bytes;
                Fun.protect
                  ~finally:(fun () -> scratch_release meter bytes)
                  (fun () ->
                    let acc = Radix.acc_create p in
                    let cur = Radix.cursor p cols in
                    for r = 0 to rows - 1 do
                      Context.checkpoint ctx;
                      let k = Radix.key cur r in
                      if k >= 0 && Radix.first_on_removed cur r then begin
                        instr.Instrument.keys_built <-
                          instr.Instrument.keys_built + 1;
                        let b = Columnar.block_of_row cols r in
                        ignore (Radix.acc_add acc ~slot:k ~mark:b bm.(b))
                      end
                    done;
                    Radix.acc_flush acc ~f:(fun compact cell ->
                        Cube_result.set_cell result ~cuboid:ids.(i)
                          ~key:
                            (Radix.key_of_compact p ctx.Context.layout compact)
                          cell))
            | Radix.Partitioned ->
                partitioned_cuboid ctx instr meter result cols bm
                  ~cid:ids.(i) p);
            book_result ())
          cuboids);
    result
  with Context.Stop _ -> result

(* The parallel plan (partition/merge): fact blocks are the task unit —
   per-block dedup means no group-key state crosses a block boundary, so
   any contiguous split of the block sequence aggregates independently.
   Direct-strategy cuboids get one private slot array per worker (cheap:
   ≤ 2^12 slots each) merged in worker order; hash cuboids keep the
   partial-table merge; partitioned cuboids run on the calling domain
   after the fan-out — their scatter does not decompose into block tasks.
   The columns themselves are unboxed and immutable, so workers share
   them without snapshotting. *)

type worker = {
  scratch : Group_key.scratch;
  seen : Group_key.Seen.t;
  instr : Instrument.t;
  partials : Aggregate.cell Group_key.Tbl.t array;  (* one per hash cuboid *)
  accs : Radix.acc array;  (* one per direct cuboid *)
}

let compute_parallel (ctx : Context.t) =
  let result = Cube_result.create ~table:ctx.table ctx.lattice in
  let ids = Lattice.by_degree ctx.lattice in
  let cuboids = Array.map (Lattice.cuboid ctx.lattice) ids in
  try
    let cols = Context.cols ctx in
    Context.check ctx;
    let bm = Context.block_measures ctx cols in
    let nblocks = Columnar.blocks cols in
    let plans =
      Array.map
        (Radix.plan ~layout:ctx.layout ~radix_bits:ctx.radix_bits)
        cuboids
    in
    note_strategies ctx.instr plans;
    let pick strat =
      let l = ref [] in
      Array.iteri
        (fun i p -> if p.Radix.p_strategy = strat then l := i :: !l)
        plans;
      Array.of_list (List.rev !l)
    in
    let hash_is = pick Radix.Hash in
    let direct_is = pick Radix.Direct in
    let part_is = pick Radix.Partitioned in
    let meter = { ctx; live = 0 } in
    let states =
      if Array.length hash_is = 0 && Array.length direct_is = 0 then [||]
      else begin
        (* Every worker allocates its direct slot arrays up front; book
           them all before the fan-out so a refused reservation stops here
           rather than inside a domain. *)
        let acc_bytes_all =
          Array.fold_left
            (fun sum i -> sum + Radix.acc_bytes plans.(i))
            0 direct_is
        in
        scratch_reserve meter ctx.instr (ctx.workers * acc_bytes_all);
        Fun.protect
          ~finally:(fun () ->
            scratch_release meter (ctx.workers * acc_bytes_all))
          (fun () ->
            Parallel.run ~workers:ctx.workers ~tasks:nblocks
              ~init:(fun _ ->
                {
                  scratch = Group_key.make_scratch ctx.layout;
                  seen = Group_key.Seen.create ();
                  instr = Instrument.create ();
                  partials =
                    Array.map
                      (fun _ -> Group_key.Tbl.create 256)
                      hash_is;
                  accs =
                    Array.map (fun i -> Radix.acc_create plans.(i)) direct_is;
                })
              ~body:(fun w b ->
                let lo = Columnar.block_lo cols b
                and hi = Columnar.block_hi cols b in
                let m = bm.(b) in
                Array.iteri
                  (fun j i ->
                    let cuboid = cuboids.(i) in
                    Group_key.Seen.reset w.seen;
                    for r = lo to hi do
                      if Cuboid.represents cuboid cols ~row:r then begin
                        Group_key.load_cols w.scratch cuboid cols ~row:r;
                        w.instr.Instrument.keys_built <-
                          w.instr.Instrument.keys_built + 1;
                        if Group_key.Seen.add w.seen w.scratch then
                          Aggregate.add
                            (Group_key.Tbl.find_or_add w.partials.(j)
                               w.scratch ~default:Aggregate.create)
                            m
                      end
                    done)
                  hash_is;
                Array.iteri
                  (fun j i ->
                    let cur = Radix.cursor plans.(i) cols in
                    for r = lo to hi do
                      let k = Radix.key cur r in
                      if k >= 0 && Radix.first_on_removed cur r then begin
                        w.instr.Instrument.keys_built <-
                          w.instr.Instrument.keys_built + 1;
                        ignore (Radix.acc_add w.accs.(j) ~slot:k ~mark:b m)
                      end
                    done)
                  direct_is))
      end
    in
    Array.iter (fun w -> Instrument.merge ~into:ctx.instr w.instr) states;
    (* Merge cuboid by cuboid, booking each one's cells (upper bound: the
       summed worker partials, before cross-worker dedup) first — a refused
       booking stops the merge at a cuboid boundary, so the partial result
       holds only complete cuboids. *)
    let governed = not (Governor.is_unbounded (Context.account ctx)) in
    X3_obs.Trace.with_span "naive.merge"
      ~attrs:[ ("workers", X3_obs.Trace.Int (Array.length states)) ]
      (fun () ->
        Array.iteri
          (fun j i ->
            if governed then begin
              let cells =
                Array.fold_left
                  (fun acc w -> acc + Group_key.Tbl.length w.partials.(j))
                  0 states
              in
              Context.reserve ctx (cells * Governor.counter_cost)
            end;
            Array.iter
              (fun w ->
                Group_key.Tbl.iter
                  (fun key cell ->
                    Aggregate.merge
                      ~into:(Cube_result.cell result ~cuboid:ids.(i) ~key)
                      cell)
                  w.partials.(j))
              states)
          hash_is;
        Array.iteri
          (fun j i ->
            let p = plans.(i) in
            if governed then begin
              let cells =
                Array.fold_left
                  (fun acc w -> acc + Radix.acc_occupied w.accs.(j))
                  0 states
              in
              Context.reserve ctx (cells * Governor.counter_cost)
            end;
            Array.iter
              (fun w ->
                Radix.acc_flush w.accs.(j) ~f:(fun compact cell ->
                    Aggregate.merge
                      ~into:
                        (Cube_result.cell result ~cuboid:ids.(i)
                           ~key:
                             (Radix.key_of_compact p ctx.Context.layout
                                compact))
                      cell))
              states)
          direct_is);
    (* Partitioned cuboids aggregate on this domain, exactly as the
       sequential path does. *)
    Array.iter
      (fun i ->
        Context.check ctx;
        partitioned_cuboid ctx ctx.instr meter result cols bm ~cid:ids.(i)
          plans.(i);
        if governed then
          Context.reserve ctx
            (Cube_result.cuboid_size result ids.(i) * Governor.counter_cost))
      part_is;
    result
  with Context.Stop _ -> result

let compute (ctx : Context.t) =
  if Context.workers ctx <= 1 then compute_sequential ctx
  else compute_parallel ctx
