module Lattice = X3_lattice.Lattice
module Columnar = X3_pattern.Witness.Columnar

(* NAIVE over the columnar view: one instrumented scan builds the columns,
   then every cuboid takes one tight pass over the rows, on the calling
   domain. NAIVE is the semantic oracle every other family is checked
   against. The grouping strategy per cuboid comes from [Radix.plan] — a
   pure function of (shape, radix_bits). Dedup marks are fact-block
   indices: a fact's rows are contiguous, so a per-slot stamp removes
   within-fact duplicates exactly as the per-block [Group_key.Seen]
   did. *)

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

let compute (ctx : Context.t) =
  let result = Cube_result.create ~table:ctx.table ctx.lattice in
  let instr = ctx.instr in
  let ids = Lattice.by_degree ctx.lattice in
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
        (fun cid -> Radix.plan ~radix_bits:ctx.radix_bits ctx.shapes.(cid))
        ids
    in
    note_strategies instr plans;
    let seen = Group_key.Seen.create () in
    X3_obs.Trace.with_span "naive.aggregate" (fun () ->
        Array.iteri
          (fun i p ->
            Context.check ctx;
            let cur = Radix.cursor p.Radix.p_shape cols in
            (match p.Radix.p_strategy with
            | Radix.Hash ->
                (* Block-major with per-block key dedup — the original
                   NAIVE inner loop, reading the columns. *)
                let scratch = Group_key.make_scratch p.Radix.p_shape in
                let cur_block = ref (-1) in
                for r = 0 to rows - 1 do
                  Context.checkpoint ctx;
                  let b = Columnar.block_of_row cols r in
                  if b <> !cur_block then begin
                    cur_block := b;
                    Group_key.Seen.reset seen
                  end;
                  if Radix.load cur scratch r && Radix.first_on_removed cur r
                  then begin
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
                Context.with_scratch ctx (Radix.acc_bytes p) (fun () ->
                    let acc = Radix.acc_create p in
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
                    Radix.acc_flush acc ~f:(fun k cell ->
                        Cube_result.set_cell result ~cuboid:ids.(i)
                          ~key:(Group_key.Packed k) cell))
            | Radix.Partitioned ->
                Context.with_scratch ctx (Radix.partitioned_bytes p ~rows)
                  (fun () ->
                    Radix.partitioned p ~rows
                      ~key:(fun r ->
                        Context.checkpoint ctx;
                        let k = Radix.key cur r in
                        if k >= 0 && Radix.first_on_removed cur r then begin
                          instr.Instrument.keys_built <-
                            instr.Instrument.keys_built + 1;
                          k
                        end
                        else -1)
                      ~fact:(fun r -> Columnar.block_of_row cols r)
                      ~measure:(fun r -> bm.(Columnar.block_of_row cols r))
                      ~dedup:true
                      ~emit:(fun k cell ->
                        Cube_result.set_cell result ~cuboid:ids.(i)
                          ~key:(Group_key.Packed k) cell)));
            book_result ())
          plans);
    result
  with Context.Stop _ -> result
