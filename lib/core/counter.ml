module Lattice = X3_lattice.Lattice
module Columnar = X3_pattern.Witness.Columnar
module Trace = X3_obs.Trace

(* A cuboid's in-pass counter state. [Radix.plan] picks [Racc] (a dense
   unboxed slot array, no hashing) for cuboids whose compact key domain
   fits [direct_bits_cap]; everything else — including domains that would
   radix-partition in a single-cuboid kernel — groups through the hash
   table, because COUNTER interleaves many cuboids per block and only the
   direct tier decomposes that way. The choice is a pure function of
   (shape, radix_bits). *)
type grouping =
  | Htbl of Radix.cursor * Group_key.scratch * Aggregate.cell Group_key.Tbl.t
  | Racc of Radix.cursor * Radix.acc

let grouping_size = function
  | Htbl (_, _, counters) -> Group_key.Tbl.length counters
  | Racc (_, acc) -> Radix.acc_occupied acc

let direct p = p.Radix.p_strategy = Radix.Direct

let note_strategy (instr : Instrument.t) p =
  if direct p then
    instr.Instrument.radix_groupings <- instr.Instrument.radix_groupings + 1
  else
    instr.Instrument.hash_groupings <- instr.Instrument.hash_groupings + 1

(* One pass walks every fact block on the calling domain and aggregates
   it into per-cuboid counter state under the pass's budget, evicting the
   fattest cuboid (never the pass's first, which guarantees progress)
   while the live counters exceed it. Eviction timing never changes cell
   values — an evicted cuboid's partials are discarded and the cuboid is
   recomputed from scratch next pass — so the pass completes exactly the
   cuboids it still holds. The state is positional: [active.(i)] belongs
   to the pass's [i]th cuboid, [None] once evicted, so the per-(block,
   cuboid) lookup is an array read. *)

let compute (ctx : Context.t) =
  let result = Cube_result.create ~table:ctx.table ctx.lattice in
  let instr = ctx.instr in
  try
    let cols = Context.cols ctx in
    let bm = Context.block_measures ctx cols in
    let nblocks = Columnar.blocks cols in
    let total_rows = Columnar.rows cols in
    let plans =
      Array.map (Radix.plan ~radix_bits:ctx.radix_bits) ctx.shapes
    in
    let budget = max 1 ctx.counter_budget in
    (* Byte accounting: [paid] is how many counters' worth of bytes the
       account holds for the cells merged into the result so far.
       Eviction honours a per-pass byte-derived cap, computed once at the
       start of the pass, so eviction timing is deterministic. *)
    let result_cells = ref 0 in
    let paid = ref 0 in
    let pay target =
      target <= !paid
      || Context.try_reserve ctx ((target - !paid) * Governor.counter_cost)
         && begin
              paid := target;
              true
            end
    in
    let remaining = ref (Array.to_list (Lattice.by_degree ctx.lattice)) in
    let first_pass = ref true in
    while !remaining <> [] do
      Context.check ctx;
      let pass_t0 = Trace.now () in
      instr.Instrument.passes <- instr.Instrument.passes + 1;
      (* Building the columns already counted the first traversal as a
         scan; later passes re-walk the columns, which stands in for the
         re-scan over the table. *)
      if not !first_pass then begin
        instr.Instrument.table_scans <- instr.Instrument.table_scans + 1;
        instr.Instrument.rows_scanned <-
          instr.Instrument.rows_scanned + total_rows
      end;
      first_pass := false;
      let cids = Array.of_list !remaining in
      Array.iter (fun cid -> note_strategy instr plans.(cid)) cids;
      (* The pass allocates its direct slot arrays up front; book them
         here so a refused reservation stops before any block is read. *)
      let acc_bytes_all =
        Array.fold_left
          (fun sum cid ->
            let p = plans.(cid) in
            if direct p then sum + Radix.acc_bytes p else sum)
          0 cids
      in
      let pass_budget =
        let rem = Context.budget_remaining ctx in
        if rem = max_int then budget
        else min budget (rem / Governor.counter_cost)
      in
      Context.with_scratch ctx acc_bytes_all @@ fun () ->
      let active =
        Array.map
          (fun cid ->
            let p = plans.(cid) in
            let cur = Radix.cursor p.Radix.p_shape cols in
            Some
              (if direct p then Racc (cur, Radix.acc_create p)
               else
                 Htbl
                   ( cur,
                     Group_key.make_scratch p.Radix.p_shape,
                     Group_key.Tbl.create 256 )))
          cids
      in
      let seen = Group_key.Seen.create () in
      let n_active = ref (Array.length cids) in
      let live = ref 0 and peak = ref 0 in
      let fresh_cell () =
        incr live;
        Aggregate.create ()
      in
      for b = 0 to nblocks - 1 do
        (* Fact blocks are coarse enough for the unamortised check — and
           it keeps stops deterministic on small tables. *)
        Context.check ctx;
        let lo = Columnar.block_lo cols b and hi = Columnar.block_hi cols b in
        let m = bm.(b) in
        for i = 0 to Array.length cids - 1 do
          match active.(i) with
          | None -> ()
          | Some (Racc (cur, acc)) ->
              for r = lo to hi do
                let k = Radix.key cur r in
                if k >= 0 && Radix.first_on_removed cur r then begin
                  instr.Instrument.keys_built <-
                    instr.Instrument.keys_built + 1;
                  if Radix.acc_add acc ~slot:k ~mark:b m then incr live
                end
              done
          | Some (Htbl (cur, scratch, counters)) ->
              Group_key.Seen.reset seen;
              for r = lo to hi do
                if Radix.load cur scratch r && Radix.first_on_removed cur r
                then begin
                  instr.Instrument.keys_built <-
                    instr.Instrument.keys_built + 1;
                  if Group_key.Seen.add seen scratch then
                    Aggregate.add
                      (Group_key.Tbl.find_or_add counters scratch
                         ~default:fresh_cell)
                      m
                end
              done
        done;
        if !live > !peak then peak := !live;
        (* Budget enforcement: evict the fattest cuboid (ties to the
           earliest in pass order — deterministic) until the pass fits. *)
        while !live > pass_budget && !n_active > 1 do
          let victim = ref (-1) and victim_size = ref (-1) in
          for i = 1 to Array.length cids - 1 do
            match active.(i) with
            | None -> ()
            | Some g ->
                let size = grouping_size g in
                if size > !victim_size then begin
                  victim := i;
                  victim_size := size
                end
          done;
          active.(!victim) <- None;
          decr n_active;
          live := !live - !victim_size;
          Trace.instant "governor.evict"
            ~attrs:
              [
                ("cuboid", Trace.Int cids.(!victim));
                ("counters", Trace.Int !victim_size);
              ]
        done
      done;
      if !peak > instr.Instrument.peak_counters then
        instr.Instrument.peak_counters <- !peak;
      (* Pay for each completed cuboid before merging it. A cuboid we
         cannot pay for is evicted to the next pass — except the pass's
         first completion, which is the progress guarantee: if even it
         does not fit, the spill path is at its floor and the run is over
         budget. *)
      let merged_any = ref false in
      Array.iteri
        (fun i cid ->
          match active.(i) with
          | None -> ()
          | Some g ->
              let cells = grouping_size g in
              if not (pay (!result_cells + cells)) then begin
                if not !merged_any then Context.stop ctx Context.Over_budget;
                active.(i) <- None
              end
              else begin
                result_cells := !result_cells + cells;
                merged_any := true;
                Trace.complete "cuboid.compute" ~start:pass_t0
                  ~attrs:
                    [
                      ("cuboid", Trace.Int cid);
                      ("cells", Trace.Int cells);
                      ("pass", Trace.Int instr.Instrument.passes);
                    ];
                match g with
                | Htbl (_, _, counters) ->
                    Group_key.Tbl.iter
                      (fun key cell ->
                        Aggregate.merge
                          ~into:(Cube_result.cell result ~cuboid:cid ~key)
                          cell)
                      counters
                | Racc (_, acc) ->
                    Radix.acc_flush acc ~f:(fun k cell ->
                        Aggregate.merge
                          ~into:
                            (Cube_result.cell result ~cuboid:cid
                               ~key:(Group_key.Packed k))
                          cell)
              end)
        cids;
      Trace.complete "counter.pass" ~start:pass_t0
        ~attrs:[ ("pass", Trace.Int instr.Instrument.passes) ];
      remaining :=
        List.filteri (fun i _ -> Option.is_none active.(i)) (Array.to_list cids)
    done;
    result
  with Context.Stop _ -> result
