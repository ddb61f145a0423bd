module Lattice = X3_lattice.Lattice
module Columnar = X3_pattern.Witness.Columnar
module Trace = X3_obs.Trace

(* A cuboid's in-pass counter state. [Radix.plan] picks [Racc] (a dense
   unboxed slot array, no hashing) for cuboids whose compact key domain
   fits [direct_bits_cap]; everything else — including domains that would
   radix-partition in a single-cuboid kernel — groups through the hash
   table, because COUNTER interleaves many cuboids per block and only the
   direct tier decomposes that way. The choice is a pure function of
   (shape, radix_bits): identical at any worker count. *)
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

(* One pass is a partition/merge over fact blocks: each worker aggregates
   its block slice into private per-cuboid counter state under a private
   budget slice (counter_budget / workers), evicting worker-locally.
   Eviction timing never changes cell values — an evicted cuboid's
   partials are discarded everywhere and the cuboid is recomputed from
   scratch next pass — so a cuboid completes this pass iff NO worker
   evicted it, and the completed partials merge in worker order. The
   columns are unboxed and immutable, so workers share them without
   snapshotting. Worker 0 runs on the calling domain: it counts straight
   into the context's instrument and polls for stops once per fact block,
   so one worker is the whole sequential algorithm. A worker's counter
   state is positional: [active.(i)] belongs to the pass's [i]th cuboid,
   [None] once evicted, so the per-(block, cuboid) lookup is an array
   read. *)

type worker = {
  seen : Group_key.Seen.t;
  instr : Instrument.t;
  active : grouping option array;
  mutable n_active : int;
  mutable live : int;
  mutable peak : int;
  mutable evicted : int list;
}

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
    let budget = max 1 (ctx.counter_budget / ctx.workers) in
    (* Byte accounting: [paid] is how many counters' worth of bytes the
       account holds for the cells merged into the result so far. Worker
       eviction honours a per-pass byte-derived cap, computed once on this
       domain before fan-out so eviction timing is deterministic. *)
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
      (* Every worker allocates its direct slot arrays up front; book them
         all here so a refused reservation stops on this domain, not
         inside one. *)
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
        else min budget (rem / Governor.counter_cost / ctx.workers)
      in
      Context.with_scratch ctx (ctx.workers * acc_bytes_all) @@ fun () ->
      let states =
        Parallel.run ~workers:ctx.workers ~tasks:nblocks
          ~init:(fun w ->
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
            {
              seen = Group_key.Seen.create ();
              instr = (if w = 0 then instr else Instrument.create ());
              active;
              n_active = Array.length cids;
              live = 0;
              peak = 0;
              evicted = [];
            })
          ~body:(fun w b ->
            (* Fact blocks are coarse enough for the unamortised check —
               and it keeps stops deterministic on small tables. *)
            if w.instr == instr then Context.check ctx;
            let lo = Columnar.block_lo cols b
            and hi = Columnar.block_hi cols b in
            let m = bm.(b) in
            let fresh_cell () =
              w.live <- w.live + 1;
              Aggregate.create ()
            in
            for i = 0 to Array.length cids - 1 do
              match w.active.(i) with
              | None -> ()
              | Some (Racc (cur, acc)) ->
                  for r = lo to hi do
                    let k = Radix.key cur r in
                    if k >= 0 && Radix.first_on_removed cur r then begin
                      w.instr.Instrument.keys_built <-
                        w.instr.Instrument.keys_built + 1;
                      if Radix.acc_add acc ~slot:k ~mark:b m then
                        w.live <- w.live + 1
                    end
                  done
              | Some (Htbl (cur, scratch, counters)) ->
                  Group_key.Seen.reset w.seen;
                  for r = lo to hi do
                    if Radix.load cur scratch r && Radix.first_on_removed cur r
                    then begin
                      w.instr.Instrument.keys_built <-
                        w.instr.Instrument.keys_built + 1;
                      if Group_key.Seen.add w.seen scratch then
                        Aggregate.add
                          (Group_key.Tbl.find_or_add counters scratch
                             ~default:fresh_cell)
                          m
                    end
                  done
            done;
            if w.live > w.peak then w.peak <- w.live;
            (* Worker-local budget enforcement: evict the locally fattest
               cuboid (ties to the earliest in pass order — deterministic)
               until the slice fits. The pass's first cuboid is protected
               on every worker: workers see different slices and could
               otherwise each evict a different cuboid, leaving no pass
               with a completion — protecting a common cuboid guarantees
               progress. *)
            while w.live > pass_budget && w.n_active > 1 do
              let victim = ref (-1) and victim_size = ref (-1) in
              for i = 1 to Array.length cids - 1 do
                match w.active.(i) with
                | None -> ()
                | Some g ->
                    let size = grouping_size g in
                    if size > !victim_size then begin
                      victim := i;
                      victim_size := size
                    end
              done;
              w.active.(!victim) <- None;
              w.n_active <- w.n_active - 1;
              w.live <- w.live - !victim_size;
              w.evicted <- cids.(!victim) :: w.evicted;
              Trace.instant "governor.evict"
                ~attrs:
                  [
                    ("cuboid", Trace.Int cids.(!victim));
                    ("counters", Trace.Int !victim_size);
                  ]
            done)
      in
      (* A cuboid completed iff no worker evicted it; merge those partials
         in worker order. Evicted cuboids restart from scratch next pass. *)
      let evicted_any = Hashtbl.create 16 in
      Array.iter
        (fun w ->
          List.iter (fun cid -> Hashtbl.replace evicted_any cid ()) w.evicted)
        states;
      (* Concurrent workers' peaks coexist, so the pass's
         simultaneous-counter bound is their sum; the run's peak is the
         max over passes. With more than one worker the largest single
         worker's peak is kept separately, so reports can show the
         per-worker footprint next to the session bound. *)
      let pass_peak = ref 0 in
      Array.iter
        (fun w ->
          pass_peak := !pass_peak + w.peak;
          if Array.length states > 1 then
            instr.Instrument.peak_counters_worker_max <-
              max instr.Instrument.peak_counters_worker_max w.peak;
          if w.instr != instr then Instrument.merge ~into:instr w.instr)
        states;
      if !pass_peak > instr.Instrument.peak_counters then
        instr.Instrument.peak_counters <- !pass_peak;
      (* Pay for each completed cuboid (upper bound: summed worker
         partials, before cross-worker key dedup) before merging it. A
         cuboid we cannot pay for is re-evicted to the next pass — except
         the pass's first completion, which is the progress guarantee: if
         even it does not fit, the spill path is at its floor and the run
         is over budget. *)
      let merged_any = ref false in
      Array.iteri
        (fun i cid ->
          if not (Hashtbl.mem evicted_any cid) then begin
            let cells =
              Array.fold_left
                (fun acc w ->
                  match w.active.(i) with
                  | None -> acc
                  | Some g -> acc + grouping_size g)
                0 states
            in
            if not (pay (!result_cells + cells)) then begin
              if not !merged_any then Context.stop ctx Context.Over_budget;
              Hashtbl.replace evicted_any cid ()
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
              Array.iter
                (fun w ->
                  match w.active.(i) with
                  | None -> ()
                  | Some (Htbl (_, _, counters)) ->
                      Group_key.Tbl.iter
                        (fun key cell ->
                          Aggregate.merge
                            ~into:(Cube_result.cell result ~cuboid:cid ~key)
                            cell)
                        counters
                  | Some (Racc (_, acc)) ->
                      Radix.acc_flush acc ~f:(fun k cell ->
                          Aggregate.merge
                            ~into:
                              (Cube_result.cell result ~cuboid:cid
                                 ~key:(Group_key.Packed k))
                            cell))
                states
            end
          end)
        cids;
      Trace.complete "counter.pass" ~start:pass_t0
        ~attrs:
          [
            ("pass", Trace.Int instr.Instrument.passes);
            ("workers", Trace.Int (Array.length states));
          ];
      remaining :=
        List.filter (fun cid -> Hashtbl.mem evicted_any cid) (Array.to_list cids)
    done;
    result
  with Context.Stop _ -> result
