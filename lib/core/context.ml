module Witness = X3_pattern.Witness
module Trace = X3_obs.Trace

type stop_reason = Cancelled | Deadline_exceeded | Over_budget

exception Stop of stop_reason

(* Cooperative stop state. [cancel_flag] is atomic so another domain (or a
   signal handler) can request cancellation; [pending] lets construction
   record a stop (e.g. the witness table alone exceeding the byte budget)
   that the first check surfaces; everything else is only touched from the
   domain running the algorithm. *)
type control = {
  mutable deadline : float option;  (** absolute [Unix.gettimeofday] time *)
  mutable cancel_hook : (unit -> bool) option;
  cancel_flag : bool Atomic.t;
  mutable stopped : stop_reason option;
  mutable pending : stop_reason option;
  mutable tick : int;
  mutable trace_scope : Trace.scope option;
      (** the request's trace capture, carried alongside the request's
          other per-run state (deadline, cancel); the serve layer binds
          it around the compute and dumps it afterwards *)
}

type t = {
  table : Witness.t;
  lattice : X3_lattice.Lattice.t;
  widths : int array;
  shapes : Group_key.shape array;
  measure : int -> float;
  instr : Instrument.t;
  counter_budget : int;
  radix_bits : int;
  account : Governor.account;
  control : control;
  mutable cols_cache : Witness.Columnar.t option;
  mutable block_measures_cache : float array option;
}

let create ?(counter_budget = 1_000_000)
    ?(radix_bits = Radix.default_radix_bits) ?(account = Governor.unbounded)
    ~table ~lattice ~measure () =
  let instr = Instrument.create () in
  instr.Instrument.dict_size <- Witness.total_dict_size table;
  (* The witness table is the query's floor: its buffer-pool pages and
     dictionaries are resident for the whole run. A budget that cannot
     even hold it stops at the first check. *)
  let pending =
    if Governor.reserve account (Witness.approx_bytes table) then None
    else Some Over_budget
  in
  let widths = Group_key.widths_of_table table in
  {
    table;
    lattice;
    widths;
    shapes = Group_key.shapes ~widths lattice;
    measure;
    instr;
    counter_budget;
    radix_bits;
    account;
    control =
      {
        deadline = None;
        cancel_hook = None;
        cancel_flag = Atomic.make false;
        stopped = None;
        pending;
        tick = 0;
        trace_scope = None;
      };
    cols_cache = None;
    block_measures_cache = None;
  }

let set_deadline_at t time = t.control.deadline <- Some time
let set_cancel_hook t hook = t.control.cancel_hook <- Some hook
let cancel t = Atomic.set t.control.cancel_flag true
let stopped t = t.control.stopped
let clear_deadline t = t.control.deadline <- None
let set_trace_scope t scope = t.control.trace_scope <- scope
let trace_scope t = t.control.trace_scope

(* A long-lived context (one serve session answers many requests) must be
   able to shed the stop state one request left behind: the next request
   starts with its own deadline and no latent cancel. The cancel hook is
   kept — it is installed once per session (drain polling). *)
let clear_stop t =
  let c = t.control in
  c.stopped <- None;
  c.pending <- None;
  Atomic.set c.cancel_flag false

let reason_name = function
  | Cancelled -> "cancelled"
  | Deadline_exceeded -> "deadline_exceeded"
  | Over_budget -> "over_budget"

let stop t reason =
  t.control.stopped <- Some reason;
  Trace.instant "context.stop" ~attrs:[ ("reason", Trace.Str (reason_name reason)) ];
  raise (Stop reason)

(* --- byte accounting ----------------------------------------------------- *)

let account t = t.account
let budget_remaining t = Governor.remaining t.account
let try_reserve t n = Governor.reserve t.account n
let release t n = Governor.release t.account n
(* Reservations come in very different grains — a whole witness table down
   to one group counter. Only the coarse ones become trace events, or a
   per-row booking loop would flood the ring with noise. *)
let trace_reserve_floor = 4096

let reserve t n =
  if Governor.reserve t.account n then begin
    if n >= trace_reserve_floor then
      Trace.instant "governor.reserve" ~attrs:[ ("bytes", Trace.Int n) ]
  end
  else stop t Over_budget

let with_scratch t bytes f =
  reserve t bytes;
  Instrument.bump_radix_scratch t.instr bytes;
  Fun.protect ~finally:(fun () -> release t bytes) f

let check t =
  let c = t.control in
  (match c.pending with
  | Some reason ->
      c.pending <- None;
      stop t reason
  | None -> ());
  if Atomic.get c.cancel_flag then stop t Cancelled;
  (match c.cancel_hook with
  | Some hook when hook () ->
      Atomic.set c.cancel_flag true;
      stop t Cancelled
  | _ -> ());
  match c.deadline with
  | Some d when Unix.gettimeofday () > d -> stop t Deadline_exceeded
  | _ -> ()

(* The per-row form: amortise the hook/clock cost over 64 rows so hot scan
   loops stay hot. *)
let checkpoint t =
  let c = t.control in
  c.tick <- c.tick + 1;
  if c.tick land 63 = 0 then check t

(* --- columnar view ------------------------------------------------------- *)
(* The column build is the table's one instrumented scan: it reads every
   page through the buffer pool (so injected faults and corruption surface
   here), counts one table scan plus its rows, and uses the amortised
   checkpoint so a cancel lands between blocks, not after an arbitrary
   prefix. Once built the columns are cached for the rest of the run —
   and, being unboxed Bigarrays and plain int arrays whose rows never
   change, safe to share across domains. *)

let cols t =
  match t.cols_cache with
  | Some cols -> cols
  | None ->
      let axes = Array.length (Witness.axes t.table) in
      let rows = Witness.row_count t.table in
      let blocks = Witness.fact_count t.table in
      (* The columns stay resident until the query ends; book them before
         allocating so governed runs see the footprint up front. *)
      reserve t (Witness.Columnar.approx_bytes ~axes ~rows ~blocks);
      t.instr.Instrument.table_scans <- t.instr.Instrument.table_scans + 1;
      let sp = Trace.start "witness.columnar" in
      let cols =
        Fun.protect
          ~finally:(fun () ->
            Trace.finish sp ~attrs:[ ("rows", Trace.Int rows) ])
          (fun () ->
            Witness.columnar_of_table t.table ~poll:(fun () ->
                checkpoint t;
                t.instr.Instrument.rows_scanned <-
                  t.instr.Instrument.rows_scanned + 1))
      in
      t.cols_cache <- Some cols;
      cols

let block_measures t cols =
  match t.block_measures_cache with
  | Some m -> m
  | None ->
      (* [t.measure] may memoise into a private Hashtbl (Engine.measure_fn),
         so force it once per fact block; the array is then read-only. *)
      let blocks = Witness.Columnar.blocks cols in
      reserve t ((8 * blocks) + 16);
      let m =
        Array.init blocks (fun b ->
            t.measure (Witness.Columnar.fact cols (Witness.Columnar.block_lo cols b)))
      in
      t.block_measures_cache <- Some m;
      m

(* The ingest path appended [rows] (coded, fresh facts) to [t.table];
   bring the derived caches along so the next request sees the new tail
   without a rebuild. The columnar view grows by a blit-extended tail
   chunk and the block-measure array by one entry per appended fact
   block, into spare capacity: entries past the last block are never
   read, so growth is amortised, not a copy per ingest. Only sessions
   append, and a session's account is unbounded, so the growth is not
   booked. *)
let note_append t rows =
  match (t.cols_cache, t.block_measures_cache) with
  | None, _ -> t.block_measures_cache <- None
  | Some before, measures ->
      let cols = Witness.Columnar.extend before rows in
      t.cols_cache <- Some cols;
      Option.iter
        (fun m ->
          let blocks = Witness.Columnar.blocks cols in
          let m =
            if Array.length m >= blocks then m
            else begin
              let grown = Array.make (blocks + max 64 (blocks / 8)) 0. in
              Array.blit m 0 grown 0 (Witness.Columnar.blocks before);
              grown
            end
          in
          for b = Witness.Columnar.blocks before to blocks - 1 do
            m.(b) <-
              t.measure
                (Witness.Columnar.fact cols (Witness.Columnar.block_lo cols b))
          done;
          t.block_measures_cache <- Some m)
        measures
