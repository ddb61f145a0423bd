module Axis = X3_pattern.Axis
module Eval = X3_pattern.Eval
module Witness = X3_pattern.Witness
module Lattice = X3_lattice.Lattice
module Store = X3_xdb.Store
module Trace = X3_obs.Trace
module Stats = X3_storage.Stats
module Buffer_pool = X3_storage.Buffer_pool

type comparison = Eq | Neq | Lt | Le | Gt | Ge

type filter = {
  filter_path : Axis.step list;
  op : comparison;
  operand : string;
}

type spec = {
  fact_path : Eval.fact_path;
  axes : Axis.t array;
  func : Aggregate.func;
  measure_path : Axis.step list option;
  filters : filter list;
}

let count_spec ~fact_path ~axes =
  { fact_path; axes; func = Aggregate.Count; measure_path = None; filters = [] }

(* XPath-style comparison: numeric when both sides are numbers. *)
let compare_values a b =
  match (float_of_string_opt (String.trim a), float_of_string_opt (String.trim b)) with
  | Some x, Some y -> Float.compare x y
  | _ -> String.compare a b

(* A WHERE predicate compiled against one store. Existential semantics:
   some binding of the path satisfies the predicate. The path is a
   relaxation-free axis, so it matches exactly as the grouping paths do. *)
let compile_filter store filter =
  let m =
    Eval.compile store
      (Axis.make_exn ~name:"$where" ~steps:filter.filter_path ~allowed:[])
  in
  let holds node =
    let c = compare_values (Store.string_value store node) filter.operand in
    match filter.op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
  in
  fun ~fact -> Option.is_some (Eval.find m ~fact holds)

let filter_holds store filter ~fact = compile_filter store filter ~fact

(* The conjunction of the filters, each compiled once. *)
let filters_hold store filters =
  let compiled = List.map (compile_filter store) filters in
  fun fact -> List.for_all (fun holds -> holds ~fact) compiled

let fact_tag spec =
  match List.rev spec.fact_path with
  | last :: _ -> last.Axis.tag
  | [] -> invalid_arg "Engine.fact_tag: empty fact path"

type prepared = {
  spec : spec;
  table : Witness.t;
  lattice : Lattice.t;
  measure : int -> float;
}

(* The measure of one fact: the first matching descendant's numeric value.
   The path is a relaxation-free axis, compiled once, so it matches
   exactly as the grouping paths do. *)
let measure_fn store spec =
  match spec.measure_path with
  | None -> fun _ -> 1.0
  | Some steps ->
      let m =
        Eval.compile store (Axis.make_exn ~name:"$measure" ~steps ~allowed:[])
      in
      let table : (int, float) Hashtbl.t = Hashtbl.create 1024 in
      fun fact ->
        (match Hashtbl.find_opt table fact with
        | Some v -> v
        | None ->
            let v =
              match Eval.find m ~fact (fun _ -> true) with
              | Some node -> (
                  match
                    float_of_string_opt
                      (String.trim (Store.string_value store node))
                  with
                  | Some f -> f
                  | None -> 0.)
              | None -> 0.
            in
            Hashtbl.replace table fact v;
            v)

let prepare ~pool ~store spec =
  Trace.with_span "cube.materialise"
    ~attrs:[ ("axes", Trace.Int (Array.length spec.axes)) ]
    (fun () ->
      let lattice = Lattice.build spec.axes in
      let keep =
        match spec.filters with
        | [] -> None
        | filters -> Some (filters_hold store filters)
      in
      let table =
        Eval.build_table ?keep pool store ~fact_path:spec.fact_path
          ~axes:spec.axes
      in
      { spec; table; lattice; measure = measure_fn store spec })

let spec_of p = p.spec
let table p = p.table
let lattice p = p.lattice
let measure p = p.measure

type algorithm =
  | Naive
  | Counter
  | Buc
  | Bucopt
  | Buccust
  | Td
  | Tdopt
  | Tdoptall
  | Tdcust

let all_algorithms =
  [ Naive; Counter; Buc; Bucopt; Buccust; Td; Tdopt; Tdoptall; Tdcust ]

let algorithm_to_string = function
  | Naive -> "NAIVE"
  | Counter -> "COUNTER"
  | Buc -> "BUC"
  | Bucopt -> "BUCOPT"
  | Buccust -> "BUCCUST"
  | Td -> "TD"
  | Tdopt -> "TDOPT"
  | Tdoptall -> "TDOPTALL"
  | Tdcust -> "TDCUST"

let algorithm_of_string s =
  match String.uppercase_ascii s with
  | "NAIVE" -> Some Naive
  | "COUNTER" -> Some Counter
  | "BUC" -> Some Buc
  | "BUCOPT" -> Some Bucopt
  | "BUCCUST" -> Some Buccust
  | "TD" -> Some Td
  | "TDOPT" -> Some Tdopt
  | "TDOPTALL" -> Some Tdoptall
  | "TDCUST" -> Some Tdcust
  | _ -> None

let correct_under algorithm ~disjoint ~coverage =
  match algorithm with
  | Naive | Counter | Buc | Buccust | Td | Tdcust -> true
  | Bucopt | Tdopt -> disjoint
  | Tdoptall -> disjoint && coverage

type config = { counter_budget : int; radix_bits : int }

let default_config =
  { counter_budget = 1_000_000; radix_bits = Radix.default_radix_bits }

let make_context ?(config = default_config) ?account prepared =
  Context.create ~counter_budget:config.counter_budget
    ~radix_bits:config.radix_bits
    ?account ~table:prepared.table ~lattice:prepared.lattice
    ~measure:prepared.measure ()

let dispatch ?props prepared ctx algorithm =
  let props =
    match props with
    | Some p -> p
    | None -> X3_lattice.Properties.none prepared.lattice
  in
  match algorithm with
  | Naive -> Naive.compute ctx
  | Counter -> Counter.compute ctx
  | Buc -> Buc.compute ~variant:`Plain ctx
  | Bucopt -> Buc.compute ~variant:`Opt ctx
  | Buccust -> Buc.compute ~variant:(`Custom props) ctx
  | Td -> Topdown.compute ~variant:`Plain ctx
  | Tdopt -> Topdown.compute ~variant:`Opt ctx
  | Tdoptall -> Topdown.compute ~variant:`OptAll ctx
  | Tdcust -> Topdown.compute ~variant:(`Custom props) ctx

let cuboid_label prepared cid =
  X3_lattice.Render.cuboid_pattern ~fact_tag:(fact_tag prepared.spec)
    (Lattice.axes prepared.lattice)
    (Lattice.cuboid prepared.lattice cid)

(* One instant per cuboid after the compute finishes, labelling each with
   its relaxation pattern and final cell count — the trace-side companion
   of the per-cuboid compute spans, and what `x3 explain` joins against. *)
let trace_cuboid_cells prepared result =
  if Trace.enabled () then
    Array.iter
      (fun cid ->
        Trace.instant "cuboid.cells"
          ~attrs:
            [
              ("cuboid", Trace.Int cid);
              ("cells", Trace.Int (Cube_result.cuboid_size result cid));
              ("label", Trace.Str (cuboid_label prepared cid));
            ])
      (Lattice.by_degree prepared.lattice)

let run ?props ?config prepared algorithm =
  let ctx = make_context ?config prepared in
  let result =
    Trace.with_span "cube.compute"
      ~attrs:[ ("algorithm", Trace.Str (algorithm_to_string algorithm)) ]
      (fun () -> dispatch ?props prepared ctx algorithm)
  in
  trace_cuboid_cells prepared result;
  (result, ctx.Context.instr)

(* --- ingest deltas ------------------------------------------------------- *)

(* Facts appended through the WAL get synthetic ids derived from their log
   sequence number: deterministic (warm restore replaying the same records
   reproduces the same ids) and disjoint from real store node ids at any
   realistic document size, while still fitting the witness records' u32
   fact column. *)
let synthetic_fact_base = 1 lsl 30
let synthetic_fact_id ~lsn = synthetic_fact_base + lsn

type staged_fragment =
  | Staged of Witness.Staged.row list
  | Not_a_fact
  | Unsupported of string

(* Evaluate the cube pattern over an ingested fragment alone, without the
   host document. Sound exactly when the fragment subtree is the fact's
   whole match context: a single-step [//t] fact path whose unique match
   is the fragment root (grouping axes, filters and SP relaxations all evaluate
   strictly below the fact node, so a store of just the fragment sees the
   same bindings the grafted document would). Anything else — multi-step
   fact paths, fact tags nested inside the fragment — is refused with a
   reason, and the caller falls back to a cold rebuild of the grafted
   document, which is always exact. *)
let stage_fragment spec ~fragment ~fact_id =
  let module Tree = X3_xml.Tree in
  let module Sj = X3_xdb.Structural_join in
  match spec.fact_path with
  | [] -> invalid_arg "Engine.stage_fragment: empty fact path"
  | _ :: _ :: _ ->
      Unsupported "multi-step fact path: fragment cannot prove the match"
  | [ step ] -> (
      let tag = step.Axis.tag in
      let nested_facts =
        (* fact-tag elements strictly below the fragment root *)
        List.fold_left
          (fun acc child ->
            Tree.fold
              (fun acc node ->
                match node with
                | Tree.Element e when String.equal e.Tree.name tag -> acc + 1
                | _ -> acc)
              acc child)
          0 fragment.Tree.children
      in
      let root_is_fact = String.equal fragment.Tree.name tag in
      let stage () =
        let ministore = Store.of_document (Tree.document fragment) in
        let fact = Store.root ministore in
        if not (filters_hold ministore spec.filters fact) then
          Staged [] (* the document grows; the witness table does not *)
        else
          Staged
            (List.map
               (fun (r : Witness.Staged.row) -> { r with fact = fact_id })
               (Eval.rows_for_fact ministore spec.axes ~fact))
      in
      match (step.Axis.axis, root_is_fact, nested_facts) with
      | _, false, 0 -> Not_a_fact
      | Sj.Child, _, _ ->
          (* [/t] selects the document element; a grafted fragment is one
             of its children, never the element itself *)
          Not_a_fact
      | Sj.Descendant, true, 0 -> stage ()
      | Sj.Descendant, _, _ ->
          Unsupported "fact nodes nested inside the fragment")

type delta_fallback =
  | Layout_overflow of string
  | Measure_unsupported
  | Fragment_unsupported of string

let fallback_reason_name = function
  | Layout_overflow _ -> "layout_overflow"
  | Measure_unsupported -> "measure_unsupported"
  | Fragment_unsupported _ -> "fragment_unsupported"

let pp_fallback ppf = function
  | Layout_overflow axis ->
      Format.fprintf ppf
        "axis %s: new values outgrow the session's per-axis key widths" axis
  | Measure_unsupported ->
      Format.fprintf ppf
        "measured cubes bind measures to store nodes; ingested facts have \
         none"
  | Fragment_unsupported reason -> Format.pp_print_string ppf reason

(* --- resident sessions --------------------------------------------------- *)

(* A session is the resident-daemon view of one prepared query: a context
   whose columnar layout and byte bookings persist across requests, plus
   the observed summarizability properties — the ground truth the serve
   layer's cache consults before answering a cuboid by rolling up a
   cached finer one. Sessions are NOT thread-safe (the buffer pool and
   the context scratch are unsynchronised); callers serialize. *)
module Session = struct
  type t = {
    s_prepared : prepared;
    s_ctx : Context.t;
    mutable s_props : X3_lattice.Properties.t;
  }

  (* The session's context builds its columns once, here: properties are
     observed over them, and every later base computation and ingest patch
     reads the same columns. *)
  let create prepared =
    let ctx = make_context prepared in
    let props =
      X3_lattice.Properties.observe_columns (Context.cols ctx)
        prepared.lattice
    in
    { s_prepared = prepared; s_ctx = ctx; s_props = props }

  let prepared t = t.s_prepared
  let context t = t.s_ctx
  let props t = t.s_props

  let materialize t ~cuboid =
    Materialized.materialize t.s_ctx ~props:t.s_props ~cuboid

  let rollup t view ~coarser =
    Materialized.rollup t.s_ctx ~props:t.s_props view ~coarser
    |> Result.map_error (fun refusal ->
           Printf.sprintf "rollup of cuboid %d to cuboid %d refused: %s"
             (Materialized.cuboid_id view) coarser
             (X3_lattice.Properties.refusal_name refusal))

  (* Only the end-to-end bench's request replay still assembles a cube
     from views; the daemon exports its views directly. *)
  let result_of_views t views =
    let result =
      Cube_result.create ~table:t.s_prepared.table t.s_prepared.lattice
    in
    List.iter
      (fun view ->
        let cuboid = Materialized.cuboid_id view in
        Array.iter
          (fun entry ->
            Cube_result.set_cell result ~cuboid
              ~key:(Group_key.Tbl.entry_key entry)
              (Group_key.Tbl.entry_value entry))
          (Materialized.order view))
      views;
    result

  let table_bytes t = Witness.approx_bytes t.s_prepared.table

  (* Is the delta provably sound before anything mutates?  Two edges are
     not: a measured cube's measure function resolves fact ids against the
     host store (synthetic ingest facts have no node there), and a batch
     whose new dictionary values need more bits than the session's frozen
     per-axis widths allocated would overflow its field in every cuboid
     key shape built from them, folding distinct values onto one key.
     Both return a typed reason and leave the session untouched — the
     caller rebuilds cold, which is always exact. *)
  let delta_check t staged =
    if t.s_prepared.spec.measure_path <> None then Error Measure_unsupported
    else begin
      let widths = t.s_ctx.Context.widths in
      let dicts = Witness.dicts t.s_prepared.table in
      let news =
        Array.init (Array.length dicts) (fun _ -> Hashtbl.create 8)
      in
      List.iter
        (fun (r : Witness.Staged.row) ->
          Array.iteri
            (fun ai (c : Witness.Staged.cell) ->
              match c.Witness.Staged.value with
              | None -> ()
              | Some v ->
                  if Witness.Dict.find dicts.(ai) v = None then
                    Hashtbl.replace news.(ai) v ())
            r.Witness.Staged.cells)
        staged;
      let overflow = ref None in
      Array.iteri
        (fun ai fresh ->
          if !overflow = None then begin
            let needed =
              Group_key.bits_for
                (Witness.Dict.size dicts.(ai) + Hashtbl.length fresh)
            in
            if needed > widths.(ai) then
              overflow := Some t.s_prepared.spec.axes.(ai).Axis.name
          end)
        news;
      match !overflow with
      | Some axis -> Error (Layout_overflow axis)
      | None -> Ok ()
    end

  let apply_delta t staged ~views =
    match delta_check t staged with
    | Error _ as e -> e
    | Ok () ->
        let before = Context.cols t.s_ctx in
        let from_row = Witness.Columnar.rows before in
        let from_block = Witness.Columnar.blocks before in
        let rows = Witness.append t.s_prepared.table staged in
        Context.note_append t.s_ctx rows;
        let patched =
          List.fold_left
            (fun acc view ->
              acc + Materialized.apply_rows t.s_ctx view ~from_row)
            0 views
        in
        t.s_props <-
          X3_lattice.Properties.restrict t.s_props t.s_prepared.lattice
            (Context.cols t.s_ctx) ~from_block;
        Ok (rows, patched)

  (* One request's compute budget on a long-lived session: arm the
     context's deadline, run, and always disarm — clearing any stop the
     request left behind so the session's next request starts clean.  A
     [Context.Stop] escaping [f] (deadline, cancel hook, budget) becomes
     [Error reason]; the views built before the stop are complete and
     stay valid (stops land at scan boundaries, never mid-view). *)
  let with_deadline t ?deadline_at f =
    Option.iter (Context.set_deadline_at t.s_ctx) deadline_at;
    Fun.protect
      ~finally:(fun () ->
        Context.clear_deadline t.s_ctx;
        Context.clear_stop t.s_ctx)
      (fun () ->
        match f () with
        | v -> Ok v
        | exception Context.Stop reason -> Error reason)

  (* One request's whole envelope: the deadline armed as in
     [with_deadline], plus the request's trace scope attached to the
     context and bound to the calling thread for the duration — every
     probe the compute emits lands in the request's own capture. *)
  let with_request t ?scope ?deadline_at f =
    Context.set_trace_scope t.s_ctx scope;
    Fun.protect
      ~finally:(fun () -> Context.set_trace_scope t.s_ctx None)
      (fun () ->
        Trace.with_scope_opt scope (fun () -> with_deadline t ?deadline_at f))
end

(* --- graceful degradation ----------------------------------------------- *)

module Fault = X3_storage.Fault
module Disk = X3_storage.Disk

type error =
  | Corrupt of string  (** the input pages failed verification *)
  | Io_fault of string  (** an I/O fault exhausted the retry budget *)

type outcome =
  | Complete of Cube_result.t * Instrument.t
  | Partial of Context.stop_reason * Cube_result.t * Instrument.t
  | Failed of error

(* Which exceptions a retry can plausibly absorb: transient I/O errors.
   Corruption is not one of them — the bytes on media are wrong and will
   be wrong again — and neither is a crashed disk, where every subsequent
   operation fails by construction. *)
let classify = function
  | Disk.Corruption { page; reason } ->
      Some (`Fatal (Corrupt (Printf.sprintf "page %d: %s" page reason)))
  | Fault.Crashed -> Some (`Fatal (Io_fault "disk crashed mid-run"))
  | Fault.Injected { cls = _; page } ->
      Some (`Transient (Printf.sprintf "injected I/O error on page %d" page))
  | Sys_error msg -> Some (`Transient msg)
  | _ -> None

type run_stats = {
  io : Stats.t;
  mutable peak_bytes : int;
  mutable attempts : int;
}

let fresh_run_stats () =
  { io = Stats.create (); peak_bytes = 0; attempts = 0 }

(* Pool and disk counters live in separate Stats records; a query-scoped
   view wants both, summed. *)
let substrate_snapshot pool =
  let s = Stats.create () in
  Stats.add s (Buffer_pool.stats pool);
  Stats.add s (X3_storage.Disk.stats (Buffer_pool.disk pool));
  s

let run_safe ?props ?config ?workers:_ ?deadline ?cancel ?(retries = 2)
    ?(backoff = 0.01) ?governor ?max_bytes ?stats prepared algorithm =
  if retries < 0 then invalid_arg "Engine.run_safe: negative retries";
  (* One absolute deadline across all attempts — retrying must not extend
     the caller's budget. *)
  let deadline_at = Option.map (fun s -> Unix.gettimeofday () +. s) deadline in
  let governed = governor <> None || max_bytes <> None in
  let record_attempt () =
    Option.iter (fun st -> st.attempts <- st.attempts + 1) stats
  in
  let record_peak account =
    match (stats, account) with
    | Some st, Some acc ->
        st.peak_bytes <- max st.peak_bytes (Governor.account_peak acc)
    | _ -> ()
  in
  let rec attempt n =
    record_attempt ();
    (* Fresh account per attempt: a failed attempt's reservations must not
       starve its own retry. *)
    let account =
      if governed then Some (Governor.open_account ?max_bytes governor)
      else None
    in
    let finish outcome =
      record_peak account;
      Option.iter Governor.close account;
      outcome
    in
    let ctx = make_context ?config ?account prepared in
    Option.iter (Context.set_deadline_at ctx) deadline_at;
    Option.iter (Context.set_cancel_hook ctx) cancel;
    let compute () =
      Trace.with_span "cube.compute"
        ~attrs:
          [
            ("algorithm", Trace.Str (algorithm_to_string algorithm));
            ("attempt", Trace.Int n);
          ]
        (fun () -> dispatch ?props prepared ctx algorithm)
    in
    match compute () with
    | result ->
        trace_cuboid_cells prepared result;
        finish
          (match Context.stopped ctx with
          | Some reason -> Partial (reason, result, ctx.Context.instr)
          | None -> Complete (result, ctx.Context.instr))
    | exception e -> (
        record_peak account;
        Option.iter Governor.close account;
        match classify e with
        | None -> raise e
        | Some (`Fatal err) -> Failed err
        | Some (`Transient msg) ->
            let now = Unix.gettimeofday () in
            let out_of_time =
              match deadline_at with Some d -> now >= d | None -> false
            in
            if n >= retries || out_of_time then Failed (Io_fault msg)
            else begin
              (* The backoff must never sleep past the caller's deadline:
                 clamp it to the time remaining, and if nothing remains
                 after the nap, report the deadline rather than burning it
                 on a sleep the retry could only inherit expired. *)
              let want = backoff *. Float.of_int (1 lsl n) in
              let nap =
                match deadline_at with
                | Some d -> Float.min want (Float.max 0. (d -. now))
                | None -> want
              in
              Trace.instant "engine.retry"
                ~attrs:
                  [
                    ("attempt", Trace.Int (n + 1));
                    ("reason", Trace.Str msg);
                    ("backoff", Trace.Float nap);
                  ];
              if nap > 0. then Unix.sleepf nap;
              let expired =
                match deadline_at with
                | Some d -> Unix.gettimeofday () >= d
                | None -> false
              in
              if expired then
                Partial
                  ( Context.Deadline_exceeded,
                    Cube_result.create ~table:prepared.table prepared.lattice,
                    ctx.Context.instr )
              else attempt (n + 1)
            end)
  in
  let io_before =
    match stats with
    | None -> None
    | Some _ -> Some (substrate_snapshot (Witness.pool prepared.table))
  in
  let outcome = attempt 0 in
  (match (stats, io_before) with
  | Some st, Some before ->
      let after = substrate_snapshot (Witness.pool prepared.table) in
      Stats.add st.io (Stats.diff ~later:after ~earlier:before)
  | _ -> ());
  outcome
