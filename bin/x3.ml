(* The x3 command-line tool.

   Subcommands:
     x3 cube <query.x3> [--doc file.xml] [--algorithm NAME] ...
         Parse an X^3 query, run it against an XML document, print the cube.
         --trace FILE writes a Chrome trace_event JSON of the run;
         --metrics FILE writes an x3-metrics/1 JSON document.
     x3 explain <query.x3> [--doc file.xml] [--algorithm NAME] ...
         Run the query traced and print a per-phase / per-cuboid cost report.
     x3 lattice <query.x3>
         Print the relaxed-cube lattice and the MRFI pattern of a query.
     x3 analyze <query.x3> --doc file.xml [--dtd file.dtd]
         Report schema-inferred and observed summarizability properties.
     x3 gen (treebank|dblp|publications) [knobs] -o out.xml
         Emit a synthetic workload document.
     x3 info file.xml
         Parse and summarise an XML document. *)

module Engine = X3_core.Engine
module Lattice = X3_lattice.Lattice
module Properties = X3_lattice.Properties
module Trace = X3_obs.Trace
module Json = X3_obs.Json

(* A file's bytes; [x3: PATH: REASON] and exit 1 when it cannot be read. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> src
  | exception Sys_error msg ->
      (* [open] prefixes the path itself; a failed read does not *)
      let prefix = path ^ ": " in
      let reason =
        if String.starts_with ~prefix msg then
          String.sub msg (String.length prefix)
            (String.length msg - String.length prefix)
        else msg
      in
      prerr_endline (Printf.sprintf "x3: %s: %s" path reason);
      exit 1

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("x3: " ^ msg);
      exit 1

let parse_query path =
  let source =
    if path = "-" then In_channel.input_all In_channel.stdin
    else read_file path
  in
  or_die (X3_ql.Compile.parse_and_compile source)

(* Exit codes: 0 clean, 1 usage or other error, 2 corrupt input pages,
   3 fault-aborted (I/O errors survived the retry budget), 4 partial
   result (deadline or cancellation), 5 resource-governed (byte budget
   exhausted, input over --max-input-bytes, or shed by admission
   control). *)
let exit_corrupt = 2
let exit_fault = 3
let exit_partial = 4
let exit_over_budget = 5

(* The document scanned straight into the node store, and its DTD. *)
let load_store ?max_input_bytes path =
  (match max_input_bytes with
  | Some cap -> (
      match (Unix.stat path).Unix.st_size with
      | size when size > cap ->
          Printf.eprintf
            "x3: %s is %d bytes, over the --max-input-bytes cap of %d — \
             refusing to load it\n"
            path size cap;
          exit exit_over_budget
      | _ -> ()
      | exception Unix.Unix_error _ -> () (* let the parser report it *))
  | None -> ());
  match X3_xdb.Store.of_file path with
  | Ok (store, dtd) -> (store, dtd)
  | Error e ->
      prerr_endline (Format.asprintf "x3: %a" X3_xml.Parser.pp_error e);
      exit 1

let make_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:65536
    (X3_storage.Disk.in_memory ~page_size:8192 ())

let prepare_from_query ?max_input_bytes query_path doc_override =
  let { X3_ql.Compile.document; spec } = parse_query query_path in
  let doc_path = Option.value doc_override ~default:document in
  let store, dtd = load_store ?max_input_bytes doc_path in
  let prepared = Engine.prepare ~pool:(make_pool ()) ~store spec in
  (spec, prepared, dtd)

(* --- cube --------------------------------------------------------------- *)

(* Phase clock shared by cube and explain: wall time per named phase, in
   declaration order, feeding both the metrics document and the explain
   report. *)
type phased = {
  mutable phase_list : (string * float) list;  (* reversed *)
}

let timed ph name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  ph.phase_list <- (name, Unix.gettimeofday () -. t0) :: ph.phase_list;
  v

let phases ph = List.rev ph.phase_list

let parse_algorithm algorithm_name =
  match Engine.algorithm_of_string algorithm_name with
  | Some a -> a
  | None ->
      prerr_endline
        ("x3: unknown algorithm " ^ algorithm_name
       ^ " (expected NAIVE, COUNTER, BUC, BUCOPT, BUCCUST, TD, TDOPT, \
          TDOPTALL or TDCUST)");
      exit 1

let props_for prepared spec ~use_schema inline_dtd =
  if use_schema then
    match inline_dtd with
    | Some dtd ->
        Some
          (Properties.infer
             ~schema:(X3_xml.Schema.of_dtd dtd)
             ~fact_tag:(Engine.fact_tag spec)
             (Engine.lattice prepared))
    | None ->
        (* No DTD: observe the instance, the "customised" fallback. *)
        Some (Properties.observe (Engine.table prepared) (Engine.lattice prepared))
  else None

(* Parse + load + materialise with per-phase timing (the traced sibling of
   [prepare_from_query], which analyze/pivot keep using untimed). *)
let prepare_phased ?max_input_bytes ph query_path doc_override =
  let { X3_ql.Compile.document; spec } =
    timed ph "parse" (fun () -> parse_query query_path)
  in
  let doc_path = Option.value doc_override ~default:document in
  let store, inline_dtd =
    timed ph "load" (fun () ->
        Trace.with_span "doc.load"
          ~attrs:[ ("path", Trace.Str doc_path) ]
          (fun () -> load_store ?max_input_bytes doc_path))
  in
  let prepared =
    timed ph "materialise" (fun () ->
        Engine.prepare ~pool:(make_pool ()) ~store spec)
  in
  (spec, prepared, doc_path, inline_dtd)

let write_trace_file path =
  Json.to_file path (X3_obs.Export.chrome_trace (Trace.dump ()))

let write_metrics_file path ~meta ?instr ?result ~run ~phases ~algorithm () =
  let m = X3_core.Report.build ?instr ?result ~run ~phases ~algorithm () in
  Json.to_file path
    (X3_obs.Export.metrics_json ~meta (X3_obs.Metrics.snapshot m))

let config_with_radix_bits radix_bits =
  { Engine.default_config with Engine.radix_bits }

let run_cube query_path doc algorithm_name use_schema radix_bits deadline
    retries max_bytes max_input_bytes max_groups format trace_file
    metrics_file =
  if trace_file <> None then Trace.enable ();
  let ph = { phase_list = [] } in
  let spec, prepared, doc_path, inline_dtd =
    prepare_phased ?max_input_bytes ph query_path doc
  in
  let algorithm = parse_algorithm algorithm_name in
  let lattice = Engine.lattice prepared in
  let props = props_for prepared spec ~use_schema inline_dtd in
  let run_stats = Engine.fresh_run_stats () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    timed ph "compute" (fun () ->
        Engine.run_safe ?props
          ~config:(config_with_radix_bits radix_bits)
          ?deadline ~retries ?max_bytes ~stats:run_stats prepared algorithm)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let print_result result instr =
    match format with
    | `Table ->
        Format.printf "%a@."
          (X3_core.Cube_result.pp ~max_groups ~func:spec.Engine.func)
          result;
        Format.printf "%s: %d cuboids, %d cells, %.3fs — %a@."
          (Engine.algorithm_to_string algorithm)
          (Lattice.size lattice)
          (X3_core.Cube_result.total_cells result)
          dt X3_core.Instrument.pp instr
    | `Csv ->
        print_string (X3_core.Export.csv_string ~func:spec.Engine.func result)
    | `Json ->
        print_string (X3_core.Export.json_string ~func:spec.Engine.func result)
  in
  (* Artefacts must be written before any [exit] below. *)
  let finish ~label result_instr =
    (match result_instr with
    | Some (result, instr) ->
        timed ph "export" (fun () ->
            Trace.with_span "cube.export" (fun () -> print_result result instr))
    | None -> ());
    Option.iter write_trace_file trace_file;
    Option.iter
      (fun path ->
        let meta =
          [
            ("query", Json.Str query_path);
            ("document", Json.Str doc_path);
            ("algorithm", Json.Str (Engine.algorithm_to_string algorithm));
            ("outcome", Json.Str label);
          ]
        in
        let instr = Option.map snd result_instr in
        let result = Option.map fst result_instr in
        write_metrics_file path ~meta ?instr ?result ~run:run_stats
          ~phases:(phases ph)
          ~algorithm:(Engine.algorithm_to_string algorithm)
          ())
      metrics_file
  in
  match outcome with
  | Engine.Complete (result, instr) -> finish ~label:"complete" (Some (result, instr))
  | Engine.Partial (reason, result, instr) ->
      finish
        ~label:("partial:" ^ X3_core.Context.reason_name reason)
        (Some (result, instr));
      (match reason with
      | X3_core.Context.Deadline_exceeded ->
          prerr_endline "x3: deadline exceeded — the cube above is partial";
          exit exit_partial
      | X3_core.Context.Cancelled ->
          prerr_endline "x3: cancelled — the cube above is partial";
          exit exit_partial
      | X3_core.Context.Over_budget ->
          prerr_endline
            "x3: byte budget exhausted — the cube above is partial";
          exit exit_over_budget)
  | Engine.Failed (Engine.Corrupt msg) ->
      finish ~label:"failed:corrupt" None;
      prerr_endline ("x3: corrupt input: " ^ msg);
      exit exit_corrupt
  | Engine.Failed (Engine.Io_fault msg) ->
      finish ~label:"failed:io_fault" None;
      prerr_endline ("x3: aborted by I/O faults: " ^ msg);
      exit exit_fault

(* --- explain ------------------------------------------------------------- *)

let attr_int attrs name =
  match List.assoc_opt name attrs with
  | Some (Trace.Int i) -> Some i
  | _ -> None

let attr_str attrs name =
  match List.assoc_opt name attrs with
  | Some (Trace.Str s) -> Some s
  | _ -> None

type cuboid_report = {
  mutable cr_cells : int;
  mutable cr_label : string;
  mutable cr_sorts : int;
  mutable cr_ms : float option;
      (** summed [td.base]/[td.rollup] span time; [None] for families
          that open no per-cuboid span *)
  mutable cr_rollups : int;
  mutable cr_provenance : string;
}

let run_explain query_path doc algorithm_name use_schema radix_bits trace_file
    metrics_file =
  (* explain is the traced view by definition: tracing is always on, and
     the per-cuboid table below is assembled from the run's own events. *)
  Trace.enable ();
  let ph = { phase_list = [] } in
  let spec, prepared, doc_path, inline_dtd =
    prepare_phased ph query_path doc
  in
  let algorithm = parse_algorithm algorithm_name in
  let props = props_for prepared spec ~use_schema inline_dtd in
  let run_stats = Engine.fresh_run_stats () in
  let outcome =
    timed ph "compute" (fun () ->
        Engine.run_safe ?props
          ~config:(config_with_radix_bits radix_bits)
          ~stats:run_stats prepared algorithm)
  in
  let result, instr =
    match outcome with
    | Engine.Complete (result, instr) -> (result, instr)
    | Engine.Partial (reason, result, instr) ->
        prerr_endline
          (Printf.sprintf "x3: note — run stopped early (%s); costs below are partial"
             (match reason with
             | X3_core.Context.Deadline_exceeded -> "deadline"
             | X3_core.Context.Cancelled -> "cancelled"
             | X3_core.Context.Over_budget -> "over budget"));
        (result, instr)
    | Engine.Failed (Engine.Corrupt msg) ->
        prerr_endline ("x3: corrupt input: " ^ msg);
        exit exit_corrupt
    | Engine.Failed (Engine.Io_fault msg) ->
        prerr_endline ("x3: aborted by I/O faults: " ^ msg);
        exit exit_fault
  in
  let rings = Trace.dump () in
  (* Join the trace back into a per-cuboid cost table. *)
  let lattice = Engine.lattice prepared in
  (* The grouping strategy is a pure function of (cuboid key shape,
     radix_bits), so it comes from the plan, not from the trace. *)
  let planned_strategy =
    let shapes =
      X3_core.Group_key.(
        shapes ~widths:(widths_of_table (Engine.table prepared)) lattice)
    in
    fun cid ->
      let p = X3_core.Radix.plan ~radix_bits shapes.(cid) in
      Printf.sprintf "%s(%d)"
        (X3_core.Radix.strategy_name p.X3_core.Radix.p_strategy)
        p.X3_core.Radix.p_shape.X3_core.Group_key.bits
  in
  let by_cuboid : (int, cuboid_report) Hashtbl.t = Hashtbl.create 64 in
  let report cid =
    match Hashtbl.find_opt by_cuboid cid with
    | Some r -> r
    | None ->
        let r =
          {
            cr_cells = 0;
            cr_label = "";
            cr_sorts = 0;
            cr_ms = None;
            cr_rollups = 0;
            cr_provenance = "scan";
          }
        in
        Hashtbl.replace by_cuboid cid r;
        r
  in
  (* Open per-cuboid spans by span id (unique within the trace), so each
     End adds its span's duration to the cuboid's time. *)
  let open_spans : (int, int * float) Hashtbl.t = Hashtbl.create 64 in
  let span_begins (e : Trace.event) =
    Option.iter
      (fun cid -> Hashtbl.replace open_spans e.Trace.span (cid, e.Trace.ts))
      (attr_int e.Trace.attrs "cuboid")
  in
  List.iter
    (fun ring ->
      List.iter
        (fun (e : Trace.event) ->
          if e.Trace.phase = Trace.End then
            Option.iter
              (fun (cid, t0) ->
                Hashtbl.remove open_spans e.Trace.span;
                let r = report cid in
                r.cr_ms <-
                  Some
                    (Option.value ~default:0. r.cr_ms
                    +. ((e.Trace.ts -. t0) *. 1000.)))
              (Hashtbl.find_opt open_spans e.Trace.span);
          match e.Trace.name with
          | "cuboid.cells" ->
              Option.iter
                (fun cid ->
                  let r = report cid in
                  Option.iter (fun c -> r.cr_cells <- c)
                    (attr_int e.Trace.attrs "cells");
                  Option.iter (fun l -> r.cr_label <- l)
                    (attr_str e.Trace.attrs "label"))
                (attr_int e.Trace.attrs "cuboid")
          | "td.base" when e.Trace.phase = Trace.Begin ->
              span_begins e;
              Option.iter
                (fun cid ->
                  let r = report cid in
                  (* Only the hash tier sorts; the radix tiers group in
                     place, as [Instrument.sort_ops] counts them. *)
                  if attr_str e.Trace.attrs "strategy" = Some "hash" then
                    r.cr_sorts <- r.cr_sorts + 1;
                  r.cr_provenance <-
                    Printf.sprintf "base(%s)"
                      (Option.value ~default:"?"
                         (attr_str e.Trace.attrs "mode")))
                (attr_int e.Trace.attrs "cuboid")
          | "td.rollup" when e.Trace.phase = Trace.Begin ->
              span_begins e;
              Option.iter
                (fun cid ->
                  let r = report cid in
                  r.cr_rollups <- r.cr_rollups + 1;
                  r.cr_provenance <-
                    (match attr_int e.Trace.attrs "from" with
                    | Some finer -> Printf.sprintf "rollup(from %d)" finer
                    | None -> "rollup"))
                (attr_int e.Trace.attrs "cuboid")
          | "cuboid.compute" ->
              Option.iter
                (fun cid ->
                  let r = report cid in
                  match attr_int e.Trace.attrs "pass" with
                  | Some pass -> r.cr_provenance <- Printf.sprintf "pass %d" pass
                  | None -> ())
                (attr_int e.Trace.attrs "cuboid")
          | _ -> ())
        ring.Trace.events)
    rings;
  (* The report. *)
  Printf.printf "query:     %s\n" query_path;
  Printf.printf "document:  %s\n" doc_path;
  Printf.printf "algorithm: %s\n\n" (Engine.algorithm_to_string algorithm);
  Printf.printf "phase breakdown:\n";
  List.iter
    (fun (name, seconds) ->
      Printf.printf "  %-12s %9.3f ms\n" name (seconds *. 1000.))
    (phases ph);
  Printf.printf "\nper-cuboid costs:\n";
  let order = Lattice.by_degree lattice in
  (* The provenance column is as wide as its longest value, so every
     row's later columns line up under the header. *)
  let prov_width =
    Array.fold_left
      (fun w cid -> max w (String.length (report cid).cr_provenance))
      (String.length "provenance") order
  in
  Printf.printf "  %-4s %9s %-6s %9s %-*s %-16s %s\n" "id" "cells" "sorts"
    "ms" prov_width "provenance" "grouping" "pattern";
  Array.iter
    (fun cid ->
      let r = report cid in
      let label =
        if r.cr_label <> "" then r.cr_label else Engine.cuboid_label prepared cid
      in
      Printf.printf "  %-4d %9d %-6d %9s %-*s %-16s %s\n" cid
        (if r.cr_cells > 0 then r.cr_cells
         else X3_core.Cube_result.cuboid_size result cid)
        r.cr_sorts
        (match r.cr_ms with Some ms -> Printf.sprintf "%.3f" ms | None -> "-")
        prov_width r.cr_provenance (planned_strategy cid) label)
    order;
  let io = run_stats.Engine.io in
  let pool_lookups = io.X3_storage.Stats.pool_hits + io.X3_storage.Stats.pool_misses in
  let hit_rate =
    if pool_lookups = 0 then 100.
    else 100. *. float_of_int io.X3_storage.Stats.pool_hits /. float_of_int pool_lookups
  in
  Printf.printf "\ntotals:\n";
  Printf.printf "  cells %d   scans %d   sorts %d   rollups %d   keys %d\n"
    (X3_core.Cube_result.total_cells result)
    instr.X3_core.Instrument.table_scans instr.X3_core.Instrument.sort_ops
    instr.X3_core.Instrument.rollups instr.X3_core.Instrument.keys_built;
  Printf.printf "  peak counters %d   pool hit rate %.1f%% (%d lookups)\n"
    instr.X3_core.Instrument.peak_counters hit_rate pool_lookups;
  Printf.printf "  groupings radix %d / hash %d   radix scratch peak %d bytes\n"
    instr.X3_core.Instrument.radix_groupings
    instr.X3_core.Instrument.hash_groupings
    instr.X3_core.Instrument.radix_scratch_bytes;
  Printf.printf "  bytes reserved peak %d   attempts %d\n"
    run_stats.Engine.peak_bytes run_stats.Engine.attempts;
  Option.iter write_trace_file trace_file;
  Option.iter
    (fun path ->
      let meta =
        [
          ("query", Json.Str query_path);
          ("document", Json.Str doc_path);
          ("algorithm", Json.Str (Engine.algorithm_to_string algorithm));
          ("outcome", Json.Str "explain");
        ]
      in
      write_metrics_file path ~meta ~instr ~result ~run:run_stats
        ~phases:(phases ph)
        ~algorithm:(Engine.algorithm_to_string algorithm)
        ())
    metrics_file

(* --- lattice ------------------------------------------------------------ *)

let run_lattice query_path dot =
  let { X3_ql.Compile.spec; _ } = parse_query query_path in
  let lattice = Lattice.build spec.Engine.axes in
  let fact_tag = Engine.fact_tag spec in
  if dot then
    print_string (X3_lattice.Render.to_dot ~fact_tag lattice)
  else begin
    Format.printf "Most relaxed fully instantiated pattern (Fig. 2):@.%a@."
      X3_pattern.Mrfi.pp
      (X3_pattern.Mrfi.of_axes ~fact_tag spec.Engine.axes);
    Format.printf
      "Cube lattice (%d cuboids), least to most relaxed — each point is a \
       relaxed tree pattern (Fig. 3):@.%a"
      (Lattice.size lattice)
      (X3_lattice.Render.pp_lattice ~fact_tag)
      lattice
  end

(* --- analyze ------------------------------------------------------------ *)

let run_analyze query_path doc dtd_path =
  let spec, prepared, inline_dtd = prepare_from_query query_path doc in
  let lattice = Engine.lattice prepared in
  let dtd =
    match dtd_path with
    | Some path -> (
        match X3_xml.Dtd.parse (read_file path) with
        | Ok dtd -> Some dtd
        | Error msg ->
            prerr_endline ("x3: " ^ msg);
            exit 1)
    | None -> inline_dtd
  in
  (match dtd with
  | Some dtd ->
      let schema = X3_xml.Schema.of_dtd dtd in
      let inferred =
        Properties.infer ~schema ~fact_tag:(Engine.fact_tag spec) lattice
      in
      Format.printf "Schema-inferred properties (§3.7):@.%a@."
        (Properties.pp_report lattice)
        inferred
  | None -> Format.printf "No DTD available; skipping schema inference.@.");
  Format.printf "%a@." X3_pattern.Table_stats.pp
    (X3_pattern.Table_stats.compute (Engine.table prepared));
  let observed = Properties.observe (Engine.table prepared) lattice in
  Format.printf "Observed properties of this instance:@.%a@."
    (Properties.pp_report lattice)
    observed;
  Format.printf
    "Summary: disjointness %s, strict disjointness %s, total coverage %s.@."
    (if Properties.all_disjoint observed then "holds" else "fails")
    (if Properties.all_strictly_disjoint observed then "holds" else "fails")
    (if Properties.all_covered observed then "holds" else "fails")

(* --- pivot -------------------------------------------------------------- *)

let run_pivot query_path doc rows cols row_state col_state =
  let spec, prepared, _dtd = prepare_from_query query_path doc in
  let axis_index name =
    let found = ref None in
    Array.iteri
      (fun i axis ->
        if String.equal axis.X3_pattern.Axis.name name then found := Some i)
      spec.Engine.axes;
    match !found with
    | Some i -> i
    | None ->
        prerr_endline
          ("x3: no axis named " ^ name ^ " (expected one of "
          ^ String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun a -> a.X3_pattern.Axis.name)
                    spec.Engine.axes))
          ^ ")");
        exit 1
  in
  let row_axis = axis_index rows and col_axis = axis_index cols in
  let cube, _ = Engine.run prepared Engine.Counter in
  match
    X3_core.Pivot.make ~func:spec.Engine.func ~row_axis ~row_state ~col_axis
      ~col_state cube
  with
  | Error msg ->
      prerr_endline ("x3: " ^ msg);
      exit 1
  | Ok pivot -> Format.printf "%a" X3_core.Pivot.pp pivot

(* --- gen ---------------------------------------------------------------- *)

let run_gen kind out trees axes coverage disjoint dense seed =
  let doc =
    match kind with
    | "treebank" ->
        X3_workload.Treebank.generate
          {
            X3_workload.Treebank.seed;
            num_trees = trees;
            axes;
            coverage;
            disjoint;
            density =
              (if dense then X3_workload.Treebank.Dense
               else X3_workload.Treebank.Sparse);
          }
    | "dblp" ->
        X3_workload.Dblp.generate { X3_workload.Dblp.seed; num_articles = trees }
    | "catalog" ->
        X3_workload.Catalog.generate
          { X3_workload.Catalog.seed; num_products = trees; price_buckets = 20 }
    | "publications" -> X3_workload.Publications.document ()
    | other ->
        prerr_endline
          ("x3: unknown generator " ^ other
         ^ " (expected treebank, dblp, catalog or publications)");
        exit 1
  in
  match out with
  | None -> print_string (X3_xml.Serialize.to_string ~indent:true doc)
  | Some path ->
      X3_xml.Serialize.to_file ~indent:true path doc;
      Printf.printf "wrote %s\n" path

(* --- serve -------------------------------------------------------------- *)

module Server = X3_serve.Server
module Serve_protocol = X3_serve.Protocol

let serve_address socket port =
  match (socket, port) with
  | Some path, None -> Server.Unix_sock path
  | None, Some p -> Server.Tcp ("127.0.0.1", p)
  | Some _, Some _ ->
      prerr_endline "x3: give either --socket or --port, not both";
      exit 1
  | None, None ->
      prerr_endline "x3: serve needs --socket PATH or --port N";
      exit 1

let serve_client_request address req =
  match Server.Client.connect address with
  | Error msg ->
      prerr_endline ("x3: cannot connect: " ^ msg);
      exit 1
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close conn)
        (fun () ->
          match Server.Client.request conn req with
          | Error msg ->
              prerr_endline ("x3: " ^ msg);
              exit 1
          | Ok resp -> resp)

(* Client cube mode: one query against a running daemon, with the same
   retry machinery tests use, and the daemon's typed error codes mapped
   onto the x3 exit-code contract (partial answers exit 4 like any other
   deadline outcome — the payload still goes to stdout). *)
let serve_client_cube address ~query ~deadline_ms ~retries =
  match
    Server.Client.request_with_retry ~retries address
      (Serve_protocol.Cube
         {
           query;
           doc = None;
           algorithm = None;
           format = "csv";
           no_cache = false;
           deadline_ms;
           retries = None;
           request_id = None;
         })
  with
  | Error msg ->
      prerr_endline ("x3: " ^ msg);
      exit (Serve_protocol.exit_code_of_error "io_fault")
  | Ok (Serve_protocol.Failed { code; message }) ->
      prerr_endline (Printf.sprintf "x3: %s: %s" code message);
      exit (Serve_protocol.exit_code_of_error code)
  | Ok (Serve_protocol.Cube_ok { payload; partial; _ }) -> (
      print_string payload;
      match partial with
      | None -> ()
      | Some reason ->
          prerr_endline ("x3: partial result (" ^ reason ^ ")");
          exit 4)
  | Ok _ ->
      prerr_endline "x3: unexpected response to CUBE";
      exit 1

let run_serve socket port cache_bytes max_concurrent max_waiting
    admission_timeout max_input_bytes max_frame_bytes io_deadline
    drain_deadline snapshot wal access_log access_log_max_bytes prom_port
    slow_ms trace_dir trace_cap stats shutdown query deadline_ms retries =
  let address = serve_address socket port in
  if stats then
    match serve_client_request address Serve_protocol.Stats with
    | Serve_protocol.Stats_ok doc -> print_string (Json.to_string doc)
    | Serve_protocol.Failed { code; message } ->
        prerr_endline (Printf.sprintf "x3: %s: %s" code message);
        exit 1
    | _ ->
        prerr_endline "x3: unexpected response to STATS";
        exit 1
  else if shutdown then
    match serve_client_request address Serve_protocol.Shutdown with
    | Serve_protocol.Bye -> print_endline "x3: server shut down"
    | _ ->
        prerr_endline "x3: unexpected response to SHUTDOWN";
        exit 1
  else
    match query with
    | Some query -> serve_client_cube address ~query ~deadline_ms ~retries
    | None ->
        let config =
          {
            Server.address;
            cache_bytes;
            max_in_flight = max_concurrent;
            max_waiting;
            admission_timeout;
            max_input_bytes;
            max_frame_bytes;
            io_deadline = (if io_deadline <= 0. then None else Some io_deadline);
            drain_deadline;
            snapshot_path = snapshot;
            wal_path = wal;
            fault = None;
            access_log_path = access_log;
            access_log_max_bytes;
            prom_port;
            slow_ms;
            (* slow-query capture needs somewhere to spool; arming
               --slow-ms without --trace-dir gets a sensible default *)
            trace_dir =
              (match (trace_dir, slow_ms) with
              | (Some _ as d), _ -> d
              | None, Some _ -> Some "x3-traces"
              | None, None -> None);
            trace_cap;
          }
        in
        let server = or_die (Server.create config) in
        (* SIGTERM/SIGINT begin a drained shutdown: [Server.stop] is
           async-signal-safe, and [Server.run] drains in-flight requests
           and persists the cache snapshot on its way out. *)
        let graceful = Sys.Signal_handle (fun _ -> Server.stop server) in
        (try Sys.set_signal Sys.sigterm graceful
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint graceful
         with Invalid_argument _ -> ());
        (match address with
        | Server.Unix_sock path ->
            Printf.printf "x3 serve: listening on %s (cache %d bytes)\n%!" path
              cache_bytes
        | Server.Tcp (host, p) ->
            Printf.printf "x3 serve: listening on %s:%d (cache %d bytes)\n%!"
              host p cache_bytes);
        Server.run server

(* --- ingest -------------------------------------------------------------- *)

let run_ingest socket port doc fragment =
  let address = serve_address socket port in
  let fragment =
    if fragment = "-" then In_channel.input_all In_channel.stdin
    else if String.length fragment > 0 && fragment.[0] = '<' then fragment
    else read_file fragment
  in
  match
    serve_client_request address (Serve_protocol.Ingest { doc; fragment })
  with
  | Serve_protocol.Ingest_ok { lsn; sessions; cells; fallbacks } ->
      Printf.printf
        "x3 ingest: lsn %d durable; %d resident session%s patched (%d \
         cells)%s\n"
        lsn sessions
        (if sessions = 1 then "" else "s")
        cells
        (if fallbacks > 0 then
           Printf.sprintf "; %d flushed for cold rebuild" fallbacks
         else "")
  | Serve_protocol.Failed { code; message } ->
      prerr_endline (Printf.sprintf "x3: %s: %s" code message);
      exit (Serve_protocol.exit_code_of_error code)
  | _ ->
      prerr_endline "x3: unexpected response to INGEST";
      exit 1

(* --- info --------------------------------------------------------------- *)

let run_info path =
  let store, dtd = load_store path in
  Format.printf "%s: %a@." path X3_xdb.Store.pp_summary store;
  (match dtd with
  | Some dtd ->
      Format.printf "internal DTD subset:@.%a" X3_xml.Dtd.pp dtd
  | None -> ());
  let tags = X3_xdb.Store.tags store in
  Format.printf "element tags (%d):@." (List.length tags);
  List.iter
    (fun tag ->
      if String.length tag > 0 && tag.[0] <> '@' && tag.[0] <> '#' then
        Format.printf "  %-20s x%d@." tag
          (Array.length (X3_xdb.Store.nodes_with_tag store tag)))
    tags

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"X^3 query file ('-' for stdin).")

let doc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "doc" ] ~docv:"FILE"
        ~doc:"XML document to run against (overrides the query's doc(...)).")

let radix_bits_arg =
  Arg.(
    value
    & opt int Engine.default_config.Engine.radix_bits
    & info [ "radix-bits" ] ~docv:"BITS"
        ~doc:
          "Grouping-strategy threshold: cuboids whose compact key domain \
           fits this many bits group through a radix kernel instead of a \
           hash table ($(b,0) disables the radix tiers — every cuboid \
           groups through the hash path).")

let cube_cmd =
  let algorithm =
    Arg.(
      value & opt string "COUNTER"
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:
            "Cube algorithm: NAIVE, COUNTER, BUC, BUCOPT, BUCCUST, TD, \
             TDOPT, TDOPTALL, TDCUST.")
  in
  let use_schema =
    Arg.(
      value & flag
      & info [ "schema" ]
          ~doc:
            "Give the customised variants schema knowledge (from the \
             document's DTD, or observed from the instance).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the cube computation. On overrun the \
             partial cube is printed and the exit code is 4.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retries (with exponential backoff) after a transient I/O \
             fault before aborting with exit code 3.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte budget for the cube computation. Memory pressure first \
             forces COUNTER's spill path (counter eviction); a budget \
             below its floor, or one that cannot hold another \
             algorithm's working set, prints the partial cube and exits \
             with code 5.")
  in
  let max_input_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-input-bytes" ] ~docv:"BYTES"
          ~doc:
            "Refuse to load an XML document larger than this (exit code \
             5).")
  in
  let max_groups =
    Arg.(
      value & opt int 10
      & info [ "max-groups" ] ~docv:"N"
          ~doc:"Groups to print per cuboid.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output: table, csv or json.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON of the run (load it in \
             chrome://tracing or ui.perfetto.dev): spans for \
             parse/compile/materialise/per-cuboid compute/export plus \
             governor and admission events.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write an x3-metrics/1 JSON document (the same schema the \
             bench harness emits): counters, gauges and per-phase latency \
             histograms.")
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "The cube subcommand's exit codes:";
      `I ("0", "success — the full cube was printed.");
      `I ("1", "usage error, unreadable query, or malformed XML input.");
      `I ("2", "corrupt input pages (checksum/format verification failed).");
      `I ("3", "I/O faults survived the retry budget.");
      `I
        ( "4",
          "partial result: the deadline expired or the run was cancelled; \
           the partial cube is printed before exiting." );
      `I
        ( "5",
          "resource-governed: the byte budget was exhausted (a partial \
           cube is printed) or the document exceeded --max-input-bytes." );
    ]
  in
  Cmd.v
    (Cmd.info "cube" ~doc:"Run an X^3 query and print the cube" ~man)
    Term.(
      const run_cube $ query_arg $ doc_arg $ algorithm $ use_schema
      $ radix_bits_arg $ deadline $ retries $ max_bytes
      $ max_input_bytes $ max_groups $ format $ trace $ metrics)

let explain_cmd =
  let algorithm =
    Arg.(
      value & opt string "COUNTER"
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:
            "Cube algorithm: NAIVE, COUNTER, BUC, BUCOPT, BUCCUST, TD, \
             TDOPT, TDOPTALL, TDCUST.")
  in
  let use_schema =
    Arg.(
      value & flag
      & info [ "schema" ]
          ~doc:"Give the customised variants schema knowledge.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Also write the Chrome trace_event JSON of the traced run.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Also write the x3-metrics/1 JSON document.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run an X^3 query traced and print a per-phase, per-cuboid cost \
          report (scans, sorts, the TD family's time per cuboid, rollups, \
          pool hit rate, peak counters, bytes reserved)")
    Term.(
      const run_explain $ query_arg $ doc_arg $ algorithm $ use_schema
      $ radix_bits_arg $ trace $ metrics)

let lattice_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the lattice as a Graphviz digraph.")
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Print a query's MRFI pattern and relaxed-cube lattice")
    Term.(const run_lattice $ query_arg $ dot)

let analyze_cmd =
  let dtd =
    Arg.(
      value
      & opt (some string) None
      & info [ "dtd" ] ~docv:"FILE" ~doc:"External DTD file.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Report summarizability properties over the lattice")
    Term.(const run_analyze $ query_arg $ doc_arg $ dtd)

let gen_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND" ~doc:"treebank, dblp or publications.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let trees =
    Arg.(
      value & opt int 1000
      & info [ "trees" ] ~docv:"N" ~doc:"Number of facts to generate.")
  in
  let axes =
    Arg.(value & opt int 3 & info [ "axes" ] ~docv:"K" ~doc:"Treebank axes (1-7).")
  in
  let coverage =
    Arg.(
      value & opt bool true
      & info [ "coverage" ] ~docv:"BOOL" ~doc:"Total coverage holds.")
  in
  let disjoint =
    Arg.(
      value & opt bool true
      & info [ "disjoint" ] ~docv:"BOOL" ~doc:"Disjointness holds.")
  in
  let dense =
    Arg.(value & flag & info [ "dense" ] ~doc:"Dense cube values.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic workload document")
    Term.(
      const run_gen $ kind $ out $ trees $ axes $ coverage $ disjoint $ dense
      $ seed)

let pivot_cmd =
  let rows =
    Arg.(
      required
      & opt (some string) None
      & info [ "rows" ] ~docv:"AXIS" ~doc:"Axis variable for rows, e.g. \\$n.")
  in
  let cols =
    Arg.(
      required
      & opt (some string) None
      & info [ "cols" ] ~docv:"AXIS" ~doc:"Axis variable for columns.")
  in
  let row_state =
    Arg.(
      value & opt int 0
      & info [ "row-state" ] ~docv:"MASK"
          ~doc:"Structural state mask of the row axis (0 = rigid).")
  in
  let col_state =
    Arg.(
      value & opt int 0
      & info [ "col-state" ] ~docv:"MASK"
          ~doc:"Structural state mask of the column axis.")
  in
  Cmd.v
    (Cmd.info "pivot"
       ~doc:"Cross-tabulate two axes of a query's cube, with sub-totals")
    Term.(
      const run_pivot $ query_arg $ doc_arg $ rows $ cols $ row_state
      $ col_state)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"TCP port to listen on (127.0.0.1).")
  in
  let cache_bytes =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"BYTES"
          ~doc:
            "Byte budget of the LRU cuboid cache (documents, witness \
             tables and materialised cuboid views all charge it).")
  in
  let max_concurrent =
    Arg.(
      value & opt int 4
      & info [ "max-concurrent" ] ~docv:"N"
          ~doc:"Admission cap on in-flight cube requests.")
  in
  let max_waiting =
    Arg.(
      value & opt int 16
      & info [ "max-waiting" ] ~docv:"N"
          ~doc:"Requests allowed to wait for a slot; beyond it, shed.")
  in
  let admission_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "admission-timeout" ] ~docv:"SECONDS"
          ~doc:"Patience of a waiting request (default: wait forever).")
  in
  let max_input_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-input-bytes" ] ~docv:"BYTES"
          ~doc:"Refuse to load an XML document larger than this.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int X3_serve.Protocol.default_max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Wire-frame payload cap (hostile-input guard).")
  in
  let io_deadline =
    Arg.(
      value & opt float 30.0
      & info [ "io-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-frame socket deadline; a peer that cannot deliver or \
             accept one frame within it is disconnected (slow-loris \
             defense). 0 disables.")
  in
  let drain_deadline =
    Arg.(
      value & opt float 5.0
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "On shutdown, how long to let in-flight requests finish \
             before cancelling the active computation (its client gets \
             a typed response).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Persist the cuboid cache's index here on drained shutdown, \
             and on restart rebuild those sessions and their views from \
             the documents before serving (verify-on-load; a corrupt \
             snapshot cold-starts, never fails).")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead log for the $(b,ingest) verb: every accepted \
             fragment is checksummed and fsynced here before any state \
             changes, and a restarted daemon replays the log (truncating \
             any torn tail) so an acknowledged ingest survives a crash. \
             Without it, ingest is disabled.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Structured JSONL access log: one record per request (ts, \
             request id, verb, document digest, provenance mix, cells, \
             bytes, outcome, duration). Written off the hot path through \
             a bounded queue that drops-with-counter rather than blocks; \
             rotates once to FILE.1 at the size cap.")
  in
  let access_log_max_bytes =
    Arg.(
      value
      & opt int X3_serve.Access_log.default_max_bytes
      & info [ "access-log-max-bytes" ] ~docv:"BYTES"
          ~doc:"Access-log size cap before rotation.")
  in
  let prom_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "prom-port" ] ~docv:"N"
          ~doc:
            "Loopback HTTP port serving GET /metrics (Prometheus text \
             exposition of the daemon registry), /healthz (liveness) and \
             /readyz (false until warm restore and WAL replay finish, \
             and again during drain). 0 picks an ephemeral port.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query capture threshold: each request runs under its \
             own trace scope, and one slower than this gets its span \
             tree spooled as a Chrome-trace file (fetch with the trace \
             verb or straight from the spool directory).")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Spool directory for slow-query captures (default x3-traces \
             when --slow-ms is set); holds the most recent captures up \
             to the cap.")
  in
  let trace_cap =
    Arg.(
      value & opt int 32
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:"Max spooled slow-query captures; oldest deleted beyond it.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Client mode: connect to a running daemon, print its \
             x3-metrics/1 document (the STATS verb) and exit.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Client mode: ask a running daemon to shut down and exit.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"X3QL"
          ~doc:
            "Client mode: send one cube query to a running daemon, print \
             the CSV answer, and exit with the standard x3 code for any \
             typed failure (2 corrupt, 3 I/O fault, 4 timeout/partial, \
             5 rejected/over budget).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "With --query: server-side compute deadline; past it the \
             daemon answers with a typed timeout or partial cube.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "With --query: client-side retry budget for transient \
             transport failures and retryable typed errors (jittered \
             exponential backoff, reconnecting per attempt).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident query daemon: a length-prefixed JSON protocol \
          over a Unix/TCP socket, concurrent queries through admission \
          control, and a byte-budgeted LRU cuboid cache that answers a \
          requested cuboid from any cached lattice ancestor when the \
          observed coverage properties prove the rollup sound")
    Term.(
      const run_serve $ socket $ port $ cache_bytes $ max_concurrent
      $ max_waiting $ admission_timeout $ max_input_bytes
      $ max_frame_bytes $ io_deadline $ drain_deadline $ snapshot $ wal
      $ access_log $ access_log_max_bytes $ prom_port $ slow_ms $ trace_dir
      $ trace_cap $ stats $ shutdown $ query $ deadline_ms $ retries)

let ingest_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon's Unix-domain socket.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"Daemon's TCP port (127.0.0.1).")
  in
  let doc =
    Arg.(
      required
      & opt (some string) None
      & info [ "doc" ] ~docv:"FILE"
          ~doc:
            "Document path the fragment belongs to — the same path cube \
             queries name in $(b,doc(...)).")
  in
  let fragment =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FRAGMENT"
          ~doc:
            "The fragment: inline XML (anything starting with '<'), a \
             file path, or '-' for stdin. One element, appended as a new \
             child of the document root.")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Append one XML fragment to a served document: the daemon logs \
          it durably to its write-ahead log (the command returns only \
          after the fsync), then patches every resident session's cached \
          cuboid views cell-by-cell instead of recomputing them")
    Term.(const run_ingest $ socket $ port $ doc $ fragment)

let info_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"XML document.")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Parse and summarise an XML document")
    Term.(const run_info $ path)

let () =
  let doc = "X^3: a cube operator for XML OLAP (ICDE 2007)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "x3" ~doc)
          [
            cube_cmd;
            explain_cmd;
            serve_cmd;
            ingest_cmd;
            lattice_cmd;
            analyze_cmd;
            pivot_cmd;
            gen_cmd;
            info_cmd;
          ]))
