(* The serve benchmarks: the resident daemon against cold per-query
   recompute, end-to-end through a real unix socket.

   Phase 1 (PR 7, BENCH_PR7.json): one daemon on a temp socket fed the
   dense treebank workload.  The cold baseline is the daemon's own
   no_cache path — a fresh document load, prepare and full cube per
   request, exactly what a one-shot `x3 cube` pays.  The warm path is a
   repeat of the same query against the populated cuboid cache.  Gates:

   - byte identity: the warm answer must equal the cold answer exactly;
   - provenance: the warm repeat must be fully served from the cache
     (no base scans), after a first pass that exercised the rollup path;
   - latency: best-of-N warm must be >= 5x faster than best-of-N cold.

   Phase 2 (PR 8, BENCH_PR8.json): robustness economics.

   - slow-client defense: a silent connection is attached to the daemon
     and a healthy client's warm latency is re-measured beside it — gated
     at <= 2x the unloaded warm baseline — and the loris itself must be
     reaped within the socket deadline;
   - warm restart: a snapshot-carrying daemon is drained, then recovery
     time (restore + first fully-cached answer) is raced against a cold
     daemon's rebuild (first warm-path compute).  Restore re-runs the
     snapshot's sessions — document load, prepare, cube into the cache —
     before the daemon serves, the same work the cold daemon does on
     its first request, so first-answer parity is structural: the gate
     bounds restore overhead at 1.5x a cold rebuild, and requires every
     restarted answer byte-identical and fully cache-served (no base
     scan, some cached cuboids), so a restore that silently cold-starts
     cannot pass on timing alone.  The cache's payoff is steady-state
     (every subsequent request is warm), which phase 1 above
     already gates at 5x.

   Phase 1 also gates the fully cached repeat: [repeats] requests of the
   same query print from the views' stored order, so
   [serve.views.sorted] must not move, and the process's minor words
   per exported cell must stay at or below [words_per_cell_gate] — half
   the 58.8 words a cell the same loop allocated when every request
   copied its views into a fresh cube and sorted it again (client and
   daemon share the process, so both sides are counted).

   Both files are x3-metrics/1 documents whose meta blocks carry the
   latency tables and gate verdicts.  Exits non-zero if any gate fails,
   so `dune runtest` gates on all of it. *)

module Server = X3_serve.Server
module Protocol = X3_serve.Protocol
module Treebank = X3_workload.Treebank
module Json = X3_obs.Json
module Obs_metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export

let trees = 1500
let axes = 3
let rounds = 5
let latency_gate = 5.0
let loris_gate = 2.0
(* Restore must not cost materially more than a cold rebuild: the ratio
   warm_restart / cold_rebuild is gated at <= 1.5.  It cannot be gated
   *below* 1x because restore computes the very views the cold daemon
   computes on its first request, only before serving instead of during. *)
let restart_overhead_gate = 1.5
let io_deadline = 1.0
let repeats = 200
let words_per_cell_gate = 29.4

(* Matches the generated workload: axes [$dj in $s/wj/dj], structural
   relaxations on the first two axes. *)
let query =
  {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND)
return COUNT($s).|}

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let cube_exn conn ~doc ~no_cache =
  match
    Server.Client.request conn
      (Protocol.Cube
         {
           query;
           doc = Some doc;
           algorithm = None;
           format = "csv";
           no_cache;
           deadline_ms = None;
           retries = None;
           request_id = None;
         })
  with
  | Ok (Protocol.Cube_ok { payload; provenance; _ }) -> (payload, provenance)
  | Ok (Protocol.Failed { code; message }) ->
      die "serve-smoke: cube failed: %s: %s" code message
  | Ok _ -> die "serve-smoke: unexpected response to cube"
  | Error msg -> die "serve-smoke: transport error: %s" msg

(* Wall time of one request, measured at the client — the daemon's
   whole round trip, not just the compute. *)
let time_request conn ~doc ~no_cache =
  let t0 = Unix.gettimeofday () in
  ignore (cube_exn conn ~doc ~no_cache : string * Protocol.provenance);
  Unix.gettimeofday () -. t0

(* Best-of-N wall time of one request shape. *)
let measure conn ~doc ~no_cache =
  let best = ref infinity in
  for _ = 1 to rounds do
    best := Float.min !best (time_request conn ~doc ~no_cache)
  done;
  !best

(* Best-of-N of the cold and the warm shape, their rounds alternated: the
   machine's speed drifts by tens of percent within a run, and a drift
   between two back-to-back batches would land on one side of the ratio
   only. *)
let measure_cold_warm conn ~doc =
  let cold = ref infinity and warm = ref infinity in
  for _ = 1 to rounds do
    cold := Float.min !cold (time_request conn ~doc ~no_cache:true);
    warm := Float.min !warm (time_request conn ~doc ~no_cache:false)
  done;
  (!cold, !warm)

type daemon = {
  d_server : Server.t;
  d_thread : Thread.t;
  d_address : Server.address;
  d_sock : string;
}

let start_daemon ?(tune = fun c -> c) () =
  let sock_path = Filename.temp_file "x3serve_bench" ".sock" in
  Sys.remove sock_path;
  let address = Server.Unix_sock sock_path in
  let server =
    match Server.create (tune (Server.default_config address)) with
    | Ok s -> s
    | Error msg -> die "serve-smoke: %s" msg
  in
  {
    d_server = server;
    d_thread = Thread.create Server.run server;
    d_address = address;
    d_sock = sock_path;
  }

let stop_daemon d =
  Server.stop d.d_server;
  Thread.join d.d_thread

let with_conn d f =
  match Server.Client.connect d.d_address with
  | Error msg -> die "serve-smoke: connect: %s" msg
  | Ok conn ->
      Fun.protect ~finally:(fun () -> Server.Client.close conn) (fun () ->
          f conn)

(* One daemon lifecycle, timed: create (which restores a snapshot when
   configured) plus the first warm-path request — the time from "process
   start" to "first answer served". *)
let time_first_answer ?tune ~doc () =
  let t0 = Unix.gettimeofday () in
  let d = start_daemon ?tune () in
  let payload, prov = with_conn d (fun conn -> cube_exn conn ~doc ~no_cache:false) in
  let dt = Unix.gettimeofday () -. t0 in
  stop_daemon d;
  (dt, payload, prov)

let () =
  let out7 =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR7.json"
  in
  let out8 =
    if Array.length Sys.argv > 2 then Sys.argv.(2) else "BENCH_PR8.json"
  in
  let config =
    { Treebank.default with num_trees = trees; axes; density = Treebank.Dense }
  in
  let doc_path = Filename.temp_file "x3serve_bench" ".xml" in
  let oc = open_out doc_path in
  output_string oc (X3_xml.Serialize.to_string (Treebank.generate config));
  close_out oc;
  let snap_path = Filename.temp_file "x3serve_bench" ".snap" in
  Sys.remove snap_path;
  let daemon =
    start_daemon ~tune:(fun c -> { c with Server.io_deadline = Some io_deadline }) ()
  in
  let finally () =
    stop_daemon daemon;
    (try Sys.remove doc_path with Sys_error _ -> ());
    try Sys.remove snap_path with Sys_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  let conn =
    match Server.Client.connect daemon.d_address with
    | Ok c -> c
    | Error msg -> die "serve-smoke: connect: %s" msg
  in
  Printf.printf
    "  serve warm-vs-cold (dense treebank trees=%d axes=%d, %d rounds \
     each):\n"
    trees axes rounds;
  (* The no_cache path neither reads nor writes the cache, so cold
     requests do not pollute the warm measurements they alternate with. *)
  let cold_payload, _ = cube_exn conn ~doc:doc_path ~no_cache:true in
  (* First warm-path pass populates the cache and must exercise rollups:
     the dense treebank is disjoint, so TDCUST's rule admits every
     covered chain. *)
  let warm1_payload, warm1_prov = cube_exn conn ~doc:doc_path ~no_cache:false in
  (* Warm repeats: everything answered from resident cuboid views. *)
  let cold_seconds, warm_seconds = measure_cold_warm conn ~doc:doc_path in
  let warm2_payload, warm2_prov = cube_exn conn ~doc:doc_path ~no_cache:false in
  let speedup = cold_seconds /. warm_seconds in
  let identical =
    String.equal cold_payload warm1_payload
    && String.equal cold_payload warm2_payload
  in
  Printf.printf
    "    cold %8.4fs   warm %8.4fs   %5.1fx (gate %.1fx)   first pass \
     base=%d rollup=%d   repeat cached=%d   %s\n"
    cold_seconds warm_seconds speedup latency_gate warm1_prov.Protocol.p_base
    warm1_prov.Protocol.p_rollup warm2_prov.Protocol.p_cached
    (if identical then "identical" else "DIVERGED");
  (* --- a fully cached repeat prints from the stored order ----------------- *)
  let views_sorted () =
    match
      List.assoc_opt "serve.views.sorted"
        (Obs_metrics.snapshot (Server.registry daemon.d_server))
    with
    | Some (Obs_metrics.Counter n) -> n
    | _ -> 0
  in
  let cells =
    List.length (String.split_on_char '\n' (String.trim warm2_payload)) - 1
  in
  let sorted_before = views_sorted () in
  let words_before = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeats do
    ignore (cube_exn conn ~doc:doc_path ~no_cache:false : string * Protocol.provenance)
  done;
  let repeat_seconds = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
  let words_per_cell =
    (Gc.minor_words () -. words_before) /. float_of_int (repeats * cells)
  in
  let repeat_sorts = views_sorted () - sorted_before in
  Printf.printf
    "    %d cached repeats of %d cells: %6.1f us/request   %5.1f minor words/cell \
     (gate %.1f)   views sorted %d (gate 0)\n"
    repeats cells (repeat_seconds *. 1e6) words_per_cell words_per_cell_gate
    repeat_sorts;
  (* --- slow-client defense: a loris beside a healthy client ------------- *)
  let loris = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect loris (Unix.ADDR_UNIX daemon.d_sock);
  let loris_payload, _ = cube_exn conn ~doc:doc_path ~no_cache:false in
  let loris_seconds = measure conn ~doc:doc_path ~no_cache:false in
  Server.Client.close conn;
  (* The loris itself must be reaped within the socket deadline. *)
  Unix.sleepf (io_deadline +. 0.5);
  let loris_reaped =
    let buf = Bytes.create 1 in
    match Unix.read loris buf 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
  in
  Unix.close loris;
  (* Floor the baseline at 2 ms: warm round trips are sub-millisecond
     territory where scheduler noise, not the loris, dominates a ratio. *)
  let loris_baseline = Float.max warm_seconds 0.002 in
  let loris_ratio = loris_seconds /. loris_baseline in
  Printf.printf
    "    beside a silent client: warm %8.4fs   %4.2fx of baseline (gate \
     %.1fx)   loris %s\n"
    loris_seconds loris_ratio loris_gate
    (if loris_reaped then "reaped" else "NOT REAPED");
  (* --- warm restart vs cold rebuild -------------------------------------- *)
  (* Populate a snapshot-carrying daemon, then drain it: the shutdown
     persists the cache index. *)
  let snap_daemon =
    start_daemon ~tune:(fun c -> { c with Server.snapshot_path = Some snap_path }) ()
  in
  ignore
    (with_conn snap_daemon (fun conn -> cube_exn conn ~doc:doc_path ~no_cache:false)
      : string * Protocol.provenance);
  stop_daemon snap_daemon;
  if not (Sys.file_exists snap_path) then
    die "serve-smoke: drained daemon wrote no snapshot";
  (* Best-of-3 on each lifecycle: creation plus first answer, cold
     (compute on the first request) vs warm-restarted (compute during
     restore, then serve cached).  Both lifecycles do the same work, so
     the ratio sits near 1 and needs the noise damped: the lifecycles
     alternate, so a drift in machine speed lands on both.  Each
     restarted daemon drains and rewrites the same index on its way
     out. *)
  let lifecycles =
    List.init 3 (fun _ ->
        let cold = time_first_answer ~doc:doc_path () in
        let warm =
          time_first_answer
            ~tune:(fun c -> { c with Server.snapshot_path = Some snap_path })
            ~doc:doc_path ()
        in
        (cold, warm))
  in
  let fastest runs =
    List.fold_left
      (fun ((ta, _, _) as a) ((tb, _, _) as b) -> if tb < ta then b else a)
      (List.hd runs) runs
  in
  let cold_rebuild, rebuild_payload, _ = fastest (List.map fst lifecycles) in
  let restarts = List.map snd lifecycles in
  let warm_restart, _, restart_prov = fastest restarts in
  let restart_overhead = warm_restart /. cold_rebuild in
  let restart_identical =
    List.for_all (fun (_, payload, _) -> String.equal cold_payload payload)
      restarts
    && String.equal cold_payload rebuild_payload
    && String.equal cold_payload loris_payload
  in
  (* Every restart, not only the fastest, must answer from the cache. *)
  let restart_cache_served =
    List.for_all
      (fun (_, _, prov) ->
        prov.Protocol.p_base = 0 && prov.Protocol.p_cached > 0)
      restarts
  in
  Printf.printf
    "    restart-to-first-answer: cold rebuild %8.4fs   warm restart \
     %8.4fs   %4.2fx overhead (gate %.2fx)   restart cached=%d base=%d   %s\n"
    cold_rebuild warm_restart restart_overhead restart_overhead_gate
    restart_prov.Protocol.p_cached restart_prov.Protocol.p_base
    (if restart_identical then "identical" else "DIVERGED");
  (* --- reports ------------------------------------------------------------ *)
  let meta7 =
    [
      ("bench", Json.Str "PR7: resident serve daemon, warm cache vs cold");
      ( "workload",
        Json.Str (Printf.sprintf "dense treebank trees=%d axes=%d" trees axes)
      );
      ("rounds", Json.Int rounds);
      ("cold_seconds", Json.Float cold_seconds);
      ("warm_seconds", Json.Float warm_seconds);
      ("identical", Json.Bool identical);
      ( "first_pass_provenance",
        Json.Obj
          [
            ("base", Json.Int warm1_prov.Protocol.p_base);
            ("rollup", Json.Int warm1_prov.Protocol.p_rollup);
            ("cached", Json.Int warm1_prov.Protocol.p_cached);
          ] );
      ( "warm_repeat_provenance",
        Json.Obj
          [
            ("base", Json.Int warm2_prov.Protocol.p_base);
            ("rollup", Json.Int warm2_prov.Protocol.p_rollup);
            ("cached", Json.Int warm2_prov.Protocol.p_cached);
          ] );
      ( "cached_repeat",
        Json.Obj
          [
            ("requests", Json.Int repeats);
            ("cells", Json.Int cells);
            ("seconds_per_request", Json.Float repeat_seconds);
            ("minor_words_per_cell", Json.Float words_per_cell);
            ("views_sorted", Json.Int repeat_sorts);
          ] );
      ( "gates",
        Json.Obj
          [
            ("warm_speedup", Json.Float speedup);
            ("warm_speedup_gate", Json.Float latency_gate);
            ("words_per_cell_gate", Json.Float words_per_cell_gate);
          ] );
    ]
  in
  Json.to_file out7
    (Obs_export.metrics_json ~meta:meta7
       (Obs_metrics.snapshot (Server.registry daemon.d_server)));
  Printf.printf "  wrote %s\n" out7;
  let meta8 =
    [
      ( "bench",
        Json.Str "PR8: serve robustness — slow-client defense, warm restart"
      );
      ( "workload",
        Json.Str (Printf.sprintf "dense treebank trees=%d axes=%d" trees axes)
      );
      ("io_deadline_seconds", Json.Float io_deadline);
      ("warm_baseline_seconds", Json.Float warm_seconds);
      ("warm_beside_loris_seconds", Json.Float loris_seconds);
      ("loris_latency_ratio", Json.Float loris_ratio);
      ("loris_reaped", Json.Bool loris_reaped);
      ("cold_rebuild_seconds", Json.Float cold_rebuild);
      ("warm_restart_seconds", Json.Float warm_restart);
      ("restart_overhead", Json.Float restart_overhead);
      ( "restart_provenance",
        Json.Obj
          [
            ("base", Json.Int restart_prov.Protocol.p_base);
            ("rollup", Json.Int restart_prov.Protocol.p_rollup);
            ("cached", Json.Int restart_prov.Protocol.p_cached);
          ] );
      ("restart_cache_served", Json.Bool restart_cache_served);
      ("identical", Json.Bool restart_identical);
      ( "gates",
        Json.Obj
          [
            ("loris_latency_gate", Json.Float loris_gate);
            ("restart_overhead_gate", Json.Float restart_overhead_gate);
          ] );
    ]
  in
  Json.to_file out8
    (Obs_export.metrics_json ~meta:meta8
       (Obs_metrics.snapshot (Server.registry daemon.d_server)));
  Printf.printf "  wrote %s\n" out8;
  let fail = ref false in
  if not identical then begin
    prerr_endline "serve-smoke: warm answers diverged from the cold run";
    fail := true
  end;
  if warm1_prov.Protocol.p_rollup = 0 then begin
    prerr_endline "serve-smoke: the first warm pass never rolled up a cuboid";
    fail := true
  end;
  if warm2_prov.Protocol.p_base > 0 || warm2_prov.Protocol.p_rollup > 0
  then begin
    prerr_endline "serve-smoke: the warm repeat was not fully cache-served";
    fail := true
  end;
  if repeat_sorts <> 0 then begin
    Printf.eprintf
      "serve-smoke: %d fully cached repeats sorted %d views (> 0)\n" repeats
      repeat_sorts;
    fail := true
  end;
  if words_per_cell > words_per_cell_gate then begin
    Printf.eprintf
      "serve-smoke: a cached repeat allocated %.1f minor words per cell (> \
       %.1f)\n"
      words_per_cell words_per_cell_gate;
    fail := true
  end;
  if speedup < latency_gate then begin
    Printf.eprintf
      "serve-smoke: warm cache is %.1fx faster than cold recompute (< \
       %.1fx)\n"
      speedup latency_gate;
    fail := true
  end;
  if loris_ratio > loris_gate then begin
    Printf.eprintf
      "serve-smoke: a silent client inflated healthy-client latency %.2fx \
       (> %.1fx)\n"
      loris_ratio loris_gate;
    fail := true
  end;
  if not loris_reaped then begin
    prerr_endline
      "serve-smoke: the silent client survived the socket deadline";
    fail := true
  end;
  if not restart_identical then begin
    prerr_endline "serve-smoke: restart answers diverged from the cold run";
    fail := true
  end;
  if not restart_cache_served then begin
    prerr_endline
      "serve-smoke: a warm-restarted daemon did not serve its first answer \
       from the restored cache";
    fail := true
  end;
  if restart_overhead > restart_overhead_gate then begin
    Printf.eprintf
      "serve-smoke: warm restart cost %.2fx of a cold rebuild (> %.2fx)\n"
      restart_overhead restart_overhead_gate;
    fail := true
  end;
  if !fail then exit 1
