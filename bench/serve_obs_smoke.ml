(* The PR 10 observability-overhead smoke (BENCH_PR10.json): the serve
   daemon's warm path with the full always-on observability stack —
   per-request/per-provenance latency histograms, the JSONL access log
   and the Prometheus scrape endpoint (per-request tracing *off*, its
   production default) — against the identical daemon with all of it
   disabled.

   Both daemons serve the same dense treebank workload over real unix
   sockets, side by side, as threads of this process; each is warmed
   until fully cache-served, then both are timed over batches of warm
   repeats in interleaved rounds, by process CPU time (client and
   daemon together), as [Harness.interleaved] runs them.  Gates:

   - overhead: the median over rounds of the instrumented batch's CPU
     time over the bare batch's beside it must be <= 1.05;
   - byte identity: both daemons' answers must match exactly;
   - the scrape endpoint, fetched while the instrumented daemon is
     loaded, must return Prometheus text carrying the per-provenance
     cube latency family;
   - the access log must have recorded every request without drops
     (the bounded queue never filled on this workload).

   BENCH_PR10.json is an x3-metrics/1 document over the instrumented
   daemon's registry; its meta block carries the timing table and gate
   verdicts.  Exits non-zero if any gate fails, so `dune runtest`
   gates on all of it. *)

module Server = X3_serve.Server
module Protocol = X3_serve.Protocol
module Treebank = X3_workload.Treebank
module Json = X3_obs.Json
module Obs_metrics = X3_obs.Metrics
module Obs_export = X3_obs.Export

let trees = 800
let axes = 3
(* On a shared 2-core box one batch's CPU time moves by ~15% from round
   to round, and less the shorter the batch; 200 rounds of 10 requests
   put the median ratio within +0.7..+2.2% over ten runs of the
   unchanged daemon, where 5 best-of batches of 100 had read -15.6..+15.8%. *)
let batch = 10
let rounds = 200
let overhead_gate = 0.05

let query =
  {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND)
return COUNT($s).|}

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let cube_exn conn ~doc =
  match
    Server.Client.request conn
      (Protocol.Cube
         {
           query;
           doc = Some doc;
           algorithm = None;
           format = "csv";
           no_cache = false;
           deadline_ms = None;
           retries = None;
           request_id = None;
         })
  with
  | Ok (Protocol.Cube_ok { payload; provenance; _ }) -> (payload, provenance)
  | Ok (Protocol.Failed { code; message }) ->
      die "serve-obs-smoke: cube failed: %s: %s" code message
  | Ok _ -> die "serve-obs-smoke: unexpected response to cube"
  | Error msg -> die "serve-obs-smoke: transport error: %s" msg

type daemon = {
  d_server : Server.t;
  d_thread : Thread.t;
  d_address : Server.address;
}

let start_daemon ?(tune = fun c -> c) () =
  let sock_path = Filename.temp_file "x3obs_bench" ".sock" in
  Sys.remove sock_path;
  let address = Server.Unix_sock sock_path in
  let server =
    match Server.create (tune (Server.default_config address)) with
    | Ok s -> s
    | Error msg -> die "serve-obs-smoke: %s" msg
  in
  { d_server = server; d_thread = Thread.create Server.run server; d_address = address }

let stop_daemon d =
  Server.stop d.d_server;
  Thread.join d.d_thread

let connect d =
  match Server.Client.connect d.d_address with
  | Ok c -> c
  | Error msg -> die "serve-obs-smoke: connect: %s" msg

(* Process CPU seconds of [batch] warm round trips on one connection:
   the client's work and the daemon's, both threads of this process.  A
   full major collection first keeps one daemon's garbage from being
   collected on the other's time. *)
let time_batch conn ~doc =
  Gc.full_major ();
  let t0 = Harness.cpu_seconds () in
  for _ = 1 to batch do
    ignore (cube_exn conn ~doc : string * Protocol.provenance)
  done;
  Harness.cpu_seconds () -. t0

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read fd chunk 0 8192 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Buffer.contents buf

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let counter_value registry name =
  match List.assoc_opt name (Obs_metrics.snapshot registry) with
  | Some (Obs_metrics.Counter c) -> c
  | _ -> 0

let () =
  let out =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_PR10.json"
  in
  let config =
    { Treebank.default with num_trees = trees; axes; density = Treebank.Dense }
  in
  let doc_path = Filename.temp_file "x3obs_bench" ".xml" in
  let oc = open_out doc_path in
  output_string oc (X3_xml.Serialize.to_string (Treebank.generate config));
  close_out oc;
  let log_path = Filename.temp_file "x3obs_bench" ".jsonl" in
  let finally () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ doc_path; log_path; log_path ^ ".1" ]
  in
  Fun.protect ~finally @@ fun () ->
  Printf.printf
    "  serve observability overhead (dense treebank trees=%d axes=%d, \
     median of %d interleaved rounds of %d warm requests):\n"
    trees axes rounds batch;
  (* Both daemons run side by side: bare (no access log, no endpoint, no
     tracing) and instrumented (access log + scrape endpoint). *)
  let bare = start_daemon () in
  let bare_conn = connect bare in
  let obs =
    start_daemon
      ~tune:(fun c ->
        {
          c with
          Server.access_log_path = Some log_path;
          prom_port = Some 0;
        })
      ()
  in
  let obs_conn = connect obs in
  let bare_payload, _ = cube_exn bare_conn ~doc:doc_path in
  let obs_payload, _ = cube_exn obs_conn ~doc:doc_path in
  let seconds, ratios =
    Harness.interleaved ~rounds
      [|
        (fun () -> time_batch bare_conn ~doc:doc_path);
        (fun () -> time_batch obs_conn ~doc:doc_path);
      |]
  in
  let bare_seconds = seconds.(0) and obs_seconds = seconds.(1) in
  Server.Client.close bare_conn;
  stop_daemon bare;
  (* Scrape while the daemon is warm and loaded: the text must carry the
     per-provenance latency family. *)
  let scrape =
    match Server.prom_port obs.d_server with
    | Some port -> http_get port "/metrics"
    | None -> die "serve-obs-smoke: instrumented daemon bound no scrape port"
  in
  let scrape_ok =
    contains ~needle:"# TYPE x3_serve_latency_cube histogram" scrape
    && contains ~needle:"x3_serve_latency_cube_bucket{provenance=" scrape
    && contains ~needle:"x3_build_info{version=" scrape
  in
  Server.Client.close obs_conn;
  let registry = Server.registry obs.d_server in
  let snapshot = Obs_metrics.snapshot registry in
  let recorded = counter_value registry "serve.access_log.records" in
  let dropped = counter_value registry "serve.access_log.dropped" in
  stop_daemon obs;
  let identical = String.equal bare_payload obs_payload in
  let overhead = ratios.(1) -. 1.0 in
  Printf.printf
    "    bare %8.4fs   instrumented %8.4fs   %+5.1f%% overhead (gate \
     %.0f%%)   access log %d records %d dropped   scrape %s   %s\n"
    bare_seconds obs_seconds (overhead *. 100.) (overhead_gate *. 100.)
    recorded dropped
    (if scrape_ok then "ok" else "MALFORMED")
    (if identical then "identical" else "DIVERGED");
  let meta =
    [
      ( "bench",
        Json.Str
          "PR10: serve observability overhead — access log + histograms + \
           scrape endpoint vs all-off" );
      ( "workload",
        Json.Str (Printf.sprintf "dense treebank trees=%d axes=%d" trees axes)
      );
      ("batch_requests", Json.Int batch);
      ("rounds", Json.Int rounds);
      ("bare_seconds", Json.Float bare_seconds);
      ("instrumented_seconds", Json.Float obs_seconds);
      ("overhead_fraction", Json.Float overhead);
      ("access_log_records", Json.Int recorded);
      ("access_log_dropped", Json.Int dropped);
      ("scrape_ok", Json.Bool scrape_ok);
      ("identical", Json.Bool identical);
      ( "gates",
        Json.Obj
          [ ("overhead_gate", Json.Float overhead_gate) ] );
    ]
  in
  Json.to_file out (Obs_export.metrics_json ~meta snapshot);
  Printf.printf "  wrote %s\n" out;
  let fail = ref false in
  if not identical then begin
    prerr_endline
      "serve-obs-smoke: instrumented answers diverged from the bare daemon";
    fail := true
  end;
  if overhead > overhead_gate then begin
    Printf.eprintf
      "serve-obs-smoke: observability costs %.1f%% on the warm path (> \
       %.0f%%)\n"
      (overhead *. 100.) (overhead_gate *. 100.);
    fail := true
  end;
  if not scrape_ok then begin
    prerr_endline
      "serve-obs-smoke: /metrics under load is missing the per-provenance \
       latency family";
    fail := true
  end;
  (* 1 warm-up + rounds * batch measured requests, every one logged. *)
  if recorded < 1 + (rounds * batch) || dropped > 0 then begin
    Printf.eprintf
      "serve-obs-smoke: access log recorded %d, dropped %d (expected >= %d, \
       0 drops)\n"
      recorded dropped
      (1 + (rounds * batch));
    fail := true
  end;
  if !fail then exit 1
