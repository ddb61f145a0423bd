(* The resident daemon: end-to-end over a real unix socket. The
   load-bearing contract is byte-identity — whatever mix of cache hits,
   lattice rollups and base scans answers a request, the exported bytes
   must equal a cold [Engine.run]'s. The rest is survival: tight cache
   budgets must evict rather than overflow, dead clients must not wedge
   the accept loop, and malformed or oversized frames must be typed
   errors, not crashes. *)

module Server = X3_serve.Server
module Protocol = X3_serve.Protocol
module Json = X3_obs.Json
module Engine = X3_core.Engine
module Export = X3_core.Export
module Compile = X3_ql.Compile

(* --- harness ------------------------------------------------------------- *)

type harness = {
  server : Server.t;
  thread : Thread.t;
  address : Server.address;
  sock_path : string;
}

let start_server ?(tune = fun c -> c) () =
  let sock_path = Filename.temp_file "x3serve" ".sock" in
  Sys.remove sock_path;
  let address = Server.Unix_sock sock_path in
  let cfg = tune (Server.default_config address) in
  match Server.create cfg with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
      let thread = Thread.create Server.run server in
      { server; thread; address; sock_path }

let stop_server h =
  Server.stop h.server;
  Thread.join h.thread

let with_server ?tune f =
  let h = start_server ?tune () in
  Fun.protect ~finally:(fun () -> stop_server h) (fun () -> f h)

let with_client h f =
  match Server.Client.connect h.address with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok conn ->
      Fun.protect ~finally:(fun () -> Server.Client.close conn) (fun () ->
          f conn)

(* A cube request that must succeed: payload and provenance, or failf. *)
let cube_exn ?(no_cache = false) ?(format = "csv") conn ~doc query =
  match
    Server.Client.request conn
      (Protocol.Cube
         {
           query;
           doc = Some doc;
           algorithm = None;
           format;
           no_cache;
           deadline_ms = None;
           retries = None;
           request_id = None;
         })
  with
  | Ok (Protocol.Cube_ok { payload; provenance; _ }) -> (payload, provenance)
  | Ok (Protocol.Failed { code; message }) ->
      Alcotest.failf "cube failed: %s: %s" code message
  | Ok _ -> Alcotest.fail "unexpected response to cube"
  | Error msg -> Alcotest.failf "cube transport error: %s" msg

let metric_value stats name =
  match Json.member "metrics" stats with
  | Some metrics -> (
      match Json.member name metrics with
      | Some entry -> Json.int_member "value" entry
      | None -> None)
  | None -> None

let stats_doc conn =
  match Server.Client.request conn Protocol.Stats with
  | Ok (Protocol.Stats_ok doc) -> doc
  | Ok _ | Error _ -> Alcotest.fail "STATS verb failed"

let stats_metric conn name =
  match metric_value (stats_doc conn) name with
  | Some v -> v
  | None -> Alcotest.failf "stats document missing %s" name

(* --- data on disk -------------------------------------------------------- *)

let write_temp_doc ~prefix contents f =
  let path = Filename.temp_file prefix ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let with_figure1 f = write_temp_doc ~prefix:"x3fig1" Fixtures.figure1_source f
let figure1_query = X3_workload.Publications.query1

let treebank_config =
  {
    X3_workload.Treebank.default with
    num_trees = 120;
    coverage = false;
    disjoint = false;
  }

let with_treebank f =
  let doc = X3_workload.Treebank.generate treebank_config in
  write_temp_doc ~prefix:"x3bank" (X3_xml.Serialize.to_string doc) f

(* Matches [treebank_config]: axes [$dj in $s/wj/dj], structural
   relaxations on the first two axes only. *)
let treebank_query =
  {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND)
return COUNT($s).|}

let compile_exn query =
  match Compile.parse_and_compile query with
  | Ok c -> c
  | Error msg -> Alcotest.failf "compile: %s" msg

let parse_fragment_exn src =
  match X3_xml.Parser.parse src with
  | Ok d -> d.X3_xml.Tree.root
  | Error e -> Alcotest.failf "fragment: %a" X3_xml.Parser.pp_error e

let make_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:65536
    (X3_storage.Disk.in_memory ~page_size:8192 ())

(* The document at [doc_path] with [fragments] appended to its root in
   order — what a daemon whose WAL holds them must answer over. *)
let grafted_store ~doc_path fragments =
  let doc =
    match X3_xml.Parser.parse_file_with_dtd doc_path with
    | Ok (doc, _dtd) -> doc
    | Error e -> Alcotest.failf "parse: %a" X3_xml.Parser.pp_error e
  in
  let root = doc.X3_xml.Tree.root in
  X3_xdb.Store.of_document
    {
      doc with
      X3_xml.Tree.root =
        {
          root with
          X3_xml.Tree.children =
            root.X3_xml.Tree.children
            @ List.map
                (fun f -> X3_xml.Tree.Element (parse_fragment_exn f))
                fragments;
        };
    }

(* The reference: a cold, cache-free, in-process [Engine.run] over the
   same query text the daemon compiles, on the document with [fragments]
   grafted in, exported in [format] (csv or json). *)
let cold_export ?(fragments = []) ?(format = "csv") ~doc_path ~query () =
  let spec = (compile_exn query).Compile.spec in
  let store = grafted_store ~doc_path fragments in
  let prepared = Engine.prepare ~pool:(make_pool ()) ~store spec in
  let result, _instr = Engine.run prepared Engine.Counter in
  (if format = "json" then Export.json_string else Export.csv_string)
    ~func:spec.Engine.func result

(* --- byte identity under concurrency ------------------------------------- *)

let test_concurrent_byte_identity () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  let expected = cold_export ~doc_path ~query:figure1_query () in
  let n_clients = 4 and per_client = 2 in
  let payloads = Array.make (n_clients * per_client) "" in
  let errors = ref [] in
  let err_lock = Mutex.create () in
  let client i =
    try
      with_client h (fun conn ->
          for k = 0 to per_client - 1 do
            let payload, _ = cube_exn conn ~doc:doc_path figure1_query in
            payloads.((i * per_client) + k) <- payload
          done)
    with e ->
      Mutex.lock err_lock;
      errors := Printexc.to_string e :: !errors;
      Mutex.unlock err_lock
  in
  let threads = List.init n_clients (Thread.create client) in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no client errors" [] !errors;
  Array.iteri
    (fun i payload ->
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical to cold Engine.run" i)
        expected payload)
    payloads

(* --- rollup soundness and provenance ------------------------------------- *)

let test_rollup_matches_base_figure1 () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  let cold, cold_prov = cube_exn ~no_cache:true conn ~doc:doc_path figure1_query in
  Alcotest.(check int) "cold path bypasses the cache" 0
    (cold_prov.Protocol.p_base + cold_prov.p_rollup + cold_prov.p_cached);
  let warm1, prov1 = cube_exn conn ~doc:doc_path figure1_query in
  Alcotest.(check string) "first warm-path answer equals cold run" cold warm1;
  Alcotest.(check bool) "figure 1 rolls up most cuboids" true
    (prov1.Protocol.p_rollup > 0);
  Alcotest.(check bool) "the finest cuboid comes from base" true
    (prov1.Protocol.p_base >= 1);
  let warm2, prov2 = cube_exn conn ~doc:doc_path figure1_query in
  Alcotest.(check string) "warm repeat byte-identical" cold warm2;
  let total =
    prov1.Protocol.p_base + prov1.Protocol.p_rollup + prov1.Protocol.p_cached
  in
  Alcotest.(check int) "warm repeat fully served from cache" total
    prov2.Protocol.p_cached;
  Alcotest.(check int) "no base scans on the warm repeat" 0
    prov2.Protocol.p_base

(* One warm-path request on a fresh daemon: its provenance and the
   base scans' rollup refusals by reason (no_finer, not_disjoint,
   uncovered). *)
let refusals_of_first_request ~doc_path query =
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  let _, prov = cube_exn conn ~doc:doc_path query in
  let stats = stats_doc conn in
  let refused reason =
    metric_value stats
      (X3_obs.Metrics.labeled "serve.cuboids.rollup_refused"
         [ ("reason", reason) ])
    |> Option.value ~default:0
  in
  Alcotest.(check int) "one refusal per base scan" prov.Protocol.p_base
    (refused "no_finer" + refused "not_disjoint" + refused "uncovered");
  (prov, refused "no_finer", refused "not_disjoint", refused "uncovered")

(* Each base scan counts the property that refused the nearest finer
   view's rollup. Only the finest cuboid has no finer view. On figure 1,
   publication 1's two authors and publication 2's two years make every
   finer view that was refused non-disjoint; on a disjoint treebank with
   missing bindings, only coverage refuses. *)
let test_rollup_refusals () =
  with_figure1 @@ fun doc_path ->
  let prov, no_finer, not_disjoint, uncovered =
    refusals_of_first_request ~doc_path figure1_query
  in
  Alcotest.(check int) "figure 1: only the finest cuboid has no finer view"
    1 no_finer;
  Alcotest.(check int) "figure 1: every other base scan is non-disjoint"
    (prov.Protocol.p_base - 1) not_disjoint;
  Alcotest.(check int) "figure 1: no view refused for coverage" 0 uncovered;
  let config = { treebank_config with X3_workload.Treebank.disjoint = true } in
  let doc = X3_workload.Treebank.generate config in
  write_temp_doc ~prefix:"x3bank" (X3_xml.Serialize.to_string doc)
  @@ fun doc_path ->
  let _, no_finer, not_disjoint, uncovered =
    refusals_of_first_request ~doc_path treebank_query
  in
  Alcotest.(check int) "disjoint treebank: one finest cuboid" 1 no_finer;
  Alcotest.(check int) "disjoint treebank: no view non-disjoint" 0
    not_disjoint;
  Alcotest.(check bool) "disjoint treebank: coverage refuses some" true
    (uncovered > 0)

let test_rollup_matches_base_treebank () =
  with_treebank @@ fun doc_path ->
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  let expected = cold_export ~doc_path ~query:treebank_query () in
  let warm, prov = cube_exn conn ~doc:doc_path treebank_query in
  Alcotest.(check string)
    "uncovered/non-disjoint treebank served byte-identical" expected warm;
  (* coverage=false / disjoint=false: some lattice edges are uncovered,
     so serving must fall back to base scans for them — and the mixed
     rollup/base answer above still matched the cold run byte-for-byte. *)
  Alcotest.(check bool) "base fallback exercised" true
    (prov.Protocol.p_base >= 1);
  let warm2, _ = cube_exn ~no_cache:true conn ~doc:doc_path treebank_query in
  Alcotest.(check string) "no_cache reference agrees" expected warm2

(* --- eviction under a tight budget --------------------------------------- *)

let test_eviction_stays_within_budget () =
  with_figure1 @@ fun doc_path ->
  (* Big enough for the document and a handful of views, far too small
     for all of figure 1's ~31 cache entries: inserts must evict. *)
  let budget = 24 * 1024 in
  with_server ~tune:(fun c -> { c with Server.cache_bytes = budget })
  @@ fun h ->
  with_client h @@ fun conn ->
  let expected = cold_export ~doc_path ~query:figure1_query () in
  for i = 1 to 3 do
    let payload, _ = cube_exn conn ~doc:doc_path figure1_query in
    Alcotest.(check string)
      (Printf.sprintf "request %d still byte-identical under pressure" i)
      expected payload;
    let resident = stats_metric conn "serve.cache.resident_bytes" in
    Alcotest.(check bool)
      (Printf.sprintf "resident %d <= budget %d after request %d" resident
         budget i)
      true (resident <= budget)
  done;
  let evictions = stats_metric conn "serve.cache.evictions" in
  Alcotest.(check bool) "the tight budget forced evictions" true
    (evictions >= 1)

(* --- hostile and dying clients ------------------------------------------- *)

let raw_connect h =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX h.sock_path);
  fd

let test_dead_client_does_not_wedge () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  (* A client that sends 3 bytes of a 4-byte header and vanishes. *)
  let fd = raw_connect h in
  ignore (Unix.write fd (Bytes.of_string "\x00\x00\x01") 0 3 : int);
  Unix.close fd;
  (* A client that sends a full cube request and hangs up before the
     response: the worker's reply hits EPIPE, not the accept loop. *)
  let fd = raw_connect h in
  let req =
    Protocol.encode_request
      (Protocol.Cube
         {
           query = figure1_query;
           doc = Some doc_path;
           algorithm = None;
           format = "csv";
           no_cache = false;
           deadline_ms = None;
           retries = None;
           request_id = None;
         })
  in
  (match Protocol.write_frame fd req with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "could not send the doomed request");
  Unix.close fd;
  (* The daemon must still answer new connections. *)
  with_client h (fun conn ->
      match Server.Client.request conn Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | Ok _ | Error _ -> Alcotest.fail "daemon wedged after dead clients");
  (* And still serve full cube requests, byte-identically. *)
  let expected = cold_export ~doc_path ~query:figure1_query () in
  with_client h (fun conn ->
      let payload, _ = cube_exn conn ~doc:doc_path figure1_query in
      Alcotest.(check string) "cube after dead clients" expected payload)

let test_protocol_rejects_malformed_and_oversized () =
  with_server ~tune:(fun c -> { c with Server.max_frame_bytes = 1024 })
  @@ fun h ->
  let expect_failed fd code =
    match Protocol.read_frame fd with
    | Ok payload -> (
        match Protocol.decode_response payload with
        | Ok (Protocol.Failed f) ->
            Alcotest.(check string) "error code" code f.code
        | Ok _ -> Alcotest.failf "expected a %s error" code
        | Error msg -> Alcotest.failf "undecodable response: %s" msg)
    | Error _ -> Alcotest.failf "no response before hangup (wanted %s)" code
  in
  (* Malformed JSON in a well-formed frame: typed bad_request, and the
     connection survives for the next request. *)
  let fd = raw_connect h in
  (match Protocol.write_frame fd "{this is not json" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  expect_failed fd "bad_request";
  (match Protocol.write_frame fd {|{"verb":"florb"}|} with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  expect_failed fd "bad_request";
  Unix.close fd;
  (* A frame header promising more than the cap: typed frame_too_large,
     then the server hangs up (the stream is unrecoverable). *)
  let fd = raw_connect h in
  let header = Bytes.of_string "\x00\x00\x08\x00" (* 2048 > 1024 *) in
  ignore (Unix.write fd header 0 4 : int);
  expect_failed fd "frame_too_large";
  (match Protocol.read_frame fd with
  | Error Protocol.Closed -> ()
  | Ok _ -> Alcotest.fail "server kept an unrecoverable stream open"
  | Error _ -> ());
  Unix.close fd;
  (* The daemon is unharmed. *)
  with_client h (fun conn ->
      match Server.Client.request conn Protocol.Ping with
      | Ok Protocol.Pong -> ()
      | Ok _ | Error _ -> Alcotest.fail "daemon wedged after hostile frames")

(* --- ingest: WAL-backed delta maintenance over the wire ------------------ *)

let with_wal f =
  let path = Filename.temp_file "x3wal" ".wal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ingest_exn conn ~doc fragment =
  match Server.Client.request conn (Protocol.Ingest { doc; fragment }) with
  | Ok (Protocol.Ingest_ok { lsn; sessions; cells; fallbacks }) ->
      (lsn, sessions, cells, fallbacks)
  | Ok (Protocol.Failed { code; message }) ->
      Alcotest.failf "ingest failed: %s: %s" code message
  | Ok _ -> Alcotest.fail "unexpected response to ingest"
  | Error msg -> Alcotest.failf "ingest transport error: %s" msg

let ingest_err conn ~doc fragment =
  match Server.Client.request conn (Protocol.Ingest { doc; fragment }) with
  | Ok (Protocol.Failed { code; _ }) -> code
  | Ok _ -> Alcotest.fail "expected a typed ingest failure"
  | Error msg -> Alcotest.failf "ingest transport error: %s" msg

(* All axis values (John, p2, 2003) already live in figure 1's
   dictionaries, so the delta is provably sound in-place. *)
let pub_fragment =
  {|<publication id="90"><author id="a9"><name>John</name></author><publisher id="p2"/><year>2003</year></publication>|}

(* A fifth author name: figure 1's name dictionary holds 4 values in
   2 bits — full — so this must take the typed layout-overflow
   fallback, not a wrong answer. *)
let zoe_fragment =
  {|<publication id="91"><author id="a10"><name>Zoe</name></author><publisher id="p1"/><year>2004</year></publication>|}

let test_ingest_requires_wal () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  Alcotest.(check string)
    "typed refusal" "no_wal"
    (ingest_err conn ~doc:doc_path pub_fragment)

let test_ingest_patches_resident_views () =
  with_figure1 @@ fun doc_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  let before, _ = cube_exn conn ~doc:doc_path figure1_query in
  let lsn, sessions, cells, fallbacks =
    ingest_exn conn ~doc:doc_path pub_fragment
  in
  Alcotest.(check int) "first lsn" 1 lsn;
  Alcotest.(check int) "one resident session" 1 sessions;
  Alcotest.(check int) "no fallbacks" 0 fallbacks;
  Alcotest.(check bool) "cells patched" true (cells > 0);
  let after, prov = cube_exn conn ~doc:doc_path figure1_query in
  Alcotest.(check bool) "payload changed" true (not (String.equal before after));
  Alcotest.(check bool)
    "served from patched cache" true
    (prov.Protocol.p_cached > 0);
  (* The reference: a cache-free load re-parses the document and grafts
     the WAL fragments — the patched views must match it byte for byte. *)
  let reference, _ = cube_exn ~no_cache:true conn ~doc:doc_path figure1_query in
  Alcotest.(check string) "patched == cold graft" reference after

let test_ingest_survives_restart () =
  with_figure1 @@ fun doc_path ->
  with_wal @@ fun wal ->
  let tune c = { c with Server.wal_path = Some wal } in
  let before_stop =
    let h = start_server ~tune () in
    Fun.protect
      ~finally:(fun () -> stop_server h)
      (fun () ->
        with_client h @@ fun conn ->
        let _ = cube_exn conn ~doc:doc_path figure1_query in
        let lsn, _, _, _ = ingest_exn conn ~doc:doc_path pub_fragment in
        Alcotest.(check int) "lsn" 1 lsn;
        fst (cube_exn conn ~doc:doc_path figure1_query))
  in
  (* A fresh daemon, no snapshot: the WAL alone must carry the ingest. *)
  with_server ~tune @@ fun h ->
  with_client h @@ fun conn ->
  let after_restart, _ = cube_exn conn ~doc:doc_path figure1_query in
  Alcotest.(check string) "ingest durable across restart" before_stop
    after_restart;
  (* And the log keeps growing from where it left off. *)
  let lsn, _, _, _ = ingest_exn conn ~doc:doc_path pub_fragment in
  Alcotest.(check int) "lsn continues" 2 lsn

let test_ingest_fallback_flushes_session () =
  with_figure1 @@ fun doc_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  let _ = cube_exn conn ~doc:doc_path figure1_query in
  let lsn, _, _, fallbacks = ingest_exn conn ~doc:doc_path zoe_fragment in
  Alcotest.(check int) "durable even on fallback" 1 lsn;
  Alcotest.(check int) "one session flushed" 1 fallbacks;
  Alcotest.(check int) "typed fallback counter" 1
    (stats_metric conn "serve.ingest.fallbacks.layout_overflow");
  (* The flushed session rebuilds cold — with the fragment grafted — so
     the answer still matches the cache-free reference. *)
  let reference, _ = cube_exn ~no_cache:true conn ~doc:doc_path figure1_query in
  let rebuilt, _ = cube_exn conn ~doc:doc_path figure1_query in
  Alcotest.(check string) "rebuilt == cold graft" reference rebuilt

let test_ingest_rejects_bad_fragment () =
  with_figure1 @@ fun doc_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  Alcotest.(check string)
    "typed parse failure" "bad_fragment"
    (ingest_err conn ~doc:doc_path "<unclosed");
  (* The malformed fragment was refused before touching the log: the
     next good ingest still gets the first sequence number. *)
  let lsn, _, _, _ = ingest_exn conn ~doc:doc_path pub_fragment in
  Alcotest.(check int) "log untouched by refusal" 1 lsn

(* --- resident stores: session misses fold the WAL tail ------------------- *)

let figure1_queries =
  [
    figure1_query;
    {|for $b in doc("book.xml")//publication,
    $n in $b/author/name,
    $y in $b/year
X^3 $b/@id by $n (LND), $y (LND)
return COUNT($b).|};
    {|for $b in doc("book.xml")//publication,
    $p in $b//publisher/@id
X^3 $b/@id by $p (LND, PC-AD)
return COUNT($b).|};
  ]

let treebank_queries =
  [
    treebank_query;
    {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d3 (LND)
return COUNT($s).|};
    {|for $s in doc("bank.xml")//s,
    $d2 in $s/w2/d2
X^3 $s by $d2 (LND, PC-AD)
return COUNT($s).|};
  ]

(* [n] facts of [with_treebank]'s document, each under a fresh id: their
   axis values are already in every dictionary. *)
let treebank_clones n =
  let doc = X3_workload.Treebank.generate treebank_config in
  let facts =
    Array.of_list (X3_xml.Tree.child_elements doc.X3_xml.Tree.root)
  in
  List.init n (fun i ->
      let e = facts.(i * 7 mod Array.length facts) in
      X3_xml.Serialize.node_to_string
        (X3_xml.Tree.Element
           {
             e with
             X3_xml.Tree.attributes =
               [
                 {
                   X3_xml.Tree.attr_name = "id";
                   attr_value = string_of_int (1000 + i);
                 };
               ];
           }))

let fold_refused conn reason =
  metric_value (stats_doc conn)
    (X3_obs.Metrics.labeled "serve.docs.fold_refused" [ ("reason", reason) ])
  |> Option.value ~default:0

(* Ingests and cube requests over two documents and six queries, in a
   seeded random order, under a cache too small to keep every session:
   whatever mix of resident patches, misses folded over a cached store
   and reloads answers a request, it equals a cold export over the
   document with every logged fragment grafted, in CSV and JSON. *)
let test_random_ingests_match_cold_graft () =
  with_figure1 @@ fun fig_path ->
  with_treebank @@ fun tb_path ->
  let docs =
    [|
      ( fig_path,
        Array.of_list figure1_queries,
        [| pub_fragment; zoe_fragment |] );
      ( tb_path,
        Array.of_list treebank_queries,
        Array.of_list (treebank_clones 12) );
    |]
  in
  List.iter
    (fun seed ->
      with_wal @@ fun wal ->
      with_server
        ~tune:(fun c ->
          { c with Server.wal_path = Some wal; cache_bytes = 160 * 1024 })
      @@ fun h ->
      with_client h @@ fun conn ->
      let rng = Random.State.make [| seed |] in
      (* formats draw from their own stream, so the seed's operations
         are the same in either format *)
      let formats = Random.State.make [| seed; 1 |] in
      let logged = Array.make (Array.length docs) [] in
      let misses = ref 0 in
      for op = 1 to 60 do
        let d = Random.State.int rng (Array.length docs) in
        let doc_path, queries, fragments = docs.(d) in
        if Random.State.int rng 3 = 0 then begin
          let fragment =
            fragments.(Random.State.int rng (Array.length fragments))
          in
          ignore (ingest_exn conn ~doc:doc_path fragment);
          logged.(d) <- fragment :: logged.(d)
        end
        else begin
          let query = queries.(Random.State.int rng (Array.length queries)) in
          let format = if Random.State.bool formats then "csv" else "json" in
          let got, prov = cube_exn ~format conn ~doc:doc_path query in
          if prov.Protocol.p_cached = 0 then incr misses;
          Alcotest.(check string)
            (Printf.sprintf "seed %d op %d (%s) == cold graft" seed op format)
            (cold_export ~fragments:(List.rev logged.(d)) ~format ~doc_path
               ~query ())
            got
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the budget evicted" seed)
        true
        (stats_metric conn "serve.cache.evictions" > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: misses shared stores" seed)
        true
        (stats_metric conn "serve.docs.loaded" < !misses))
    [ 1; 2; 3 ]

(* With the stores resident, every session miss prepares over its
   document's one store and folds in what was logged since: each
   document is loaded once, whatever the ingests. *)
let test_store_loaded_once_while_resident () =
  with_figure1 @@ fun fig_path ->
  with_treebank @@ fun tb_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  let clones = Array.of_list (treebank_clones 6) in
  let run ~doc_path ~queries ~fragment =
    let logged = ref [] in
    List.iteri
      (fun i query ->
        for _ = 0 to i do
          let f = fragment i in
          ignore (ingest_exn conn ~doc:doc_path f);
          logged := f :: !logged
        done;
        let got, prov = cube_exn conn ~doc:doc_path query in
        Alcotest.(check int) "a session miss" 0 prov.Protocol.p_cached;
        Alcotest.(check string) "folded miss == cold graft"
          (cold_export ~fragments:(List.rev !logged) ~doc_path ~query ())
          got)
      queries
  in
  run ~doc_path:fig_path ~queries:figure1_queries ~fragment:(fun _ ->
      pub_fragment);
  run ~doc_path:tb_path ~queries:treebank_queries ~fragment:(fun i ->
      clones.(i));
  Alcotest.(check int) "one load per document" 2
    (stats_metric conn "serve.docs.loaded");
  List.iter
    (fun reason ->
      Alcotest.(check int) ("no " ^ reason ^ " refusal") 0
        (fold_refused conn reason))
    [ "layout_overflow"; "measure_unsupported"; "fragment_unsupported" ]

let figure1_sum_query =
  {|for $b in doc("book.xml")//publication,
    $n in $b/author/name
X^3 $b/@id by $n (LND)
return SUM($b/year).|}

(* A fact nested inside the fragment's fact: staging it alone cannot
   prove it sees the grafted document's bindings. *)
let nested_fragment =
  {|<publication id="92"><publication id="93"><year>2003</year></publication><year>2004</year></publication>|}

(* A session miss whose fold is refused loads the document afresh with
   every fragment grafted, counts the refusal by reason, and replaces
   the cached store: the next miss over that document folds nothing and
   loads nothing. *)
let test_fold_refusal_reloads () =
  let case ~reason ~query ~fragment =
    with_figure1 @@ fun doc_path ->
    with_wal @@ fun wal ->
    with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
    @@ fun h ->
    with_client h @@ fun conn ->
    let _ = cube_exn conn ~doc:doc_path query in
    (* the resident session refuses the patch too, and is flushed *)
    let _, _, _, fallbacks = ingest_exn conn ~doc:doc_path fragment in
    Alcotest.(check int) (reason ^ ": resident session flushed") 1 fallbacks;
    let got, _ = cube_exn conn ~doc:doc_path query in
    Alcotest.(check string) (reason ^ ": reload == cold graft")
      (cold_export ~fragments:[ fragment ] ~doc_path ~query ())
      got;
    Alcotest.(check int) (reason ^ ": counted") 1 (fold_refused conn reason);
    Alcotest.(check int) (reason ^ ": reloaded") 2
      (stats_metric conn "serve.docs.loaded");
    let other = List.nth figure1_queries 1 in
    let got, _ = cube_exn conn ~doc:doc_path other in
    Alcotest.(check string) (reason ^ ": next miss == cold graft")
      (cold_export ~fragments:[ fragment ] ~doc_path ~query:other ())
      got;
    Alcotest.(check int) (reason ^ ": the new store is shared") 2
      (stats_metric conn "serve.docs.loaded")
  in
  case ~reason:"measure_unsupported" ~query:figure1_sum_query
    ~fragment:pub_fragment;
  case ~reason:"layout_overflow" ~query:figure1_query ~fragment:zoe_fragment;
  case ~reason:"fragment_unsupported" ~query:figure1_query
    ~fragment:nested_fragment

(* An absolute fact path names the document element's children by name:
   [/bank/s] answers as [//s] does, before and after an ingest (which a
   multi-step fact path cannot fold, so its miss reloads). *)
let test_absolute_fact_path_ingest () =
  with_treebank @@ fun doc_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  let absolute =
    {|for $s in doc("bank.xml")/bank/s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND)
return COUNT($s).|}
  in
  let same label =
    let want, _ = cube_exn ~no_cache:true conn ~doc:doc_path treebank_query in
    let got, _ = cube_exn conn ~doc:doc_path absolute in
    Alcotest.(check string) label want got
  in
  same "/bank/s == //s";
  let fragment = List.hd (treebank_clones 1) in
  ignore (ingest_exn conn ~doc:doc_path fragment);
  same "/bank/s == //s after an ingest";
  Alcotest.(check string) "/bank/s == cold graft"
    (cold_export ~fragments:[ fragment ] ~doc_path ~query:absolute ())
    (fst (cube_exn conn ~doc:doc_path absolute))

(* The fold refreshes a session's observed properties by restriction: a
   session over the bare document with fragments folded in must refuse
   every roll-up a session over the cold-grafted document refuses. The
   fragments break what the bare document has: a repeated value (not
   disjoint), missing axes and a nested binding (not covered). *)
let test_folded_session_admits_no_extra_rollup () =
  let config =
    { treebank_config with X3_workload.Treebank.coverage = true; disjoint = true; num_trees = 60 }
  in
  let doc = X3_workload.Treebank.generate config in
  write_temp_doc ~prefix:"x3bank" (X3_xml.Serialize.to_string doc)
  @@ fun doc_path ->
  let fragments =
    [
      {|<s id="900"><w1><d1>v1</d1><d1>v2</d1></w1><w2><d2>v3</d2></w2><w3><d3>v4</d3></w3></s>|};
      {|<s id="901"><w1><d1>v1</d1></w1></s>|};
      {|<s id="902"><w1><nx><d1>v5</d1></nx></w1><w2><d2>v3</d2></w2><w3><d3>v4</d3></w3></s>|};
    ]
  in
  let spec = (compile_exn treebank_query).Compile.spec in
  let session store =
    Engine.Session.create (Engine.prepare ~pool:(make_pool ()) ~store spec)
  in
  let bare = session (grafted_store ~doc_path []) in
  let folded = session (grafted_store ~doc_path []) in
  List.iteri
    (fun i f ->
      let lsn = i + 1 in
      match
        Engine.stage_fragment spec ~fragment:(parse_fragment_exn f)
          ~fact_id:(Engine.synthetic_fact_id ~lsn)
      with
      | Engine.Staged staged -> (
          match Engine.Session.apply_delta folded staged ~views:[] with
          | Ok _ -> ()
          | Error fb -> Alcotest.failf "fold refused: %a" Engine.pp_fallback fb)
      | Engine.Not_a_fact | Engine.Unsupported _ ->
          Alcotest.fail "fragment not staged")
    fragments;
  let cold = session (grafted_store ~doc_path fragments) in
  let lattice = Engine.lattice (Engine.Session.prepared cold) in
  let n = X3_lattice.Lattice.size lattice in
  let refuses s ~finer ~coarser =
    X3_lattice.Properties.rollup_refusal (Engine.Session.props s) lattice
      ~finer ~coarser
    <> None
  in
  let newly_refused = ref 0 in
  for finer = 0 to n - 1 do
    for coarser = 0 to n - 1 do
      if refuses cold ~finer ~coarser then begin
        if not (refuses folded ~finer ~coarser) then
          Alcotest.failf "folded session admits %d -> %d, cold refuses it"
            finer coarser;
        if not (refuses bare ~finer ~coarser) then incr newly_refused
      end
    done
  done;
  Alcotest.(check bool) "the fragments take roll-ups away" true
    (!newly_refused > 0)

(* The cold reference stays cold: each [no_cache] request loads its own
   store and reads or writes no cache entry. *)
let test_no_cache_touches_no_entry () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  let a = List.nth figure1_queries 0 and b = List.nth figure1_queries 1 in
  let h =
    start_server ~tune:(fun c -> { c with Server.snapshot_path = Some snap }) ()
  in
  Fun.protect ~finally:(fun () -> stop_server h) (fun () ->
      with_client h @@ fun conn ->
      ignore (cube_exn conn ~doc:doc_path a);
      ignore (cube_exn conn ~doc:doc_path b);
      let cache_state () =
        List.map
          (fun m -> (m, stats_metric conn m))
          [
            "serve.cache.entries";
            "serve.cache.resident_bytes";
            "serve.cache.hits";
            "serve.cache.misses";
            "serve.cache.evictions";
          ]
      in
      let before = cache_state () in
      List.iteri
        (fun i query ->
          let loaded = stats_metric conn "serve.docs.loaded" in
          let got, _ = cube_exn ~no_cache:true conn ~doc:doc_path query in
          Alcotest.(check string) "no_cache == cold"
            (cold_export ~doc_path ~query ())
            got;
          Alcotest.(check int)
            (Printf.sprintf "no_cache request %d loads its own store" i)
            (loaded + 1)
            (stats_metric conn "serve.docs.loaded"))
        (a :: figure1_queries);
      Alcotest.(check (list (pair string int)))
        "no cache entry read or written" before (cache_state ()));
  (* The drained snapshot lists the sessions in the recency order the
     two cached requests left: no_cache bumped neither. *)
  match X3_serve.Warm_store.load ~path:snap with
  | Ok entries ->
      Alcotest.(check (list string)) "LRU order untouched" [ a; b ]
        (List.map (fun e -> e.X3_serve.Warm_store.ws_query) entries)
  | Error msg -> Alcotest.failf "snapshot load: %s" msg

(* --- views printed from their stored order -------------------------------- *)

(* Year 999 is new to figure 1's year dictionary and, three bytes long,
   sorts before every committed year; the dictionary's 2 bits still hold
   it, so the resident views are patched in place. *)
let early_year_fragment =
  {|<publication id="95"><author id="a2"><name>Jane</name></author><publisher id="p2"/><year>999</year></publication>|}

(* Existing values only, in a combination no publication had: new
   groups in the cached views (Bob with a publisher, Bob in 2004). *)
let new_group_fragment =
  {|<publication id="96"><author id="a3"><name>Bob</name></author><publisher id="p2"/><year>2004</year></publication>|}

(* The same publication again, once [new_group_fragment] is in: every
   group it joins already exists, so its patch only replaces cells. *)
let same_groups_fragment =
  {|<publication id="97"><author id="a3"><name>Bob</name></author><publisher id="p2"/><year>2004</year></publication>|}

(* Cached views print from their stored order: a fully cached repeat
   sorts nothing, a read after an ingest re-sorts at most each view that
   gained a group, once, and none when no view did; a second read sorts
   nothing again. Every answer, in CSV and JSON, equals a cold export over
   the grafted document. *)
let test_views_print_in_stored_order () =
  with_figure1 @@ fun doc_path ->
  with_wal @@ fun wal ->
  with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
  @@ fun h ->
  with_client h @@ fun conn ->
  let sorted () = stats_metric conn "serve.views.sorted" in
  let logged = ref [] in
  (* one read: both formats; the views that answered from the cache *)
  let read label =
    List.fold_left
      (fun _ format ->
        let got, prov = cube_exn ~format conn ~doc:doc_path figure1_query in
        Alcotest.(check string)
          (Printf.sprintf "%s (%s) == cold graft" label format)
          (cold_export ~fragments:(List.rev !logged) ~format ~doc_path
             ~query:figure1_query ())
          got;
        prov.Protocol.p_cached)
      0 [ "csv"; "json" ]
  in
  ignore (read "first read" : int);
  let views = read "cached repeat" in
  Alcotest.(check bool) "every view cached" true (views > 0);
  let before = sorted () in
  ignore (read "second cached repeat" : int);
  Alcotest.(check int) "a fully cached repeat sorts nothing" before (sorted ());
  List.iter
    (fun (label, fragment, new_groups) ->
      let _, sessions, cells, fallbacks = ingest_exn conn ~doc:doc_path fragment in
      Alcotest.(check (pair int int)) (label ^ ": patched in place") (1, 0)
        (sessions, fallbacks);
      Alcotest.(check bool) (label ^ ": cells patched") true (cells > 0);
      logged := fragment :: !logged;
      let before = sorted () in
      Alcotest.(check int) (label ^ ": still cached") views
        (read (label ^ ", first read"));
      let after = sorted () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d sorts for %d views" label (after - before) views)
        true
        (if new_groups then after > before && after - before <= views
         else after = before);
      ignore (read (label ^ ", second read") : int);
      Alcotest.(check int) (label ^ ": a second read sorts nothing") after
        (sorted ()))
    [
      ("a value sorting first", early_year_fragment, true);
      ("a new group", new_group_fragment, true);
      ("existing groups only", same_groups_fragment, false);
    ]

(* A patched view evicted by the budget is rebuilt by the next request
   and prints what a cold export of the grafted document prints. The
   budget is sized from the first session's own footprint, so the second
   document's session cannot join it. *)
let test_view_rebuilt_after_eviction () =
  with_figure1 @@ fun fig_path ->
  with_treebank @@ fun tb_path ->
  with_wal @@ fun wal ->
  let footprint =
    with_server ~tune:(fun c -> { c with Server.wal_path = Some wal })
    @@ fun h ->
    with_client h @@ fun conn ->
    ignore (cube_exn conn ~doc:fig_path figure1_query);
    stats_metric conn "serve.cache.resident_bytes"
  in
  with_server
    ~tune:(fun c ->
      { c with Server.wal_path = Some wal; cache_bytes = footprint * 3 / 2 })
  @@ fun h ->
  with_client h @@ fun conn ->
  let check label =
    List.iter
      (fun format ->
        let got, prov = cube_exn ~format conn ~doc:fig_path figure1_query in
        Alcotest.(check string)
          (Printf.sprintf "%s (%s) == cold graft" label format)
          (cold_export ~fragments:[ early_year_fragment ] ~format
             ~doc_path:fig_path ~query:figure1_query ())
          got;
        ignore prov)
      [ "csv"; "json" ]
  in
  ignore (cube_exn conn ~doc:fig_path figure1_query);
  ignore (ingest_exn conn ~doc:fig_path early_year_fragment);
  check "patched";
  let evictions = stats_metric conn "serve.cache.evictions" in
  ignore (cube_exn conn ~doc:tb_path treebank_query);
  Alcotest.(check bool) "the second document evicted the first's entries"
    true
    (stats_metric conn "serve.cache.evictions" > evictions);
  let _, prov = cube_exn conn ~doc:fig_path figure1_query in
  Alcotest.(check bool) "the views were rebuilt" true
    (prov.Protocol.p_base + prov.Protocol.p_rollup > 0);
  check "rebuilt after eviction"

(* An ingest re-books each patched session and view in place: nothing is
   counted as an eviction, and the patched session keeps its recency —
   older than the other document's session, which the ingest did not
   touch (the drained snapshot lists sessions oldest first). *)
let test_ingest_recharges_in_place () =
  with_figure1 @@ fun fig_path ->
  with_treebank @@ fun tb_path ->
  with_wal @@ fun wal ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  let h =
    start_server
      ~tune:(fun c ->
        { c with Server.wal_path = Some wal; snapshot_path = Some snap })
      ()
  in
  Fun.protect ~finally:(fun () -> stop_server h) (fun () ->
      with_client h @@ fun conn ->
      ignore (cube_exn conn ~doc:fig_path figure1_query);
      ignore (cube_exn conn ~doc:tb_path treebank_query);
      let resident = stats_metric conn "serve.cache.resident_bytes" in
      let _, sessions, _, _ = ingest_exn conn ~doc:fig_path pub_fragment in
      Alcotest.(check int) "the figure-1 session patched" 1 sessions;
      Alcotest.(check int) "an ingest evicts nothing" 0
        (stats_metric conn "serve.cache.evictions");
      Alcotest.(check bool) "the grown entries are charged" true
        (stats_metric conn "serve.cache.resident_bytes" > resident));
  match X3_serve.Warm_store.load ~path:snap with
  | Ok entries ->
      Alcotest.(check (list string)) "recency order kept"
        [ fig_path; tb_path ]
        (List.map (fun e -> e.X3_serve.Warm_store.ws_doc_path) entries)
  | Error msg -> Alcotest.failf "snapshot load: %s" msg

(* --- request-scoped observability ---------------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A cube request returning the echoed request id (client-chosen when
   [rid] is given, server-assigned otherwise). *)
let cube_rid ?rid conn ~doc query =
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
           request_id = rid;
         })
  with
  | Ok (Protocol.Cube_ok { request_id; _ }) -> request_id
  | Ok (Protocol.Failed { code; message }) ->
      Alcotest.failf "cube failed: %s: %s" code message
  | Ok _ -> Alcotest.fail "unexpected response to cube"
  | Error msg -> Alcotest.failf "cube transport error: %s" msg

let trace_fetch conn name =
  match Server.Client.request conn (Protocol.Trace { name }) with
  | Ok (Protocol.Trace_ok doc) -> Ok doc
  | Ok (Protocol.Failed { code; _ }) -> Error code
  | Ok _ -> Alcotest.fail "unexpected response to trace"
  | Error msg -> Alcotest.failf "trace transport error: %s" msg

let with_temp_dir ~prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_request_id_echo () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  (match cube_rid ~rid:"my-req-7" conn ~doc:doc_path figure1_query with
  | Some id -> Alcotest.(check string) "client-chosen id echoed" "my-req-7" id
  | None -> Alcotest.fail "Cube_ok dropped the client's request id");
  match cube_rid conn ~doc:doc_path figure1_query with
  | Some id ->
      Alcotest.(check bool)
        (Printf.sprintf "server-assigned id %S carries the r- prefix" id)
        true
        (String.length id > 2 && String.sub id 0 2 = "r-")
  | None -> Alcotest.fail "no server-assigned request id in Cube_ok"

(* The acceptance pin: two concurrent cube requests on distinct
   connections each produce a well-formed span tree tagged with their
   own request id — and nothing from the other request. [slow_ms = 0]
   makes every request a "slow" capture, so both trees land in the
   spool where the [trace] verb can fetch them. *)
let test_concurrent_disjoint_traces () =
  with_figure1 @@ fun doc_path ->
  with_temp_dir ~prefix:"x3spool" @@ fun spool ->
  with_server
    ~tune:(fun c ->
      { c with Server.slow_ms = Some 0.; trace_dir = Some spool })
  @@ fun h ->
  let rids = [| "req-alpha"; "req-bravo" |] in
  let errors = ref [] in
  let err_lock = Mutex.create () in
  let client i =
    try
      with_client h (fun conn ->
          match cube_rid ~rid:rids.(i) conn ~doc:doc_path figure1_query with
          | Some id -> Alcotest.(check string) "id echoed" rids.(i) id
          | None -> Alcotest.fail "missing request id")
    with e ->
      Mutex.lock err_lock;
      errors := Printexc.to_string e :: !errors;
      Mutex.unlock err_lock
  in
  let threads = List.init (Array.length rids) (Thread.create client) in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no client errors" [] !errors;
  with_client h @@ fun conn ->
  (* The listing knows both captures... *)
  let listing =
    match trace_fetch conn None with
    | Ok doc -> Json.to_string doc
    | Error code -> Alcotest.failf "trace listing failed: %s" code
  in
  Array.iter
    (fun rid ->
      Alcotest.(check bool)
        (Printf.sprintf "listing mentions %s" rid)
        true
        (contains ~needle:rid listing))
    rids;
  (* ...and each capture holds its own request's spans, only. *)
  let capture rid =
    match trace_fetch conn (Some rid) with
    | Ok doc -> Json.to_string doc
    | Error code -> Alcotest.failf "fetching capture %s failed: %s" rid code
  in
  Array.iteri
    (fun i rid ->
      let other = rids.(1 - i) in
      let body = capture rid in
      Alcotest.(check bool)
        (Printf.sprintf "capture %s carries its own request id" rid)
        true
        (contains ~needle:rid body);
      Alcotest.(check bool)
        (Printf.sprintf "capture %s holds the serve.request span" rid)
        true
        (contains ~needle:"serve.request" body);
      Alcotest.(check bool)
        (Printf.sprintf "capture %s leaks nothing from %s" rid other)
        false
        (contains ~needle:other body))
    rids;
  (* Unknown captures are typed errors, not crashes. *)
  match trace_fetch conn (Some "no-such-capture") with
  | Error "not_found" -> ()
  | Error code -> Alcotest.failf "expected not_found, got %s" code
  | Ok _ -> Alcotest.fail "fetched a capture that never existed"

(* (name, span id, parent id) of every span the capture [rid] opened. *)
let captured_spans conn rid =
  let events =
    match trace_fetch conn (Some rid) with
    | Ok doc -> (
        match Json.member "traceEvents" doc with
        | Some (Json.Arr events) -> events
        | _ -> Alcotest.fail "capture has no traceEvents")
    | Error code -> Alcotest.failf "fetching the capture failed: %s" code
  in
  List.filter_map
    (fun e ->
      match (Json.string_member "name" e, Json.string_member "ph" e) with
      | Some name, Some "B" ->
          let args = Option.value ~default:(Json.Obj []) (Json.member "args" e) in
          Some
            ( name,
              Option.value ~default:0 (Json.int_member "span_id" args),
              Option.value ~default:0 (Json.int_member "parent_id" args) )
      | _ -> None)
    events

(* Every span in [names] opens directly under the span [parent]. *)
let check_spans_under spans ~parent names =
  let id =
    match List.find_opt (fun (n, _, _) -> n = parent) spans with
    | Some (_, id, _) -> id
    | None -> Alcotest.failf "no %s span in the capture" parent
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) spans with
      | Some (_, _, p) -> Alcotest.(check int) (name ^ " under " ^ parent) id p
      | None -> Alcotest.failf "no %s span in the capture" name)
    names

(* A traced, fully cached request: its span tree holds [serve.views]
   (the cache lookups) and [serve.export] (printing from the stored
   order) directly under [serve.request]. A session miss over the cached
   store with one fragment logged after it was built holds
   [serve.observe] (session creation) and [serve.fold] (that fragment)
   under [serve.session_load]. *)
let test_cached_request_span_tree () =
  with_figure1 @@ fun doc_path ->
  with_temp_dir ~prefix:"x3spool" @@ fun spool ->
  with_wal @@ fun wal ->
  with_server
    ~tune:(fun c ->
      {
        c with
        Server.slow_ms = Some 0.;
        trace_dir = Some spool;
        wal_path = Some wal;
      })
  @@ fun h ->
  with_client h @@ fun conn ->
  ignore (cube_exn conn ~doc:doc_path figure1_query);
  ignore (cube_rid ~rid:"cached" conn ~doc:doc_path figure1_query);
  let spans = captured_spans conn "cached" in
  check_spans_under spans ~parent:"serve.request"
    [ "serve.views"; "serve.export" ];
  Alcotest.(check bool) "a cached request loads no session" false
    (List.exists (fun (n, _, _) -> n = "serve.session_load") spans);
  ignore (ingest_exn conn ~doc:doc_path pub_fragment);
  ignore (cube_rid ~rid:"miss" conn ~doc:doc_path (List.nth figure1_queries 1));
  check_spans_under (captured_spans conn "miss") ~parent:"serve.session_load"
    [ "serve.observe"; "serve.fold" ]

(* --- scrape endpoint ------------------------------------------------------ *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Buffer.contents buf

let http_status response =
  match String.index_opt response ' ' with
  | Some i when String.length response >= i + 4 -> String.sub response (i + 1) 3
  | _ -> Alcotest.failf "unparseable HTTP response: %S" response

let test_scrape_endpoint () =
  with_figure1 @@ fun doc_path ->
  with_server ~tune:(fun c -> { c with Server.prom_port = Some 0 })
  @@ fun h ->
  let port =
    match Server.prom_port h.server with
    | Some p -> p
    | None -> Alcotest.fail "daemon did not bind a scrape port"
  in
  Alcotest.(check string)
    "/healthz answers 200" "200"
    (http_status (http_get port "/healthz"));
  Alcotest.(check string)
    "/readyz answers 200 once warm" "200"
    (http_status (http_get port "/readyz"));
  Alcotest.(check string)
    "unknown paths answer 404" "404"
    (http_status (http_get port "/nope"));
  (* Two cubes: the first pays base scans, the repeat is pure cache —
     so the per-provenance latency family carries both label values. *)
  (with_client h @@ fun conn ->
   ignore (cube_exn conn ~doc:doc_path figure1_query);
   ignore (cube_exn conn ~doc:doc_path figure1_query));
  let body = http_get port "/metrics" in
  Alcotest.(check string) "/metrics answers 200" "200" (http_status body);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "/metrics mentions %S" needle)
        true
        (contains ~needle body))
    [
      "# TYPE x3_serve_requests_total counter";
      "# TYPE x3_serve_latency_cube histogram";
      "x3_serve_latency_cube_bucket{provenance=\"base\",le=";
      "x3_serve_latency_cube_bucket{provenance=\"cached\",le=";
      "x3_serve_latency_request_bucket{verb=\"cube\",le=";
      "x3_serve_latency_frame_read_count";
      Printf.sprintf "x3_build_info{version=%S" Server.build_version;
    ]

(* --- access log ----------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (if line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let test_access_log_records_and_rotation () =
  with_figure1 @@ fun doc_path ->
  let log_path = Filename.temp_file "x3access" ".jsonl" in
  let rotated = log_path ^ ".1" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ log_path; rotated ])
  @@ fun () ->
  (* A cap of ~2 records forces rotation well within six requests. *)
  (with_server
     ~tune:(fun c ->
       {
         c with
         Server.access_log_path = Some log_path;
         access_log_max_bytes = 600;
       })
  @@ fun h ->
   with_client h @@ fun conn ->
   for _ = 1 to 6 do
     ignore (cube_exn conn ~doc:doc_path figure1_query)
   done);
  (* stop_server ran the daemon's finalizer, which closed (and thereby
     flushed) the access log — every record is on disk now. *)
  Alcotest.(check bool)
    "the size cap rotated the log to FILE.1" true
    (Sys.file_exists rotated);
  let lines = read_lines rotated @ read_lines log_path in
  Alcotest.(check int) "one record per request" 6 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "unparseable access record %S: %s" line msg
      | Ok doc ->
          Alcotest.(check (option string))
            "every record is a cube" (Some "cube")
            (Json.string_member "verb" doc);
          Alcotest.(check (option string))
            "every request succeeded" (Some "ok")
            (Json.string_member "outcome" doc);
          (match Json.string_member "request_id" doc with
          | Some id -> Alcotest.(check bool) "request id non-empty" true (id <> "")
          | None -> Alcotest.fail "record without request_id");
          (match Json.member "duration_ms" doc with
          | Some (Json.Float _ | Json.Int _) -> ()
          | _ -> Alcotest.fail "record without numeric duration_ms");
          match Json.member "cells" doc with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "cube records count their cells" true (n > 0)
          | _ -> Alcotest.fail "cube record without cells")
    lines

let () =
  Alcotest.run "x3 serve"
    [
      ( "serve",
        [
          Alcotest.test_case "concurrent clients byte-identical to cold run"
            `Quick test_concurrent_byte_identity;
          Alcotest.test_case "rollup provenance and identity on figure 1"
            `Quick test_rollup_matches_base_figure1;
          Alcotest.test_case "base scans count their rollup refusal" `Quick
            test_rollup_refusals;
          Alcotest.test_case "rollup==base on uncovered treebank" `Quick
            test_rollup_matches_base_treebank;
          Alcotest.test_case "eviction stays within the byte budget" `Quick
            test_eviction_stays_within_budget;
          Alcotest.test_case "dead clients do not wedge the accept loop"
            `Quick test_dead_client_does_not_wedge;
          Alcotest.test_case "malformed and oversized frames are typed errors"
            `Quick test_protocol_rejects_malformed_and_oversized;
        ] );
      ( "observability",
        [
          Alcotest.test_case "request ids echoed and server-assigned" `Quick
            test_request_id_echo;
          Alcotest.test_case "concurrent span trees disjoint per request"
            `Quick test_concurrent_disjoint_traces;
          Alcotest.test_case "a cached request's span tree" `Quick
            test_cached_request_span_tree;
          Alcotest.test_case "scrape endpoint serves metrics and health"
            `Quick test_scrape_endpoint;
          Alcotest.test_case "access log records every request and rotates"
            `Quick test_access_log_records_and_rotation;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "refused without a WAL" `Quick
            test_ingest_requires_wal;
          Alcotest.test_case "patches resident views byte-identically" `Quick
            test_ingest_patches_resident_views;
          Alcotest.test_case "survives a daemon restart via WAL replay" `Quick
            test_ingest_survives_restart;
          Alcotest.test_case "layout overflow flushes for cold rebuild" `Quick
            test_ingest_fallback_flushes_session;
          Alcotest.test_case "malformed fragments never reach the log" `Quick
            test_ingest_rejects_bad_fragment;
        ] );
      ( "stores",
        [
          Alcotest.test_case "random ingests and misses == cold graft"
            `Quick test_random_ingests_match_cold_graft;
          Alcotest.test_case "a resident store is loaded once" `Quick
            test_store_loaded_once_while_resident;
          Alcotest.test_case "a refused fold reloads the document" `Quick
            test_fold_refusal_reloads;
          Alcotest.test_case "absolute fact paths take ingests exactly"
            `Quick test_absolute_fact_path_ingest;
          Alcotest.test_case "a folded session admits no extra rollup"
            `Quick test_folded_session_admits_no_extra_rollup;
          Alcotest.test_case "no_cache touches no cache entry" `Quick
            test_no_cache_touches_no_entry;
        ] );
      ( "stored order",
        [
          Alcotest.test_case "cached views print from their stored order"
            `Quick test_views_print_in_stored_order;
          Alcotest.test_case "a view rebuilt after eviction == cold graft"
            `Quick test_view_rebuilt_after_eviction;
          Alcotest.test_case "an ingest re-books entries in place" `Quick
            test_ingest_recharges_in_place;
        ] );
    ]
