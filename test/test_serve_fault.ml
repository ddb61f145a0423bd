(* The daemon under hostile conditions: deterministic socket faults on
   both sides of the wire, slow and silent clients against the frame
   deadline, admission overload surfacing as typed wire errors, drained
   shutdown, and warm restart from a checksummed cache snapshot.

   The invariants are the same as test_serve's, under stress: the server
   process never dies, every failure a client sees is a typed wire error
   or a clean transport error, a successful (possibly retried) answer is
   byte-identical to a cold [Engine.run], and connection threads never
   leak. *)

module Server = X3_serve.Server
module Protocol = X3_serve.Protocol
module Net_fault = X3_serve.Net_fault
module Warm_store = X3_serve.Warm_store
module Cuboid_cache = X3_serve.Cuboid_cache
module Json = X3_obs.Json
module Engine = X3_core.Engine
module Governor = X3_core.Governor
module Export = X3_core.Export
module Compile = X3_ql.Compile

(* --- harness (same shape as test_serve's) -------------------------------- *)

type harness = {
  server : Server.t;
  thread : Thread.t;
  address : Server.address;
  sock_path : string;
}

let start_server ?(tune = fun c -> c) () =
  let sock_path = Filename.temp_file "x3fault" ".sock" in
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

let cube_req ?(no_cache = false) ?deadline_ms ?retries ~doc query =
  Protocol.Cube
    {
      query;
      doc = Some doc;
      algorithm = None;
      format = "csv";
      no_cache;
      deadline_ms;
      retries;
      request_id = None;
    }

let metric_value stats name =
  match Json.member "metrics" stats with
  | Some metrics -> (
      match Json.member name metrics with
      | Some entry -> Json.int_member "value" entry
      | None -> None)
  | None -> None

let stats_metric h name =
  match
    Server.Client.request_with_retry ~deadline:5.0 h.address Protocol.Stats
  with
  | Ok (Protocol.Stats_ok doc) -> (
      match metric_value doc name with
      | Some v -> v
      | None -> Alcotest.failf "stats document missing %s" name)
  | Ok _ | Error _ -> Alcotest.fail "STATS verb failed"

(* Connection threads must drain to zero once every client is gone — the
   no-leak gate after each hostile scenario. *)
let await_drained ?(tries = 300) h =
  let rec go n =
    if Server.live_connections h.server = 0 then ()
    else if n = 0 then
      Alcotest.failf "%d connection threads leaked"
        (Server.live_connections h.server)
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go tries

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

let bank_query =
  {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND)
return COUNT($s).|}

let with_bank ~trees f =
  let doc =
    X3_workload.Treebank.generate
      {
        X3_workload.Treebank.default with
        num_trees = trees;
        coverage = false;
        disjoint = false;
      }
  in
  write_temp_doc ~prefix:"x3bank" (X3_xml.Serialize.to_string doc) f

(* A deliberately compute-heavy shape for the drain tests: five axes
   each allowing PC-AD gives a 3^5 = 243-cuboid lattice, so the cube
   compute dwarfs the parse and cannot finish inside a forced drain's
   cancel window. *)
let wide_bank_query =
  {|for $s in doc("bank.xml")//s,
    $d1 in $s/w1/d1,
    $d2 in $s/w2/d2,
    $d3 in $s/w3/d3,
    $d4 in $s/w4/d4,
    $d5 in $s/w5/d5
X^3 $s by $d1 (LND, PC-AD), $d2 (LND, PC-AD), $d3 (LND, PC-AD), $d4 (LND, PC-AD), $d5 (LND, PC-AD)
return COUNT($s).|}

let with_wide_bank ~trees f =
  let doc =
    X3_workload.Treebank.generate
      {
        X3_workload.Treebank.default with
        num_trees = trees;
        axes = 5;
        coverage = false;
        disjoint = false;
      }
  in
  write_temp_doc ~prefix:"x3wbank" (X3_xml.Serialize.to_string doc) f

let cold_export ~doc_path ~query =
  let compiled =
    match Compile.parse_and_compile query with
    | Ok c -> c
    | Error msg -> Alcotest.failf "compile: %s" msg
  in
  let doc =
    match X3_xml.Parser.parse_file_with_dtd doc_path with
    | Ok (doc, _dtd) -> doc
    | Error e -> Alcotest.failf "parse: %a" X3_xml.Parser.pp_error e
  in
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:65536
      (X3_storage.Disk.in_memory ~page_size:8192 ())
  in
  let store = X3_xdb.Store.of_document doc in
  let prepared = Engine.prepare ~pool ~store compiled.Compile.spec in
  let result, _instr = Engine.run prepared Engine.Counter in
  Export.csv_string ~func:compiled.Compile.spec.Engine.func result

(* --- the error taxonomy is a fixed contract ------------------------------ *)

let test_error_taxonomy () =
  List.iter
    (fun (code, exit_code, retryable) ->
      Alcotest.(check int)
        (code ^ " exit code") exit_code
        (Protocol.exit_code_of_error code);
      Alcotest.(check bool)
        (code ^ " retryability") retryable
        (Protocol.retryable_error code))
    [
      ("corrupt", 2, false);
      ("io_fault", 3, true);
      ("timeout", 4, false);
      ("cancelled", 4, true);
      ("over_budget", 5, false);
      ("rejected", 5, true);
      ("input_too_large", 5, false);
      ("frame_too_large", 5, false);
      ("shutting_down", 1, true);
      ("bad_query", 1, false);
    ]

(* --- server-side socket faults ------------------------------------------- *)

(* Each plan in the sweep wounds the server's transport differently; the
   retrying client must end with the cold run's exact bytes, and the
   daemon must answer a fresh ping afterwards. *)
let test_server_fault_sweep () =
  with_figure1 @@ fun doc_path ->
  let expected = cold_export ~doc_path ~query:figure1_query in
  let plans =
    [
      ("fail first read", Net_fault.fail_nth Net_fault.Read 1);
      ("drop second read", Net_fault.drop_nth Net_fault.Read 2);
      ("fail first write", Net_fault.fail_nth Net_fault.Write 1);
      ("drop first write", Net_fault.drop_nth Net_fault.Write 1);
      ( "short reads and writes",
        Net_fault.combine
          [
            Net_fault.short_nth ~bytes:1 Net_fault.Read 1;
            Net_fault.short_nth ~bytes:2 Net_fault.Read 3;
            Net_fault.short_nth ~bytes:1 Net_fault.Write 1;
          ] );
      ( "seeded slow network",
        Net_fault.seeded_delays ~seed:7 ~rate:0.4 ~seconds:0.005
          [ Net_fault.Read; Net_fault.Write ] );
      ( "delayed third write",
        Net_fault.delay_nth Net_fault.Write 3 ~seconds:0.05 );
    ]
  in
  List.iter
    (fun (name, plan) ->
      with_server @@ fun h ->
      Server.set_fault h.server (Some plan);
      (match
         Server.Client.request_with_retry ~retries:4 ~deadline:10.0 h.address
           (cube_req ~doc:doc_path figure1_query)
       with
      | Ok (Protocol.Cube_ok { payload; _ }) ->
          Alcotest.(check string)
            (name ^ ": retried answer byte-identical")
            expected payload
      | Ok (Protocol.Failed { code; message }) ->
          Alcotest.failf "%s: typed failure survived retries: %s: %s" name
            code message
      | Ok _ -> Alcotest.failf "%s: unexpected response" name
      | Error msg ->
          Alcotest.failf "%s: transport error survived retries: %s" name msg);
      Server.set_fault h.server None;
      with_client h (fun conn ->
          match Server.Client.request ~deadline:5.0 conn Protocol.Ping with
          | Ok Protocol.Pong -> ()
          | _ -> Alcotest.failf "%s: daemon did not survive" name);
      await_drained h)
    plans

(* Crash-after-every-frame sweep: with [crash_after_writes n] the daemon's
   (n+1)th response write — and everything after it — dies mid-stream.
   Clearing the plan must reveal an unharmed daemon. *)
let test_crash_at_every_frame () =
  with_figure1 @@ fun doc_path ->
  let expected = cold_export ~doc_path ~query:figure1_query in
  List.iter
    (fun n ->
      with_server @@ fun h ->
      let plan = Net_fault.crash_after_writes n in
      Server.set_fault h.server (Some plan);
      let saw_crash = ref false in
      for _ = 0 to n do
        match
          Server.Client.request_with_retry ~retries:0 ~deadline:3.0 h.address
            (cube_req ~doc:doc_path figure1_query)
        with
        | Ok (Protocol.Cube_ok _) -> ()
        | Ok (Protocol.Failed _) | Ok _ | Error _ -> saw_crash := true
      done;
      Alcotest.(check bool)
        (Printf.sprintf "crash fired by request %d" (n + 1))
        true !saw_crash;
      Alcotest.(check bool)
        (Printf.sprintf "plan %d reports crashed" n)
        true (Net_fault.crashed plan);
      Server.set_fault h.server None;
      (match
         Server.Client.request_with_retry ~retries:4 ~deadline:10.0 h.address
           (cube_req ~doc:doc_path figure1_query)
       with
      | Ok (Protocol.Cube_ok { payload; _ }) ->
          Alcotest.(check string)
            (Printf.sprintf "byte-identical after crash at frame %d" (n + 1))
            expected payload
      | _ -> Alcotest.failf "daemon did not recover from crash at frame %d" n);
      await_drained h)
    [ 0; 1; 2; 3 ]

(* --- client-side socket faults ------------------------------------------- *)

let test_client_fault_retry () =
  with_figure1 @@ fun doc_path ->
  with_server @@ fun h ->
  let expected = cold_export ~doc_path ~query:figure1_query in
  List.iter
    (fun (name, plan) ->
      match
        Server.Client.request_with_retry ~retries:4 ~deadline:10.0
          ~fault:plan h.address
          (cube_req ~doc:doc_path figure1_query)
      with
      | Ok (Protocol.Cube_ok { payload; _ }) ->
          Alcotest.(check string)
            (name ^ ": client-side fault retried to the right bytes")
            expected payload
      | _ -> Alcotest.failf "%s: client retry failed" name)
    [
      ("client read dropped", Net_fault.drop_nth Net_fault.Read 1);
      ("client write failed", Net_fault.fail_nth Net_fault.Write 1);
      ( "client short ops",
        Net_fault.combine
          [
            Net_fault.short_nth ~bytes:1 Net_fault.Write 1;
            Net_fault.short_nth ~bytes:3 Net_fault.Read 2;
          ] );
    ];
  await_drained h

(* --- the accept loop survives transient errors --------------------------- *)

let test_accept_loop_survives_emfile () =
  with_server @@ fun h ->
  Server.set_fault h.server
    (Some (Net_fault.fail_nth ~error:Unix.EMFILE Net_fault.Accept 1));
  (* Two sequential pings: whichever connect lands on the injected EMFILE
     sits in the listen backlog through the logged backoff and is served
     on the retry — neither client may fail. *)
  for i = 1 to 2 do
    match
      Server.Client.request_with_retry ~deadline:5.0 h.address Protocol.Ping
    with
    | Ok Protocol.Pong -> ()
    | _ -> Alcotest.failf "ping %d failed across the EMFILE injection" i
  done;
  Server.set_fault h.server None;
  Alcotest.(check bool) "accept retry was counted" true
    (stats_metric h "serve.net.accept_retries" >= 1);
  await_drained h

(* --- slow-client defense -------------------------------------------------- *)

let raw_connect h =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX h.sock_path);
  fd

let peer_gone fd =
  let buf = Bytes.create 1 in
  match Unix.read fd buf 0 1 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true

let test_silent_client_is_reaped () =
  with_figure1 @@ fun doc_path ->
  with_server ~tune:(fun c -> { c with Server.io_deadline = Some 0.3 })
  @@ fun h ->
  let expected = cold_export ~doc_path ~query:figure1_query in
  (* The loris: connects and says nothing. *)
  let loris = raw_connect h in
  (* Other clients are unaffected while the loris sits there. *)
  with_client h (fun conn ->
      match
        Server.Client.request ~deadline:5.0 conn
          (cube_req ~doc:doc_path figure1_query)
      with
      | Ok (Protocol.Cube_ok { payload; _ }) ->
          Alcotest.(check string) "served fine beside the loris" expected
            payload
      | _ -> Alcotest.fail "request beside the loris failed");
  Thread.delay 0.6;
  Alcotest.(check bool) "the silent connection was reaped" true
    (peer_gone loris);
  Unix.close loris;
  Alcotest.(check bool) "the reap was counted" true
    (stats_metric h "serve.net.timeouts" >= 1);
  await_drained h

let test_drip_feed_client_is_reaped () =
  with_server ~tune:(fun c -> { c with Server.io_deadline = Some 0.4 })
  @@ fun h ->
  (* One byte every 100 ms never completes a frame: the deadline bounds
     the whole frame, not the gap between bytes, so dripping cannot hold
     a connection open forever. *)
  let fd = raw_connect h in
  let header = Bytes.of_string "\x00\x00\x00\x20" (* promises 32 bytes *) in
  ignore (Unix.write fd header 0 4 : int);
  let reaped = ref false in
  (try
     for _ = 1 to 30 do
       if not !reaped then begin
         Thread.delay 0.1;
         ignore (Unix.write fd (Bytes.of_string "x") 0 1 : int)
       end
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     reaped := true);
  Alcotest.(check bool) "the dripping connection was reaped" true
    (!reaped || peer_gone fd);
  Unix.close fd;
  await_drained h

(* --- per-request deadlines over the wire ---------------------------------- *)

let test_wire_deadline_and_recovery () =
  with_bank ~trees:400 @@ fun doc_path ->
  with_server @@ fun h ->
  with_client h @@ fun conn ->
  (* Cached path: a 1 ms budget expires while the session loads, so the
     first compute checkpoint stops with a typed timeout. *)
  (match
     Server.Client.request ~deadline:30.0 conn
       (cube_req ~deadline_ms:1 ~doc:doc_path bank_query)
   with
  | Ok (Protocol.Failed { code; _ }) ->
      Alcotest.(check string) "typed timeout" "timeout" code;
      Alcotest.(check int) "timeout maps to exit 4" 4
        (Protocol.exit_code_of_error code)
  | Ok (Protocol.Cube_ok _) -> Alcotest.fail "1 ms deadline did not fire"
  | Ok _ | Error _ -> Alcotest.fail "deadline request failed abnormally");
  (* The same long-lived session must serve the next, unbounded request
     in full — the stop state was cleared, the deadline disarmed. *)
  let expected = cold_export ~doc_path ~query:bank_query in
  (match
     Server.Client.request ~deadline:60.0 conn (cube_req ~doc:doc_path bank_query)
   with
  | Ok (Protocol.Cube_ok { payload; partial; _ }) ->
      Alcotest.(check string) "session recovered after timeout" expected
        payload;
      Alcotest.(check bool) "full answer, not partial" true (partial = None)
  | _ -> Alcotest.fail "request after timeout failed");
  (* Cold path: run_safe exports what it had as a typed partial cube. *)
  match
    Server.Client.request ~deadline:30.0 conn
      (cube_req ~no_cache:true ~deadline_ms:1 ~doc:doc_path bank_query)
  with
  | Ok (Protocol.Cube_ok { partial = Some reason; _ }) ->
      Alcotest.(check string) "partial reason" "deadline_exceeded" reason
  | Ok (Protocol.Cube_ok { partial = None; _ }) ->
      Alcotest.fail "cold 1 ms deadline produced a full answer"
  | Ok (Protocol.Failed { code; _ }) ->
      Alcotest.failf "cold deadline was %s, not a partial cube" code
  | Ok _ | Error _ -> Alcotest.fail "cold deadline request failed abnormally"

(* --- admission overload through the wire ---------------------------------- *)

(* A burst of simultaneous cold cubes: all frames land within
   milliseconds, each request holds the admission slot for at least the
   document's parse time, so overlap at the door is structural, not a
   sleep-tuned race. *)
let burst h ~doc_path n =
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            with_client h (fun conn ->
                results.(i) <-
                  Some
                    (Server.Client.request ~deadline:60.0 conn
                       (cube_req ~no_cache:true ~doc:doc_path bank_query))))
          ())
  in
  List.iter Thread.join threads;
  Array.to_list results

let test_admission_saturation_is_typed () =
  with_bank ~trees:900 @@ fun doc_path ->
  with_server ~tune:(fun c ->
      { c with Server.max_in_flight = 1; max_waiting = 0 })
  @@ fun h ->
  let outcomes = burst h ~doc_path 5 in
  let ok = ref 0 and rejected = ref 0 in
  List.iter
    (fun r ->
      match r with
      | Some (Ok (Protocol.Cube_ok _)) -> incr ok
      | Some (Ok (Protocol.Failed { code; _ })) ->
          Alcotest.(check string) "overload failure is typed" "rejected" code;
          Alcotest.(check int) "rejected maps to exit 5" 5
            (Protocol.exit_code_of_error code);
          Alcotest.(check bool) "rejected is retryable" true
            (Protocol.retryable_error code);
          incr rejected
      | Some (Ok _) | Some (Error _) | None ->
          Alcotest.fail "burst request failed without a typed response")
    outcomes;
  Alcotest.(check bool) "at least one request was served" true (!ok >= 1);
  Alcotest.(check bool) "the zero-width wait queue shed the overlap" true
    (!rejected >= 1);
  await_drained h

let test_admission_watchdog_times_out_waiters () =
  with_bank ~trees:2000 @@ fun doc_path ->
  with_server ~tune:(fun c ->
      {
        c with
        Server.max_in_flight = 1;
        max_waiting = 8;
        admission_timeout = Some 0.01;
      })
  @@ fun h ->
  (* Room to wait for everyone, but 10 ms of patience against a hold of
     at least one 2000-tree parse: waiters must be timed out by the
     watchdog with a typed rejection, never hung. *)
  let outcomes = burst h ~doc_path 5 in
  let ok = ref 0 and rejected = ref 0 in
  List.iter
    (fun r ->
      match r with
      | Some (Ok (Protocol.Cube_ok _)) -> incr ok
      | Some (Ok (Protocol.Failed { code; _ })) ->
          Alcotest.(check string) "watchdog rejection is typed" "rejected"
            code;
          incr rejected
      | Some (Ok _) | Some (Error _) | None ->
          Alcotest.fail "burst request failed without a typed response")
    outcomes;
  Alcotest.(check bool) "at least one request was served" true (!ok >= 1);
  Alcotest.(check bool) "the watchdog timed out at least one waiter" true
    (!rejected >= 1);
  await_drained h

let test_admission_is_fifo () =
  with_bank ~trees:900 @@ fun doc_path ->
  with_figure1 @@ fun small_doc ->
  with_server ~tune:(fun c ->
      { c with Server.max_in_flight = 1; max_waiting = 8 })
  @@ fun h ->
  let holder_result = ref None in
  let holder =
    Thread.create
      (fun () ->
        with_client h (fun conn ->
            holder_result :=
              Some
                (Server.Client.request ~deadline:60.0 conn
                   (cube_req ~no_cache:true ~doc:doc_path bank_query))))
      ()
  in
  Thread.delay 0.1;
  (* Three waiters join the queue in a known order while the slot is
     held; the door must release them in that order. *)
  let next_rank = Atomic.make 0 in
  let ranks = Array.make 3 (-1) in
  let waiter i =
    Thread.create
      (fun () ->
        with_client h (fun conn ->
            match
              Server.Client.request ~deadline:60.0 conn
                (cube_req ~doc:small_doc figure1_query)
            with
            | Ok (Protocol.Cube_ok _) ->
                ranks.(i) <- Atomic.fetch_and_add next_rank 1
            | _ -> ()))
      ()
  in
  let w0 = waiter 0 in
  Thread.delay 0.2;
  let w1 = waiter 1 in
  Thread.delay 0.2;
  let w2 = waiter 2 in
  List.iter Thread.join [ w0; w1; w2 ];
  Thread.join holder;
  Alcotest.(check (list int))
    "waiters completed in arrival order" [ 0; 1; 2 ]
    (Array.to_list ranks);
  (match !holder_result with
  | Some (Ok (Protocol.Cube_ok _)) -> ()
  | _ -> Alcotest.fail "the slot holder itself failed");
  await_drained h

(* --- drained shutdown ----------------------------------------------------- *)

let test_shutdown_drains_in_flight () =
  with_bank ~trees:400 @@ fun doc_path ->
  let expected = cold_export ~doc_path ~query:bank_query in
  let h = start_server () in
  let result = ref None in
  let client =
    Thread.create
      (fun () ->
        with_client h (fun conn ->
            result :=
              Some
                (Server.Client.request ~deadline:60.0 conn
                   (cube_req ~no_cache:true ~doc:doc_path bank_query))))
      ()
  in
  Thread.delay 0.2;
  (* Stop while the request is in flight: the drain must let it finish
     and deliver the full answer before the daemon exits. *)
  stop_server h;
  Thread.join client;
  (match !result with
  | Some (Ok (Protocol.Cube_ok { payload; partial; _ })) ->
      Alcotest.(check string) "drained request answered in full" expected
        payload;
      Alcotest.(check bool) "not marked partial" true (partial = None)
  | Some (Ok (Protocol.Failed { code; message })) ->
      Alcotest.failf "drained request failed: %s: %s" code message
  | _ -> Alcotest.fail "drained request got no answer");
  Alcotest.(check int) "no connections survive the drain" 0
    (Server.live_connections h.server)

let test_forced_drain_cancels_with_a_typed_answer () =
  with_wide_bank ~trees:2000 @@ fun doc_path ->
  let h =
    start_server ~tune:(fun c -> { c with Server.drain_deadline = 0.01 }) ()
  in
  let result = ref None in
  let client =
    Thread.create
      (fun () ->
        with_client h (fun conn ->
            result :=
              Some
                (Server.Client.request ~deadline:60.0 conn
                   (cube_req ~no_cache:true ~doc:doc_path wide_bank_query))))
      ()
  in
  (* Synchronize on the server's own progress instead of sleeping:
     serve.docs.loaded ticks once the request is past parse and labelling
     and about to prepare and start the 243-cuboid cube compute, which
     far outlasts the 0.01 s drain — so stopping here guarantees the
     cancel flag lands before the compute ends. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    stats_metric h "serve.docs.loaded" < 1
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.001
  done;
  let t0 = Unix.gettimeofday () in
  stop_server h;
  let elapsed = Unix.gettimeofday () -. t0 in
  Thread.join client;
  (* The 0.05 s drain cannot wait out a multi-second compute: the client
     must get a typed outcome (a cancelled partial cube, or a typed
     cancellation/shutdown error), and the daemon must exit promptly. *)
  (match !result with
  | Some (Ok (Protocol.Cube_ok { partial = Some reason; _ })) ->
      Alcotest.(check string) "partial reason is cancellation" "cancelled"
        reason
  | Some (Ok (Protocol.Failed { code; _ })) ->
      Alcotest.(check bool)
        (Printf.sprintf "typed drain outcome (%s)" code)
        true
        (code = "cancelled" || code = "shutting_down")
  | Some (Ok (Protocol.Cube_ok { partial = None; _ })) ->
      Alcotest.fail "forced drain waited out the whole compute"
  | Some (Ok _) | Some (Error _) | None ->
      Alcotest.fail "forced drain severed the client without a typed answer");
  Alcotest.(check bool)
    (Printf.sprintf "daemon exited promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

(* --- warm restart --------------------------------------------------------- *)

let corrupt_file path =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET : int);
  ignore (Unix.write fd (Bytes.make 16 '\xFF') 0 16 : int);
  Unix.close fd

let test_warm_restart_recovers_the_cache () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let expected = cold_export ~doc_path ~query:figure1_query in
      (* First life: populate the cache, then shut down gracefully. *)
      let h = start_server ~tune () in
      with_client h (fun conn ->
          match
            Server.Client.request ~deadline:30.0 conn
              (cube_req ~doc:doc_path figure1_query)
          with
          | Ok (Protocol.Cube_ok { payload; _ }) ->
              Alcotest.(check string) "first life serves correctly" expected
                payload
          | _ -> Alcotest.fail "first-life request failed");
      stop_server h;
      Alcotest.(check bool) "drained shutdown wrote the snapshot" true
        (Sys.file_exists snap);
      (* Second life: warm restart must answer byte-identically with a
         non-zero cache hit rate and no base scans. *)
      with_server ~tune (fun h2 ->
          Alcotest.(check bool) "documents were restored" true
            (stats_metric h2 "serve.cache.restored_docs" >= 1);
          Alcotest.(check bool) "views were restored" true
            (stats_metric h2 "serve.cache.restored_views" >= 1);
          with_client h2 (fun conn ->
              match
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path figure1_query)
              with
              | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                  Alcotest.(check string) "warm restart byte-identical"
                    expected payload;
                  Alcotest.(check bool) "served from the restored cache" true
                    (provenance.Protocol.p_cached > 0);
                  Alcotest.(check int) "no base scans after warm restart" 0
                    provenance.Protocol.p_base
              | _ -> Alcotest.fail "warm-restart request failed")))

(* Ingests acknowledged before the drain (patched into the resident
   session) and after it (logged behind the snapshot's back) must all be
   in the restored answer. *)
let test_warm_restart_replays_every_later_ingest () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  let wal = Filename.temp_file "x3wal" ".wal" in
  Sys.remove snap;
  Sys.remove wal;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap; wal ])
    (fun () ->
      let cube h ~no_cache =
        with_client h (fun conn ->
            match
              Server.Client.request ~deadline:30.0 conn
                (cube_req ~no_cache ~doc:doc_path figure1_query)
            with
            | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                (payload, provenance)
            | _ -> Alcotest.fail "cube request failed")
      in
      let ingest h ids =
        with_client h (fun conn ->
            List.iter
              (fun id ->
                match
                  Server.Client.request conn
                    (Protocol.Ingest
                       {
                         doc = doc_path;
                         fragment =
                           Printf.sprintf
                             {|<publication id="%d"><author id="a9"><name>John</name></author>|}
                             id
                           ^ {|<publisher id="p2"/><year>2003</year></publication>|};
                       })
                with
                | Ok (Protocol.Ingest_ok _) -> ()
                | _ -> Alcotest.fail "ingest failed")
              ids)
      in
      (* First life: warm the cache, patch two ingests into it, drain. *)
      let h =
        start_server
          ~tune:(fun c ->
            { c with Server.snapshot_path = Some snap; wal_path = Some wal })
          ()
      in
      ignore (cube h ~no_cache:false);
      ingest h [ 88; 89 ];
      stop_server h;
      (* Second life, no snapshot path: three ingests the snapshot never
         sees. *)
      let h =
        start_server ~tune:(fun c -> { c with Server.wal_path = Some wal }) ()
      in
      ingest h [ 90; 91; 92 ];
      stop_server h;
      (* Third life: restore the snapshot over the document with all five
         records grafted in. *)
      with_server
        ~tune:(fun c ->
          { c with Server.snapshot_path = Some snap; wal_path = Some wal })
        (fun h3 ->
          Alcotest.(check bool) "views were restored" true
            (stats_metric h3 "serve.cache.restored_views" >= 1);
          let restored, provenance = cube h3 ~no_cache:false in
          let reference, _ = cube h3 ~no_cache:true in
          Alcotest.(check bool) "served from the restored cache" true
            (provenance.Protocol.p_cached > 0);
          Alcotest.(check int) "no base scans after warm restart" 0
            provenance.Protocol.p_base;
          Alcotest.(check string) "restored == cold graft of every ingest"
            reference restored))

let test_corrupt_snapshot_cold_starts () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let expected = cold_export ~doc_path ~query:figure1_query in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          ignore
            (Server.Client.request ~deadline:30.0 conn
               (cube_req ~doc:doc_path figure1_query)));
      stop_server h;
      corrupt_file snap;
      (* Verify-on-load rejects the bit-flipped snapshot; the daemon must
         come up cold and still answer correctly — cache loss is never an
         error. *)
      with_server ~tune (fun h2 ->
          Alcotest.(check int) "nothing restored from a corrupt snapshot" 0
            (stats_metric h2 "serve.cache.restored_docs");
          Alcotest.(check bool) "reason counter names the corruption" true
            (stats_metric h2 "serve.cache.restore_failures.snapshot_corrupt"
            >= 1);
          with_client h2 (fun conn ->
              match
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path figure1_query)
              with
              | Ok (Protocol.Cube_ok { payload; _ }) ->
                  Alcotest.(check string) "cold start still correct" expected
                    payload
              | _ -> Alcotest.fail "cold-start request failed")))

(* A snapshot whose container verifies but whose per-document content
   cannot be restored: each failure must land in its own typed
   [serve.cache.restore_failures.<reason>] counter, cold-start that
   document, and leave the daemon serving correctly. *)
let crafted_snapshot_cold_starts ~name ~reason ~ws_query ~tune2 () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      (match
         Warm_store.save ~path:snap
           [ { Warm_store.ws_query; ws_doc_path = doc_path } ]
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "crafted snapshot save: %s" msg);
      let tune c = tune2 { c with Server.snapshot_path = Some snap } in
      with_server ~tune (fun h2 ->
          Alcotest.(check int) (name ^ ": nothing restored") 0
            (stats_metric h2 "serve.cache.restored_docs");
          Alcotest.(check int)
            (name ^ ": typed reason counter")
            1
            (stats_metric h2 ("serve.cache.restore_failures." ^ reason))))

let test_recompile_failure_cold_starts () =
  crafted_snapshot_cold_starts ~name:"recompile" ~reason:"recompile_failed"
    ~ws_query:"this is not an x3 query" ~tune2:Fun.id ()

let test_doc_load_failure_cold_starts () =
  (* The query compiles, but the restart's input cap refuses the document
     itself — the load failure gets its own reason. *)
  crafted_snapshot_cold_starts ~name:"doc load" ~reason:"doc_load_failed"
    ~ws_query:figure1_query
    ~tune2:(fun c -> { c with Server.max_input_bytes = Some 16 })
    ()

(* The snapshot's document is gone by the next life: nothing can be
   read, so the entry cold-starts as a load failure, the missing
   document is a typed error, and once the file is back the daemon
   answers it cold and correctly. *)
let test_missing_document_cold_starts () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let expected = cold_export ~doc_path ~query:figure1_query in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          ignore
            (Server.Client.request ~deadline:30.0 conn
               (cube_req ~doc:doc_path figure1_query)));
      stop_server h;
      Sys.remove doc_path;
      with_server ~tune (fun h2 ->
          Alcotest.(check int) "missing document is not restored" 0
            (stats_metric h2 "serve.cache.restored_docs");
          Alcotest.(check int) "reason counter names the load failure" 1
            (stats_metric h2 "serve.cache.restore_failures.doc_load_failed");
          with_client h2 (fun conn ->
              let cube () =
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path figure1_query)
              in
              (match cube () with
              | Ok (Protocol.Failed { code; _ }) ->
                  Alcotest.(check string) "missing document is typed"
                    "bad_document" code
              | _ -> Alcotest.fail "cube over a missing document answered");
              let oc = open_out doc_path in
              output_string oc Fixtures.figure1_source;
              close_out oc;
              match cube () with
              | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                  Alcotest.(check string) "cold answer once the file is back"
                    expected payload;
                  Alcotest.(check bool) "computed cold" true
                    (provenance.Protocol.p_base > 0)
              | _ -> Alcotest.fail "request after the file came back failed")))

(* Two more figure-1 queries, so three sessions share one document. *)
let figure1_year_query =
  {|for $b in doc("book.xml")//publication,
    $n in $b/author/name,
    $y in $b/year
X^3 $b/@id by $n (LND), $y (LND)
return COUNT($b).|}

let figure1_publisher_query =
  {|for $b in doc("book.xml")//publication,
    $p in $b//publisher/@id
X^3 $b/@id by $p (LND, PC-AD)
return COUNT($b).|}

(* [query]'s restored answer against the daemon's own no_cache
   reference: byte-identical, and served without a base scan. *)
let check_restored_answer h ~doc_path query =
  with_client h (fun conn ->
      let cube ~no_cache =
        match
          Server.Client.request ~deadline:30.0 conn
            (cube_req ~no_cache ~doc:doc_path query)
        with
        | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
            (payload, provenance)
        | _ -> Alcotest.fail "cube request failed"
      in
      let restored, provenance = cube ~no_cache:false in
      let reference, _ = cube ~no_cache:true in
      Alcotest.(check string) "restored == no_cache reference" reference
        restored;
      Alcotest.(check int) "no base scans after warm restart" 0
        provenance.Protocol.p_base)

(* [s] cut at every occurrence of [sep]. *)
let split_on_string s ~sep =
  let rec go start acc =
    match X3_xml.Str_search.find s ~start sep with
    | Some i ->
        go (i + String.length sep) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []

(* A restored session starts at its document's WAL high water: an ingest
   after the restart is patched into it once, and the ingest grafted in
   at restore is not applied again. *)
let test_restored_session_takes_later_ingests () =
  with_figure1 @@ fun doc_path ->
  let temp suffix =
    let p = Filename.temp_file "x3later" suffix in
    Sys.remove p;
    p
  in
  let snap = temp ".bin" and wal = temp ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ snap; wal ])
    (fun () ->
      let tune c =
        { c with Server.snapshot_path = Some snap; wal_path = Some wal }
      in
      let ingest conn id =
        match
          Server.Client.request conn
            (Protocol.Ingest
               {
                 doc = doc_path;
                 fragment =
                   Printf.sprintf
                     {|<publication id="%d"><author id="a9"><name>John</name></author>|}
                     id
                   ^ {|<publisher id="p2"/><year>2003</year></publication>|};
               })
        with
        | Ok (Protocol.Ingest_ok { sessions; fallbacks; _ }) ->
            (sessions, fallbacks)
        | _ -> Alcotest.fail "ingest failed"
      in
      with_server ~tune (fun h ->
          with_client h (fun conn ->
              (match
                 Server.Client.request ~deadline:30.0 conn
                   (cube_req ~doc:doc_path figure1_query)
               with
              | Ok (Protocol.Cube_ok _) -> ()
              | _ -> Alcotest.fail "first-life request failed");
              ignore (ingest conn 90 : int * int)));
      with_server ~tune (fun h ->
          Alcotest.(check int) "the session was restored" 1
            (stats_metric h "serve.cache.restored_docs");
          with_client h (fun conn ->
              Alcotest.(check (pair int int))
                "the restored session is patched, no fallback" (1, 0)
                (ingest conn 91));
          check_restored_answer h ~doc_path figure1_query))

(* A snapshot rewritten by [retire] (given the drained file's records):
   verify-on-load passes, the version does not, so the whole cache
   starts cold under the corrupt-snapshot reason and answers correctly. *)
let retired_snapshot_cold_starts ~retire =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let expected = cold_export ~doc_path ~query:figure1_query in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          ignore
            (Server.Client.request ~deadline:30.0 conn
               (cube_req ~doc:doc_path figure1_query)));
      stop_server h;
      (match X3_storage.Snapshot_store.load_file snap with
      | Ok records -> (
          match
            X3_storage.Snapshot_store.save_file snap (retire ~doc_path records)
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "rewrite snapshot: %s" msg)
      | Error msg -> Alcotest.failf "drained snapshot unreadable: %s" msg);
      with_server ~tune (fun h2 ->
          Alcotest.(check int) "nothing restored from a retired version" 0
            (stats_metric h2 "serve.cache.restored_docs");
          Alcotest.(check int) "reason counter names the snapshot" 1
            (stats_metric h2 "serve.cache.restore_failures.snapshot_corrupt");
          with_client h2 (fun conn ->
              match
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path figure1_query)
              with
              | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                  Alcotest.(check string) "cold start still correct" expected
                    payload;
                  Alcotest.(check bool) "computed cold" true
                    (provenance.Protocol.p_base > 0)
              | _ -> Alcotest.fail "cold-start request failed")))

(* The current records under the first format version's magic. *)
let test_retired_snapshot_version_cold_starts () =
  retired_snapshot_cold_starts ~retire:(fun ~doc_path:_ records ->
      "Wx3-warm/1" :: List.tl records)

(* A file in the x3-warm/2 layout, which stored views: a 'D' record
   carrying query, path, MD5 digest and WAL high water, then one view's
   'M' header and 'G' group. *)
let test_warm2_snapshot_cold_starts () =
  retired_snapshot_cold_starts ~retire:(fun ~doc_path _records ->
      let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF)) in
      let lstring s = u32 (String.length s) ^ s in
      [
        "Wx3-warm/2";
        "D" ^ lstring figure1_query ^ lstring doc_path
        ^ lstring (Digest.file doc_path)
        ^ String.make 8 '\000';
        "M" ^ u32 0 ^ u32 1;
        "G" ^ lstring "John" ^ lstring "2003" ^ lstring "p1" ^ u32 1 ^ u32 3;
      ])

(* The document changes between lives (publication 2's year 2004
   becomes 2003): restore builds the session from the new bytes, so the
   restored, cache-served answer is the cold answer over those bytes. *)
let test_changed_document_restores_from_new_bytes () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let before = cold_export ~doc_path ~query:figure1_query in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          ignore
            (Server.Client.request ~deadline:30.0 conn
               (cube_req ~doc:doc_path figure1_query)));
      stop_server h;
      let oc = open_out doc_path in
      output_string oc
        (String.concat "<year>2003</year>"
           (split_on_string Fixtures.figure1_source ~sep:"<year>2004</year>"));
      close_out oc;
      let expected = cold_export ~doc_path ~query:figure1_query in
      Alcotest.(check bool) "the change moves the answer" false
        (String.equal before expected);
      with_server ~tune (fun h2 ->
          Alcotest.(check int) "the changed document is restored" 1
            (stats_metric h2 "serve.cache.restored_docs");
          with_client h2 (fun conn ->
              match
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path figure1_query)
              with
              | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                  Alcotest.(check string) "restored from the new bytes"
                    expected payload;
                  Alcotest.(check int) "served from the restored cache" 0
                    provenance.Protocol.p_base
              | _ -> Alcotest.fail "request after document change failed")))

(* A grouping value past 65535 bytes: the drained shutdown must run to
   its end (snapshot written, socket unlinked) and the next life must
   serve the restored views. *)
let test_long_value_survives_drain_and_restore () =
  let long_name = String.make 70_000 'J' in
  let source =
    String.concat long_name
      (split_on_string Fixtures.figure1_source ~sep:"John")
  in
  write_temp_doc ~prefix:"x3long" source @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          match
            Server.Client.request ~deadline:30.0 conn
              (cube_req ~doc:doc_path figure1_query)
          with
          | Ok (Protocol.Cube_ok { payload; _ }) ->
              Alcotest.(check bool) "the long value is in the answer" true
                (X3_xml.Str_search.find payload ~start:0 long_name <> None)
          | _ -> Alcotest.fail "first-life request failed");
      stop_server h;
      Alcotest.(check bool) "drained shutdown wrote the snapshot" true
        (Sys.file_exists snap);
      Alcotest.(check bool) "drained shutdown unlinked the socket" false
        (Sys.file_exists h.sock_path);
      with_server ~tune (fun h2 ->
          Alcotest.(check bool) "views were restored" true
            (stats_metric h2 "serve.cache.restored_views" > 0);
          check_restored_answer h2 ~doc_path figure1_query))

(* A crash mid-save leaves a truncated [snap.tmp] beside the snapshot it
   was replacing. Restore reads only the snapshot, so the restart is
   warm, and the next drain overwrites the leftover and writes a snapshot
   that restores again. *)
let test_torn_tmp_beside_snapshot_restores () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  let tmp = snap ^ ".tmp" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ snap; tmp ])
    (fun () ->
      let tune c = { c with Server.snapshot_path = Some snap } in
      let cube h ~no_cache =
        with_client h (fun conn ->
            match
              Server.Client.request ~deadline:30.0 conn
                (cube_req ~no_cache ~doc:doc_path figure1_query)
            with
            | Ok (Protocol.Cube_ok { payload; provenance; _ }) ->
                (payload, provenance)
            | _ -> Alcotest.fail "cube request failed")
      in
      let restarts_warm life =
        with_server ~tune (fun h ->
            Alcotest.(check bool) (life ^ ": documents restored") true
              (stats_metric h "serve.cache.restored_docs" > 0);
            let restored, provenance = cube h ~no_cache:false in
            let reference, _ = cube h ~no_cache:true in
            Alcotest.(check bool) (life ^ ": first answer cache-served") true
              (provenance.Protocol.p_cached > 0);
            Alcotest.(check string) (life ^ ": restored == no_cache") reference
              restored)
      in
      let h = start_server ~tune () in
      ignore (cube h ~no_cache:false);
      stop_server h;
      let file = In_channel.with_open_bin snap In_channel.input_all in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc
            (String.sub file 0 (String.length file / 2)));
      (* Restart beside the torn tmp; this life's drain saves again. *)
      restarts_warm "beside a torn tmp";
      Alcotest.(check bool) "the drain replaced the torn tmp" false
        (Sys.file_exists tmp);
      restarts_warm "after the next drain")

(* Three queries over one document: restore parses the document once and
   prepares every session over the shared store. *)
let test_warm_restart_shares_one_document_load () =
  with_figure1 @@ fun doc_path ->
  let snap = Filename.temp_file "x3snap" ".bin" in
  Sys.remove snap;
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let queries =
        [ figure1_query; figure1_year_query; figure1_publisher_query ]
      in
      let tune c = { c with Server.snapshot_path = Some snap } in
      let h = start_server ~tune () in
      with_client h (fun conn ->
          List.iter
            (fun query ->
              match
                Server.Client.request ~deadline:30.0 conn
                  (cube_req ~doc:doc_path query)
              with
              | Ok (Protocol.Cube_ok _) -> ()
              | _ -> Alcotest.fail "first-life request failed")
            queries);
      stop_server h;
      with_server ~tune (fun h2 ->
          Alcotest.(check int) "every session restored" 3
            (stats_metric h2 "serve.cache.restored_docs");
          Alcotest.(check int) "the document was parsed once" 1
            (stats_metric h2 "serve.docs.loaded");
          List.iter (check_restored_answer h2 ~doc_path) queries))

(* Entries drained before and after an ingest name the same document:
   restore builds one store for both, with the ingest grafted in, and
   both sessions answer as a cold graft of every ingest. *)
let test_warm_restart_keys_loads_by_document () =
  with_figure1 @@ fun doc_path ->
  let temp suffix =
    let p = Filename.temp_file "x3keys" suffix in
    Sys.remove p;
    p
  in
  let snap0 = temp ".bin" and snap1 = temp ".bin" and snap = temp ".bin" in
  let wal = temp ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap0; snap1; snap; wal ])
    (fun () ->
      let life ?snapshot f =
        with_server
          ~tune:(fun c ->
            { c with Server.snapshot_path = snapshot; wal_path = Some wal })
          (fun h -> with_client h f)
      in
      let cube conn query =
        match
          Server.Client.request ~deadline:30.0 conn
            (cube_req ~doc:doc_path query)
        with
        | Ok (Protocol.Cube_ok _) -> ()
        | _ -> Alcotest.fail "cube request failed"
      in
      (* figure1_query drained before the ingest, figure1_year_query
         after it. *)
      life ~snapshot:snap0 (fun conn -> cube conn figure1_query);
      life (fun conn ->
          match
            Server.Client.request conn
              (Protocol.Ingest
                 {
                   doc = doc_path;
                   fragment =
                     {|<publication id="90"><author id="a9"><name>John</name></author>|}
                     ^ {|<publisher id="p2"/><year>2003</year></publication>|};
                 })
          with
          | Ok (Protocol.Ingest_ok _) -> ()
          | _ -> Alcotest.fail "ingest failed");
      life ~snapshot:snap1 (fun conn -> cube conn figure1_year_query);
      let entries path =
        match Warm_store.load ~path with
        | Ok entries -> entries
        | Error msg -> Alcotest.failf "snapshot load: %s" msg
      in
      let merged = entries snap0 @ entries snap1 in
      Alcotest.(check (list string))
        "one entry per drained session"
        [ figure1_query; figure1_year_query ]
        (List.map (fun e -> e.Warm_store.ws_query) merged);
      (match Warm_store.save ~path:snap merged with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "merged snapshot save: %s" msg);
      with_server
        ~tune:(fun c ->
          { c with Server.snapshot_path = Some snap; wal_path = Some wal })
        (fun h ->
          Alcotest.(check int) "both sessions restored" 2
            (stats_metric h "serve.cache.restored_docs");
          Alcotest.(check int) "one document load for both" 1
            (stats_metric h "serve.docs.loaded");
          List.iter
            (check_restored_answer h ~doc_path)
            [ figure1_query; figure1_year_query ]))

(* --- warm-store and cache units ------------------------------------------ *)

let test_warm_store_roundtrip_and_rejects_garbage () =
  let entries =
    [
      { Warm_store.ws_query = "q1"; ws_doc_path = "/tmp/a.xml" };
      { Warm_store.ws_query = "q2 with\nnewlines"; ws_doc_path = "" };
    ]
  in
  let encoded = Warm_store.encode entries in
  (match Warm_store.decode encoded with
  | Ok round ->
      Alcotest.(check (list (pair string string)))
        "entries round-trip in order"
        (List.map (fun e -> Warm_store.(e.ws_query, e.ws_doc_path)) entries)
        (List.map (fun e -> Warm_store.(e.ws_query, e.ws_doc_path)) round)
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg);
  let rejects what records =
    match Warm_store.decode records with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejects "bad magic" [ "not the magic" ];
  rejects "empty stream" [];
  (* Retired formats are an unsupported version, named as such. *)
  List.iter
    (fun magic ->
      match Warm_store.decode (magic :: List.tl encoded) with
      | Error msg ->
          Alcotest.(check bool) "unsupported version named" true
            (X3_xml.Str_search.find msg ~start:0 "unsupported version"
            <> None)
      | Ok _ -> Alcotest.failf "%s stream accepted" magic)
    [ "Wx3-warm/1"; "Wx3-warm/2" ];
  match encoded with
  | magic :: entry :: _ ->
      rejects "entry with trailing bytes" [ magic; entry ^ "x" ];
      rejects "truncated entry"
        [ magic; String.sub entry 0 (String.length entry - 1) ];
      rejects "view record" [ magic; entry; "M\000\000\000\000\000\000\000\000" ]
  | _ -> Alcotest.fail "encode lost its records"

let test_cache_snapshot_preserves_lru_order () =
  let account =
    Governor.open_account (Some (Governor.create ~max_bytes:4096 ()))
  in
  let cache = Cuboid_cache.create ~account () in
  ignore (Cuboid_cache.insert cache ~key:"a" ~bytes:10 1 : bool);
  ignore (Cuboid_cache.insert cache ~key:"b" ~bytes:10 2 : bool);
  ignore (Cuboid_cache.insert cache ~key:"c" ~bytes:10 3 : bool);
  ignore (Cuboid_cache.find cache "a" : int option);
  Alcotest.(check (list string))
    "snapshot is LRU-oldest first" [ "b"; "c"; "a" ]
    (List.map (fun (k, _, _) -> k) (Cuboid_cache.snapshot cache))

(* [recharge] re-books an entry in place: it keeps its recency, and only
   the entries the budget gives up are evictions — an older one, or the
   re-booked entry itself when it is the least recently used. [remove]
   is no eviction. *)
let test_cache_recharge_in_place () =
  let account =
    Governor.open_account (Some (Governor.create ~max_bytes:40 ()))
  in
  let cache = Cuboid_cache.create ~account () in
  let order () = List.map (fun (k, _, b) -> (k, b)) (Cuboid_cache.snapshot cache) in
  List.iter
    (fun k -> ignore (Cuboid_cache.insert cache ~key:k ~bytes:10 k : bool))
    [ "a"; "b"; "c" ];
  Alcotest.(check bool) "a grown entry that fits" true
    (Cuboid_cache.recharge cache ~key:"a" ~bytes:15);
  Alcotest.(check (list (pair string int)))
    "keeps its place" [ ("a", 15); ("b", 10); ("c", 10) ] (order ());
  Alcotest.(check int) "no eviction" 0 (Cuboid_cache.evictions cache);
  Alcotest.(check bool) "a grown entry that needs room" true
    (Cuboid_cache.recharge cache ~key:"c" ~bytes:25);
  Alcotest.(check (list (pair string int)))
    "the LRU entry made room" [ ("b", 10); ("c", 25) ] (order ());
  Alcotest.(check int) "one budget victim" 1 (Cuboid_cache.evictions cache);
  Alcotest.(check bool) "the LRU entry outgrowing the budget" false
    (Cuboid_cache.recharge cache ~key:"b" ~bytes:30);
  Alcotest.(check (list (pair string int)))
    "gave itself up" [ ("c", 25) ] (order ());
  Alcotest.(check int) "itself a budget victim" 2 (Cuboid_cache.evictions cache);
  Alcotest.(check int) "its bytes released" 25 (Cuboid_cache.resident_bytes cache);
  Alcotest.(check bool) "an absent key" false
    (Cuboid_cache.recharge cache ~key:"b" ~bytes:1);
  Cuboid_cache.remove cache "c";
  Alcotest.(check int) "remove is no eviction" 2 (Cuboid_cache.evictions cache);
  Alcotest.(check int) "empty" 0 (Cuboid_cache.resident_bytes cache)

let () =
  Alcotest.run "x3 serve faults"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "wire codes map to exit codes and retryability"
            `Quick test_error_taxonomy;
          Alcotest.test_case "warm store round-trips and rejects garbage"
            `Quick test_warm_store_roundtrip_and_rejects_garbage;
          Alcotest.test_case "cache snapshot preserves LRU order" `Quick
            test_cache_snapshot_preserves_lru_order;
          Alcotest.test_case "recharge re-books in place" `Quick
            test_cache_recharge_in_place;
        ] );
      ( "network-faults",
        [
          Alcotest.test_case "server-side fault sweep, retried byte-identity"
            `Quick test_server_fault_sweep;
          Alcotest.test_case "crash at every response frame" `Quick
            test_crash_at_every_frame;
          Alcotest.test_case "client-side faults retried byte-identical"
            `Quick test_client_fault_retry;
          Alcotest.test_case "accept loop survives EMFILE" `Quick
            test_accept_loop_survives_emfile;
        ] );
      ( "slow-clients",
        [
          Alcotest.test_case "silent client reaped, others unaffected" `Quick
            test_silent_client_is_reaped;
          Alcotest.test_case "drip-feed client reaped" `Quick
            test_drip_feed_client_is_reaped;
        ] );
      ( "deadlines-and-admission",
        [
          Alcotest.test_case "wire deadline: typed timeout, session recovers"
            `Quick test_wire_deadline_and_recovery;
          Alcotest.test_case "admission saturation is a typed rejection"
            `Quick test_admission_saturation_is_typed;
          Alcotest.test_case "admission watchdog times out waiters" `Quick
            test_admission_watchdog_times_out_waiters;
          Alcotest.test_case "admission releases waiters in FIFO order"
            `Quick test_admission_is_fifo;
        ] );
      ( "shutdown-and-restart",
        [
          Alcotest.test_case "shutdown drains in-flight requests" `Quick
            test_shutdown_drains_in_flight;
          Alcotest.test_case "forced drain answers with a typed cancellation"
            `Quick test_forced_drain_cancels_with_a_typed_answer;
          Alcotest.test_case "warm restart recovers the cuboid cache" `Quick
            test_warm_restart_recovers_the_cache;
          Alcotest.test_case "warm restart replays every later ingest" `Quick
            test_warm_restart_replays_every_later_ingest;
          Alcotest.test_case "corrupt snapshot cold-starts without error"
            `Quick test_corrupt_snapshot_cold_starts;
          Alcotest.test_case "a changed document restores from its new bytes"
            `Quick test_changed_document_restores_from_new_bytes;
          Alcotest.test_case "recompile failure cold-starts with its reason"
            `Quick test_recompile_failure_cold_starts;
          Alcotest.test_case "document load failure cold-starts with its reason"
            `Quick test_doc_load_failure_cold_starts;
          Alcotest.test_case "missing document cold-starts as a load failure"
            `Quick test_missing_document_cold_starts;
          Alcotest.test_case "warm restart shares one document load" `Quick
            test_warm_restart_shares_one_document_load;
          Alcotest.test_case "warm restart keys document loads by path"
            `Quick test_warm_restart_keys_loads_by_document;
          Alcotest.test_case "retired snapshot version cold-starts" `Quick
            test_retired_snapshot_version_cold_starts;
          Alcotest.test_case "an x3-warm/2 snapshot cold-starts as corrupt"
            `Quick test_warm2_snapshot_cold_starts;
          Alcotest.test_case "a restored session takes later ingests" `Quick
            test_restored_session_takes_later_ingests;
          Alcotest.test_case "70 000-byte value survives drain and restore"
            `Quick test_long_value_survives_drain_and_restore;
          Alcotest.test_case "a torn snap.tmp does not block restore" `Quick
            test_torn_tmp_beside_snapshot_restores;
        ] );
    ]
