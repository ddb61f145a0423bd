(* The fault matrix and the crash-safety properties.

   Three layers of coverage:
   - storage: every Fault error class, over both disk backends, is raised
     where expected and is genuinely transient (the same operation retried
     succeeds, no state is lost);
   - snapshot file and WAL: a saved snapshot file loads back, and every
     prefix of it and every single-byte change is refused; the WAL's
     crash-at-every-write sweep recovers a prefix of what was appended
     holding every acknowledged commit; both make their names durable;
   - engine: Engine.run_safe turns injected faults into typed outcomes —
     transient faults are absorbed by retry, corruption and exhausted
     retries fail with the right error, deadlines and cancellation produce
     Partial results in all four algorithm families. *)

open X3_storage
module Engine = X3_core.Engine
module Context = X3_core.Context
module Cube_result = X3_core.Cube_result
module Lattice = X3_lattice.Lattice

(* Track every installed fault plan so the suite can report how many
   faults were actually injected across the whole run. *)
module Fault = struct
  include Fault

  let tracked : t list ref = ref []

  let install plan disk =
    tracked := plan :: !tracked;
    install plan disk

  let total_injected () =
    List.fold_left (fun acc p -> acc + injected_faults p) 0 !tracked
end

let page_size = 256

let backend_disk = function
  | `Memory -> Disk.in_memory ~page_size ()
  | `File -> Disk.on_file ~page_size (Filename.temp_file "x3_fault" ".pages")

let backend_name = function `Memory -> "memory" | `File -> "file"

(* --- storage-level fault matrix ----------------------------------------- *)

let nrecs h =
  let n = ref 0 in
  Heap_file.iter (fun _ -> incr n) h;
  !n

let with_heap backend k =
  let disk = backend_disk backend in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let h = Heap_file.create pool in
  for i = 0 to 63 do
    Heap_file.append h (Printf.sprintf "rec-%03d" i)
  done;
  Buffer_pool.flush pool;
  Buffer_pool.drop_cache pool;
  Fun.protect ~finally:(fun () -> Disk.close disk) (fun () -> k disk pool h)

let test_matrix_read_error backend () =
  with_heap backend (fun disk _pool h ->
      Fault.install (Fault.fail_nth_read 2) disk;
      (match Heap_file.iter ignore h with
      | () -> Alcotest.fail "read fault did not fire"
      | exception Fault.Injected { cls = Fault.Read_error; _ } -> ());
      (* Transient: the nth read has passed, the rescan sees everything. *)
      Alcotest.(check int) "all records after transient read fault" 64 (nrecs h))

let test_matrix_write_error backend () =
  with_heap backend (fun disk pool h ->
      Heap_file.append h "tail-record";
      Fault.install (Fault.fail_nth_write 1) disk;
      (match Buffer_pool.flush pool with
      | () -> Alcotest.fail "write fault did not fire"
      | exception Fault.Injected { cls = Fault.Write_error; _ } -> ());
      (* The frame stayed dirty, so the retried flush writes it. *)
      Buffer_pool.flush pool;
      Buffer_pool.drop_cache pool;
      Alcotest.(check int) "record survives retried flush" 65 (nrecs h))

let test_matrix_sync_error backend () =
  with_heap backend (fun disk pool h ->
      Heap_file.append h "tail-record";
      Fault.install (Fault.fail_nth_sync 1) disk;
      (match Buffer_pool.flush pool with
      | () -> Alcotest.fail "sync fault did not fire"
      | exception Fault.Injected { cls = Fault.Sync_error; page = -1 } -> ());
      Buffer_pool.flush pool;
      Buffer_pool.drop_cache pool;
      Alcotest.(check int) "records durable after retried sync" 65 (nrecs h))

let test_matrix_enospc backend () =
  with_heap backend (fun disk pool _h ->
      Fault.install (Fault.enospc_on_allocate 1) disk;
      (match Buffer_pool.allocate pool with
      | _ -> Alcotest.fail "ENOSPC did not fire"
      | exception Fault.Injected { cls = Fault.Enospc; _ } -> ());
      ignore (Buffer_pool.allocate pool : int))

let test_matrix_short_read backend () =
  with_heap backend (fun disk _pool h ->
      Fault.install (Fault.short_read_nth 1) disk;
      (match Heap_file.iter ignore h with
      | () -> Alcotest.fail "short read did not fire"
      | exception Disk.Short_read _ -> ());
      Alcotest.(check int) "all records after short read" 64 (nrecs h))

let test_seeded_deterministic () =
  (* The same seed over the same workload injects the same faults — a
     schedule is an input, not an environment. *)
  let run seed =
    let disk = Disk.in_memory ~page_size () in
    let pool = Buffer_pool.create ~capacity_pages:2 disk in
    let h = Heap_file.create pool in
    for i = 0 to 63 do
      Heap_file.append h (Printf.sprintf "rec-%03d" i)
    done;
    Buffer_pool.flush pool;
    Buffer_pool.drop_cache pool;
    let plan = Fault.seeded ~seed ~rate:0.3 [ Fault.Read_error ] in
    Fault.install plan disk;
    for _ = 1 to 5 do
      try Heap_file.iter ignore h with Fault.Injected _ -> ()
    done;
    Fault.clear disk;
    Fault.injected_faults plan
  in
  Alcotest.(check int) "same seed, same faults" (run 7) (run 7);
  Alcotest.(check bool) "faults were injected" true (run 7 > 0)

(* --- the snapshot file ------------------------------------------------- *)

let records_a =
  List.init 21 (fun i ->
      Printf.sprintf "old-%02d-%s" i (String.make (7 * i mod 53) 'a'))

let records_b =
  List.init 17 (fun i ->
      Printf.sprintf "new-%02d-%s" i (String.make (11 * i mod 67) 'b'))

let mem_v1 () = (Disk.in_memory ~page_size (), None)

let file_v1 () =
  let path = Filename.temp_file "x3_fault" ".pages" in
  (Disk.on_file ~page_size ~temp:false path, Some path)

let with_snapshot_path f =
  let path = Filename.temp_file "x3_snap" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* Records of 0-70 000 bytes, empty ones included. A file up to 4 KiB is
   cut at every length and changed at every byte; a larger one at its
   first and last 64 bytes and at 64 positions drawn from [seed]. *)
let prop_snapshot_file =
  let gen =
    QCheck2.Gen.(
      let record =
        frequency
          [
            (1, return "");
            (6, string_size (int_bound 40));
            (1, string_size (int_bound 70_000));
          ]
      in
      pair (list_size (int_bound 8) record) int)
  in
  QCheck2.Test.make
    ~name:"round-trips; every prefix and byte change is an Error" ~count:60
    gen (fun (records, seed) ->
      with_snapshot_path (fun path ->
          (match Snapshot_store.save_file path records with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "save: %s" msg);
          if Snapshot_store.load_file path <> Ok records then
            QCheck2.Test.fail_report "saved records did not load back";
          let file = In_channel.with_open_bin path In_channel.input_all in
          let size = String.length file in
          let positions =
            if size <= 4096 then List.init size Fun.id
            else
              let st = Random.State.make [| seed |] in
              List.init 64 Fun.id
              @ List.init 64 (fun i -> size - 64 + i)
              @ List.init 64 (fun _ -> Random.State.int st size)
          in
          List.iter
            (fun cut ->
              write_file path (String.sub file 0 cut);
              match Snapshot_store.load_file path with
              | Error _ -> ()
              | Ok _ -> QCheck2.Test.fail_reportf "prefix of %d bytes loaded" cut)
            positions;
          List.iter
            (fun pos ->
              let delta = 1 + ((pos + seed) land 0xFF) mod 255 in
              write_file path
                (String.mapi
                   (fun i c ->
                     if i = pos then Char.chr (Char.code c lxor delta) else c)
                   file);
              match Snapshot_store.load_file path with
              | Error _ -> ()
              | Ok _ ->
                  QCheck2.Test.fail_reportf "byte %d changed (xor %d) loaded" pos
                    delta)
            positions;
          true))

(* A save that cannot open its tmp file fails as a value and leaves the
   previous snapshot as it was. *)
let test_save_file_tmp_unopenable () =
  with_snapshot_path (fun path ->
      (match Snapshot_store.save_file path records_a with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Unix.mkdir (path ^ ".tmp") 0o755;
      Fun.protect
        ~finally:(fun () -> Unix.rmdir (path ^ ".tmp"))
        (fun () ->
          (match Snapshot_store.save_file path records_b with
          | Ok () -> Alcotest.fail "save through a directory succeeded"
          | Error _ -> ());
          match Snapshot_store.load_file path with
          | Ok got ->
              Alcotest.(check (list string)) "previous snapshot unchanged"
                records_a got
          | Error msg -> Alcotest.failf "previous snapshot lost: %s" msg))

(* --- crash-at-every-write: the ingest WAL -------------------------------- *)

(* Two committed batches with payloads sized to span pages; the sweep
   crashes the second batch's commit at every write boundary. The log
   invariant is prefix durability: recovery yields a dense-LSN prefix of
   everything appended that contains every acknowledged commit in full —
   and if the crashed commit reported success, all of it. (A crashed
   commit's durable prefix of records is legal: the client never got its
   acknowledgement, and replay-by-LSN makes re-ingesting it idempotent.) *)
let wal_batch_a = [ "alpha"; String.make 300 'b' ]
let wal_batch_b = [ "gamma"; String.make 400 'd'; "epsilon" ]

let wal_payloads t = List.map (fun r -> r.Wal.payload) (Wal.records t)
let wal_lsns t = List.map (fun r -> r.Wal.lsn) (Wal.records t)

let append_batch wal payloads =
  List.iter (fun p -> ignore (Wal.append wal p : int)) payloads;
  Wal.commit wal

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let wal_writes_of_batch mk_disk =
  let disk, path = mk_disk () in
  let wal = Wal.open_disk disk in
  append_batch wal wal_batch_a;
  let counter = Fault.combine [] in
  Fault.install counter disk;
  append_batch wal wal_batch_b;
  Fault.clear disk;
  Disk.close disk;
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) path;
  Fault.writes_seen counter

let wal_crash_sweep mk_disk ~torn () =
  let n_writes = wal_writes_of_batch mk_disk in
  Alcotest.(check bool) "commit performs several writes" true (n_writes > 1);
  let all = wal_batch_a @ wal_batch_b in
  for crash_at = 0 to n_writes + 1 do
    let disk, path = mk_disk () in
    let wal = Wal.open_disk disk in
    append_batch wal wal_batch_a;
    Fault.install (Fault.crash_after_writes ~torn crash_at) disk;
    let committed =
      match append_batch wal wal_batch_b with
      | () -> true
      | exception Fault.Crashed -> false
    in
    Fault.clear disk;
    (* Restart: recover the surviving media image in place. *)
    let wal' = Wal.open_disk disk in
    let got = wal_payloads wal' in
    if committed && got <> all then
      Alcotest.failf "crash at write %d: acknowledged batch lost" crash_at;
    if not (is_prefix wal_batch_a got) then
      Alcotest.failf "crash at write %d: acknowledged records lost" crash_at;
    if not (is_prefix got all) then
      Alcotest.failf "crash at write %d: recovered a third state" crash_at;
    Alcotest.(check (list int))
      (Printf.sprintf "dense LSNs from 1 (crash at %d)" crash_at)
      (List.init (List.length got) (fun i -> i + 1))
      (wal_lsns wal');
    (* The cleaned log must accept appends without resurrecting any stale
       tail bytes the dead batch left behind the truncation point. *)
    ignore (Wal.append wal' "post-crash" : int);
    Wal.commit wal';
    (match Wal.rescan wal' with
    | Error msg ->
        Alcotest.failf "crash at write %d: dirty after recovery+append: %s"
          crash_at msg
    | Ok recs ->
        Alcotest.(check (list string))
          (Printf.sprintf "append after recovery (crash at %d)" crash_at)
          (got @ [ "post-crash" ])
          (List.map (fun r -> r.Wal.payload) recs));
    (* For file disks, also play a real restart: reopen the image from
       scratch with no volatile state at all. *)
    (match path with
    | None -> Disk.close disk
    | Some p ->
        Disk.close disk;
        let wal2 = Wal.open_file ~page_size p in
        Alcotest.(check (list string))
          (Printf.sprintf "reopened image agrees (crash at %d)" crash_at)
          (got @ [ "post-crash" ])
          (wal_payloads wal2);
        Alcotest.(check int)
          (Printf.sprintf "clean reopen drops nothing (crash at %d)" crash_at)
          0 (Wal.dropped_bytes wal2);
        Wal.close wal2;
        if Sys.file_exists p then Sys.remove p)
  done

let test_wal_failed_commit_retries () =
  let disk = Disk.in_memory ~page_size () in
  let wal = Wal.open_disk disk in
  append_batch wal wal_batch_a;
  ignore (Wal.append wal "retry-me" : int);
  Fault.install (Fault.fail_nth_sync 1) disk;
  (match Wal.commit wal with
  | () -> Alcotest.fail "sync fault did not fire"
  | exception Fault.Injected { cls = Fault.Sync_error; _ } -> ());
  Fault.clear disk;
  Alcotest.(check int) "durable lsn unchanged by the failed commit" 2
    (Wal.durable_lsn wal);
  (* The batch stayed pending: the retried commit rewrites the same bytes
     at the same offset and the stream stays dense. *)
  Wal.commit wal;
  Alcotest.(check int) "retried commit lands" 3 (Wal.durable_lsn wal);
  (match Wal.rescan wal with
  | Ok recs ->
      Alcotest.(check (list string))
        "stream parses densely after the retry"
        (wal_batch_a @ [ "retry-me" ])
        (List.map (fun r -> r.Wal.payload) recs)
  | Error msg -> Alcotest.fail msg);
  Disk.close disk

let test_wal_replay_idempotent () =
  let disk = Disk.in_memory ~page_size () in
  let wal = Wal.open_disk disk in
  append_batch wal wal_batch_a;
  append_batch wal wal_batch_b;
  let lsns after =
    let seen = ref [] in
    Wal.replay wal ~after (fun r -> seen := r.Wal.lsn :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list int)) "replay from zero sees everything" [ 1; 2; 3; 4; 5 ]
    (lsns 0);
  Alcotest.(check (list int)) "replay is deterministic" (lsns 2) (lsns 2);
  Alcotest.(check (list int)) "replay skips the applied prefix" [ 3; 4; 5 ]
    (lsns 2);
  Alcotest.(check (list int)) "replay past the high water reapplies nothing" []
    (lsns (Wal.durable_lsn wal));
  Disk.close disk

(* Satellite: [Snapshot_store.save_file]'s tmp+rename is only durable
   once the parent directory's entry table is on media, so the save must
   fsync the directory — and a directory-fsync failure must degrade, not
   tear: the file on disk is the old or the new snapshot, never a mix. *)
let test_save_file_syncs_directory () =
  let dir = Filename.temp_file "x3_dirsync" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "snap.pages" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp" ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    Disk.set_dir_sync_hook None
  in
  Fun.protect ~finally:cleanup (fun () ->
      let synced = ref [] in
      Disk.set_dir_sync_hook (Some (fun d -> synced := d :: !synced));
      (match Snapshot_store.save_file path records_a with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check bool) "parent directory fsynced after the rename" true
        (List.mem dir !synced);
      (* Fault matrix: the directory fsync fails after the rename. The
         caller sees a typed Error (the name may not survive a power
         cut), and whatever is on disk still verifies. *)
      Disk.set_dir_sync_hook
        (Some (fun d -> raise (Unix.Unix_error (Unix.EIO, "fsync", d))));
      (match Snapshot_store.save_file path records_b with
      | Ok () -> Alcotest.fail "dir-fsync fault did not surface"
      | Error _ -> ());
      (match Snapshot_store.load_file path with
      | Error msg -> Alcotest.failf "snapshot torn by dir-fsync fault: %s" msg
      | Ok got ->
          Alcotest.(check bool) "old or new snapshot, never a third state"
            true
            (got = records_a || got = records_b));
      (* And the retry with a healthy directory completes the save. *)
      Disk.set_dir_sync_hook None;
      (match Snapshot_store.save_file path records_b with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "retried save failed: %s" msg);
      match Snapshot_store.load_file path with
      | Ok got ->
          Alcotest.(check (list string)) "retried save read back" records_b got
      | Error msg -> Alcotest.fail msg)

(* A new log's name is as fragile as a renamed snapshot's: opening a
   missing WAL path must fsync its directory, and reopening an existing
   one need not. *)
let test_new_wal_syncs_directory () =
  let dir = Filename.temp_file "x3_waldir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "ingest.wal" in
  let synced = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Disk.set_dir_sync_hook None;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Disk.set_dir_sync_hook (Some (fun d -> synced := d :: !synced));
      Wal.close (Wal.open_file ~page_size path);
      Alcotest.(check (list string)) "new log's directory fsynced" [ dir ]
        !synced;
      synced := [];
      Wal.close (Wal.open_file ~page_size path);
      Alcotest.(check (list string)) "reopen syncs nothing" [] !synced)

(* --- engine-level degradation ------------------------------------------- *)

let make_prepared backend =
  let disk = backend_disk backend in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let spec =
    Engine.count_spec ~fact_path:Fixtures.fact_path ~axes:(Fixtures.query1_axes ())
  in
  (Engine.prepare ~pool ~store:(Fixtures.figure1_store ()) spec, disk, pool)

let test_engine_retry backend () =
  let prepared, disk, pool = make_prepared backend in
  let clean, _ = Engine.run prepared Engine.Naive in
  let expected = Cube_result.total_cells clean in
  Alcotest.(check bool) "clean run has cells" true (expected > 0);
  Buffer_pool.drop_cache pool;
  (* The figure-1 table is small enough to fit in a page or two, so fail
     the very first read — the retry's reads all come after it. *)
  let plan = Fault.fail_nth_read 1 in
  Fault.install plan disk;
  (match Engine.run_safe ~retries:2 ~backoff:0.001 prepared Engine.Naive with
  | Engine.Complete (r, _) ->
      Alcotest.(check int) "cube identical after retried fault" expected
        (Cube_result.total_cells r)
  | Engine.Partial _ -> Alcotest.fail "unexpected partial result"
  | Engine.Failed _ -> Alcotest.fail "retry should have absorbed the fault");
  Alcotest.(check bool) "the fault really fired" true
    (Fault.injected_faults plan > 0);
  Fault.clear disk;
  Disk.close disk

let test_engine_fault_exhausts_retries () =
  let prepared, disk, pool = make_prepared `Memory in
  Buffer_pool.drop_cache pool;
  Fault.install (Fault.seeded ~seed:42 ~rate:1.0 [ Fault.Read_error ]) disk;
  (match Engine.run_safe ~retries:1 ~backoff:0.001 prepared Engine.Naive with
  | Engine.Failed (Engine.Io_fault _) -> ()
  | _ -> Alcotest.fail "expected Failed Io_fault after exhausted retries");
  Fault.clear disk;
  Disk.close disk

let test_engine_backoff_clamped_to_deadline () =
  (* Regression: a huge exponential backoff must not sleep past the
     query's deadline. With a persistent transient fault, a 0.2s deadline
     and a 5s nominal backoff, run_safe must come back quickly with the
     typed deadline Partial — not oversleep seconds and report Io_fault
     long after the budget expired. *)
  let prepared, disk, pool = make_prepared `Memory in
  Buffer_pool.drop_cache pool;
  Fault.install (Fault.seeded ~seed:7 ~rate:1.0 [ Fault.Read_error ]) disk;
  let t0 = Unix.gettimeofday () in
  (match
     Engine.run_safe ~deadline:0.2 ~retries:3 ~backoff:5.0 prepared
       Engine.Naive
   with
  | Engine.Partial (Context.Deadline_exceeded, _, _) -> ()
  | Engine.Failed (Engine.Io_fault _) ->
      Alcotest.fail
        "backoff burned the deadline: expected the typed deadline Partial"
  | _ -> Alcotest.fail "expected a deadline partial under clamped backoff");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned within ~deadline (%.3fs elapsed)" elapsed)
    true (elapsed < 1.0);
  Fault.clear disk;
  Disk.close disk

let test_engine_corrupt backend () =
  let prepared, disk, pool = make_prepared backend in
  Buffer_pool.flush pool;
  (* Tear a rewrite of the witness table's first page: the stale tail no
     longer matches the header checksum, so every read is Corruption. *)
  let page = Bytes.create (Disk.page_size disk) in
  Disk.read_into disk 0 page;
  Bytes.set page (Bytes.length page - 1) '\xff';
  let plan = Fault.crash_after_writes ~torn:true 0 in
  Fault.install plan disk;
  Disk.write disk 0 page;
  Alcotest.(check bool) "the write was torn" true (Fault.crashed plan);
  Fault.clear disk;
  (* The pool's frames are clean pre-crash copies: forget them so every
     read goes to the torn media. *)
  Buffer_pool.drop_cache pool;
  (match Engine.run_safe ~retries:2 ~backoff:0.001 prepared Engine.Naive with
  | Engine.Failed (Engine.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Failed Corrupt — retries cannot fix bad bytes");
  Disk.close disk

let stop_algorithms = [ Engine.Naive; Engine.Counter; Engine.Buc; Engine.Td ]

let test_engine_deadline () =
  let prepared, disk, _ = make_prepared `Memory in
  List.iter
    (fun alg ->
      (* A deadline already in the past: the first stop check fires. *)
      match Engine.run_safe ~deadline:(-1.0) prepared alg with
      | Engine.Partial (Context.Deadline_exceeded, _, _) -> ()
      | Engine.Complete _ ->
          Alcotest.failf "%s: completed past its deadline"
            (Engine.algorithm_to_string alg)
      | _ ->
          Alcotest.failf "%s: expected deadline partial"
            (Engine.algorithm_to_string alg))
    stop_algorithms;
  Disk.close disk

let test_engine_cancel () =
  let prepared, disk, _ = make_prepared `Memory in
  List.iter
    (fun alg ->
      match Engine.run_safe ~cancel:(fun () -> true) prepared alg with
      | Engine.Partial (Context.Cancelled, _, _) -> ()
      | _ ->
          Alcotest.failf "%s: expected cancelled partial"
            (Engine.algorithm_to_string alg))
    stop_algorithms;
  Disk.close disk

let test_engine_partial_progress () =
  let prepared, disk, _ = make_prepared `Memory in
  let clean, _ = Engine.run prepared Engine.Td in
  let calls = ref 0 in
  (match
     Engine.run_safe
       ~cancel:(fun () ->
         incr calls;
         !calls > 3)
       prepared Engine.Td
   with
  | Engine.Partial (Context.Cancelled, r, _) ->
      let got = Cube_result.total_cells r in
      Alcotest.(check bool) "made progress before the stop" true (got > 0);
      Alcotest.(check bool) "strictly partial" true
        (got < Cube_result.total_cells clean)
  | _ -> Alcotest.fail "expected cancelled partial");
  Disk.close disk

(* --- suite --------------------------------------------------------------- *)

let () =
  let quick = Alcotest.test_case in
  let matrix name f =
    List.map
      (fun b -> quick (Printf.sprintf "%s (%s)" name (backend_name b)) `Quick (f b))
      [ `Memory; `File ]
  in
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  let suites =
    [
      ( "fault matrix",
        List.concat
          [
            matrix "read error is transient" test_matrix_read_error;
            matrix "write error is transient" test_matrix_write_error;
            matrix "sync error is transient" test_matrix_sync_error;
            matrix "ENOSPC on allocate" test_matrix_enospc;
            matrix "short read" test_matrix_short_read;
            [ quick "seeded schedule is deterministic" `Quick test_seeded_deterministic ];
          ] );
      ( "snapshot file format",
        qcheck [ prop_snapshot_file ]
        @ [
            quick "unopenable tmp file: Error, previous snapshot kept" `Quick
              test_save_file_tmp_unopenable;
          ] );
      ( "wal crash safety",
        [
          quick "wal commit: crash at every write (memory, dropped)" `Quick
            (wal_crash_sweep mem_v1 ~torn:false);
          quick "wal commit: crash at every write (memory, torn)" `Quick
            (wal_crash_sweep mem_v1 ~torn:true);
          quick "wal commit: crash at every write (file, dropped)" `Quick
            (wal_crash_sweep file_v1 ~torn:false);
          quick "wal commit: crash at every write (file, torn)" `Quick
            (wal_crash_sweep file_v1 ~torn:true);
          quick "failed group commit retries the same batch" `Quick
            test_wal_failed_commit_retries;
          quick "replay is idempotent by LSN" `Quick
            test_wal_replay_idempotent;
          quick "save_file fsyncs the parent directory" `Quick
            test_save_file_syncs_directory;
          quick "a new log fsyncs its directory" `Quick
            test_new_wal_syncs_directory;
        ] );
      ( "engine degradation",
        [
          quick "transient fault absorbed by retry (memory)" `Quick
            (test_engine_retry `Memory);
          quick "transient fault absorbed by retry (file)" `Quick
            (test_engine_retry `File);
          quick "persistent faults exhaust retries" `Quick
            test_engine_fault_exhausts_retries;
          quick "retry backoff clamped to the deadline" `Quick
            test_engine_backoff_clamped_to_deadline;
          quick "corruption is fatal (memory)" `Quick
            (test_engine_corrupt `Memory);
          quick "corruption is fatal (file)" `Quick (test_engine_corrupt `File);
          quick "deadline yields partial in all algorithms" `Quick
            test_engine_deadline;
          quick "cancellation yields partial in all algorithms" `Quick
            test_engine_cancel;
          quick "cancelled run keeps completed cells" `Quick
            test_engine_partial_progress;
        ] );
    ]
  in
  let total =
    List.fold_left (fun acc (_, cases) -> acc + List.length cases) 0 suites
  in
  Fun.protect
    ~finally:(fun () ->
      Printf.printf
        "fault-matrix: %d tests run, %d faults injected across %d plans\n%!"
        total
        (Fault.total_injected ())
        (List.length !Fault.tracked))
    (fun () -> Alcotest.run ~and_exit:false "x3_fault" suites)
