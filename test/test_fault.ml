(* The fault matrix and the crash-safety properties.

   Three layers of coverage:
   - storage: every Fault error class is raised where expected on a page
     disk, and an injected write or fsync error through the file seam
     fails a snapshot save as a value; either way the fault is transient
     (the same operation retried succeeds, no state is lost);
   - snapshot file and WAL: a saved snapshot file loads back, every
     prefix of it and every single-byte change is refused, and a crash at
     every step of a save leaves the old or the new one; the WAL's
     commit, torn at every byte, recovers a prefix of what was appended
     holding every acknowledged commit; a file that is not a log is
     refused untouched; both make their names durable;
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

  let install_files plan =
    tracked := plan :: !tracked;
    install_files plan

  let total_injected () =
    List.fold_left (fun acc p -> acc + injected_faults p) 0 !tracked
end

let page_size = 256

(* --- storage-level fault matrix ----------------------------------------- *)

let nrecs h =
  let n = ref 0 in
  Heap_file.iter (fun _ -> incr n) h;
  !n

let with_heap k =
  let disk = Disk.in_memory ~page_size () in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let h = Heap_file.create pool in
  for i = 0 to 63 do
    Heap_file.append h (Printf.sprintf "rec-%03d" i)
  done;
  Buffer_pool.flush pool;
  Buffer_pool.drop_cache pool;
  Fun.protect ~finally:(fun () -> Disk.close disk) (fun () -> k disk pool h)

let test_matrix_read_error () =
  with_heap (fun disk _pool h ->
      Fault.install (Fault.fail_nth_read 2) disk;
      (match Heap_file.iter ignore h with
      | () -> Alcotest.fail "read fault did not fire"
      | exception Fault.Injected { cls = Fault.Read_error; _ } -> ());
      (* Transient: the nth read has passed, the rescan sees everything. *)
      Alcotest.(check int) "all records after transient read fault" 64 (nrecs h))

let test_matrix_write_error () =
  with_heap (fun disk pool h ->
      Heap_file.append h "tail-record";
      Fault.install (Fault.fail_nth_write 1) disk;
      (match Buffer_pool.flush pool with
      | () -> Alcotest.fail "write fault did not fire"
      | exception Fault.Injected { cls = Fault.Write_error; _ } -> ());
      (* The frame stayed dirty, so the retried flush writes it. *)
      Buffer_pool.flush pool;
      Buffer_pool.drop_cache pool;
      Alcotest.(check int) "record survives retried flush" 65 (nrecs h))

let test_matrix_sync_error () =
  with_heap (fun disk pool h ->
      Heap_file.append h "tail-record";
      Fault.install (Fault.fail_nth_sync 1) disk;
      (match Buffer_pool.flush pool with
      | () -> Alcotest.fail "sync fault did not fire"
      | exception Fault.Injected { cls = Fault.Sync_error; page = -1 } -> ());
      Buffer_pool.flush pool;
      Buffer_pool.drop_cache pool;
      Alcotest.(check int) "records durable after retried sync" 65 (nrecs h))

let test_matrix_enospc () =
  with_heap (fun disk pool _h ->
      Fault.install (Fault.enospc_on_allocate 1) disk;
      (match Buffer_pool.allocate pool with
      | _ -> Alcotest.fail "ENOSPC did not fire"
      | exception Fault.Injected { cls = Fault.Enospc; _ } -> ());
      ignore (Buffer_pool.allocate pool : int))

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

(* The file rows of the fault matrix: an injected write or fsync error
   through the seam fails a snapshot save as a value and keeps the
   previous snapshot, and the retried save lands. *)
let test_matrix_file plan () =
  with_snapshot_path (fun path ->
      let load_is label want =
        match Snapshot_store.load_file path with
        | Ok got -> Alcotest.(check (list string)) label want got
        | Error msg -> Alcotest.failf "%s: %s" label msg
      in
      (match Snapshot_store.save_file path records_a with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let plan = plan 1 in
      Fault.install_files plan;
      let failed =
        Fun.protect ~finally:Fault.clear_files (fun () ->
            Snapshot_store.save_file path records_b)
      in
      Alcotest.(check bool) "the fault fired and failed the save" true
        (Fault.injected_faults plan = 1 && Result.is_error failed);
      load_is "previous snapshot kept" records_a;
      (match Snapshot_store.save_file path records_b with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "retried save failed: %s" msg);
      load_is "retried save read back" records_b)

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

(* --- the ingest WAL and the file seam ------------------------------------ *)

let wal_batch_a = [ "alpha"; String.make 300 'b' ]
let wal_batch_b = [ "gamma"; String.make 400 'd'; "epsilon" ]

let wal_payloads t = List.map (fun r -> r.Wal.payload) (Wal.records t)
let wal_lsns t = List.map (fun r -> r.Wal.lsn) (Wal.records t)

(* Each record is a 16-byte frame and its payload. *)
let record_bytes payloads =
  List.fold_left (fun acc p -> acc + 16 + String.length p) 0 payloads

let append_batch wal payloads =
  List.iter (fun p -> ignore (Wal.append wal p : int)) payloads;
  Wal.commit wal

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all
let file_size path = (Unix.stat path).Unix.st_size

(* A path no file occupies yet; removed afterwards, and the seam cleared
   whatever the test left installed on it. *)
let with_wal_path f =
  let path = Filename.temp_file "x3_wal" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Fault.clear_files ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Every seam operation [f] performs, in order. *)
let seam_events f =
  let seen = ref [] in
  File_io.set_injector
    (Some
       (fun e ->
         seen := e :: !seen;
         File_io.Proceed));
  Fun.protect ~finally:(fun () -> File_io.set_injector None) f;
  List.rev !seen

(* Crash at every operation of [events] and once past the last (no crash
   at all); a write is torn at each offset in [tears n] instead. *)
let crash_points ~tears events =
  List.concat
    (List.mapi
       (fun i e ->
         match e with
         | File_io.Write n -> List.map (fun k -> (i, Some k)) (tears n)
         | File_io.Sync | File_io.Rename | File_io.Sync_dir _ -> [ (i, None) ])
       events)
  @ [ (List.length events, None) ]

let crash_label (at, torn) =
  match torn with
  | Some k -> Printf.sprintf "op %d torn at byte %d" at k
  | None -> Printf.sprintf "crash at op %d" at

(* Batch b's commit crashes at every point: its one write is torn at every
   byte offset (offset 0 drops it, its full length leaves it unsynced),
   then the fsync is dropped. The invariant is prefix durability:
   recovery yields a dense-LSN prefix of everything appended that holds
   every acknowledged commit in full — and if the crashed commit reported
   success, all of it. (A crashed commit's durable prefix of records is
   legal: the client never got its acknowledgement, and replay-by-LSN
   makes re-ingesting it idempotent.) *)
let wal_crash_sweep () =
  let all = wal_batch_a @ wal_batch_b in
  let events =
    with_wal_path (fun path ->
        let wal = Wal.open_file path in
        append_batch wal wal_batch_a;
        let events = seam_events (fun () -> append_batch wal wal_batch_b) in
        Wal.close wal;
        events)
  in
  Alcotest.(check bool) "a commit is one write of its records, then one fsync"
    true
    (events = [ File_io.Write (record_bytes wal_batch_b); File_io.Sync ]);
  List.iter
    (fun ((at, torn) as point) ->
      let label = crash_label point in
      with_wal_path (fun path ->
          let wal = Wal.open_file path in
          append_batch wal wal_batch_a;
          Fault.install_files (Fault.crash_after ?torn at);
          let committed =
            match append_batch wal wal_batch_b with
            | () -> true
            | exception Fault.Crashed -> false
          in
          Fault.clear_files ();
          Wal.close wal;
          (* Restart: recover the surviving file with no volatile state. *)
          let wal' = Wal.open_file path in
          let got = wal_payloads wal' in
          if committed && got <> all then
            Alcotest.failf "%s: acknowledged batch lost" label;
          if not (is_prefix wal_batch_a got) then
            Alcotest.failf "%s: acknowledged records lost" label;
          if not (is_prefix got all) then
            Alcotest.failf "%s: recovered a third state" label;
          Alcotest.(check (list int))
            (Printf.sprintf "dense LSNs from 1 (%s)" label)
            (List.init (List.length got) (fun i -> i + 1))
            (wal_lsns wal');
          (* The truncated log must accept appends without resurrecting
             any stale bytes the dead batch left past the cut. *)
          append_batch wal' [ "post-crash" ];
          (match Wal.rescan wal' with
          | Error msg ->
              Alcotest.failf "%s: dirty after recovery+append: %s" label msg
          | Ok recs ->
              Alcotest.(check (list string))
                (Printf.sprintf "append after recovery (%s)" label)
                (got @ [ "post-crash" ])
                (List.map (fun r -> r.Wal.payload) recs));
          Wal.close wal';
          let wal2 = Wal.open_file path in
          Alcotest.(check (list string))
            (Printf.sprintf "reopened log agrees (%s)" label)
            (got @ [ "post-crash" ])
            (wal_payloads wal2);
          Alcotest.(check int)
            (Printf.sprintf "clean reopen drops nothing (%s)" label)
            0 (Wal.dropped_bytes wal2);
          Wal.close wal2))
    (crash_points ~tears:(fun n -> List.init (n + 1) Fun.id) events)

(* No padding and no page headers: the file is its header and the bytes
   of every committed record. *)
let test_wal_file_size () =
  with_wal_path (fun path ->
      let wal = Wal.open_file path in
      let header = file_size path in
      Alcotest.(check bool) "a short header" true (header > 0 && header <= 16);
      let batches = [ wal_batch_a; wal_batch_b; [ "x" ]; wal_batch_a ] in
      List.iter (append_batch wal) batches;
      Wal.close wal;
      Alcotest.(check int) "header plus every record"
        (header + record_bytes (List.concat batches))
        (file_size path))

let test_wal_failed_commit_retries () =
  with_wal_path (fun path ->
      let wal = Wal.open_file path in
      append_batch wal wal_batch_a;
      ignore (Wal.append wal "retry-me" : int);
      Fault.install_files (Fault.fail_nth_sync 1);
      (match Wal.commit wal with
      | () -> Alcotest.fail "sync fault did not fire"
      | exception Fault.Injected { cls = Fault.Sync_error; _ } -> ());
      Fault.clear_files ();
      Alcotest.(check int) "durable lsn unchanged by the failed commit" 2
        (Wal.durable_lsn wal);
      (* The batch stayed pending: the retried commit rewrites the same
         bytes at the same offset and the log stays dense. *)
      Wal.commit wal;
      Alcotest.(check int) "retried commit lands" 3 (Wal.durable_lsn wal);
      (match Wal.rescan wal with
      | Ok recs ->
          Alcotest.(check (list string))
            "log parses densely after the retry"
            (wal_batch_a @ [ "retry-me" ])
            (List.map (fun r -> r.Wal.payload) recs)
      | Error msg -> Alcotest.fail msg);
      Wal.close wal)

let test_wal_replay_idempotent () =
  with_wal_path (fun path ->
      let wal = Wal.open_file path in
      append_batch wal wal_batch_a;
      append_batch wal wal_batch_b;
      let lsns after =
        let seen = ref [] in
        Wal.replay wal ~after (fun r -> seen := r.Wal.lsn :: !seen);
        List.rev !seen
      in
      Alcotest.(check (list int)) "replay from zero sees everything"
        [ 1; 2; 3; 4; 5 ] (lsns 0);
      Alcotest.(check (list int)) "replay is deterministic" (lsns 2) (lsns 2);
      Alcotest.(check (list int)) "replay skips the applied prefix" [ 3; 4; 5 ]
        (lsns 2);
      Alcotest.(check (list int))
        "replay past the high water reapplies nothing" []
        (lsns (Wal.durable_lsn wal));
      Wal.close wal)

(* A file the log cannot read is refused, not zeroed: a wrong [--wal]
   path or a damaged header must not cost the acknowledged ingests. *)
let refuses_unchanged path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  (match Wal.open_file path with
  | wal ->
      Wal.close wal;
      Alcotest.fail "opened a file that is not a log"
  | exception Wal.Not_a_log _ -> ());
  Alcotest.(check bool) "file left byte-identical" true
    (read_file path = contents)

let test_wal_refuses_text_file () =
  with_wal_path (fun path ->
      refuses_unchanged path
        (String.concat "\n"
           (List.init 100 (fun i ->
                Printf.sprintf "line %03d of a text file, not a log" i))))

(* One 8 KiB page of the paged log this format replaces: a 16-byte page
   header (magic "X3PG", version 1, flags, page LSN, CRC-32 over the
   header's first 12 bytes and the payload), then one record, then zero
   padding. *)
let paged_log_image payload =
  let record = Bytes.make (16 + String.length payload) '\000' in
  Bytes.set_int32_le record 0 (Int32.of_int (String.length payload));
  Bytes.set_int64_le record 4 1L;
  Bytes.blit_string payload 0 record 16 (String.length payload);
  let record_crc =
    Crc32.update
      (Crc32.digest record ~pos:4 ~len:8)
      record ~pos:16 ~len:(String.length payload)
  in
  Bytes.set_int32_le record 12 (Int32.of_int record_crc);
  let page = Bytes.make (16 + 8192) '\000' in
  Bytes.blit_string "X3PG" 0 page 0 4;
  Bytes.set_uint16_le page 4 1;
  Bytes.set_int32_le page 8 1l;
  Bytes.blit record 0 page 16 (Bytes.length record);
  let crc =
    Crc32.update (Crc32.digest page ~pos:0 ~len:12) page ~pos:16 ~len:8192
  in
  Bytes.set_int32_le page 12 (Int32.of_int crc);
  Bytes.to_string page

let test_wal_refuses_paged_log () =
  with_wal_path (fun path -> refuses_unchanged path (paged_log_image "alpha"))

(* Only a file shorter than the header whose bytes are a prefix of it —
   a log whose creation crashed — is started afresh. *)
let test_wal_reinitialises_torn_header () =
  with_wal_path (fun path ->
      Wal.close (Wal.open_file path);
      let header = read_file path in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub header 0 3));
      let wal = Wal.open_file path in
      Alcotest.(check int) "no records" 0 (Wal.record_count wal);
      append_batch wal [ "alpha" ];
      Wal.close wal;
      Alcotest.(check int) "a whole header and the record"
        (String.length header + record_bytes [ "alpha" ])
        (file_size path);
      Out_channel.with_open_bin path (fun oc -> output_string oc "X4");
      match Wal.open_file path with
      | wal ->
          Wal.close wal;
          Alcotest.fail "opened a short file that is not a header prefix"
      | exception Wal.Not_a_log _ -> ())

(* [Snapshot_store.save_file] through the seam: one write, an fsync, the
   rename and the directory fsync. A crash at each of them, or a tear of
   the write, leaves the old snapshot or the new one, never an error or a
   third state; and the save retried after the restart lands. *)
let test_save_file_crash_sweep () =
  with_snapshot_path (fun path ->
      let save records =
        match Snapshot_store.save_file path records with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "save: %s" msg
      in
      save records_a;
      let events = seam_events (fun () -> save records_b) in
      (match events with
      | [ File_io.Write _; File_io.Sync; File_io.Rename; File_io.Sync_dir _ ]
        ->
          ()
      | _ -> Alcotest.fail "a save is one write, fsync, rename, dir fsync");
      List.iter
        (fun ((at, torn) as point) ->
          let label = crash_label point in
          save records_a;
          Fault.install_files (Fault.crash_after ?torn at);
          let result =
            Fun.protect ~finally:Fault.clear_files (fun () ->
                Snapshot_store.save_file path records_b)
          in
          (match Snapshot_store.load_file path with
          | Ok got when got = records_a || (got = records_b && at > 2 (* renamed *))
            ->
              ()
          | Ok _ -> Alcotest.failf "%s: a third state loaded" label
          | Error msg -> Alcotest.failf "%s: snapshot lost: %s" label msg);
          if result = Ok () && Snapshot_store.load_file path <> Ok records_b
          then Alcotest.failf "%s: an acknowledged save did not land" label;
          save records_b;
          Alcotest.(check bool)
            (Printf.sprintf "retried save lands (%s)" label)
            true
            (Snapshot_store.load_file path = Ok records_b))
        (crash_points ~tears:(fun n -> [ 0; 1; 20; n / 2; n - 1; n ]) events))

(* Satellite: [Snapshot_store.save_file]'s tmp+rename is only durable
   once the parent directory's entry table is on media, so the save must
   fsync the directory — and a directory-fsync failure must degrade, not
   tear: the file on disk is the old or the new snapshot, never a mix. *)
let test_save_file_syncs_directory () =
  let dir = Filename.temp_file "x3_dirsync" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "snap.bin" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp" ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    Fault.clear_files ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let events =
        seam_events (fun () ->
            match Snapshot_store.save_file path records_a with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
      in
      Alcotest.(check bool) "parent directory fsynced after the rename" true
        (List.mem (File_io.Sync_dir dir) events);
      (* Fault matrix: the directory fsync — the save's second — fails
         after the rename. The caller sees a typed Error (the name may not
         survive a power cut), and whatever is on disk still verifies. *)
      Fault.install_files (Fault.fail_nth_sync 2);
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
      Fault.clear_files ();
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
  let dir_syncs f =
    List.filter_map
      (function File_io.Sync_dir d -> Some d | _ -> None)
      (seam_events f)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check (list string)) "new log's directory fsynced" [ dir ]
        (dir_syncs (fun () -> Wal.close (Wal.open_file path)));
      Alcotest.(check (list string)) "reopen syncs nothing" []
        (dir_syncs (fun () -> Wal.close (Wal.open_file path))))

(* --- engine-level degradation ------------------------------------------- *)

let make_prepared () =
  let disk = Disk.in_memory ~page_size () in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let spec =
    Engine.count_spec ~fact_path:Fixtures.fact_path ~axes:(Fixtures.query1_axes ())
  in
  (Engine.prepare ~pool ~store:(Fixtures.figure1_store ()) spec, disk, pool)

let test_engine_retry () =
  let prepared, disk, pool = make_prepared () in
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
  let prepared, disk, pool = make_prepared () in
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
  let prepared, disk, pool = make_prepared () in
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

let test_engine_corrupt () =
  let prepared, disk, pool = make_prepared () in
  Buffer_pool.flush pool;
  (* Tear a rewrite of the witness table's first page: the stale tail no
     longer matches the header checksum, so every read is Corruption. *)
  let page = Bytes.create (Disk.page_size disk) in
  Disk.read_into disk 0 page;
  Bytes.set page (Bytes.length page - 1) '\xff';
  let plan = Fault.crash_after ~torn:(Disk.physical_page_size disk / 2) 0 in
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
  let prepared, disk, _ = make_prepared () in
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
  let prepared, disk, _ = make_prepared () in
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
  let prepared, disk, _ = make_prepared () in
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
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  let suites =
    [
      ( "fault matrix",
        [
          quick "read error is transient (memory)" `Quick test_matrix_read_error;
          quick "write error is transient (memory)" `Quick
            test_matrix_write_error;
          quick "write error is transient (file)" `Quick
            (test_matrix_file Fault.fail_nth_write);
          quick "sync error is transient (memory)" `Quick test_matrix_sync_error;
          quick "sync error is transient (file)" `Quick
            (test_matrix_file Fault.fail_nth_sync);
          quick "ENOSPC on allocate (memory)" `Quick test_matrix_enospc;
          quick "seeded schedule is deterministic" `Quick
            test_seeded_deterministic;
        ] );
      ( "snapshot file format",
        qcheck [ prop_snapshot_file ]
        @ [
            quick "unopenable tmp file: Error, previous snapshot kept" `Quick
              test_save_file_tmp_unopenable;
            quick "save_file: crash at every step, old or new snapshot"
              `Quick test_save_file_crash_sweep;
          ] );
      ( "wal crash safety",
        [
          quick "wal commit: crash at every write, torn at every byte" `Quick
            wal_crash_sweep;
          quick "failed group commit retries the same batch" `Quick
            test_wal_failed_commit_retries;
          quick "replay is idempotent by LSN" `Quick
            test_wal_replay_idempotent;
          quick "save_file fsyncs the parent directory" `Quick
            test_save_file_syncs_directory;
          quick "a new log fsyncs its directory" `Quick
            test_new_wal_syncs_directory;
          quick "a log file is its header and its records" `Quick
            test_wal_file_size;
          quick "a text file is refused and left unchanged" `Quick
            test_wal_refuses_text_file;
          quick "a paged log is refused and left unchanged" `Quick
            test_wal_refuses_paged_log;
          quick "a torn header is started afresh" `Quick
            test_wal_reinitialises_torn_header;
        ] );
      ( "engine degradation",
        [
          quick "transient fault absorbed by retry (memory)" `Quick
            test_engine_retry;
          quick "persistent faults exhaust retries" `Quick
            test_engine_fault_exhausts_retries;
          quick "retry backoff clamped to the deadline" `Quick
            test_engine_backoff_clamped_to_deadline;
          quick "corruption is fatal (memory)" `Quick test_engine_corrupt;
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
