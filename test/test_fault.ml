(* The fault matrix and the crash-safety properties of PR 3.

   Three layers of coverage:
   - storage: every Fault error class, over both disk backends, is raised
     where expected and is genuinely transient (the same operation retried
     succeeds, no state is lost);
   - snapshot store: the crash-at-every-write sweep — crash a commit at each
     successive write boundary (dropped and torn variants, memory/file/V0
     backends), recover, and the store is either the old or the new
     committed snapshot, never a third thing;
   - engine: Engine.run_safe turns injected faults into typed outcomes —
     transient faults are absorbed by retry, corruption and exhausted
     retries fail with the right error, deadlines and cancellation produce
     Partial results in all four algorithm families, across worker counts. *)

open X3_storage
module Engine = X3_core.Engine
module Context = X3_core.Context
module Cube_result = X3_core.Cube_result
module Warm_store = X3_serve.Warm_store
module Witness = X3_pattern.Witness
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

let nrecs h = Heap_file.fold (fun acc _ -> acc + 1) 0 h

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
      let id = Buffer_pool.allocate pool in
      Buffer_pool.free_page pool id)

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

(* --- crash-at-every-write: the snapshot store --------------------------- *)

let records_a =
  List.init 21 (fun i ->
      Printf.sprintf "old-%02d-%s" i (String.make (7 * i mod 53) 'a'))

let records_b =
  List.init 17 (fun i ->
      Printf.sprintf "new-%02d-%s" i (String.make (11 * i mod 67) 'b'))

(* How many writes the B-commit performs after an A-commit: the sweep
   enumerates crash points over exactly this window. *)
let writes_of_commit mk_disk =
  let disk, path = mk_disk () in
  let pool = Buffer_pool.create ~capacity_pages:4 disk in
  let store = Snapshot_store.create pool in
  Snapshot_store.commit store records_a;
  let counter = Fault.combine [] in
  Fault.install counter disk;
  Snapshot_store.commit store records_b;
  Fault.clear disk;
  Disk.close disk;
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) path;
  Fault.writes_seen counter

let crash_sweep mk_disk ~torn () =
  let n_writes = writes_of_commit mk_disk in
  Alcotest.(check bool) "commit performs several writes" true (n_writes > 2);
  for crash_at = 0 to n_writes + 1 do
    let disk, path = mk_disk () in
    let pool = Buffer_pool.create ~capacity_pages:4 disk in
    let store = Snapshot_store.create pool in
    Snapshot_store.commit store records_a;
    Fault.install (Fault.crash_after_writes ~torn crash_at) disk;
    let committed =
      match Snapshot_store.commit store records_b with
      | () -> true
      | exception Fault.Crashed -> false
    in
    Fault.clear disk;
    (* The invariant: recovery yields the old or the new snapshot, never a
       third thing. A commit that returned must have committed; a commit
       that crashed may still have reached durability (e.g. a torn slot
       write whose missing tail was already zero), so either answer is
       legal there. *)
    let got =
      match Snapshot_store.recover pool with
      | Error msg ->
          Alcotest.failf "crash at write %d: unrecoverable: %s" crash_at msg
      | Ok recovered ->
          let got = Snapshot_store.read recovered in
          if committed && got <> records_b then
            Alcotest.failf "crash at write %d: completed commit lost" crash_at;
          if got <> records_a && got <> records_b then
            Alcotest.failf "crash at write %d: recovered a third state" crash_at;
          Alcotest.(check (result unit string))
            (Printf.sprintf "recovered store verifies (crash at %d)" crash_at)
            (Ok ())
            (Snapshot_store.verify recovered);
          got
    in
    (* For file disks, also play a real restart: reopen the media image
       from scratch and recover with no volatile state at all. Both
       recovery paths must pick the same winner. *)
    (match path with
    | None -> ()
    | Some p ->
        let disk2 = Disk.reopen ~page_size ~format:(Disk.format disk) p in
        let pool2 = Buffer_pool.create ~capacity_pages:4 disk2 in
        (match Snapshot_store.recover pool2 with
        | Error msg ->
            Alcotest.failf "reopened image at write %d: %s" crash_at msg
        | Ok recovered ->
            Alcotest.(check (list string))
              (Printf.sprintf "reopened image agrees (crash at %d)" crash_at)
              got
              (Snapshot_store.read recovered));
        Disk.close disk2);
    Disk.close disk;
    Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) path
  done

let mem_v1 () = (Disk.in_memory ~page_size (), None)
let mem_v0 () = (Disk.in_memory ~page_size ~format:Disk.V0 (), None)

let file_v1 () =
  let path = Filename.temp_file "x3_fault" ".pages" in
  (Disk.on_file ~page_size ~temp:false path, Some path)

let test_commit_enospc_is_transient () =
  let disk = Disk.in_memory ~page_size () in
  let pool = Buffer_pool.create ~capacity_pages:4 disk in
  let store = Snapshot_store.create pool in
  Snapshot_store.commit store records_a;
  let live = Disk.live_page_count disk in
  (* Fail the second allocation: the first chain page must be given back. *)
  Fault.install (Fault.enospc_on_allocate 2) disk;
  (match Snapshot_store.commit store records_b with
  | () -> Alcotest.fail "expected ENOSPC"
  | exception Fault.Injected { cls = Fault.Enospc; _ } -> ());
  Alcotest.(check (list string))
    "committed state unchanged by the failed commit" records_a
    (Snapshot_store.read store);
  Alcotest.(check int) "no page leaked by the failed commit" live
    (Disk.live_page_count disk);
  Snapshot_store.commit store records_b;
  Alcotest.(check (list string)) "retry commits" records_b
    (Snapshot_store.read store);
  Disk.close disk

(* Random snapshots, random crash point, random tearing: the atomicity
   invariant holds for every schedule, not just the deterministic sweep. *)
let prop_crash_atomicity =
  let gen =
    QCheck2.Gen.(
      let record =
        map
          (fun (c, n) -> String.make (n + 1) c)
          (pair (char_range 'a' 'z') (int_bound 80))
      in
      quad
        (list_size (int_range 1 25) record)
        (list_size (int_range 1 25) record)
        (int_bound 40) bool)
  in
  QCheck2.Test.make ~name:"crashed commit recovers to old or new snapshot"
    ~count:60 gen (fun (old_snap, new_snap, crash_at, torn) ->
      let disk = Disk.in_memory ~page_size () in
      let pool = Buffer_pool.create ~capacity_pages:4 disk in
      let store = Snapshot_store.create pool in
      Snapshot_store.commit store old_snap;
      Fault.install (Fault.crash_after_writes ~torn crash_at) disk;
      let committed =
        match Snapshot_store.commit store new_snap with
        | () -> true
        | exception Fault.Crashed -> false
      in
      Fault.clear disk;
      match Snapshot_store.recover pool with
      | Error _ -> false
      | Ok recovered ->
          let got = Snapshot_store.read recovered in
          if committed then got = new_snap
          else got = old_snap || got = new_snap)

(* --- the cube workload: witness save, then warm-restart index save ------ *)

let fresh_store () =
  let disk = Disk.in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~capacity_pages:8 disk in
  (disk, pool, Snapshot_store.create pool)

let test_witness_snapshot_roundtrip () =
  let table = Fixtures.query1_table () in
  let disk, _, store = fresh_store () in
  Witness.save table store;
  (match Witness.load store (Fixtures.small_pool ()) ~axes:(Witness.axes table) with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
      Alcotest.(check int) "rows" (Witness.row_count table)
        (Witness.row_count loaded);
      Alcotest.(check int) "facts" (Witness.fact_count table)
        (Witness.fact_count loaded);
      let show t =
        List.map (Format.asprintf "%a" Witness.pp_row) (Witness.to_list t)
      in
      Alcotest.(check (list string)) "rows identical" (show table) (show loaded);
      Array.iteri
        (fun ai d ->
          Witness.Dict.iter
            (fun id v ->
              Alcotest.(check string)
                (Printf.sprintf "dict %d id %d" ai id)
                v
                (Witness.Dict.value (Witness.dict loaded ai) id))
            d)
        (Witness.dicts table));
  Disk.close disk

(* --- row-group snapshot records ------------------------------------------ *)

(* A saved table is its header, one 'D' record per dictionary value, and
   its heap's row-group 'G' records unchanged. The properties: a torn
   page is a typed error and recovery falls back to the previous epoch;
   malformed records are rejected by the loader's own validation, as are
   the retired 'R' row records; and a crash at any write boundary of the
   save leaves one of the two tables, never a torn mix. *)

let is_tag t r = String.length r > 0 && r.[0] = t

(* A committed table's records, split by tag, for snapshots assembled by
   hand below. *)
let saved_records table =
  let disk, _, store = fresh_store () in
  Witness.save table store;
  let records = Snapshot_store.read store in
  Disk.close disk;
  (List.hd records,
   List.filter (is_tag 'G') records,
   List.filter (is_tag 'D') records)

(* A row in the retired 'R' layout: fact 0 (u32), one cell, its tag byte
   1 and the varint of id + 1 = 1. *)
let retired_row_record = "R\000\000\000\000\001\001\001"

let test_columnar_torn_column_page () =
  let table = Fixtures.query1_table () in
  let disk, pool, store = fresh_store () in
  Witness.save table store;
  (* Pages 0-1 are the header slots; the committed chain starts at page 2.
     Tear a rewrite of a chain page so it fails checksum verification. *)
  Fault.install (Fault.crash_after_writes ~torn:true 0) disk;
  Buffer_pool.with_page_mut pool 2 (fun b -> Bytes.set b 8 '\xff');
  (match Buffer_pool.flush pool with
  | () -> Alcotest.fail "torn write did not crash"
  | exception Fault.Crashed -> ());
  Fault.clear disk;
  Buffer_pool.invalidate pool;
  (match Snapshot_store.verify store with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "torn column page passed verification");
  (match Snapshot_store.recover pool with
  | Error msg -> Alcotest.failf "recovery must fall back, not fail: %s" msg
  | Ok store' ->
      Alcotest.(check int) "fell back to the pre-save epoch" 0
        (Snapshot_store.committed_epoch store');
      (match
         Witness.load store' (Fixtures.small_pool ())
           ~axes:(Witness.axes table)
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty fallback snapshot loaded as a table"));
  Disk.close disk

let test_columnar_chunk_rejected () =
  let table = Fixtures.query1_table () in
  let header, groups, dicts = saved_records table in
  let g0 = List.hd groups in
  let attempt name records =
    let disk, _, store = fresh_store () in
    Snapshot_store.commit store records;
    (match Witness.load store (Fixtures.small_pool ()) ~axes:(Witness.axes table) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed snapshot loaded" name);
    Disk.close disk
  in
  attempt "truncated row group" ((header :: dicts) @ [ String.sub g0 0 6 ]);
  attempt "unknown record tag" ((header :: "Zjunk" :: dicts) @ groups);
  attempt "missing row groups" (header :: dicts);
  attempt "row group out of order" ((header :: dicts) @ (g0 :: groups));
  attempt "row groups before their values" ((header :: groups) @ dicts);
  attempt "retired row records" ((header :: dicts) @ [ retired_row_record ]);
  attempt "row record among row groups"
    ((header :: dicts) @ groups @ [ retired_row_record ])

(* Crash the witness save at every write boundary: recovery
   yields either the first table or the second, both loadable. *)
let test_witness_save_crash_sweep () =
  let table = Fixtures.query1_table () in
  let small =
    X3_pattern.Eval.build_table (Fixtures.small_pool ())
      (Fixtures.figure1_store ()) ~fact_path:Fixtures.fact_path
      ~axes:[| Fixtures.axis_y () |]
  in
  let n_writes =
    let disk, _, store = fresh_store () in
    Witness.save small store;
    let counter = Fault.combine [] in
    Fault.install counter disk;
    Witness.save table store;
    Fault.clear disk;
    Disk.close disk;
    Fault.writes_seen counter
  in
  Alcotest.(check bool) "save performs writes" true (n_writes > 0);
  for crash_at = 0 to n_writes + 1 do
    let disk, pool, store = fresh_store () in
    Witness.save small store;
    Fault.install
      (Fault.crash_after_writes ~torn:(crash_at mod 2 = 1) crash_at)
      disk;
    let committed =
      match Witness.save table store with
      | () -> true
      | exception Fault.Crashed -> false
    in
    Fault.clear disk;
    (match Snapshot_store.recover pool with
    | Error msg -> Alcotest.failf "crash at write %d: %s" crash_at msg
    | Ok store' -> (
        let epoch = Snapshot_store.committed_epoch store' in
        if committed && epoch <> 2 then
          Alcotest.failf "crash at write %d: completed save lost" crash_at;
        let expected =
          match epoch with
          | 2 -> table
          | 1 -> small
          | e ->
              Alcotest.failf "crash at write %d: unexpected epoch %d" crash_at
                e
        in
        match
          Witness.load store' (Fixtures.small_pool ())
            ~axes:(Witness.axes expected)
        with
        | Error msg -> Alcotest.failf "load after crash %d: %s" crash_at msg
        | Ok loaded ->
            Alcotest.(check int)
              (Printf.sprintf "rows after crash %d" crash_at)
              (Witness.row_count expected)
              (Witness.row_count loaded)));
    Disk.close disk
  done

(* Crash the commit of a warm-restart index (the serve daemon's
   snapshot record stream) at every write boundary: recovery yields
   either the witness snapshot (epoch 1, loadable as a table) or the
   whole index (epoch 2, decoding to every entry) — never a torn mix. *)
let test_workload_crash_sweep () =
  let table = Fixtures.query1_table () in
  let entries =
    List.init 40 (fun i ->
        {
          Warm_store.ws_query = Printf.sprintf "query %d %s" i (String.make 100 'q');
          ws_doc_path = Printf.sprintf "/data/doc%d.xml" (i mod 3);
        })
  in
  let records = Warm_store.encode entries in
  let n_writes =
    let disk, _, store = fresh_store () in
    Witness.save table store;
    let counter = Fault.combine [] in
    Fault.install counter disk;
    Snapshot_store.commit store records;
    Fault.clear disk;
    Disk.close disk;
    Fault.writes_seen counter
  in
  Alcotest.(check bool) "index commit performs writes" true (n_writes > 0);
  for crash_at = 0 to n_writes + 1 do
    let disk, pool, store = fresh_store () in
    Witness.save table store;
    Fault.install (Fault.crash_after_writes ~torn:(crash_at mod 2 = 1) crash_at) disk;
    let committed =
      match Snapshot_store.commit store records with
      | () -> true
      | exception Fault.Crashed -> false
    in
    Fault.clear disk;
    (match Snapshot_store.recover pool with
    | Error msg -> Alcotest.failf "crash at write %d: %s" crash_at msg
    | Ok store' -> (
        let epoch = Snapshot_store.committed_epoch store' in
        if committed && epoch <> 2 then
          Alcotest.failf "crash at write %d: completed index commit lost" crash_at;
        match epoch with
        | 2 -> (
            (* The index won: it must decode to every entry. *)
            match Warm_store.decode (Snapshot_store.read store') with
            | Error msg -> Alcotest.failf "index after crash %d: %s" crash_at msg
            | Ok entries' ->
                Alcotest.(check bool) "index entries" true (entries' = entries))
        | 1 -> (
            (* Rolled back to the witness snapshot: a complete table. *)
            match
              Witness.load store' (Fixtures.small_pool ()) ~axes:(Witness.axes table)
            with
            | Error msg -> Alcotest.failf "table after crash %d: %s" crash_at msg
            | Ok table' ->
                Alcotest.(check int) "table rows" (Witness.row_count table)
                  (Witness.row_count table'))
        | e -> Alcotest.failf "crash at write %d: unexpected epoch %d" crash_at e));
    Disk.close disk
  done

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

(* --- engine-level degradation ------------------------------------------- *)

let make_prepared backend =
  let disk = backend_disk backend in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let spec =
    Engine.count_spec ~fact_path:Fixtures.fact_path ~axes:(Fixtures.query1_axes ())
  in
  (Engine.prepare ~pool ~store:(Fixtures.figure1_store ()) spec, disk, pool)

let test_engine_retry backend workers () =
  let prepared, disk, pool = make_prepared backend in
  let clean, _ = Engine.run ~workers prepared Engine.Naive in
  let expected = Cube_result.total_cells clean in
  Alcotest.(check bool) "clean run has cells" true (expected > 0);
  Buffer_pool.drop_cache pool;
  (* The figure-1 table is small enough to fit in a page or two, so fail
     the very first read — the retry's reads all come after it. *)
  let plan = Fault.fail_nth_read 1 in
  Fault.install plan disk;
  (match Engine.run_safe ~workers ~retries:2 ~backoff:0.001 prepared Engine.Naive with
  | Engine.Complete (r, _) ->
      Alcotest.(check int) "cube identical after retried fault" expected
        (Cube_result.total_cells r)
  | Engine.Partial _ -> Alcotest.fail "unexpected partial result"
  | Engine.Failed _ -> Alcotest.fail "retry should have absorbed the fault"
  | Engine.Rejected _ -> Alcotest.fail "no admission door was installed");
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
  Fault.install (Fault.crash_after_writes ~torn:true 0) disk;
  Buffer_pool.with_page_mut pool 0 (fun b ->
      Bytes.set b (Bytes.length b - 1) '\xff');
  (match Buffer_pool.flush pool with
  | () -> Alcotest.fail "torn write did not crash"
  | exception Fault.Crashed -> ());
  Fault.clear disk;
  Buffer_pool.invalidate pool;
  (match Engine.run_safe ~retries:2 ~backoff:0.001 prepared Engine.Naive with
  | Engine.Failed (Engine.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Failed Corrupt — retries cannot fix bad bytes");
  Disk.close disk

let stop_algorithms = [ Engine.Naive; Engine.Counter; Engine.Buc; Engine.Td ]

let test_engine_deadline () =
  let prepared, disk, _ = make_prepared `Memory in
  List.iter
    (fun alg ->
      List.iter
        (fun workers ->
          (* A deadline already in the past: the first stop check fires. *)
          match Engine.run_safe ~workers ~deadline:(-1.0) prepared alg with
          | Engine.Partial (Context.Deadline_exceeded, _, _) -> ()
          | Engine.Complete _ ->
              Alcotest.failf "%s/%d workers: completed past its deadline"
                (Engine.algorithm_to_string alg) workers
          | _ ->
              Alcotest.failf "%s/%d workers: expected deadline partial"
                (Engine.algorithm_to_string alg) workers)
        [ 1; 2 ])
    stop_algorithms;
  Disk.close disk

let test_engine_cancel () =
  let prepared, disk, _ = make_prepared `Memory in
  List.iter
    (fun alg ->
      List.iter
        (fun workers ->
          match
            Engine.run_safe ~workers ~cancel:(fun () -> true) prepared alg
          with
          | Engine.Partial (Context.Cancelled, _, _) -> ()
          | _ ->
              Alcotest.failf "%s/%d workers: expected cancelled partial"
                (Engine.algorithm_to_string alg) workers)
        [ 1; 2 ])
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
      ( "crash recovery",
        [
          quick "crash at every write (memory, dropped)" `Quick
            (crash_sweep mem_v1 ~torn:false);
          quick "crash at every write (memory, torn)" `Quick
            (crash_sweep mem_v1 ~torn:true);
          quick "crash at every write (V0 disk, dropped)" `Quick
            (crash_sweep mem_v0 ~torn:false);
          quick "crash at every write (V0 disk, torn)" `Quick
            (crash_sweep mem_v0 ~torn:true);
          quick "crash at every write (file, dropped)" `Quick
            (crash_sweep file_v1 ~torn:false);
          quick "crash at every write (file, torn)" `Quick
            (crash_sweep file_v1 ~torn:true);
          quick "ENOSPC mid-commit is transient and leak-free" `Quick
            test_commit_enospc_is_transient;
        ]
        @ qcheck [ prop_crash_atomicity ] );
      ( "workload persistence",
        [
          quick "witness table snapshot roundtrip" `Quick
            test_witness_snapshot_roundtrip;
          quick "cube+materialize workload: crash at every write" `Quick
            test_workload_crash_sweep;
          quick "torn column page: typed error + epoch fallback" `Quick
            test_columnar_torn_column_page;
          quick "malformed column chunks rejected" `Quick
            test_columnar_chunk_rejected;
          quick "columnar save: crash at every write" `Quick
            test_witness_save_crash_sweep;
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
        ] );
      ( "engine degradation",
        [
          quick "transient fault absorbed by retry (memory, 1 worker)" `Quick
            (test_engine_retry `Memory 1);
          quick "transient fault absorbed by retry (memory, 2 workers)" `Quick
            (test_engine_retry `Memory 2);
          quick "transient fault absorbed by retry (file, 1 worker)" `Quick
            (test_engine_retry `File 1);
          quick "transient fault absorbed by retry (file, 2 workers)" `Quick
            (test_engine_retry `File 2);
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
