open X3_storage

let small_pool ?(capacity_pages = 4) ?(page_size = 128) () =
  Buffer_pool.create ~capacity_pages (Disk.in_memory ~page_size ())

(* --- disk ------------------------------------------------------------- *)

let test_disk_roundtrip () =
  let disk = Disk.in_memory ~page_size:64 () in
  let a = Disk.allocate disk and b = Disk.allocate disk in
  let buf = Bytes.make 64 'x' in
  Disk.write disk a buf;
  let out = Bytes.make 64 '\000' in
  Disk.read_into disk a out;
  Alcotest.(check bytes) "page a" buf out;
  Disk.read_into disk b out;
  Alcotest.(check bytes) "page b zeroed" (Bytes.make 64 '\000') out;
  Alcotest.(check int) "reads counted" 2 (Disk.stats disk).Stats.page_reads

let test_disk_bad_id () =
  let disk = Disk.in_memory ~page_size:64 () in
  Alcotest.check_raises "out of range" (Invalid_argument "Disk: page 0 out of range [0, 0)")
    (fun () -> Disk.read_into disk 0 (Bytes.make 64 ' '))

let test_disk_sync_counted () =
  let disk = Disk.in_memory ~page_size:64 () in
  Disk.sync disk;
  Disk.sync disk;
  Alcotest.(check int) "syncs counted on memory backend" 2
    (Disk.stats disk).Stats.syncs

(* --- versioned pages ---------------------------------------------------- *)

let test_disk_v0_legacy_format () =
  let disk = Disk.in_memory ~page_size:64 ~format:Disk.V0 () in
  Alcotest.(check int) "no header" 64 (Disk.physical_page_size disk);
  let a = Disk.allocate disk in
  Disk.write disk a (Bytes.make 64 'v');
  let out = Bytes.make 64 ' ' in
  Disk.read_into disk a out;
  Alcotest.(check bytes) "roundtrip" (Bytes.make 64 'v') out;
  Alcotest.(check int) "no lsn on v0" 0 (Disk.page_lsn disk a)

let test_disk_v1_lsn_stamped () =
  let disk = Disk.in_memory ~page_size:64 () in
  Alcotest.(check int) "v1 header" (64 + Disk.header_bytes)
    (Disk.physical_page_size disk);
  let a = Disk.allocate disk in
  Alcotest.(check int) "unwritten page has no lsn" 0 (Disk.page_lsn disk a);
  Disk.write disk a (Bytes.make 64 'a');
  let l1 = Disk.page_lsn disk a in
  Disk.write disk a (Bytes.make 64 'b');
  let l2 = Disk.page_lsn disk a in
  Alcotest.(check bool) "lsn advances across writes" true (l2 > l1 && l1 > 0)

(* A rewrite torn after the header leaves a page whose payload no longer
   matches its checksum: the read raises instead of decoding it. *)
let test_disk_corruption_detected () =
  let disk = Disk.in_memory ~page_size:64 () in
  let a = Disk.allocate disk in
  Disk.write disk a (Bytes.make 64 'a');
  Fault.install (Fault.crash_after ~torn:(Disk.header_bytes + 5) 0) disk;
  Disk.write disk a (Bytes.make 64 'b');
  Fault.clear disk;
  Alcotest.(check bool) "torn page detected" true
    (try
       Disk.read_into disk a (Bytes.make 64 ' ');
       false
     with Disk.Corruption _ -> true)

(* --- buffer pool ------------------------------------------------------ *)

let test_pool_hit_miss () =
  let pool = small_pool () in
  let id = Buffer_pool.allocate pool in
  Buffer_pool.with_page_mut pool id (fun b -> Bytes.set b 0 'z');
  Buffer_pool.with_page pool id (fun b ->
      Alcotest.(check char) "read back" 'z' (Bytes.get b 0));
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one miss (allocate)" 1 s.Stats.pool_misses;
  Alcotest.(check int) "hits afterwards" 2 s.Stats.pool_hits

let test_pool_eviction_and_writeback () =
  let pool = small_pool ~capacity_pages:2 () in
  let ids = List.init 5 (fun _ -> Buffer_pool.allocate pool) in
  List.iteri
    (fun i id ->
      Buffer_pool.with_page_mut pool id (fun b -> Bytes.set b 0 (Char.chr (97 + i))))
    ids;
  (* Only 2 frames: earlier pages were evicted and written back. *)
  Alcotest.(check bool) "evictions happened" true
    ((Buffer_pool.stats pool).Stats.evictions > 0);
  List.iteri
    (fun i id ->
      Buffer_pool.with_page pool id (fun b ->
          Alcotest.(check char) "value preserved across eviction"
            (Char.chr (97 + i)) (Bytes.get b 0)))
    ids

let test_pool_drop_cache () =
  let pool = small_pool () in
  let id = Buffer_pool.allocate pool in
  Buffer_pool.with_page_mut pool id (fun b -> Bytes.set b 0 'q');
  Buffer_pool.drop_cache pool;
  Alcotest.(check int) "nothing resident" 0 (Buffer_pool.resident_pages pool);
  Buffer_pool.with_page pool id (fun b ->
      Alcotest.(check char) "flushed before drop" 'q' (Bytes.get b 0))

let test_pool_more_pages_than_capacity () =
  let pool = small_pool ~capacity_pages:3 ~page_size:64 () in
  let n = 50 in
  let ids = Array.init n (fun _ -> Buffer_pool.allocate pool) in
  Array.iteri
    (fun i id ->
      Buffer_pool.with_page_mut pool id (fun b -> Bytes.set b 1 (Char.chr (i mod 256))))
    ids;
  Array.iteri
    (fun i id ->
      Buffer_pool.with_page pool id (fun b ->
          Alcotest.(check char) "content" (Char.chr (i mod 256)) (Bytes.get b 1)))
    ids;
  Alcotest.(check bool) "capacity respected" true
    (Buffer_pool.resident_pages pool <= 3)

let test_pool_flush_syncs () =
  let disk = Disk.in_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity_pages:4 disk in
  let id = Buffer_pool.allocate pool in
  Buffer_pool.with_page_mut pool id (fun b -> Bytes.set b 0 'z');
  Alcotest.(check int) "no durability barrier before flush" 0
    (Disk.stats disk).Stats.syncs;
  Buffer_pool.flush pool;
  Alcotest.(check int) "flush ends in a sync" 1 (Disk.stats disk).Stats.syncs;
  Disk.close disk

(* Satellite regression: a frame pinned by a [with_page_mut] window must
   never be stolen by eviction traffic inside the window, whatever the
   pressure — a stolen frame would be written back mid-mutation with a
   stale checksum and recycled to alias another page. *)
let test_pool_pinned_not_evicted () =
  let pool = small_pool ~capacity_pages:2 ~page_size:64 () in
  let ids = Array.init 8 (fun _ -> Buffer_pool.allocate pool) in
  Array.iteri
    (fun i id ->
      Buffer_pool.with_page_mut pool id (fun b ->
          Bytes.set b 0 (Char.chr (65 + i))))
    ids;
  Buffer_pool.with_page_mut pool ids.(0) (fun b0 ->
      Bytes.set b0 1 'P';
      (* Hammer every other page through the one unpinned frame. *)
      for _ = 1 to 3 do
        Array.iter
          (fun id ->
            Buffer_pool.with_page pool id (fun b -> ignore (Bytes.get b 0)))
          (Array.sub ids 1 7)
      done;
      Alcotest.(check char) "pinned frame kept its page" 'A' (Bytes.get b0 0));
  Buffer_pool.drop_cache pool;
  Buffer_pool.with_page pool ids.(0) (fun b ->
      Alcotest.(check char) "in-window mutation survived" 'P' (Bytes.get b 1));
  (* Pinning more distinct pages than frames must fail loudly, not alias. *)
  Alcotest.(check bool) "overpinning raises" true
    (try
       Buffer_pool.with_page pool ids.(1) (fun _ ->
           Buffer_pool.with_page pool ids.(2) (fun _ ->
               Buffer_pool.with_page pool ids.(3) (fun _ -> ());
               false))
     with Failure _ -> true)

let test_pool_torn_page_detected () =
  (* A write torn by a crash fails verification on the next load instead
     of decoding into garbage. *)
  let disk = Disk.in_memory ~page_size:64 () in
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  let a = Buffer_pool.allocate pool in
  Buffer_pool.with_page_mut pool a (fun b -> Bytes.fill b 0 64 'a');
  Buffer_pool.flush pool;
  let plan = Fault.crash_after ~torn:(Disk.physical_page_size disk / 2) 0 in
  Fault.install plan disk;
  Buffer_pool.with_page_mut pool a (fun b -> Bytes.fill b 0 64 'b');
  (try Buffer_pool.flush pool with Fault.Crashed -> ());
  Fault.clear disk;
  (* The crash took the pool's frames with it: read through a fresh one. *)
  let pool = Buffer_pool.create ~capacity_pages:2 disk in
  Alcotest.(check bool) "torn page detected" true
    (try Buffer_pool.with_page pool a (fun _ -> false)
     with Disk.Corruption _ -> true)

(* --- heap file -------------------------------------------------------- *)

let records_of h =
  let acc = ref [] in
  Heap_file.iter (fun r -> acc := r :: !acc) h;
  List.rev !acc

let test_heap_roundtrip () =
  let pool = small_pool ~page_size:64 () in
  let h = Heap_file.create pool in
  let records = List.init 100 (fun i -> Printf.sprintf "record-%03d" i) in
  List.iter (Heap_file.append h) records;
  Alcotest.(check int) "count" 100 (Heap_file.record_count h);
  Alcotest.(check bool) "spans pages" true (Heap_file.page_count h > 1);
  Alcotest.(check (list string)) "order preserved" records
    (records_of h)

let test_heap_empty () =
  let pool = small_pool () in
  let h = Heap_file.create pool in
  Alcotest.(check int) "empty count" 0 (Heap_file.record_count h);
  Alcotest.(check (list string)) "empty iter" []
    (records_of h)

let test_heap_record_too_large () =
  let pool = small_pool ~page_size:64 () in
  let h = Heap_file.create pool in
  Alcotest.(check bool) "raises" true
    (try
       Heap_file.append h (String.make 100 'x');
       false
     with Invalid_argument _ -> true)

let test_heap_varied_sizes () =
  let pool = small_pool ~page_size:128 () in
  let h = Heap_file.create pool in
  let records =
    List.init 200 (fun i -> String.make (1 + (i * 7 mod 100)) (Char.chr (33 + (i mod 90))))
  in
  List.iter (Heap_file.append h) records;
  Alcotest.(check (list string)) "roundtrip" records
    (records_of h)

let test_heap_empty_record () =
  let pool = small_pool () in
  let h = Heap_file.create pool in
  Heap_file.append h "";
  Heap_file.append h "x";
  Heap_file.append h "";
  Alcotest.(check (list string)) "empties survive" [ ""; "x"; "" ]
    (records_of h)

(* --- quicksort -------------------------------------------------------- *)

let test_quicksort_basic () =
  let a = [| 5; 3; 9; 1; 7; 2; 8; 4; 6; 0 |] in
  Quicksort.sort ~compare:Int.compare a;
  Alcotest.(check (array int)) "sorted" (Array.init 10 Fun.id) a

let test_quicksort_sub () =
  let a = [| 9; 8; 3; 1; 2; 0 |] in
  Quicksort.sort_sub ~compare:Int.compare a ~pos:2 ~len:3;
  Alcotest.(check (array int)) "slice sorted" [| 9; 8; 1; 2; 3; 0 |] a

(* TD's hash tier sorts the filled prefix of a row-sized array of record
   strings. *)
let test_sort_in_memory () =
  let a = [| "pear"; "apple"; "fig"; "banana"; ""; "" |] in
  Quicksort.sort_sub ~compare:String.compare a ~pos:0 ~len:4;
  Alcotest.(check (array string)) "sorted prefix"
    [| "apple"; "banana"; "fig"; "pear"; ""; "" |]
    a

let test_sort_empty () =
  let a = Array.make 3 "x" in
  Quicksort.sort_sub ~compare:String.compare a ~pos:0 ~len:0;
  Quicksort.sort ~compare:String.compare [||];
  Alcotest.(check (array string)) "untouched" [| "x"; "x"; "x" |] a

(* --- properties ------------------------------------------------------- *)

let gen_records =
  QCheck2.Gen.(list_size (int_bound 400) (string_size ~gen:printable (int_range 0 20)))

let prop_quicksort_sorts =
  QCheck2.Test.make ~name:"quicksort = List.sort" ~count:300
    QCheck2.Gen.(list (int_bound 1000))
    (fun l ->
      let a = Array.of_list l in
      Quicksort.sort ~compare:Int.compare a;
      Array.to_list a = List.sort Int.compare l)

let prop_heap_file_roundtrip =
  QCheck2.Test.make ~name:"heap file preserves records" ~count:100 gen_records
    (fun records ->
      let pool = small_pool ~capacity_pages:4 ~page_size:128 () in
      let h = Heap_file.create pool in
      List.iter (Heap_file.append h) records;
      records_of h = records)

(* Model-based pool check: a random sequence of allocations, writes and
   reads against a tiny pool must behave like a plain map from page to
   bytes, no matter how eviction interleaves. *)
let prop_pool_matches_model =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          return `Alloc;
          map2 (fun p v -> `Write (p, v)) (int_bound 30) (int_bound 255);
          map (fun p -> `Read p) (int_bound 30);
          return `Drop;
        ])
  in
  Test.make ~name:"buffer pool = map model" ~count:150
    Gen.(pair (int_range 1 4) (list_size (int_bound 80) op_gen))
    (fun (capacity, ops) ->
      let pool =
        Buffer_pool.create ~capacity_pages:capacity
          (Disk.in_memory ~page_size:32 ())
      in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let pages = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Alloc ->
              let id = Buffer_pool.allocate pool in
              pages := id :: !pages;
              Hashtbl.replace model id 0
          | `Write (p, v) -> (
              match List.nth_opt !pages (p mod max 1 (List.length !pages)) with
              | Some id when !pages <> [] ->
                  Buffer_pool.with_page_mut pool id (fun b ->
                      Bytes.set b 0 (Char.chr v));
                  Hashtbl.replace model id v
              | _ -> ())
          | `Read p -> (
              match List.nth_opt !pages (p mod max 1 (List.length !pages)) with
              | Some id when !pages <> [] ->
                  let got =
                    Buffer_pool.with_page pool id (fun b ->
                        Char.code (Bytes.get b 0))
                  in
                  if got <> Hashtbl.find model id then ok := false
              | _ -> ())
          | `Drop -> Buffer_pool.drop_cache pool)
        ops;
      (* Final full read-back. *)
      List.iter
        (fun id ->
          let got =
            Buffer_pool.with_page pool id (fun b -> Char.code (Bytes.get b 0))
          in
          if got <> Hashtbl.find model id then ok := false)
        !pages;
      !ok)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_storage"
    [
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "bad id" `Quick test_disk_bad_id;
          Alcotest.test_case "sync counted" `Quick test_disk_sync_counted;
          Alcotest.test_case "v0 legacy format" `Quick
            test_disk_v0_legacy_format;
          Alcotest.test_case "v1 lsn stamped" `Quick test_disk_v1_lsn_stamped;
          Alcotest.test_case "corruption detected" `Quick
            test_disk_corruption_detected;
        ] );
      ( "buffer pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_pool_hit_miss;
          Alcotest.test_case "eviction + writeback" `Quick
            test_pool_eviction_and_writeback;
          Alcotest.test_case "drop cache" `Quick test_pool_drop_cache;
          Alcotest.test_case "overcommit" `Quick
            test_pool_more_pages_than_capacity;
          Alcotest.test_case "flush syncs" `Quick test_pool_flush_syncs;
          Alcotest.test_case "pinned frames survive eviction" `Quick
            test_pool_pinned_not_evicted;
          Alcotest.test_case "torn page detected" `Quick
            test_pool_torn_page_detected;
        ] );
      ( "heap file",
        [
          Alcotest.test_case "roundtrip" `Quick test_heap_roundtrip;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "record too large" `Quick
            test_heap_record_too_large;
          Alcotest.test_case "varied sizes" `Quick test_heap_varied_sizes;
          Alcotest.test_case "empty records" `Quick test_heap_empty_record;
        ] );
      ( "sorting",
        [
          Alcotest.test_case "quicksort basic" `Quick test_quicksort_basic;
          Alcotest.test_case "quicksort sub" `Quick test_quicksort_sub;
          Alcotest.test_case "in-memory sort" `Quick test_sort_in_memory;
          Alcotest.test_case "empty input" `Quick test_sort_empty;
        ] );
      ( "properties",
        qcheck
          [
            prop_quicksort_sorts;
            prop_heap_file_roundtrip;
            prop_pool_matches_model;
          ] );
    ]
