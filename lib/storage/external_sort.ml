module Trace = X3_obs.Trace

let default_fanout = 64

let stats_of pool = Buffer_pool.stats pool

let spill_run ~pool ~compare buffer size =
  Trace.with_span "sort.run" ~attrs:[ ("records", Trace.Int size) ] (fun () ->
      Quicksort.sort_sub ~compare buffer ~pos:0 ~len:size;
      let run = Heap_file.create pool in
      for i = 0 to size - 1 do
        Heap_file.append run buffer.(i)
      done;
      (stats_of pool).sort_runs <- (stats_of pool).sort_runs + 1;
      run)

(* Merge a batch of sorted runs into one sorted run. *)
let merge_runs ~pool ~compare runs =
  let out = Heap_file.create pool in
  let heap =
    Min_heap.create ~compare:(fun (a, _) (b, _) -> compare a b)
  in
  let cursors = Array.of_list (List.map Heap_file.to_seq runs) in
  Array.iteri
    (fun i seq ->
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons (r, rest) ->
          cursors.(i) <- rest;
          Min_heap.push heap (r, i))
    cursors;
  let rec drain () =
    match Min_heap.pop heap with
    | None -> ()
    | Some (r, i) ->
        Heap_file.append out r;
        (match cursors.(i) () with
        | Seq.Nil -> ()
        | Seq.Cons (r', rest) ->
            cursors.(i) <- rest;
            Min_heap.push heap (r', i));
        drain ()
  in
  drain ();
  (* The input runs are fully consumed intermediates: return their pages to
     the free list, or every merge pass permanently grows the disk. *)
  List.iter Heap_file.free runs;
  out

let rec merge_all ~pool ~compare ~fanout runs =
  match runs with
  | [] -> Heap_file.create pool
  | [ only ] -> only
  | _ ->
      (stats_of pool).merge_passes <- (stats_of pool).merge_passes + 1;
      let merged =
        Trace.with_span "sort.merge_pass"
          ~attrs:[ ("runs", Trace.Int (List.length runs)) ]
          (fun () ->
            let rec batches acc current n = function
              | [] ->
                  List.rev (merge_runs ~pool ~compare (List.rev current) :: acc)
              | run :: rest ->
                  if n = fanout then
                    batches
                      (merge_runs ~pool ~compare (List.rev current) :: acc)
                      [ run ] 1 rest
                  else batches acc (run :: current) (n + 1) rest
            in
            match runs with
            | first :: rest -> batches [] [ first ] 1 rest
            | [] -> assert false)
      in
      merge_all ~pool ~compare ~fanout merged

let sort_records ~pool ~budget_records ?(fanout = default_fanout) ~compare
    producer =
  if budget_records < 1 then invalid_arg "External_sort: empty budget";
  if fanout < 2 then invalid_arg "External_sort: fanout must be at least 2";
  let buffer = Array.make budget_records "" in
  let size = ref 0 in
  let runs = ref [] in
  let total = ref 0 in
  producer (fun record ->
      incr total;
      if !size = budget_records then begin
        runs := spill_run ~pool ~compare buffer !size :: !runs;
        size := 0
      end;
      buffer.(!size) <- record;
      incr size);
  (stats_of pool).records_sorted <- (stats_of pool).records_sorted + !total;
  match !runs with
  | [] ->
      (* Everything fit: a single in-memory quicksort, no run accounting —
         this is the paper's "quicksort for an in-memory sort" path. *)
      Quicksort.sort_sub ~compare buffer ~pos:0 ~len:!size;
      let out = Heap_file.create pool in
      for i = 0 to !size - 1 do
        Heap_file.append out buffer.(i)
      done;
      out
  | spilled ->
      let spilled =
        if !size > 0 then spill_run ~pool ~compare buffer !size :: spilled
        else spilled
      in
      merge_all ~pool ~compare ~fanout (List.rev spilled)
