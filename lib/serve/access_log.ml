(* Structured access log: one JSONL record per request, written off the
   hot path. The request thread only formats the record and enqueues it;
   a dedicated writer thread drains the queue to the file and handles
   size-based rotation. The queue is bounded and a full queue DROPS the
   record (counting the drop) rather than blocking — an access log must
   never become the daemon's slowest component. *)

module Json = X3_obs.Json
module Metrics = X3_obs.Metrics

type t = {
  path : string;
  max_bytes : int;
  queue : string Queue.t;
  queue_cap : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable closed : bool;
  mutable writer : Thread.t option;
  m_records : Metrics.counter;
  m_dropped : Metrics.counter;
  m_rotations : Metrics.counter;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- writer thread ------------------------------------------------------- *)

let rotate t =
  (* Single-level rotation: FILE -> FILE.1 (clobbering the previous .1).
     Bounded disk (at most 2 * max_bytes + one record) beats history. *)
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  Metrics.inc t.m_rotations

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The channel stays open across batches — a request-per-wakeup cadence
   must cost one write + flush, not an open/close round trip — and is
   closed only around rotation (rename wants the file quiescent) and at
   shutdown. *)
let writer_loop t =
  let size = ref (file_size t.path) in
  let oc = ref None in
  let close_channel () =
    match !oc with
    | None -> ()
    | Some ch ->
        (try close_out ch with Sys_error _ -> ());
        oc := None
  in
  let channel () =
    match !oc with
    | Some ch -> Some ch
    | None -> (
        match open_out_gen [ Open_append; Open_creat ] 0o644 t.path with
        | ch ->
            oc := Some ch;
            Some ch
        | exception Sys_error _ -> None)
  in
  let running = ref true in
  while !running do
    let batch, stop =
      with_lock t (fun () ->
          while Queue.is_empty t.queue && not t.closed do
            Condition.wait t.cond t.lock
          done;
          let batch = Queue.fold (fun acc l -> l :: acc) [] t.queue in
          Queue.clear t.queue;
          (List.rev batch, t.closed))
    in
    if batch <> [] then begin
      (* The cap is checked before every record, not once per batch: a
         batch can hold many records when the writer falls behind, and
         the disk bound must not depend on how they were batched. *)
      match
        List.iter
          (fun line ->
            if !size >= t.max_bytes then begin
              close_channel ();
              rotate t;
              size := 0
            end;
            match channel () with
            | Some ch ->
                output_string ch line;
                output_char ch '\n';
                size := !size + String.length line + 1
            | None -> Metrics.inc t.m_dropped)
          batch;
        Option.iter flush !oc
      with
      | () -> ()
      | exception Sys_error _ ->
          (* An unwritable log never takes the daemon down; the records
             are lost but counted. *)
          close_channel ();
          Metrics.inc ~by:(List.length batch) t.m_dropped
    end;
    if stop then running := false
  done;
  close_channel ()

(* --- api ----------------------------------------------------------------- *)

let default_max_bytes = 16 * 1024 * 1024
let default_queue_cap = 1024

let create ?(max_bytes = default_max_bytes) ?(queue_cap = default_queue_cap)
    ~metrics path =
  let t =
    {
      path;
      max_bytes = max 1 max_bytes;
      queue = Queue.create ();
      queue_cap = max 1 queue_cap;
      lock = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      writer = None;
      m_records = Metrics.counter metrics "serve.access_log.records";
      m_dropped = Metrics.counter metrics "serve.access_log.dropped";
      m_rotations = Metrics.counter metrics "serve.access_log.rotations";
    }
  in
  t.writer <- Some (Thread.create writer_loop t);
  t

let write t record =
  let line = Json.to_string ~pretty:false record in
  let accepted =
    with_lock t (fun () ->
        if t.closed || Queue.length t.queue >= t.queue_cap then false
        else begin
          Queue.push line t.queue;
          Condition.signal t.cond;
          true
        end)
  in
  if accepted then Metrics.inc t.m_records else Metrics.inc t.m_dropped

let close t =
  let writer =
    with_lock t (fun () ->
        if t.closed then None
        else begin
          t.closed <- true;
          Condition.signal t.cond;
          t.writer
        end)
  in
  match writer with None -> () | Some th -> Thread.join th

let path t = t.path
