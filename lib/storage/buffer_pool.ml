type frame = {
  buf : bytes;
  mutable page : int;  (** -1 when the frame is free *)
  mutable dirty : bool;
  mutable referenced : bool;  (** clock second-chance bit *)
  mutable pins : int;  (** live [with_page]/[with_page_mut] windows *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  mutable frames : frame array;
      (** [used] initialised frames, the array doubled as they fill up to
          [capacity]: a pool costs what it holds, not what it may hold *)
  mutable used : int;  (** frames currently initialised *)
  table : (int, int) Hashtbl.t;  (** page id -> frame index *)
  mutable hand : int;  (** clock hand over [frames] *)
  stats : Stats.t;
}

let create ?(capacity_pages = 65536) disk =
  if capacity_pages < 1 then invalid_arg "Buffer_pool.create: empty pool";
  {
    disk;
    capacity = capacity_pages;
    frames = [||];
    used = 0;
    table = Hashtbl.create (min 4096 (2 * capacity_pages));
    hand = 0;
    stats = Stats.create ();
  }

let disk t = t.disk
let capacity t = t.capacity
let stats t = t.stats
let resident_pages t = Hashtbl.length t.table

let write_back t frame =
  if frame.dirty then begin
    Disk.write t.disk frame.page frame.buf;
    frame.dirty <- false
  end

(* Pick a victim frame: first use an uninitialised frame, then run the
   clock, skipping recently-referenced frames once and pinned frames
   always — a frame inside a [with_page_mut] window must never be stolen,
   or its checksum-stamped write-back would race the caller's mutation and
   the recycled frame would alias two pages. *)
let victim t =
  if t.used < t.capacity then begin
    let idx = t.used in
    t.used <- t.used + 1;
    let frame =
      {
        buf = Bytes.make (Disk.page_size t.disk) '\000';
        page = -1;
        dirty = false;
        referenced = false;
        pins = 0;
      }
    in
    if idx = Array.length t.frames then begin
      let grown = Array.make (min t.capacity (max 16 (2 * idx))) frame in
      Array.blit t.frames 0 grown 0 idx;
      t.frames <- grown
    end;
    t.frames.(idx) <- frame;
    idx
  end
  else begin
    let rec spin remaining =
      if remaining = 0 then
        failwith
          "Buffer_pool: every frame is pinned — a page-access callback \
           touched more distinct pages than the pool has frames"
      else begin
        let idx = t.hand in
        t.hand <- (t.hand + 1) mod t.capacity;
        let frame = t.frames.(idx) in
        if frame.pins > 0 then spin (remaining - 1)
        else if frame.referenced then begin
          frame.referenced <- false;
          spin (remaining - 1)
        end
        else idx
      end
    in
    (* Two sweeps: one to clear second-chance bits, one to pick. *)
    let idx = spin (2 * t.capacity) in
    let frame = t.frames.(idx) in
    if frame.page >= 0 then begin
      write_back t frame;
      Hashtbl.remove t.table frame.page;
      t.stats.evictions <- t.stats.evictions + 1
    end;
    idx
  end

let frame_of t id ~load =
  match Hashtbl.find_opt t.table id with
  | Some idx ->
      t.stats.pool_hits <- t.stats.pool_hits + 1;
      let frame = t.frames.(idx) in
      frame.referenced <- true;
      frame
  | None ->
      t.stats.pool_misses <- t.stats.pool_misses + 1;
      let idx = victim t in
      let frame = t.frames.(idx) in
      frame.page <- id;
      frame.dirty <- false;
      frame.referenced <- true;
      (try
         if load then Disk.read_into t.disk id frame.buf
         else Bytes.fill frame.buf 0 (Bytes.length frame.buf) '\000'
       with e ->
         (* A failed load must not leave a garbage frame resident. *)
         frame.page <- -1;
         raise e);
      Hashtbl.replace t.table id idx;
      frame

let allocate t =
  let id = Disk.allocate t.disk in
  let frame = frame_of t id ~load:false in
  frame.dirty <- true;
  id

let with_frame frame f =
  frame.pins <- frame.pins + 1;
  Fun.protect ~finally:(fun () -> frame.pins <- frame.pins - 1)
    (fun () -> f frame.buf)

let with_page t id f = with_frame (frame_of t id ~load:true) f

let with_page_mut t id f =
  let frame = frame_of t id ~load:true in
  frame.dirty <- true;
  with_frame frame f

let flush t =
  Hashtbl.iter (fun _ idx -> write_back t t.frames.(idx)) t.table;
  Disk.sync t.disk

let drop_cache t =
  flush t;
  Hashtbl.reset t.table;
  for i = 0 to t.used - 1 do
    let frame = t.frames.(i) in
    frame.page <- -1;
    frame.dirty <- false;
    frame.referenced <- false;
    frame.pins <- 0
  done;
  t.hand <- 0
