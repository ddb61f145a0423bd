(* Scoped tracing over per-writer ring buffers.

   Design constraints, in order:
   - off must be free: every probe is guarded by one atomic load, and the
     off path allocates nothing;
   - concurrent requests must not share a trace: a *scope* owns its own
     rings and span ids, and a probe routes to whichever scope the calling
     thread is bound to ({!with_scope}) — N server connections each bind
     their own scope and capture disjoint span trees;
   - on must be cheap from every writer thread: each gets its own ring
     inside its scope, and the (thread -> ring) resolution is cached
     per domain behind a generation check, so the steady-state hot path is
     one atomic load, one DLS read and one thread-id compare;
   - overflow must be survivable: a full ring drops its oldest event and
     counts the drop, so a verbose run degrades to a truncated trace
     instead of unbounded memory.

   The pre-scope API ({!enable}/{!disable}/{!reset}/{!dump}) survives as a
   distinguished *global* scope: a thread bound to no scope while the
   global flag is up writes there, which is exactly the old single-query
   CLI behaviour. A thread bound to no scope while only request scopes are
   active writes nowhere — isolation by construction, not by filtering.

   Rings are read by {!dump}/{!scope_dump} after the scope's writers have
   finished (the engine computes on the calling thread, so a request's
   compute has returned before its scope is dumped), so reads never race
   writes. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type phase = Begin | End | Complete of float | Instant

type event = {
  name : string;
  phase : phase;
  ts : float;
  span : int;
  parent : int;
  domain : int;
  attrs : attr list;
}

let null_event =
  { name = ""; phase = Instant; ts = 0.; span = 0; parent = 0; domain = 0; attrs = [] }

type rb = {
  rb_domain : int;
  rb_ids : int Atomic.t;  (* the owning scope's span-id counter *)
  buf : event array;
  cap : int;
  mutable next : int;  (* write cursor *)
  mutable count : int;
  mutable dropped : int;
  mutable stack : (int * string) list;  (* open spans, innermost first *)
}

type scope = {
  sc_id : string;
  mutable sc_ring : int;
  sc_span_ids : int Atomic.t;
  (* writer thread id -> its ring; a handful of entries (the threads
     bound to the scope), so an assoc list beats a table *)
  mutable sc_writers : (int * rb) list;
}

let default_ring = 65536

let make_scope ?(ring_size = default_ring) ~id () =
  if ring_size < 2 then
    invalid_arg "Trace.make_scope: ring must hold at least 2 events";
  { sc_id = id; sc_ring = ring_size; sc_span_ids = Atomic.make 0; sc_writers = [] }

let scope_id s = s.sc_id

(* --- global routing state ------------------------------------------------ *)

let lock = Mutex.create ()
let global_scope = make_scope ~id:"global" ()
let global_on = ref false
let bindings : (int, scope) Hashtbl.t = Hashtbl.create 16

(* One atomic load guards every probe: true iff the global flag is up or
   at least one thread is bound to a scope. *)
let enabled_flag = Atomic.make false

(* Bumped on any routing change (bind/unbind/enable/disable/reset);
   invalidates the per-domain resolution caches. *)
let bind_gen = Atomic.make 0

let enabled () = Atomic.get enabled_flag

(* call under [lock] *)
let refresh_routing () =
  Atomic.set enabled_flag (!global_on || Hashtbl.length bindings > 0);
  Atomic.incr bind_gen

let self_tid () = Thread.id (Thread.self ())

let with_scope scope f =
  let tid = self_tid () in
  Mutex.lock lock;
  let prev = Hashtbl.find_opt bindings tid in
  Hashtbl.replace bindings tid scope;
  refresh_routing ();
  Mutex.unlock lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock lock;
      (match prev with
      | None -> Hashtbl.remove bindings tid
      | Some s -> Hashtbl.replace bindings tid s);
      refresh_routing ();
      Mutex.unlock lock)
    f

let with_scope_opt scope f =
  match scope with None -> f () | Some s -> with_scope s f

(* --- writer resolution --------------------------------------------------- *)

(* call under [lock] *)
let writer_rb scope tid =
  match List.assq_opt tid scope.sc_writers with
  | Some rb -> rb
  | None ->
      let rb =
        {
          rb_domain = (Domain.self () :> int);
          rb_ids = scope.sc_span_ids;
          buf = Array.make scope.sc_ring null_event;
          cap = scope.sc_ring;
          next = 0;
          count = 0;
          dropped = 0;
          stack = [];
        }
      in
      scope.sc_writers <- (tid, rb) :: scope.sc_writers;
      rb

(* Per-domain cache of the last resolution: (routing generation, thread
   id, ring). Valid while no binding anywhere has changed and the calling
   thread matches — the steady state of a compute loop. *)
let cache_key : (int * int * rb) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let resolve () =
  let tid = self_tid () in
  let gen = Atomic.get bind_gen in
  let cache = Domain.DLS.get cache_key in
  match !cache with
  | Some (g, t, rb) when g = gen && t = tid -> Some rb
  | _ ->
      Mutex.lock lock;
      let scope =
        match Hashtbl.find_opt bindings tid with
        | Some _ as s -> s
        | None -> if !global_on then Some global_scope else None
      in
      let rb = Option.map (fun s -> writer_rb s tid) scope in
      Mutex.unlock lock;
      cache := Option.map (fun rb -> (gen, tid, rb)) rb;
      rb

(* --- the probes ---------------------------------------------------------- *)

let push rb e =
  if rb.count = rb.cap then begin
    (* Full: overwrite the oldest event (at [next]) and count the drop. *)
    rb.dropped <- rb.dropped + 1;
    rb.buf.(rb.next) <- e;
    rb.next <- (rb.next + 1) mod rb.cap
  end
  else begin
    rb.buf.(rb.next) <- e;
    rb.next <- (rb.next + 1) mod rb.cap;
    rb.count <- rb.count + 1
  end

let now () = Unix.gettimeofday ()

type span = int

let null_span = 0

let parent_of rb = match rb.stack with (p, _) :: _ -> p | [] -> 0

let instant ?(attrs = []) name =
  if enabled () then
    match resolve () with
    | None -> ()
    | Some rb ->
        push rb
          {
            name;
            phase = Instant;
            ts = now ();
            span = 0;
            parent = parent_of rb;
            domain = rb.rb_domain;
            attrs;
          }

let start ?(attrs = []) name =
  if not (enabled ()) then null_span
  else
    match resolve () with
    | None -> null_span
    | Some rb ->
        let id = 1 + Atomic.fetch_and_add rb.rb_ids 1 in
        push rb
          {
            name;
            phase = Begin;
            ts = now ();
            span = id;
            parent = parent_of rb;
            domain = rb.rb_domain;
            attrs;
          };
        rb.stack <- (id, name) :: rb.stack;
        id

let finish ?(attrs = []) span =
  if span <> null_span && enabled () then
    match resolve () with
    | None -> ()
    | Some rb ->
        let name = ref "" in
        (match rb.stack with
        | (s, n) :: rest when s = span ->
            name := n;
            rb.stack <- rest
        | stack ->
            (* Tolerate out-of-order closes (an exception skipped a finish):
               drop the span wherever it sits so the stack stays sane. *)
            rb.stack <-
              List.filter
                (fun (s, n) ->
                  if s = span then name := n;
                  s <> span)
                stack);
        push rb
          {
            name = !name;
            phase = End;
            ts = now ();
            span;
            parent = 0;
            domain = rb.rb_domain;
            attrs;
          }

let with_span ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let s = start ?attrs name in
    match f () with
    | v ->
        finish s;
        v
    | exception e ->
        finish s ~attrs:[ ("error", Bool true) ];
        raise e
  end

let complete ?(attrs = []) ~start:ts0 name =
  if enabled () then
    match resolve () with
    | None -> ()
    | Some rb ->
        let id = 1 + Atomic.fetch_and_add rb.rb_ids 1 in
        push rb
          {
            name;
            phase = Complete ts0;
            ts = now ();
            span = id;
            parent = parent_of rb;
            domain = rb.rb_domain;
            attrs;
          }

(* --- reading ------------------------------------------------------------- *)

type ring = { ring_domain : int; events : event list; ring_dropped : int }

let scope_dump scope =
  Mutex.lock lock;
  let writers = scope.sc_writers in
  Mutex.unlock lock;
  List.sort
    (fun a b -> compare a.ring_domain b.ring_domain)
    (List.map
       (fun (_tid, rb) ->
         let oldest = if rb.count = rb.cap then rb.next else 0 in
         {
           ring_domain = rb.rb_domain;
           events =
             List.init rb.count (fun i -> rb.buf.((oldest + i) mod rb.cap));
           ring_dropped = rb.dropped;
         })
       writers)

(* --- the global scope (pre-scope CLI API) -------------------------------- *)

let reset () =
  Mutex.lock lock;
  global_scope.sc_writers <- [];
  refresh_routing ();
  Mutex.unlock lock

let enable ?ring_size () =
  (match ring_size with
  | Some n ->
      if n < 2 then invalid_arg "Trace.enable: ring must hold at least 2 events"
  | None -> ());
  Mutex.lock lock;
  (match ring_size with
  | Some n -> global_scope.sc_ring <- n
  | None -> ());
  global_scope.sc_writers <- [];
  global_on := true;
  refresh_routing ();
  Mutex.unlock lock

let disable () =
  Mutex.lock lock;
  global_on := false;
  refresh_routing ();
  Mutex.unlock lock

let dump () = scope_dump global_scope
