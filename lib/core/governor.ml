(* Byte-budgeted execution and admission control.

   The pool and the accounts are plain atomics so concurrent requests can
   reserve from one pool; admission is a mutex-protected FIFO waiter queue
   over a Condition — waiters block (zero CPU between wakeups) instead of
   polling, which matters once a resident daemon parks many of them.
   stdlib Condition has no timed wait, so deadlines are enforced by one
   lazily started watchdog thread per door that broadcasts around the
   earliest pending deadline and exits as soon as no timed waiter
   remains. *)

(* --- cost model --------------------------------------------------------- *)

(* One live counter: a Group_key.Tbl slot (two array entries), a boxed
   key (the cuboid's Packed int, or a Wide array of its present ids past
   62 bits) and an Aggregate.cell (4 mutable fields + header). Measured
   with Obj.reachable_words this lands between 70 and 110 bytes depending
   on key width; 96 is the documented middle. *)
let counter_cost = 96

(* One (key, row) record in TD's sort array: the tuple (3 words), the
   key's constructor box (2 words), a Wide key's id array (1 + k words
   for k present axes) and the array slot (1 word). *)
let sort_record_cost (s : Group_key.shape) =
  let key_words =
    if s.Group_key.packed then 0 else 1 + Array.length s.present
  in
  8 * (6 + key_words)

(* --- the global pool ---------------------------------------------------- *)

type t = {
  g_limit : int;
  g_used : int Atomic.t;
  g_peak : int Atomic.t;
  g_shed : int Atomic.t;
}

let create ?(max_bytes = max_int) () =
  if max_bytes < 0 then invalid_arg "Governor.create: negative budget";
  {
    g_limit = max_bytes;
    g_used = Atomic.make 0;
    g_peak = Atomic.make 0;
    g_shed = Atomic.make 0;
  }

let limit t = t.g_limit
let used t = Atomic.get t.g_used
let peak t = Atomic.get t.g_peak
let shed t = Atomic.get t.g_shed

let rec bump_peak peak candidate =
  let current = Atomic.get peak in
  if candidate > current then
    if not (Atomic.compare_and_set peak current candidate) then
      bump_peak peak candidate

(* CAS loop: book [n] bytes iff the pool stays within its limit. *)
let rec pool_reserve t n =
  let current = Atomic.get t.g_used in
  if current > t.g_limit - n then begin
    Atomic.incr t.g_shed;
    false
  end
  else if Atomic.compare_and_set t.g_used current (current + n) then begin
    bump_peak t.g_peak (current + n);
    true
  end
  else pool_reserve t n

let pool_release t n = ignore (Atomic.fetch_and_add t.g_used (-n))

(* --- per-query accounts ------------------------------------------------- *)

type account = {
  pool : t option;
  a_limit : int;
  a_used : int Atomic.t;
  a_peak : int Atomic.t;
  a_closed : bool Atomic.t;
}

let make_account pool a_limit =
  {
    pool;
    a_limit;
    a_used = Atomic.make 0;
    a_peak = Atomic.make 0;
    a_closed = Atomic.make false;
  }

let unbounded = make_account None max_int

let open_account ?(max_bytes = max_int) pool =
  if max_bytes < 0 then invalid_arg "Governor.open_account: negative budget";
  make_account pool max_bytes

let is_unbounded a = a.pool = None && a.a_limit = max_int

let rec local_reserve a n =
  let current = Atomic.get a.a_used in
  if current > a.a_limit - n then false
  else if Atomic.compare_and_set a.a_used current (current + n) then begin
    bump_peak a.a_peak (current + n);
    true
  end
  else local_reserve a n

let reserve a n =
  if n <= 0 || is_unbounded a then true
  else if not (local_reserve a n) then false
  else
    match a.pool with
    | None -> true
    | Some pool ->
        if pool_reserve pool n then true
        else begin
          (* Roll the local booking back so the account stays balanced. *)
          ignore (Atomic.fetch_and_add a.a_used (-n));
          false
        end

let release a n =
  if n > 0 && not (is_unbounded a) then begin
    ignore (Atomic.fetch_and_add a.a_used (-n));
    Option.iter (fun pool -> pool_release pool n) a.pool
  end

let account_used a = Atomic.get a.a_used
let account_peak a = Atomic.get a.a_peak

let remaining a =
  if is_unbounded a then max_int
  else begin
    let local = a.a_limit - Atomic.get a.a_used in
    let pool =
      match a.pool with
      | None -> max_int
      | Some p -> p.g_limit - Atomic.get p.g_used
    in
    max 0 (min local pool)
  end

let close a =
  if not (is_unbounded a) && Atomic.compare_and_set a.a_closed false true then begin
    let left = Atomic.exchange a.a_used 0 in
    if left > 0 then Option.iter (fun pool -> pool_release pool left) a.pool
  end

(* --- admission control --------------------------------------------------- *)

module Admission = struct
  type waiter = {
    w_deadline : float option;  (** absolute, [None] = infinite patience *)
    mutable w_state : [ `Waiting | `Admitted | `Abandoned ];
  }

  type t = {
    max_in_flight : int;
    max_waiting : int;
    lock : Mutex.t;
    slot_freed : Condition.t;
    mutable in_flight : int;
    mutable queue : waiter list;  (** FIFO: head is next to admit *)
    mutable admitted_total : int;
    mutable rejected_total : int;
    mutable watchdog_running : bool;
  }

  let create ?(max_in_flight = 4) ?(max_waiting = 16) () =
    if max_in_flight < 0 || max_waiting < 0 then
      invalid_arg "Admission.create: negative capacity";
    {
      max_in_flight;
      max_waiting;
      lock = Mutex.create ();
      slot_freed = Condition.create ();
      in_flight = 0;
      queue = [];
      admitted_total = 0;
      rejected_total = 0;
      watchdog_running = false;
    }

  type rejection =
    | Saturated of { in_flight : int; waiting : int }
    | Timed_out of { waited : float }

  let pp_rejection ppf = function
    | Saturated { in_flight; waiting } ->
        Format.fprintf ppf
          "saturated (%d queries in flight, %d already waiting)" in_flight
          waiting
    | Timed_out { waited } ->
        Format.fprintf ppf "no slot freed within %.3fs" waited

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* Stdlib [Condition] has no timed wait, so timed waiters are woken by a
     watchdog: one thread per door, started lazily when a timed waiter
     blocks, broadcasting at (or slightly before) the earliest pending
     deadline and exiting once no timed waiter remains. The chunk cap
     bounds how late a newly arrived, earlier deadline can be noticed. *)
  let watchdog_chunk = 0.005

  let earliest_deadline t =
    List.fold_left
      (fun acc w ->
        match (w.w_state, w.w_deadline) with
        | `Waiting, Some d -> (
            match acc with Some e -> Some (Float.min e d) | None -> Some d)
        | _ -> acc)
      None t.queue

  let rec watchdog t =
    let next = locked t (fun () -> earliest_deadline t) in
    match next with
    | None ->
        locked t (fun () ->
            (* Re-check under the lock: a timed waiter may have arrived
               between the read and here; if so keep running. *)
            match earliest_deadline t with
            | Some _ -> true
            | None ->
                t.watchdog_running <- false;
                false)
        |> fun keep_going -> if keep_going then watchdog t
    | Some d ->
        let now = Unix.gettimeofday () in
        if d > now then Thread.delay (Float.min (d -. now) watchdog_chunk)
        else begin
          locked t (fun () ->
              (* Deadline reached: wake everyone so expired waiters can
                 deregister themselves. *)
              Condition.broadcast t.slot_freed);
          (* Give the woken waiter a beat to deregister before re-checking,
             so this loop never spins hot against the scheduler. *)
          Thread.delay 0.0002
        end;
        watchdog t

  let ensure_watchdog t =
    (* Called with the lock held. *)
    if not t.watchdog_running then begin
      t.watchdog_running <- true;
      ignore (Thread.create watchdog t)
    end

  (* Head-of-line check. Admission is strictly FIFO: a freed slot goes to
     the longest waiter, and a newcomer may only take a slot directly when
     nobody is queued ahead of it. *)
  let first_live_waiter t =
    List.find_opt (fun w -> w.w_state = `Waiting) t.queue

  let waiting_count t =
    List.length (List.filter (fun w -> w.w_state = `Waiting) t.queue)

  let compact_queue t =
    if List.exists (fun w -> w.w_state <> `Waiting) t.queue then
      t.queue <- List.filter (fun w -> w.w_state = `Waiting) t.queue

  let admit ?max_wait t =
    let started = Unix.gettimeofday () in
    let deadline = Option.map (fun w -> started +. w) max_wait in
    let trace_admit () =
      X3_obs.Trace.instant "admission.admit"
        ~attrs:
          [ ("waited", X3_obs.Trace.Float (Unix.gettimeofday () -. started)) ]
    in
    let trace_reject r =
      X3_obs.Trace.instant "admission.reject"
        ~attrs:
          [
            ( "reason",
              X3_obs.Trace.Str
                (match r with
                | Saturated _ -> "saturated"
                | Timed_out _ -> "timed_out") );
            ("waited", X3_obs.Trace.Float (Unix.gettimeofday () -. started));
          ];
      Error r
    in
    let decision =
      locked t (fun () ->
          if t.in_flight < t.max_in_flight && first_live_waiter t = None then begin
            t.in_flight <- t.in_flight + 1;
            t.admitted_total <- t.admitted_total + 1;
            `Admitted
          end
          else if waiting_count t >= t.max_waiting then begin
            t.rejected_total <- t.rejected_total + 1;
            `Rejected
              (Saturated { in_flight = t.in_flight; waiting = waiting_count t })
          end
          else begin
            match deadline with
            | Some d when Unix.gettimeofday () >= d ->
                (* Zero patience and no free slot: a registration would
                   expire before it could ever block. *)
                t.rejected_total <- t.rejected_total + 1;
                `Rejected
                  (Timed_out { waited = Unix.gettimeofday () -. started })
            | _ ->
                let w = { w_deadline = deadline; w_state = `Waiting } in
                t.queue <- t.queue @ [ w ];
                if deadline <> None then ensure_watchdog t;
                X3_obs.Trace.instant "admission.wait";
                let rec wait_loop () =
                  if
                    t.in_flight < t.max_in_flight
                    &&
                    match first_live_waiter t with
                    | Some head -> head == w
                    | None -> false
                  then begin
                    w.w_state <- `Admitted;
                    compact_queue t;
                    t.in_flight <- t.in_flight + 1;
                    t.admitted_total <- t.admitted_total + 1;
                    (* The next queued waiter may also be admissible (several
                       releases can land before the head wakes). *)
                    Condition.broadcast t.slot_freed;
                    `Admitted
                  end
                  else begin
                    match w.w_deadline with
                    | Some d when Unix.gettimeofday () >= d ->
                        w.w_state <- `Abandoned;
                        compact_queue t;
                        t.rejected_total <- t.rejected_total + 1;
                        (* Abandoning the head seat can unblock the waiter
                           behind it. *)
                        Condition.broadcast t.slot_freed;
                        `Rejected
                          (Timed_out
                             { waited = Unix.gettimeofday () -. started })
                    | _ ->
                        Condition.wait t.slot_freed t.lock;
                        wait_loop ()
                  end
                in
                wait_loop ()
          end)
    in
    match decision with
    | `Admitted ->
        trace_admit ();
        Ok ()
    | `Rejected r -> trace_reject r

  let release t =
    locked t (fun () ->
        if t.in_flight <= 0 then
          invalid_arg "Admission.release: nothing in flight";
        t.in_flight <- t.in_flight - 1;
        Condition.broadcast t.slot_freed)

  let in_flight t = locked t (fun () -> t.in_flight)
  let waiting t = locked t (fun () -> waiting_count t)
  let admitted_total t = locked t (fun () -> t.admitted_total)
  let rejected_total t = locked t (fun () -> t.rejected_total)
end
