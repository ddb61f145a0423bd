module Governor = X3_core.Governor

type 'a entry = {
  e_key : string;
  e_value : 'a;
  mutable e_bytes : int;
  mutable e_stamp : int;  (* LRU clock: larger = more recently used *)
}

type 'a t = {
  account : Governor.account;
  on_evict : string -> 'a -> unit;
  observe_walk : seconds:float -> victims:int -> unit;
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(on_evict = fun _ _ -> ())
    ?(observe_walk = fun ~seconds:_ ~victims:_ -> ()) ~account () =
  {
    account;
    on_evict;
    observe_walk;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          e.e_stamp <- tick t;
          Some e.e_value
      | None ->
          t.misses <- t.misses + 1;
          None)

let peek t key =
  locked t (fun () ->
      Option.map (fun e -> e.e_value) (Hashtbl.find_opt t.table key))

(* Detach one entry under the lock, releasing its bytes; the [on_evict]
   callback is deferred to after unlock so it may re-enter the cache
   (a document eviction removes its cuboid views). *)
let detach t e =
  Hashtbl.remove t.table e.e_key;
  Governor.release t.account e.e_bytes;
  fun () -> t.on_evict e.e_key e.e_value

let lru t =
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | Some best when best.e_stamp <= e.e_stamp -> acc
      | _ -> Some e)
    t.table None

(* Reserve [bytes] under the lock, detaching least-recently-used victims
   until the reservation fits. [false] when no victim is left, or when the
   victim is [self] — an entry being re-booked in place that is itself
   the least recently used gives itself up rather than a fresher one.
   Only here are evictions counted. A reservation that needs victims is
   the walk worth timing: each round scans the whole table for the LRU
   victim, so a hot cache under churn pays O(entries) per freed entry. *)
let make_room t ?self ~bytes deferred =
  if Governor.reserve t.account bytes then true
  else begin
    let t0 = Unix.gettimeofday () in
    let victims = ref 0 in
    let rec go () =
      if Governor.reserve t.account bytes then true
      else
        match lru t with
        | None -> false
        | Some victim ->
            deferred := detach t victim :: !deferred;
            t.evictions <- t.evictions + 1;
            incr victims;
            if Option.fold ~none:false ~some:(( == ) victim) self then false
            else go ()
    in
    let fits = go () in
    let seconds = Unix.gettimeofday () -. t0 and victims = !victims in
    if victims > 0 then
      deferred := (fun () -> t.observe_walk ~seconds ~victims) :: !deferred;
    fits
  end

(* Run the deferred callbacks, oldest first, outside the lock. *)
let settle deferred = List.iter (fun f -> f ()) (List.rev deferred)

let insert t ~key ~bytes value =
  let deferred = ref [] in
  let stored =
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some old -> deferred := detach t old :: !deferred
        | None -> ());
        make_room t ~bytes deferred
        && begin
             Hashtbl.replace t.table key
               { e_key = key; e_value = value; e_bytes = bytes; e_stamp = tick t };
             true
           end)
  in
  settle !deferred;
  stored

let recharge t ~key ~bytes =
  let deferred = ref [] in
  let kept =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | None -> false
        | Some e ->
            Governor.release t.account e.e_bytes;
            e.e_bytes <- 0;
            (* [e] is in the table, so the walk ends at it at the
               latest: it fits, or it was the last victim *)
            make_room t ~self:e ~bytes deferred
            && begin
                 e.e_bytes <- bytes;
                 true
               end)
  in
  settle !deferred;
  kept

let remove t key =
  let deferred =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e -> Some (detach t e)
        | None -> None)
  in
  Option.iter (fun f -> f ()) deferred

(* Oldest-first so a consumer that replays the list (the warm-restart
   snapshot) reconstructs the same recency order by inserting in turn. *)
let snapshot t =
  locked t (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
      |> List.sort (fun a b -> compare a.e_stamp b.e_stamp)
      |> List.map (fun e -> (e.e_key, e.e_value, e.e_bytes)))

let entries t = locked t (fun () -> Hashtbl.length t.table)
let resident_bytes t = Governor.account_used t.account
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
