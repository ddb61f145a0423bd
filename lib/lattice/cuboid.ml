module Axis = X3_pattern.Axis
module Columnar = X3_pattern.Witness.Columnar

type t = State.t array

let equal a b = Array.length a = Array.length b && Array.for_all2 State.equal a b

let compare a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else begin
      let c = State.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  let c = Int.compare n (Array.length b) in
  if c <> 0 then c else go 0

let leq a b =
  Array.length a = Array.length b && Array.for_all2 State.leq a b

let degree t axes =
  let total = ref 0 in
  Array.iteri (fun i s -> total := !total + State.degree s axes.(i)) t;
  !total

let rigid axes = Array.map (fun _ -> State.Present 0) axes

let most_relaxed axes =
  Array.map
    (fun axis ->
      if Axis.allows_lnd axis then State.Removed
      else State.Present (Axis.full_mask axis))
    axes

let successors t axes =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      List.iter
        (fun s' ->
          let next = Array.copy t in
          next.(i) <- s';
          acc := next :: !acc)
        (State.successors s axes.(i)))
    t;
  List.rev !acc

let present_axes t =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      match s with State.Present _ -> acc := i :: !acc | State.Removed -> ())
    t;
  List.rev !acc

(* Per-row predicates: [while] loops, as a local recursive function
   would allocate a closure on every call. *)
let represents t cols ~row =
  let n = Array.length t in
  let ai = ref 0 in
  while
    !ai < n
    &&
    match t.(!ai) with
    | State.Removed -> Columnar.first cols ~axis:!ai ~row
    | State.Present m -> Columnar.qualifies cols ~axis:!ai ~row ~state:m
  do
    incr ai
  done;
  !ai >= n

let qualifies t cols ~row =
  let n = Array.length t in
  let ai = ref 0 in
  while
    !ai < n
    &&
    match t.(!ai) with
    | State.Removed -> true
    | State.Present m -> Columnar.qualifies cols ~axis:!ai ~row ~state:m
  do
    incr ai
  done;
  !ai >= n

let to_string axes t =
  let parts =
    Array.to_list
      (Array.mapi
         (fun i s ->
           Printf.sprintf "%s:%s" axes.(i).Axis.name (State.to_string axes.(i) s))
         t)
  in
  "(" ^ String.concat ", " parts ^ ")"
