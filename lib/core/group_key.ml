module State = X3_lattice.State
module Lattice = X3_lattice.Lattice
module Witness = X3_pattern.Witness
module Dict = Witness.Dict

(* --- one key shape per cuboid --------------------------------------------- *)
(* A cuboid's group key is its present axes' dictionary ids, axis order.
   An axis whose dictionary holds [n] values needs [bits_for n] bits; a
   cuboid whose own fields sum to at most 62 bits packs them into one
   tagged int, the first present axis in the lowest bits, and any other
   cuboid keeps them as an int array. The packed form is exactly the
   compact key the radix kernels compute, so their slots are keys. *)

type t = Packed of int | Wide of int array

type shape = {
  cuboid : State.t array;
  present : int array;
  widths : int array;
  shifts : int array;
  bits : int;
  packed : bool;
}

(* Bits to hold every id of a dictionary of [n] values (0 .. n-1). *)
let bits_for n =
  if n < 0 then invalid_arg "Group_key.bits_for: negative size";
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  go 0 1

(* 62 rather than 63: every packed key stays non-negative, so it never
   meets [Radix.key]'s -1 for a row that does not qualify. *)
let packed_bit_budget = 62

let widths_of_table table = Array.map bits_for (Witness.dict_sizes table)

let shape ~widths cuboid =
  let present = ref [] in
  for ai = Array.length cuboid - 1 downto 0 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present _ -> present := ai :: !present
  done;
  let present = Array.of_list !present in
  let widths = Array.map (fun ai -> widths.(ai)) present in
  let shifts = Array.make (Array.length widths) 0 in
  let bits = ref 0 in
  Array.iteri
    (fun j w ->
      shifts.(j) <- !bits;
      bits := !bits + w)
    widths;
  {
    cuboid;
    present;
    widths;
    shifts;
    bits = !bits;
    packed = !bits <= packed_bit_budget;
  }

let shapes ~widths lattice =
  Array.init (Lattice.size lattice) (fun cid ->
      shape ~widths (Lattice.cuboid lattice cid))

(* --- scratch: the allocation-free row -> key path ----------------------- *)

type scratch = {
  s_packed : bool;
  mutable s_key : int;
  s_wide : int array;  (** reused between loads; copied on freeze *)
}

let make_scratch s =
  {
    s_packed = s.packed;
    s_key = 0;
    s_wide = (if s.packed then [||] else Array.make (Array.length s.present) 0);
  }

let set_packed scratch k = scratch.s_key <- k
let set_field scratch j id = scratch.s_wide.(j) <- id

let freeze scratch =
  if scratch.s_packed then Packed scratch.s_key
  else Wide (Array.copy scratch.s_wide)

(* --- building and inspecting keys directly ------------------------------ *)

let of_axis_ids s ids =
  let id j =
    let v = ids.(s.present.(j)) in
    if v < 0 then invalid_arg "Group_key.of_axis_ids: negative id";
    v
  in
  if s.packed then begin
    let acc = ref 0 in
    for j = 0 to Array.length s.present - 1 do
      acc := !acc lor (id j lsl s.shifts.(j))
    done;
    Packed !acc
  end
  else Wide (Array.init (Array.length s.present) id)

let field s key j =
  match key with
  | Packed p -> (p lsr s.shifts.(j)) land ((1 lsl s.widths.(j)) - 1)
  | Wide w -> w.(j)

(* A lattice edge's shift table: which finer field feeds each coarser
   one. The coarser cuboid's present axes are a subset of the finer's. *)
type edge = { e_finer : shape; e_coarser : shape; e_src : int array }

let edge ~finer ~coarser =
  let src ai =
    let j = ref 0 in
    while !j < Array.length finer.present && finer.present.(!j) <> ai do
      incr j
    done;
    if !j = Array.length finer.present then
      invalid_arg "Group_key.edge: not a coarser cuboid";
    !j
  in
  {
    e_finer = finer;
    e_coarser = coarser;
    e_src = Array.map src coarser.present;
  }

let project e key =
  let c = e.e_coarser in
  if c.packed then begin
    let acc = ref 0 in
    for j = 0 to Array.length e.e_src - 1 do
      acc := !acc lor (field e.e_finer key e.e_src.(j) lsl c.shifts.(j))
    done;
    Packed !acc
  end
  else Wide (Array.map (field e.e_finer key) e.e_src)

(* --- the dictionary boundary -------------------------------------------- *)

let of_parts s ~dicts parts =
  if List.length parts <> Array.length s.present then
    invalid_arg "Group_key.of_parts: arity mismatch";
  let ids = Array.make (Array.length s.cuboid) 0 in
  match
    List.iteri
      (fun j part ->
        let ai = s.present.(j) in
        match Dict.find dicts.(ai) part with
        | None -> raise Exit
        | Some id -> ids.(ai) <- id)
      parts
  with
  | () -> Some (of_axis_ids s ids)
  | exception Exit -> None

let to_parts s ~dicts key =
  List.init (Array.length s.present) (fun j ->
      Dict.value dicts.(s.present.(j)) (field s key j))

(* --- key order, hashing ------------------------------------------------- *)
(* The per-row comparisons and probes below are [while] loops: a local
   recursive function over the key would allocate a closure per call. *)

(* Do the first [n] entries of [u] and [v] agree? *)
let prefix_equal (u : int array) (v : int array) n =
  let i = ref 0 in
  while !i < n && u.(!i) = v.(!i) do
    incr i
  done;
  !i >= n

let compare a b =
  match (a, b) with
  | Packed p, Packed q -> Int.compare p q
  | Wide u, Wide v ->
      let n = min (Array.length u) (Array.length v) in
      let i = ref 0 in
      while !i < n && u.(!i) = v.(!i) do
        incr i
      done;
      if !i < n then Int.compare u.(!i) v.(!i)
      else Int.compare (Array.length u) (Array.length v)
  | Packed _, Wide _ -> -1
  | Wide _, Packed _ -> 1

let equal a b =
  match (a, b) with
  | Packed p, Packed q -> p = q
  | Wide u, Wide v ->
      Array.length u = Array.length v && prefix_equal u v (Array.length u)
  | _ -> false

(* Splitmix-style finaliser: full avalanche, never negative. *)
let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  x land max_int

let hash_wide w = Array.fold_left (fun acc v -> mix (acc lxor v)) 0x9E3779B9 w

let hash = function Packed p -> mix p | Wide w -> hash_wide w

let scratch_hash scratch =
  if scratch.s_packed then mix scratch.s_key else hash_wide scratch.s_wide

(* A [Seen] set serves many cuboids, so a key may meet a scratch of
   another form or length. *)
let scratch_equal scratch key =
  match key with
  | Packed p -> scratch.s_packed && p = scratch.s_key
  | Wide w ->
      Array.length w = Array.length scratch.s_wide
      && prefix_equal w scratch.s_wide (Array.length w)

(* --- specialised open-addressing table over keys ------------------------ *)
(* Linear probing over a power-of-two slot array. Lookups can be keyed by a
   [scratch] directly, so the hot row -> group path never allocates a key
   for groups already seen. *)

module Tbl = struct
  type key = t
  type 'a slot = Free | Used of { key : key; mutable value : 'a }
  type 'a t = { mutable slots : 'a slot array; mutable size : int }

  let create capacity =
    let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
    { slots = Array.make (pow2 8) Free; size = 0 }

  let length t = t.size

  (* The probed slot holding [key], or the free slot ending its run. *)
  let index_of_key slots key =
    let mask = Array.length slots - 1 in
    let i = ref (hash key land mask) and found = ref false in
    while not !found do
      match slots.(!i) with
      | Used u when not (equal u.key key) -> i := (!i + 1) land mask
      | Free | Used _ -> found := true
    done;
    !i

  let grow t =
    let old = t.slots in
    let slots = Array.make (2 * Array.length old) Free in
    Array.iter
      (function
        | Free -> ()
        | Used u as slot -> slots.(index_of_key slots u.key) <- slot)
      old;
    t.slots <- slots

  let maybe_grow t =
    if 4 * t.size > 3 * Array.length t.slots then grow t

  let find_opt t key =
    match t.slots.(index_of_key t.slots key) with
    | Free -> None
    | Used u -> Some u.value

  let replace t key value =
    match t.slots.(index_of_key t.slots key) with
    | Used u -> u.value <- value
    | Free ->
        maybe_grow t;
        let i = index_of_key t.slots key in
        t.slots.(i) <- Used { key; value };
        t.size <- t.size + 1

  let index_of_scratch slots scratch =
    let mask = Array.length slots - 1 in
    let i = ref (scratch_hash scratch land mask) and found = ref false in
    while not !found do
      match slots.(!i) with
      | Used u when not (scratch_equal scratch u.key) ->
          i := (!i + 1) land mask
      | Free | Used _ -> found := true
    done;
    !i

  let find_or_add t scratch ~default =
    match t.slots.(index_of_scratch t.slots scratch) with
    | Used u -> u.value
    | Free ->
        maybe_grow t;
        let i = index_of_scratch t.slots scratch in
        let value = default () in
        t.slots.(i) <- Used { key = freeze scratch; value };
        t.size <- t.size + 1;
        value

  let iter f t =
    Array.iter (function Free -> () | Used u -> f u.key u.value) t.slots

  (* An entry is its own [Used] slot: [replace] writes a new value into
     it and [grow] moves it whole, so a held entry reads its key's
     current value for as long as the key stays in the table. *)
  type 'a entry = 'a slot

  let entry_key = function Used u -> u.key | Free -> invalid_arg "Tbl.entry_key"

  let entry_value = function
    | Used u -> u.value
    | Free -> invalid_arg "Tbl.entry_value"

  let fold f t init =
    Array.fold_left
      (fun acc -> function Free -> acc | Used u -> f u.key u.value acc)
      init t.slots
end

(* --- export order ---------------------------------------------------------- *)
(* The sort compares each present axis's memoised dictionary rank of the
   group's id, axis by axis — ints, not strings. The ranks are packed,
   first axis most significant, into as few words of at most 62 bits as
   hold them, so comparing a group's words in order compares its ranks in
   order: one word, one comparison, for every key narrow enough to pack.
   Keys are distinct, so the order is total whatever the table's slot
   order. *)

let sorted s ~dicts tbl =
  let n = Tbl.length tbl in
  let ranks = Array.map (fun ai -> Dict.ranks dicts.(ai)) s.present in
  let p = Array.length ranks in
  (* axis [j]'s rank takes [bits.(j)] bits of word [word.(j)] *)
  let bits =
    Array.map
      (fun r ->
        let rec go b = if 1 lsl b >= Array.length r then b else go (b + 1) in
        go 0)
      ranks
  in
  let word = Array.make p 0 and q = ref 0 and used = ref 0 in
  for j = 0 to p - 1 do
    if !q = 0 || !used + bits.(j) > 62 then begin
      incr q;
      used := 0
    end;
    word.(j) <- !q - 1;
    used := !used + bits.(j)
  done;
  let q = !q in
  let entries = Array.make n Tbl.Free in
  (* [code.((g * q) + w)] is entry [g]'s word [w] *)
  let code = Array.make (n * q) 0 in
  let g = ref 0 in
  Array.iter
    (function
      | Tbl.Free -> ()
      | Tbl.Used u as entry ->
          entries.(!g) <- entry;
          for j = 0 to p - 1 do
            let w = (!g * q) + word.(j) in
            code.(w) <-
              (code.(w) lsl bits.(j)) lor ranks.(j).(field s u.key j)
          done;
          incr g)
    tbl.Tbl.slots;
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = ref 0 and w = ref 0 in
      while !c = 0 && !w < q do
        c := Int.compare code.((a * q) + !w) code.((b * q) + !w);
        incr w
      done;
      !c)
    order;
  Array.map (fun g -> entries.(g)) order

(* --- generation-stamped membership set ---------------------------------- *)
(* Per-fact-block deduplication: [reset] is a generation bump, so clearing
   between the thousands of tiny blocks costs nothing. Stamped entries are
   only a cache (after a bump every entry is stale), so the table must not
   be allowed to accumulate every distinct key a long scan ever saw:
   [reset] rebuilds it small once stale entries dominate the widest
   generation observed. *)

module Seen = struct
  type t = {
    mutable tbl : int ref Tbl.t;
    mutable gen : int;
    mutable live : int;  (** distinct keys added this generation *)
    mutable high_water : int;  (** widest generation since last compaction *)
  }

  let compaction_slack = 8

  let create () = { tbl = Tbl.create 16; gen = 1; live = 0; high_water = 0 }

  let table_size t = Tbl.length t.tbl

  let reset t =
    if t.live > t.high_water then t.high_water <- t.live;
    if Tbl.length t.tbl > compaction_slack * max 16 t.high_water then begin
      (* Stale entries dominate: drop the cache rather than let the dedup
         set grow with total distinct keys ever seen. The high-water mark
         restarts so one early wide block cannot pin a large table
         forever. *)
      t.tbl <- Tbl.create 16;
      t.high_water <- t.live;
      t.gen <- 0
    end;
    t.live <- 0;
    t.gen <- t.gen + 1

  let add t scratch =
    let stamp = Tbl.find_or_add t.tbl scratch ~default:(fun () -> ref 0) in
    if !stamp = t.gen then false
    else begin
      stamp := t.gen;
      t.live <- t.live + 1;
      true
    end
end
