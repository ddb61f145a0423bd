let insertion_cutoff = 12

let insertion_sort ~compare a lo hi =
  for i = lo + 1 to hi do
    let key = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && compare a.(!j) key > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- key
  done

let swap a i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

(* Median of a.(lo), a.(mid), a.(hi), moved to a.(mid). *)
let median_of_three ~compare a lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if compare a.(lo) a.(mid) > 0 then swap a lo mid;
  if compare a.(lo) a.(hi) > 0 then swap a lo hi;
  if compare a.(mid) a.(hi) > 0 then swap a mid hi;
  mid

(* Three-way (Dutch national flag) partition: elements equal to the pivot
   gather in the middle and drop out of the recursion. Group-key sorting —
   the dominant sort in cube computation — produces long runs of equal
   keys, on which two-way partitioning degrades quadratically. Returns the
   bounds (lt, gt) of the equal region. *)
let partition3 ~compare a lo hi =
  let mid = median_of_three ~compare a lo hi in
  swap a lo mid;
  let pivot = a.(lo) in
  let lt = ref lo and i = ref (lo + 1) and gt = ref hi in
  while !i <= !gt do
    let c = compare a.(!i) pivot in
    if c < 0 then begin
      swap a !lt !i;
      incr lt;
      incr i
    end
    else if c > 0 then begin
      swap a !i !gt;
      decr gt
    end
    else incr i
  done;
  (!lt, !gt)

let rec sort_range ~compare a lo hi =
  if hi - lo + 1 > insertion_cutoff then begin
    let lt, gt = partition3 ~compare a lo hi in
    (* Recurse on the smaller side first; tail-call on the larger one. *)
    if lt - lo < hi - gt then begin
      sort_range ~compare a lo (lt - 1);
      sort_range ~compare a (gt + 1) hi
    end
    else begin
      sort_range ~compare a (gt + 1) hi;
      sort_range ~compare a lo (lt - 1)
    end
  end
  else if hi > lo then insertion_sort ~compare a lo hi

let sort_sub ~compare a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Quicksort.sort_sub";
  if len > 1 then sort_range ~compare a pos (pos + len - 1)

let sort ~compare a = sort_sub ~compare a ~pos:0 ~len:(Array.length a)
