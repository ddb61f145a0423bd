type 'a t = {
  compare : 'a -> 'a -> int;
  mutable items : 'a array;
  mutable size : int;
}

let create ~compare = { compare; items = [||]; size = 0 }

let swap t i j =
  let tmp = t.items.(i) in
  t.items.(i) <- t.items.(j);
  t.items.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.items.(i) t.items.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && t.compare t.items.(left) t.items.(!smallest) < 0 then
    smallest := left;
  if right < t.size && t.compare t.items.(right) t.items.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  if t.size = Array.length t.items then begin
    let grown = Array.make (max 8 (2 * t.size)) x in
    Array.blit t.items 0 grown 0 t.size;
    t.items <- grown
  end;
  t.items.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.items.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.items.(0) <- t.items.(t.size);
      sift_down t 0
    end;
    Some top
  end
