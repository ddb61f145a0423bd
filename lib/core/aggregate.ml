type func = Count | Sum | Avg | Min | Max

let func_to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let func_of_string s =
  match String.uppercase_ascii s with
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

(* All fields are floats, so the record is stored flat: updating a field
   writes the float in place instead of allocating a box, and [add] — run
   once per row per cuboid — allocates nothing. *)
type cell = {
  mutable n : float;
  mutable total : float;
  mutable low : float;
  mutable high : float;
}

let create () = { n = 0.; total = 0.; low = infinity; high = neg_infinity }

let add cell m =
  cell.n <- cell.n +. 1.;
  cell.total <- cell.total +. m;
  if m < cell.low then cell.low <- m;
  if m > cell.high then cell.high <- m

let merge ~into cell =
  into.n <- into.n +. cell.n;
  into.total <- into.total +. cell.total;
  if cell.low < into.low then into.low <- cell.low;
  if cell.high > into.high then into.high <- cell.high

let copy cell = { n = cell.n; total = cell.total; low = cell.low; high = cell.high }

let value func cell =
  match func with
  | Count -> cell.n
  | Sum -> cell.total
  | Avg -> if cell.n = 0. then nan else cell.total /. cell.n
  | Min -> if cell.n = 0. then nan else cell.low
  | Max -> if cell.n = 0. then nan else cell.high

let equal_value func a b =
  let va = value func a and vb = value func b in
  if Float.is_nan va && Float.is_nan vb then true
  else begin
    let scale = max 1. (max (Float.abs va) (Float.abs vb)) in
    Float.abs (va -. vb) <= 1e-9 *. scale
  end

(* Integral values below 1e15 are spelled as integers (every COUNT), via
   [string_of_int]: several times cheaper than [Printf]. Any other finite
   value takes the first of 15, 16 and 17 significant digits that reads
   back to the same bits; [nan] and the infinities keep [%g]'s spelling. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else if not (Float.is_finite v) then Printf.sprintf "%g" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s
    else
      let s = Printf.sprintf "%.16g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v

let pp func ppf cell =
  Format.fprintf ppf "%s=%s" (func_to_string func) (float_repr (value func cell))
