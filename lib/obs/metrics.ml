(* A named-metric registry over atomics.

   Creation (get-or-create by name) takes the registry mutex; every update
   afterwards is lock-free, so concurrent requests can bump shared counters.
   Histogram sums are accumulated with a CAS loop over a boxed float —
   observations are rare (per phase, per run), so contention is nil. *)

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  bounds : float array;  (* ascending upper bounds; +inf bucket implicit *)
  buckets : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = MCounter of counter | MGauge of gauge | MHist of histogram

type t = { lock : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }

let kind_name = function
  | MCounter _ -> "counter"
  | MGauge _ -> "gauge"
  | MHist _ -> "histogram"

let intern t name make match_ =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> (
          match match_ m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as a %s" name
                   (kind_name m)))
      | None ->
          let m, v = make () in
          Hashtbl.replace t.tbl name m;
          v)

let counter t name =
  intern t name
    (fun () ->
      let c = Atomic.make 0 in
      (MCounter c, c))
    (function MCounter c -> Some c | _ -> None)

let gauge t name =
  intern t name
    (fun () ->
      let g = Atomic.make 0 in
      (MGauge g, g))
    (function MGauge g -> Some g | _ -> None)

(* Log-spaced seconds: 1µs .. 10s, the range a phase latency can sensibly
   land in on any hardware this runs on. *)
let default_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]

let histogram ?(buckets = default_buckets) t name =
  let ok =
    Array.length buckets > 0
    && Array.for_all Float.is_finite buckets
    &&
    let sorted = ref true in
    Array.iteri
      (fun i b -> if i > 0 && b <= buckets.(i - 1) then sorted := false)
      buckets;
    !sorted
  in
  if not ok then invalid_arg "Metrics.histogram: bounds must ascend";
  intern t name
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0.;
        }
      in
      (MHist h, h))
    (function MHist h -> Some h | _ -> None)

let inc ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let set g v = Atomic.set g v

let rec fadd a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then fadd a x

let observe h x =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || x <= h.bounds.(i) then i else bucket (i + 1) in
  ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  fadd h.h_sum x

(* Labels are encoded into the interned name in canonical Prometheus
   form — [name{k="v",...}] — so the registry, snapshot and JSON export
   stay a flat (string * value) association and only the Prometheus
   encoder needs to understand the structure. Label values are escaped
   here, once, per the exposition format (backslash, quote, newline). *)

let escape_label_value v =
  let b = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let labeled name labels =
  match labels with
  | [] -> name
  | _ ->
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map
              (fun (k, v) ->
                Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      bounds : float array;
      counts : int array;
      count : int;
      sum : float;
    }

let snapshot t =
  Mutex.lock t.lock;
  let entries =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | MCounter c -> Counter (Atomic.get c)
          | MGauge g -> Gauge (Atomic.get g)
          | MHist h ->
              Histogram
                {
                  bounds = Array.copy h.bounds;
                  counts = Array.map Atomic.get h.buckets;
                  count = Atomic.get h.h_count;
                  sum = Atomic.get h.h_sum;
                }
        in
        (name, v) :: acc)
      t.tbl []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries
