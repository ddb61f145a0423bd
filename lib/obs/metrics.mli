(** A unified metrics registry: named counters, gauges and latency
    histograms over atomics.

    One registry describes one query (or one bench run). Metric handles
    are interned by name — looking one up twice returns the same atomic —
    and every update after creation is lock-free, so concurrent serve
    requests may bump shared counters. {!snapshot} is deterministic:
    entries sorted by name, values read once. *)

type t

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if [name] exists with a
    different kind. *)

val gauge : t -> string -> gauge
val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are ascending finite upper bounds (default: log-spaced
    1µs..10s for latencies in seconds); an overflow bucket is implicit. *)

val default_buckets : float array

val labeled : string -> (string * string) list -> string
(** [labeled name [(k, v); ...]] is the canonical labelled metric name
    [name{k="v",...}], with values escaped per the Prometheus text format
    (backslash, double quote, newline). Intern the result like any other
    name: each label combination is its own metric, and the Prometheus
    encoder renders the series under the shared base name. [labeled name
    [] = name]. *)

val escape_label_value : string -> string
(** The Prometheus label-value escape (backslash, double quote, newline)
    — exposed for encoders that assemble label sets by hand. *)

val inc : ?by:int -> counter -> unit
val set : gauge -> int -> unit
val observe : histogram -> float -> unit

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      bounds : float array;
      counts : int array;  (** per-bucket, overflow last; not cumulative *)
      count : int;
      sum : float;
    }

val snapshot : t -> (string * value) list
(** All metrics, sorted by name. *)
