(** Bridges the engine's existing instrumentation into the unified
    {!X3_obs.Metrics} registry.

    {!Instrument} and {!X3_storage.Stats} stay the in-engine carriers (all
    call-sites untouched); this module is the view that absorbs them into
    named metrics at snapshot time. The names partition by determinism:

    - [cube.*] — algorithm-semantic counters plus [cube.cells]/[cube.cuboids]:
      identical for a fixed (query, algorithm, budget) on every run;
    - [profile.*] — resource-shaped values (counter peaks, radix scratch,
      peak bytes, attempts) that vary with the budget and retries;
    - [io.*] — substrate pool + disk counters;
    - [latency.*] — wall-clock histograms (seconds), one per phase and one
      per algorithm family. *)

val add_instr : X3_obs.Metrics.t -> Instrument.t -> unit
val add_io : X3_obs.Metrics.t -> X3_storage.Stats.t -> unit
val add_result : X3_obs.Metrics.t -> Cube_result.t -> unit
val add_run : X3_obs.Metrics.t -> Engine.run_stats -> unit
(** Absorbs the attributed I/O delta plus [profile.peak_bytes] and
    [profile.attempts]. *)

val observe_phase : X3_obs.Metrics.t -> string -> float -> unit
(** [observe_phase m name seconds] records one latency observation in
    [latency.phase.<name>]. *)

val observe_algorithm : X3_obs.Metrics.t -> string -> float -> unit

val build :
  ?instr:Instrument.t ->
  ?io:X3_storage.Stats.t ->
  ?result:Cube_result.t ->
  ?run:Engine.run_stats ->
  ?phases:(string * float) list ->
  ?algorithm:string ->
  unit ->
  X3_obs.Metrics.t
(** One-shot assembly of a registry from whatever the caller has. When
    both [algorithm] and a ["compute"] phase are present, the compute time
    is also recorded under [latency.algorithm.<name>]. *)
