(** Scoped tracing: per-writer ring buffers of span events.

    Probes are sprinkled through the engine at its natural seams (parse,
    compile, materialise, per-cuboid compute, governor and
    admission decisions). With tracing {e disabled} — the default — every
    probe is one atomic load and no allocation; {!with_span} simply calls
    its thunk.

    Events are captured into a {!scope}: an isolated bundle of rings (one
    per writer thread) with its own span-id counter. A thread binds a
    scope with {!with_scope}; every probe it emits while bound lands in
    that scope, so N concurrent server requests — each bound to its own
    scope on its own connection thread — capture disjoint span trees with
    no cross-request leakage. The engine computes on the calling thread,
    so one binding covers a request's whole compute. Each writer appends
    to its own fixed-size ring: no locks on the steady-state hot path,
    and a full ring drops its oldest event and counts the drop.

    The pre-scope API ({!enable}/{!disable}/{!reset}/{!dump}) drives a
    distinguished {e global} scope: threads bound to no scope write there
    while it is enabled — the single-query CLI behaviour. A thread bound
    to no scope while only request scopes are active writes nowhere.

    {!dump}/{!scope_dump} must only be called when no writer is mid-write
    — the engine computes on the calling thread, so dumping after a
    request (or between queries) is safe. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type phase =
  | Begin
  | End
  | Complete of float  (** a span emitted at once; payload = start time *)
  | Instant

type event = {
  name : string;  (** empty on [End] events whose span was force-closed *)
  phase : phase;
  ts : float;  (** [Unix.gettimeofday] at emission *)
  span : int;  (** span id, unique within its scope; 0 for instants *)
  parent : int;  (** enclosing open span in the same ring; 0 = root *)
  domain : int;  (** the emitting domain's id — one trace track each *)
  attrs : attr list;
}

val enabled : unit -> bool
(** One atomic load: true iff the global scope is enabled or any thread
    is currently bound to a scope. The fast gate every probe checks. *)

(** {1 Scopes} *)

type scope
(** An isolated trace capture: its own rings, span ids and identity.
    A request-scoped server carries one per in-flight request. *)

val make_scope : ?ring_size:int -> id:string -> unit -> scope
(** A fresh scope. [id] names it (a server uses the request id);
    [ring_size] (default 65536 events, min 2) bounds each writer's
    memory. *)

val scope_id : scope -> string

val with_scope : scope -> (unit -> 'a) -> 'a
(** Bind [scope] to the calling thread for the duration of the thunk:
    every probe the thread emits routes to it. Nests (the previous
    binding is restored) and is exception-safe. *)

val with_scope_opt : scope option -> (unit -> 'a) -> 'a
(** [with_scope] when [Some]; just the thunk when [None]. *)

type ring = {
  ring_domain : int;
  events : event list;  (** oldest first *)
  ring_dropped : int;  (** events overwritten after the ring filled *)
}

val scope_dump : scope -> ring list
(** Snapshot the scope's rings, sorted by domain id. Caller must ensure
    none of the scope's writers is concurrently writing (finish the
    request first). *)

(** {1 The global scope}

    The pre-scope single-query API: [enable] turns the global scope on
    for threads bound to no explicit scope. *)

val enable : ?ring_size:int -> unit -> unit
(** Turn global tracing on, clearing the global scope's previous rings.
    [ring_size] (default 65536 events, min 2) bounds each writer's
    memory. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop the global scope's buffered events and forget its rings (they
    re-register on next use); the enabled flag is untouched. Call between
    queries to scope a trace to one run. *)

val now : unit -> float

(** {1 Probes} *)

type span

val null_span : span

val start : ?attrs:attr list -> string -> span
(** Open a span on the calling thread's ring. Returns {!null_span} when
    tracing is off (or the thread routes nowhere); {!finish} on
    {!null_span} is a no-op. *)

val finish : ?attrs:attr list -> span -> unit

val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; an escaping exception closes
    the span with an [error] attribute and re-raises. *)

val instant : ?attrs:attr list -> string -> unit
(** A point event (admission decision, eviction, retry, ...). *)

val complete : ?attrs:attr list -> start:float -> string -> unit
(** Emit a whole span at once, for work whose begin time is only known to
    be interesting in hindsight (e.g. "this cuboid completed during the
    pass that started at [start]"). *)

val dump : unit -> ring list
(** Snapshot the global scope's rings, sorted by domain id. Caller must
    ensure no thread is concurrently writing to it. *)
