(** A minimal JSON document builder.

    One encoder for every machine-readable artefact the engine emits —
    Chrome traces, metrics documents, bench results — so they all share
    escaping, float formatting and layout instead of each hand-rolling
    [Printf] into a [Buffer]. Field order is preserved as given;
    deterministic inputs produce byte-identical documents. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN/infinity render as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Render the document; [pretty] (default [true]) uses 2-space indent and
    one field per line. A trailing newline is appended when pretty. *)

val to_file : ?pretty:bool -> string -> t -> unit

val escape : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string literal — how {!to_string}
    renders [Str], for writers that stream a document into a buffer. *)

val parse : string -> (t, string) result
(** Decode one JSON document — the inverse of {!to_string} for everything
    the encoder emits. Numbers without a fraction or exponent decode as
    [Int], others as [Float]; [\uXXXX] escapes decode to UTF-8. Nesting
    deeper than 512 levels, trailing bytes and malformed input are typed
    errors (never an exception) — this is the front door for untrusted
    protocol frames. *)

(** {2 Accessors — conveniences for protocol decoding} *)

val member : string -> t -> t option
(** Field of an [Obj] ([None] on anything else or a missing key). *)

val string_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option
