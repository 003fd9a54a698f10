(** Plain-text history format for saving and loading traces.

    {v
    objects <n>
    mop <id> <proc> <inv> <resp> [<op> ...]
    rf <reader> <obj> <writer>
    v}

    where an op is [r:<obj>:<value>] or [w:<obj>:<value>] and values
    are [i<int>], [b<bool>], [u] or [s<string>].  [#]-lines and blank
    lines are ignored.  The initializer is implicit.  Structured
    values ([Pair]/[List]) are not representable and raise
    [Invalid_argument] on encoding. *)

exception Parse_error of string

val encode_value : Value.t -> string
val decode_value : string -> Value.t
val encode_op : Op.t -> string
val decode_op : string -> Op.t

val to_string : History.t -> string

(** Raises {!Parse_error} on syntax errors — an m-operation whose
    response precedes its invocation among them, naming its line — and
    {!History.Ill_formed} on semantic ones. *)
val of_string : string -> History.t

val to_file : History.t -> string -> unit
val of_file : string -> History.t

(** NDJSON streaming format: one m-operation per line, for traces too
    large to hold in memory.

    {v
    {"objects":8}
    {"id":1,"proc":0,"inv":3,"resp":9,"ops":["w:0:i5"],"rf":[],"sync":0}
    {"id":2,"proc":1,"inv":4,"resp":4,"ops":["r:0:i5"],"rf":[[0,1]]}
    v}

    The header gives the object count; each following non-blank line is
    one m-operation with its reads-from edges as [[object, writer-id]]
    pairs (writer 0 = initializer) and, when present, its atomic
    broadcast position as ["sync"].  Ops reuse {!encode_op}. *)
module Stream : sig
  (** One m-operation as a single NDJSON line (no newline). *)
  val mop_line : ?sync:int -> Mop.t -> rf:(Types.obj_id * Types.mop_id) list -> string

  val write_header : out_channel -> n_objects:int -> unit
  val write_mop :
    out_channel -> ?sync:int -> Mop.t -> rf:(Types.obj_id * Types.mop_id) list -> unit

  (** Fold over a stream without materialising it.  [f] receives each
      m-operation with its rf pairs and optional sync position; raises
      {!Parse_error} on malformed input, naming the line (an
      m-operation whose response precedes its invocation included). *)
  val fold :
    in_channel ->
    init:'a ->
    f:
      ('a ->
      n_objects:int ->
      Mop.t ->
      rf:(Types.obj_id * Types.mop_id) list ->
      sync:int option ->
      'a) ->
    'a

  (** Whole-history conveniences (round-trips, small files).
      [sync_of] supplies each m-operation's broadcast position. *)
  val to_channel :
    out_channel -> ?sync_of:(Types.mop_id -> int option) -> History.t -> unit

  (** Raises {!Parse_error} on syntax errors and {!History.Ill_formed}
      on semantic ones. *)
  val of_channel : in_channel -> History.t
end
