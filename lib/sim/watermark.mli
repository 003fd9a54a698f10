(** Sets of non-negative integers that fill in from below.

    Sequence numbers, positions and per-origin invocation numbers are
    issued in order and mostly retire in order, so the set of retired
    ones is a dense prefix plus a few stragglers.  A {!t} stores it as
    a low watermark — every integer below {!low} is a member, {!low}
    itself is not — plus the sparse members above it.  Adding {!low}
    moves the watermark up over every consecutive member, so the set
    holds explicitly only the members above its lowest gap: a few
    stragglers' worth, not one entry per member. *)

type t

(** The empty set. *)
val create : unit -> t

val copy : t -> t

(** The least non-member: every [n < low t] is a member. *)
val low : t -> int

val mem : t -> int -> bool

(** Add a member (idempotent); raises [Invalid_argument] on a negative
    one. *)
val add : t -> int -> unit

(** [add_below t k] adds every [n < k]. *)
val add_below : t -> int -> unit

(** Members above {!low}, in increasing order. *)
val above : t -> int list

(** Number of members above {!low}: what the set holds explicitly. *)
val sparse : t -> int
