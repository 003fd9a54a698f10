(** CRC-32 (IEEE 802.3) over byte ranges — the per-record integrity
    check of the storage frames ({!Frame}). *)

val init : int

(** [update state b ~off ~len] feeds [len] bytes of [b] at [off] into
    [state], a value in [\[0, 2^32)] as {!init} and [update] give. *)
val update : int -> Bytes.t -> off:int -> len:int -> int
val finalize : int -> int

(** [digest b ~off ~len] — one-shot checksum, in [\[0, 2^32)]. *)
val digest : Bytes.t -> off:int -> len:int -> int
