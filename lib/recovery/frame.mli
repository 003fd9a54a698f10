(** CRC32-framed storage records on a {!Mmc_sim.Blockdev}.

    Every durable object of the storage layer — WAL record, segment
    header, checkpoint snapshot, superblock — is one frame, always
    written at a sector boundary (a fresh write never shares a sector
    with an earlier one, so the recovery scanner can resync on magic
    bytes sector by sector after corruption).

    Layout, little-endian:
    [magic(4) | kind(1) | a(8) | b(8) | len(4) | crc32(4) | payload(len)]

    The checksum covers everything after the magic except itself.
    [a]/[b] are per-kind integer fields (record: position/origin;
    segment header: sequence/first position; checkpoint: covered
    position; superblock: low watermark/generation). *)

open Mmc_sim

type kind =
  | Record  (** one WAL entry; payload = marshalled ['p option] *)
  | Header  (** segment header; payload = marshalled generation *)
  | Ckpt  (** checkpoint; payload = marshalled snapshot *)
  | Super  (** superblock: durable truncation low watermark *)

type t = { kind : kind; a : int; b : int; payload : Bytes.t }

val header_bytes : int

val encode : t -> Bytes.t

type read_result =
  | Ok of t * int  (** frame and the sectors it spans *)
  | Damaged of t * int
      (** structurally parseable but the checksum fails: fields are
          best-effort, the payload must never be unmarshalled *)
  | Broken  (** no frame at this sector (bad magic, kind or length) *)

(** Decode the frame starting at [sector].  [Broken] past the device
    watermark, on bad magic/kind, or on a length that runs off the
    written extent. *)
val read : Blockdev.t -> sector:int -> read_result

(** A frame as read, still in the device buffer: its payload is
    [r_buf] from {!header_bytes} on, [r_len] bytes long, and
    [r_intact] says whether its checksum holds (if not, the fields are
    best-effort and the payload must never be unmarshalled). *)
type raw = {
  r_kind : kind;
  r_a : int;
  r_b : int;
  r_len : int;
  r_buf : Bytes.t;
  r_sectors : int;  (** sectors the frame spans *)
  r_intact : bool;
}

(** [read_raw dev ~sector ~sectors] — {!read} without the payload
    copy: [None] where {!read} answers [Broken], and otherwise its
    frame, [r_intact] where it answers [Ok].  The first device read
    covers [sectors] sectors (a caller that knows the frame's span
    passes it, so one read suffices); a longer frame takes a second
    read. *)
val read_raw : Blockdev.t -> sector:int -> sectors:int -> raw option

(** Append at the device watermark; returns [(sector, sectors)]. *)
val append : Blockdev.t -> t -> int * int

(** Rewrite a frame in place (peer repair); returns sectors covered. *)
val write_at : Blockdev.t -> sector:int -> t -> int
