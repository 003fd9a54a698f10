(** CRC32-framed storage records on a {!Mmc_sim.Blockdev} (see the
    interface). *)

open Mmc_sim

type kind = Record | Header | Ckpt | Super

type t = { kind : kind; a : int; b : int; payload : Bytes.t }

let magic = Bytes.of_string "MMC\xf7"
let header_bytes = 4 + 1 + 8 + 8 + 4 + 4

(* Frames refuse payloads above this — a corrupted length field must
   not send the scanner (or an allocation) off to the moon. *)
let max_payload = 1 lsl 24

let kind_code = function Record -> 0 | Header -> 1 | Ckpt -> 2 | Super -> 3

let kind_of_code = function
  | 0 -> Some Record
  | 1 -> Some Header
  | 2 -> Some Ckpt
  | 3 -> Some Super
  | _ -> None

let put_i64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* The low 63 bits of the little-endian word: what [put_i64] wrote. *)
let get_i64 b off = Int64.to_int (Bytes.get_int64_le b off)

let put_i32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_i32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

let encode f =
  let len = Bytes.length f.payload in
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let out = Bytes.make (header_bytes + len) '\000' in
  Bytes.blit magic 0 out 0 4;
  Bytes.set out 4 (Char.chr (kind_code f.kind));
  put_i64 out 5 f.a;
  put_i64 out 13 f.b;
  put_i32 out 21 len;
  Bytes.blit f.payload 0 out header_bytes len;
  (* The checksum covers kind, a, b, len and the payload — everything
     after the magic except the checksum field itself. *)
  let crc = Crc32.update Crc32.init out ~off:4 ~len:21 in
  let crc = Crc32.finalize (Crc32.update crc out ~off:header_bytes ~len) in
  put_i32 out 25 crc;
  out

type read_result =
  | Ok of t * int  (** frame and the sectors it spans *)
  | Damaged of t * int
      (** structurally parseable, checksum mismatch: the fields are
          best-effort and the payload must not be decoded *)
  | Broken  (** no frame here: bad magic, kind or length *)

let sectors_spanned dev len =
  let ss = Blockdev.sector_size dev in
  if len = 0 then 1 else (len + ss - 1) / ss

type raw = {
  r_kind : kind;
  r_a : int;
  r_b : int;
  r_len : int;
  r_buf : Bytes.t;
  r_sectors : int;
  r_intact : bool;
}

(* The magic compared in place, as one 32-bit word. *)
let magic_word = Bytes.get_int32_le magic 0
let magic_at buf = Int32.equal (Bytes.get_int32_le buf 0) magic_word

(* One device read of [sectors] sectors (no further than the written
   extent) holds the header, and the whole frame unless it is longer;
   only then does a second read fetch it. *)
let read_raw dev ~sector ~sectors =
  let high = Blockdev.high dev in
  if sector >= high then None
  else begin
    let ahead = Int.max 1 (Int.min sectors (high - sector)) in
    let ss = Blockdev.sector_size dev in
    let buf = Blockdev.read dev ~sector ~len:(ahead * ss) in
    if not (magic_at buf) then None
    else
      match kind_of_code (Char.code (Bytes.get buf 4)) with
      | None -> None
      | Some kind ->
        let len = get_i32 buf 21 in
        let total = header_bytes + len in
        let span = sectors_spanned dev total in
        if len > max_payload || sector + span > high then None
        else begin
          let buf =
            if total <= Bytes.length buf then buf
            else Blockdev.read dev ~sector ~len:total
          in
          let crc = Crc32.update Crc32.init buf ~off:4 ~len:21 in
          let crc =
            Crc32.finalize (Crc32.update crc buf ~off:header_bytes ~len)
          in
          Some
            { r_kind = kind; r_a = get_i64 buf 5; r_b = get_i64 buf 13;
              r_len = len; r_buf = buf; r_sectors = span;
              r_intact = crc = get_i32 buf 25 }
        end
  end

let read dev ~sector =
  match read_raw dev ~sector ~sectors:1 with
  | None -> Broken
  | Some r ->
    let f =
      { kind = r.r_kind; a = r.r_a; b = r.r_b;
        payload = Bytes.sub r.r_buf header_bytes r.r_len }
    in
    if r.r_intact then Ok (f, r.r_sectors) else Damaged (f, r.r_sectors)

let append dev f =
  let bytes = encode f in
  let sector, sectors = Blockdev.append dev bytes in
  (sector, sectors)

let write_at dev ~sector f = Blockdev.write dev ~sector (encode f)
