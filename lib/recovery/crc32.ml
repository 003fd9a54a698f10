(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven
    slicing-by-8.

    Hand-rolled so the storage layer carries no dependency beyond the
    standard library; OCaml's 63-bit ints hold the 32-bit state
    directly.  Each step folds eight bytes through eight 256-entry
    tables ([tables.(k * 256 + n)] is the state after [n] is followed
    by [k] zero bytes), read as two little-endian 32-bit words so no
    bit is lost to the 63-bit int; the tail under eight bytes goes one
    byte at a time through the first table. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xff)
    done
  done;
  t

(* Table [k]'s entry for the low byte of [n]: in bounds, as the index
   is masked to a byte. *)
let[@inline] t k n = Array.unsafe_get tables ((k * 256) + (n land 0xff))

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* The unsigned little-endian 32-bit word at [i]; unchecked. *)
let[@inline] word b i =
  let w = if Sys.big_endian then bswap32 (get32u b i) else get32u b i in
  Int32.to_int w land 0xFFFFFFFF

(** Feed [len] bytes of [b] at [off] into a running checksum state
    (start from {!init}); finish with {!finalize}. *)
let update state b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update";
  (* The reads below are in bounds: checked once above. *)
  let c = ref state in
  let i = ref off in
  let stop = off + len in
  while stop - !i >= 8 do
    let one = word b !i lxor !c and two = word b (!i + 4) in
    c :=
      t 7 one
      lxor t 6 (one lsr 8)
      lxor t 5 (one lsr 16)
      lxor t 4 (one lsr 24)
      lxor t 3 two
      lxor t 2 (two lsr 8)
      lxor t 1 (two lsr 16)
      lxor t 0 (two lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := t 0 (!c lxor Char.code (Bytes.unsafe_get b j)) lxor (!c lsr 8)
  done;
  !c

let init = 0xFFFFFFFF
let finalize state = state lxor 0xFFFFFFFF

(** One-shot digest of [len] bytes of [b] at [off]. *)
let digest b ~off ~len = finalize (update init b ~off ~len)
