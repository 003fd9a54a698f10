(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

    Hand-rolled so the storage layer carries no dependency beyond the
    standard library; OCaml's 63-bit ints hold the 32-bit state
    directly. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

(** Feed [len] bytes of [b] at [off] into a running checksum state
    (start from {!init}); finish with {!finalize}. *)
let update state b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update";
  let table = Lazy.force table in
  let c = ref state in
  (* In bounds: checked once above; the table index is a byte. *)
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get table
        ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

let init = 0xFFFFFFFF
let finalize state = state lxor 0xFFFFFFFF

(** One-shot digest of [len] bytes of [b] at [off]. *)
let digest b ~off ~len = finalize (update init b ~off ~len)
