(** Deterministic simulated block device (see the interface). *)

let chunk_sectors = 32

type t = {
  sector_size : int;
  chunk_bytes : int;  (** [chunk_sectors * sector_size] *)
  mutable chunks : Bytes.t array;
      (** chunk [c] holds sectors [[c * chunk_sectors, (c+1) *
          chunk_sectors)]; [Bytes.empty] when dropped (all zeroes) *)
  mutable masks : int array;
      (** bit [i] of [masks.(c)] is set when sector [c * chunk_sectors
          + i] may hold a non-zero byte; a clear bit means all zeroes,
          so a chunk whose mask is 0 is dropped *)
  mutable resident : int;  (** chunks currently allocated *)
  mutable high : int;  (** sectors ever written (append watermark) *)
  mutable last : (int * Bytes.t * int) option;
      (** last write still "in flight": (first sector, previous
          contents of the span, sectors written), with [Bytes.empty]
          standing for an all-zero span (a write at or past the
          watermark).  A crash may tear it; any subsequent write
          implicitly syncs it. *)
  mutable writes : int;
  mutable reads : int;
  mutable torn : int;  (** sectors rolled back by {!tear} *)
  mutable rotted : int;  (** bytes flipped by {!rot}/{!rot_at} *)
  mutable reclaimed : int;  (** sectors zeroed by {!discard} *)
}

let create ?(sector_size = 64) () =
  if sector_size < 32 then
    invalid_arg "Blockdev.create: sector_size must be >= 32";
  {
    sector_size;
    chunk_bytes = chunk_sectors * sector_size;
    chunks = [||];
    masks = [||];
    resident = 0;
    high = 0;
    last = None;
    writes = 0;
    reads = 0;
    torn = 0;
    rotted = 0;
    reclaimed = 0;
  }

let sector_size t = t.sector_size
let high t = t.high

let sectors_for t len =
  if len = 0 then 1 else (len + t.sector_size - 1) / t.sector_size

(* Chunk [c], allocated (zeroed) if dropped; the index doubles on
   demand. *)
let chunk t c =
  if c >= Array.length t.chunks then begin
    let cap = ref (max 16 (Array.length t.chunks)) in
    while !cap <= c do
      cap := !cap * 2
    done;
    let chunks = Array.make !cap Bytes.empty in
    let masks = Array.make !cap 0 in
    Array.blit t.chunks 0 chunks 0 (Array.length t.chunks);
    Array.blit t.masks 0 masks 0 (Array.length t.masks);
    t.chunks <- chunks;
    t.masks <- masks
  end;
  let b = t.chunks.(c) in
  if b != Bytes.empty then b
  else begin
    let b = Bytes.make t.chunk_bytes '\000' in
    t.chunks.(c) <- b;
    t.resident <- t.resident + 1;
    b
  end

(* Bits of the sectors [[s, s + n)] of one chunk, [s] chunk-relative. *)
let bits s n = ((1 lsl n) - 1) lsl s

(* Store [len] bytes of [src] from [pos] at byte [off], zero-padding
   past the end of [src]; [off] and [len] are sector-aligned.  Marks
   the covered sectors live. *)
let put t ~off src ~pos ~len =
  let ss = t.sector_size in
  let rec go off pos len =
    if len > 0 then begin
      let c = off / t.chunk_bytes and o = off mod t.chunk_bytes in
      let n = min len (t.chunk_bytes - o) in
      let b = chunk t c in
      let k = max 0 (min n (Bytes.length src - pos)) in
      if k > 0 then Bytes.blit src pos b o k;
      Bytes.fill b (o + k) (n - k) '\000';
      t.masks.(c) <- t.masks.(c) lor bits (o / ss) (n / ss);
      go (off + n) (pos + n) (len - n)
    end
  in
  go off pos len

(* Copy [len] device bytes from byte [off] into [dst] at [pos]. *)
let get t ~off dst ~pos ~len =
  let rec go off pos len =
    if len > 0 then begin
      let c = off / t.chunk_bytes and o = off mod t.chunk_bytes in
      let n = min len (t.chunk_bytes - o) in
      let b = if c < Array.length t.chunks then t.chunks.(c) else Bytes.empty in
      if b == Bytes.empty then Bytes.fill dst pos n '\000'
      else Bytes.blit b o dst pos n;
      go (off + n) (pos + n) (len - n)
    end
  in
  go off pos len

let write t ~sector bytes =
  if sector < 0 then invalid_arg "Blockdev.write: negative sector";
  let sectors = sectors_for t (Bytes.length bytes) in
  let off = sector * t.sector_size and len = sectors * t.sector_size in
  let old =
    if sector >= t.high then Bytes.empty
    else begin
      let old = Bytes.create len in
      get t ~off old ~pos:0 ~len;
      old
    end
  in
  put t ~off bytes ~pos:0 ~len;
  t.high <- max t.high (sector + sectors);
  t.last <- Some (sector, old, sectors);
  t.writes <- t.writes + 1;
  sectors

let append t bytes =
  let sector = t.high in
  let sectors = write t ~sector bytes in
  (sector, sectors)

let read t ~sector ~len =
  if sector < 0 || len < 0 then invalid_arg "Blockdev.read: negative argument";
  t.reads <- t.reads + 1;
  let out = Bytes.create len in
  get t ~off:(sector * t.sector_size) out ~pos:0 ~len;
  out

let sync t = t.last <- None

let tear t ~rng =
  match t.last with
  | None -> 0
  | Some (sector, old, sectors) ->
    (* Persist a strict prefix of the write's sectors; the rest revert
       to their previous contents (fresh appends revert to zeroes). *)
    let keep = Rng.int rng ~bound:sectors in
    let dropped = sectors - keep in
    put t
      ~off:((sector + keep) * t.sector_size)
      old ~pos:(keep * t.sector_size)
      ~len:(dropped * t.sector_size);
    t.torn <- t.torn + dropped;
    t.last <- None;
    dropped

let rot_at t ~sector ~off =
  let abs = (sector * t.sector_size) + off in
  if abs < 0 || abs >= t.high * t.sector_size then
    invalid_arg "Blockdev.rot_at: offset beyond the written extent";
  let c = abs / t.chunk_bytes and o = abs mod t.chunk_bytes in
  let b = chunk t c in
  Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0x40));
  t.masks.(c) <- t.masks.(c) lor bits (o / t.sector_size) 1;
  t.rotted <- t.rotted + 1

let rot t ~rng =
  if t.high = 0 then None
  else begin
    let abs = Rng.int rng ~bound:(t.high * t.sector_size) in
    let sector = abs / t.sector_size and off = abs mod t.sector_size in
    rot_at t ~sector ~off;
    Some (sector, off)
  end

(* Zero sectors [[lo, hi)] chunk by chunk: clear their live bits and
   drop a chunk whose mask empties instead of zeroing its bytes. *)
let discard t ~sector ~sectors =
  if sector < 0 || sectors < 0 then invalid_arg "Blockdev.discard";
  let hi = min t.high (sector + sectors) in
  if hi > sector then begin
    let ss = t.sector_size in
    let rec go s =
      if s < hi then begin
        let c = s / chunk_sectors and i = s mod chunk_sectors in
        let n = min (hi - s) (chunk_sectors - i) in
        (if c < Array.length t.chunks && t.chunks.(c) != Bytes.empty then begin
           let mask = t.masks.(c) land lnot (bits i n) in
           t.masks.(c) <- mask;
           if mask = 0 then begin
             t.chunks.(c) <- Bytes.empty;
             t.resident <- t.resident - 1
           end
           else Bytes.fill t.chunks.(c) (i * ss) (n * ss) '\000'
         end);
        go (s + n)
      end
    in
    go sector;
    t.reclaimed <- t.reclaimed + (hi - sector)
  end

type stats = {
  writes : int;
  reads : int;
  sectors : int;
  torn_sectors : int;
  rotted_bytes : int;
  reclaimed_sectors : int;
  resident_bytes : int;
}

let stats (t : t) =
  {
    writes = t.writes;
    reads = t.reads;
    sectors = t.high;
    torn_sectors = t.torn;
    rotted_bytes = t.rotted;
    reclaimed_sectors = t.reclaimed;
    resident_bytes = t.resident * t.chunk_bytes;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d sectors (%d writes, %d reads, %d torn, %d rotted, %d reclaimed, %d \
     bytes resident)"
    s.sectors s.writes s.reads s.torn_sectors s.rotted_bytes
    s.reclaimed_sectors s.resident_bytes
