(** Deterministic simulated block device (see the interface). *)

let chunk_sectors = 32

type t = {
  sector_size : int;
  chunk_bytes : int;  (** [chunk_sectors * sector_size] *)
  mutable chunks : Bytes.t array;
      (** the chunk index: chunk [c] holds sectors [[c * chunk_sectors,
          (c+1) * chunk_sectors)]; [Bytes.empty] when dropped (all
          zeroes).  Slot 0 holds chunk 0 (the WAL superblock's, live
          for good) and slot [i >= 1] chunk [base + i - 1], so the
          index spans the live extent, not the address space *)
  mutable masks : int array;
      (** per slot: bit [i] is set when sector [i] of the chunk may hold
          a non-zero byte; a clear bit means all zeroes, so a chunk
          whose mask is 0 is dropped *)
  mutable stamps : int array;
      (** per slot: the {!clock} value of the chunk's last mutation
          other than an append at the watermark *)
  mutable clock : int;  (** mutations stamped so far *)
  mutable base : int;  (** chunk held in slot 1 *)
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
    chunks = [| Bytes.empty |];
    masks = [| 0 |];
    stamps = [| 0 |];
    clock = 0;
    base = 1;
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

(* Slot of chunk [c] in the index, or -1 when the index does not
   reach it (the chunk is dropped). *)
let slot t c =
  if c = 0 then 0
  else
    let i = c - t.base + 1 in
    if i >= 1 && i < Array.length t.chunks then i else -1

(* Lowest allocated chunk above chunk 0, if any. *)
let lowest t =
  let n = Array.length t.chunks - 1 in
  let k = ref 0 in
  while !k < n && t.chunks.(1 + !k) == Bytes.empty do
    incr k
  done;
  if !k = n then None else Some (t.base + !k)

(* Rebuild the index over chunks [[lo, hi]] — every allocated chunk
   above 0 must lie there — with as many slots again for growth (16 at
   least). *)
let rebase t ~lo ~hi =
  let cap = 1 + max 16 (2 * (hi - lo + 1)) in
  let chunks = Array.make cap Bytes.empty and masks = Array.make cap 0 in
  let stamps = Array.make cap 0 in
  chunks.(0) <- t.chunks.(0);
  masks.(0) <- t.masks.(0);
  stamps.(0) <- t.stamps.(0);
  for i = 1 to Array.length t.chunks - 1 do
    if t.chunks.(i) != Bytes.empty then begin
      let j = t.base + i - lo in
      chunks.(j) <- t.chunks.(i);
      masks.(j) <- t.masks.(i);
      stamps.(j) <- t.stamps.(i)
    end
  done;
  t.chunks <- chunks;
  t.masks <- masks;
  t.stamps <- stamps;
  t.base <- lo

(* Record a mutation of the chunk in slot [i]. *)
let touch t i =
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock

(* Slot of chunk [c], allocated (zeroed) if dropped.  An index that
   does not reach [c] is rebuilt to span [c], the allocated chunks and
   the watermark.  Allocation stamps the slot: a rebuilt index forgets
   the stamps of dropped chunks. *)
let chunk t c =
  let i =
    match slot t c with
    | -1 ->
      let lo = match lowest t with Some l -> min l c | None -> c in
      rebase t ~lo ~hi:(max c (t.high / chunk_sectors));
      slot t c
    | i -> i
  in
  if t.chunks.(i) == Bytes.empty then begin
    t.chunks.(i) <- Bytes.make t.chunk_bytes '\000';
    t.resident <- t.resident + 1;
    touch t i
  end;
  i

(* After a discard: rebuild the index once it holds more than twice
   the slots a rebuild would give it, so a device whose prefix is
   discarded keeps an index the size of its retained extent (lowest
   allocated chunk to watermark), not of its address space.  With
   nothing allocated above chunk 0 the index restarts at the
   watermark's chunk, where the next append lands. *)
let trim t =
  let top = t.high / chunk_sectors in
  let lo = match lowest t with Some l -> l | None -> max 1 top in
  if Array.length t.chunks > 2 * (1 + max 16 (2 * (top - lo + 1))) then
    rebase t ~lo ~hi:top

let index_slots t = Array.length t.chunks

let stamp t = t.clock

(* A dropped chunk reads as zeroes and its stamp may be gone with a
   rebuilt index, so it always counts as changed. *)
let changed_since t ~stamp ~sector ~sectors =
  let rec go c last =
    c <= last
    &&
    let i = slot t c in
    i < 0 || t.chunks.(i) == Bytes.empty || t.stamps.(i) > stamp
    || go (c + 1) last
  in
  go (sector / chunk_sectors) ((sector + sectors - 1) / chunk_sectors)

(* Bits of the sectors [[s, s + n)] of one chunk, [s] chunk-relative. *)
let bits s n = ((1 lsl n) - 1) lsl s

(* Store [len] bytes of [src] from [pos] at byte [off], zero-padding
   past the end of [src]; [off] and [len] are sector-aligned.  Marks
   the covered sectors live, and stamps their chunks when [stamp]. *)
let put t ~stamp ~off src ~pos ~len =
  let ss = t.sector_size in
  let rec go off pos len =
    if len > 0 then begin
      let c = off / t.chunk_bytes and o = off mod t.chunk_bytes in
      let n = min len (t.chunk_bytes - o) in
      let i = chunk t c in
      let b = t.chunks.(i) in
      let k = max 0 (min n (Bytes.length src - pos)) in
      if k > 0 then Bytes.blit src pos b o k;
      Bytes.fill b (o + k) (n - k) '\000';
      t.masks.(i) <- t.masks.(i) lor bits (o / ss) (n / ss);
      if stamp then touch t i;
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
      let i = slot t c in
      let b = if i < 0 then Bytes.empty else t.chunks.(i) in
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
  (* Only bytes below the watermark can have been read before; an
     append fills sectors past every earlier write. *)
  put t ~stamp:(sector < t.high) ~off bytes ~pos:0 ~len;
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
    put t ~stamp:true
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
  let i = chunk t c in
  let b = t.chunks.(i) in
  Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0x40));
  t.masks.(i) <- t.masks.(i) lor bits (o / t.sector_size) 1;
  touch t i;
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
   drop a chunk whose mask empties instead of zeroing its bytes; then
   trim the index. *)
let discard t ~sector ~sectors =
  if sector < 0 || sectors < 0 then invalid_arg "Blockdev.discard";
  let hi = min t.high (sector + sectors) in
  if hi > sector then begin
    let ss = t.sector_size in
    let rec go s =
      if s < hi then begin
        let c = s / chunk_sectors and i = s mod chunk_sectors in
        let n = min (hi - s) (chunk_sectors - i) in
        let j = slot t c in
        (if j >= 0 && t.chunks.(j) != Bytes.empty then begin
           touch t j;
           let mask = t.masks.(j) land lnot (bits i n) in
           t.masks.(j) <- mask;
           if mask = 0 then begin
             t.chunks.(j) <- Bytes.empty;
             t.resident <- t.resident - 1
           end
           else Bytes.fill t.chunks.(j) (i * ss) (n * ss) '\000'
         end);
        go (s + n)
      end
    in
    go sector;
    trim t;
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
