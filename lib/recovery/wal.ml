(** Per-replica write-ahead log of delivered broadcast entries, durable
    on a simulated block device (see the interface). *)

open Mmc_sim

type 'p entry = { pos : int; origin : int; payload : 'p option }

(* In-memory index entry: where a record's frame lives on the device.
   [lsilent] marks a damaged record admitted as a hole under
   [crc = false], so the silent-loss counter counts it once.
   [lclean] is the device stamp at which the frame was last known
   clean — its append (the bytes just written) or its last clean
   scrub read — or [-1] when it has neither at its current place. *)
type loc = {
  lpos : int;
  lorigin : int;
  mutable lsector : int;
  mutable lspan : int;
  mutable lsilent : bool;
  mutable lclean : int;
}

(* Physical segment extent, for checkpoint-horizon retirement. *)
type seg = {
  sseq : int;
  first_sector : int;
  mutable last_sector : int;
  mutable hi_pos : int;  (** highest record position stored inside *)
}

type 'p t = {
  dev : Blockdev.t;
  crc : bool;
  seg_records : int;
  index : loc Deque.t;  (** retained records, strictly increasing pos *)
  mutable segs : seg list;  (** newest first *)
  mutable seg_fill : int;  (** records in the newest segment *)
  mutable next_seg : int;
  mutable generation : int;  (** bumped by every {!reload} *)
  mutable low : int;
  mutable high : int;
  mutable appended : int;
  mutable truncated : int;
  mutable quarantine : (int * int) list;
      (** sorted position ranges [[lo,hi)] detected lost mid-log *)
  mutable repairq : int list;  (** corrupt-in-place positions *)
  mutable torn : int;  (** tail sectors lost to torn writes *)
  mutable corrupt : int;  (** damaged records detected (crc on) *)
  mutable silent : int;  (** damaged records admitted as holes (crc off) *)
  mutable repaired : int;
  mutable scrubbed : int;  (** record verifications done by scrubs *)
  mutable reloads : int;
}

let write_super t =
  ignore
    (Frame.write_at t.dev ~sector:0
       { Frame.kind = Frame.Super; a = t.low; b = t.generation;
         payload = Bytes.empty })

let create ?dev ?(crc = true) ?(seg_records = 8) () =
  if seg_records < 1 then invalid_arg "Wal.create: seg_records must be >= 1";
  let dev = match dev with Some d -> d | None -> Blockdev.create () in
  let t =
    {
      dev;
      crc;
      seg_records;
      index = Deque.create ();
      segs = [];
      seg_fill = 0;
      next_seg = 0;
      generation = 0;
      low = 0;
      high = 0;
      appended = 0;
      truncated = 0;
      quarantine = [];
      repairq = [];
      torn = 0;
      corrupt = 0;
      silent = 0;
      repaired = 0;
      scrubbed = 0;
      reloads = 0;
    }
  in
  write_super t;
  Blockdev.sync dev;
  t

let dev t = t.dev
let crc_enabled t = t.crc
let high t = t.high
let low t = t.low
let length t = Deque.length t.index
let appended t = t.appended
let truncated t = t.truncated
let quarantine t = t.quarantine
let quarantined t = t.quarantine <> [] || t.repairq <> []

(* Index position of [pos], by binary search. *)
let find_idx t pos =
  let i = Deque.lower_bound t.index ~cmp:(fun l -> compare l.lpos pos) in
  if i < Deque.length t.index && (Deque.get t.index i).lpos = pos then Some i
  else None

let mem t pos = find_idx t pos <> None

let encode_entry e =
  {
    Frame.kind = Frame.Record;
    a = e.pos;
    b = e.origin;
    (* [Closures]: simulated payloads may carry program closures; the
       bytes never leave the process. *)
    payload = Marshal.to_bytes e.payload [ Marshal.Closures ];
  }

let roll_segment t ~first_pos =
  let sector, span =
    Frame.append t.dev
      { Frame.kind = Frame.Header; a = t.next_seg; b = first_pos;
        payload = Marshal.to_bytes t.generation [] }
  in
  t.segs <-
    { sseq = t.next_seg; first_sector = sector;
      last_sector = sector + span - 1; hi_pos = -1 }
    :: t.segs;
  t.next_seg <- t.next_seg + 1;
  t.seg_fill <- 0

let push_frame t e =
  if t.segs = [] || t.seg_fill >= t.seg_records then
    roll_segment t ~first_pos:e.pos;
  let sector, span = Frame.append t.dev (encode_entry e) in
  (match t.segs with
  | s :: _ ->
    s.last_sector <- Int.max s.last_sector (sector + span - 1);
    s.hi_pos <- Int.max s.hi_pos e.pos
  | [] -> ());
  t.seg_fill <- t.seg_fill + 1;
  t.appended <- t.appended + 1;
  { lpos = e.pos; lorigin = e.origin; lsector = sector; lspan = span;
    lsilent = false; lclean = Blockdev.stamp t.dev }

let unquarantine t pos =
  t.quarantine <-
    List.concat_map
      (fun (lo, hi) ->
        if pos < lo || pos >= hi then [ (lo, hi) ]
        else List.filter (fun (a, b) -> a < b) [ (lo, pos); (pos + 1, hi) ])
      t.quarantine

let quarantine_add t lo hi =
  if hi > lo then
    t.quarantine <- List.sort compare ((lo, hi) :: t.quarantine)

let append t e =
  if e.pos < t.high then begin
    if mem t e.pos then
      invalid_arg
        (Fmt.str "Wal.append: position %d not above the log head %d" e.pos
           (t.high - 1));
    (* Backfill: the position sits in a gap the recovery scan left
       behind (quarantined segment, torn tail refetched via catch-up).
       The frame goes to the device tail; the index splices it back in
       position order. *)
    let loc = push_frame t e in
    let i = Deque.lower_bound t.index ~cmp:(fun l -> compare l.lpos e.pos) in
    Deque.insert t.index i loc;
    unquarantine t e.pos;
    t.repairq <- List.filter (fun p -> p <> e.pos) t.repairq;
    t.repaired <- t.repaired + 1
  end
  else begin
    let loc = push_frame t e in
    Deque.push_back t.index loc;
    t.high <- e.pos + 1
  end

let truncate_below t ~pos =
  if pos > t.low then begin
    let dropped = ref 0 in
    while
      (not (Deque.is_empty t.index)) && (Deque.front t.index).lpos < pos
    do
      ignore (Deque.pop_front t.index);
      incr dropped
    done;
    t.low <- pos;
    t.high <- max t.high pos;
    t.truncated <- t.truncated + !dropped;
    t.quarantine <-
      List.filter_map
        (fun (lo, hi) ->
          let lo = max lo pos in
          if lo < hi then Some (lo, hi) else None)
        t.quarantine;
    t.repairq <- List.filter (fun p -> p >= pos) t.repairq;
    (* Retire segments wholly below the new low watermark (never the
       newest — it still takes appends); their sectors are reclaimed. *)
    (match t.segs with
    | head :: rest ->
      let live, dead = List.partition (fun s -> s.hi_pos >= pos) rest in
      t.segs <- head :: live;
      List.iter
        (fun s ->
          Blockdev.discard t.dev ~sector:s.first_sector
            ~sectors:(s.last_sector - s.first_sector + 1))
        dead
    | [] -> ());
    write_super t
  end

(* Decode the record frame behind an index entry, CRC-verified; [None]
   on any mismatch (damaged frame, foreign frame, undecodable
   payload). *)
let decode_record t (loc : loc) : 'p entry option =
  match Frame.read_raw t.dev ~sector:loc.lsector ~sectors:loc.lspan with
  | Some r when r.r_intact && r.r_kind = Frame.Record && r.r_a = loc.lpos -> (
    try
      Some
        { pos = r.r_a; origin = r.r_b;
          payload = Marshal.from_bytes r.r_buf Frame.header_bytes }
    with _ -> None)
  | _ -> None

let entry_at t ~pos =
  match find_idx t pos with
  | None -> None
  | Some i -> decode_record t (Deque.get t.index i)

let suffix t ~from =
  let start = Deque.lower_bound t.index ~cmp:(fun l -> compare l.lpos from) in
  let out = ref [] and bad = ref [] in
  for i = start to Deque.length t.index - 1 do
    let loc = Deque.get t.index i in
    match decode_record t loc with
    | Some e -> out := e :: !out
    | None ->
      if t.crc then bad := loc.lpos :: !bad
      else begin
        (* No integrity checking: the damaged record silently becomes a
           hole — the data is lost and nothing flags it.  The chaos
           convergence oracle is what catches the fallout. *)
        if not loc.lsilent then begin
          loc.lsilent <- true;
          t.silent <- t.silent + 1
        end;
        out := { pos = loc.lpos; origin = loc.lorigin; payload = None } :: !out
      end
  done;
  (* Detected corruption: quarantine the positions (dropping them from
     the index) so catch-up or scrub repair can refill them; this
     suffix simply omits them. *)
  List.iter
    (fun p ->
      (match find_idx t p with
      | Some i -> Deque.remove t.index i
      | None -> ());
      t.corrupt <- t.corrupt + 1;
      quarantine_add t p (p + 1))
    !bad;
  List.rev !out

(* A frame stays clean until a mutation stamps one of its chunks
   ({!Blockdev.changed_since}).  An append moves no stamp, so a frame
   is stamped clean when it is appended, and a pass reads only the
   frames whose sectors changed since their append or last clean read;
   it still counts every frame it covers. *)
let scrub t =
  if not t.crc then []
  else begin
    let bad = ref [] in
    Deque.iter
      (fun loc ->
        t.scrubbed <- t.scrubbed + 1;
        if
          loc.lclean < 0
          || Blockdev.changed_since t.dev ~stamp:loc.lclean
               ~sector:loc.lsector ~sectors:loc.lspan
        then
          match
            Frame.read_raw t.dev ~sector:loc.lsector ~sectors:loc.lspan
          with
          | Some r
            when r.r_intact && r.r_kind = Frame.Record && r.r_a = loc.lpos ->
            loc.lclean <- Blockdev.stamp t.dev
          | _ -> bad := loc.lpos :: !bad)
      t.index;
    let bad = List.rev !bad in
    List.iter
      (fun p ->
        if not (List.mem p t.repairq) then begin
          t.repairq <- p :: t.repairq;
          t.corrupt <- t.corrupt + 1
        end)
      bad;
    bad
  end

let patch t e =
  let in_repairq = List.mem e.pos t.repairq in
  let in_quar =
    List.exists (fun (lo, hi) -> e.pos >= lo && e.pos < hi) t.quarantine
  in
  if not (in_repairq || in_quar) then false
  else begin
    t.repairq <- List.filter (fun p -> p <> e.pos) t.repairq;
    (match find_idx t e.pos with
    | Some i ->
      (* Corrupt in place: rewrite over the old frame when the fresh
         encoding fits its sector span, else relocate to the tail. *)
      let loc = Deque.get t.index i in
      let f = encode_entry e in
      let bytes = Frame.encode f in
      let ss = Blockdev.sector_size t.dev in
      let span = (Bytes.length bytes + ss - 1) / ss in
      if span <= loc.lspan then
        ignore (Frame.write_at t.dev ~sector:loc.lsector f)
      else begin
        let sector, sp = Frame.append t.dev f in
        loc.lsector <- sector;
        loc.lspan <- sp;
        loc.lclean <- Blockdev.stamp t.dev
      end;
      loc.lsilent <- false;
      t.repaired <- t.repaired + 1
    | None ->
      (* Quarantined (dropped from the index): splice a fresh frame. *)
      let loc = push_frame t e in
      let i =
        Deque.lower_bound t.index ~cmp:(fun l -> compare l.lpos e.pos)
      in
      Deque.insert t.index i loc;
      t.repaired <- t.repaired + 1);
    unquarantine t e.pos;
    true
  end

(* Bias bit-rot towards record payloads that still matter: a frame at
   or above [above] (the checkpoint horizon) whose loss recovery must
   then detect and repair.  Falls back to any retained record. *)
let rot_record t ~rng ~above =
  let n = Deque.length t.index in
  if n = 0 then None
  else begin
    let start = Deque.lower_bound t.index ~cmp:(fun l -> compare l.lpos above) in
    let start = if start >= n then 0 else start in
    let i = start + Rng.int rng ~bound:(n - start) in
    let loc = Deque.get t.index i in
    match Frame.read t.dev ~sector:loc.lsector with
    | Frame.Ok (f, _) ->
      let len = Bytes.length f.Frame.payload in
      let off =
        if len > 0 then Frame.header_bytes + Rng.int rng ~bound:len else 5
      in
      Blockdev.rot_at t.dev ~sector:loc.lsector ~off;
      Some loc.lpos
    | _ -> Some loc.lpos (* already damaged; nothing further to flip *)
  end

let crash t =
  Deque.clear t.index;
  t.segs <- [];
  t.seg_fill <- 0;
  t.quarantine <- [];
  t.repairq <- []

type report = {
  r_torn_sectors : int;  (** junk sectors past the last good frame *)
  r_lost : int;  (** records dropped by the scan (detected corruption) *)
  r_silent : int;  (** damaged records admitted as holes (crc off) *)
  r_quarantine : (int * int) list;
}

(* Rebuild the volatile index from the device: superblock, then a
   sector scan that resyncs on frame magic after any damage.  Records
   in a segment whose header frame is damaged are quarantined with it
   (their metadata is unverifiable).  Classification is by position:
   gaps in the retained range are quarantined for repair; junk past
   the last good frame is the torn tail, refetched via catch-up. *)
let reload t =
  crash t;
  t.generation <- t.generation + 1;
  t.reloads <- t.reloads + 1;
  t.low <-
    (match Frame.read t.dev ~sector:0 with
    | Frame.Ok (f, _) when f.Frame.kind = Frame.Super -> f.Frame.a
    | _ -> 0 (* torn or rotted superblock: genesis low *));
  let hi = Blockdev.high t.dev in
  let sane_span span s = span > 0 && s + span <= hi in
  let recs = ref [] in
  let nrec = ref 0 in
  let seg_ok = ref false in
  let lost = ref 0 and silent = ref 0 in
  let last_good = ref 1 in
  let s = ref 1 in
  while !s < hi do
    (match Frame.read t.dev ~sector:!s with
    | Frame.Ok (f, span) ->
      (match f.Frame.kind with
      | Frame.Header ->
        seg_ok := true;
        t.segs <-
          { sseq = f.Frame.a; first_sector = !s; last_sector = !s + span - 1;
            hi_pos = -1 }
          :: t.segs
      | Frame.Record ->
        if !seg_ok && f.Frame.a >= 0 then begin
          incr nrec;
          recs :=
            ( f.Frame.a,
              (!nrec,
               { lpos = f.Frame.a; lorigin = f.Frame.b; lsector = !s;
                 lspan = span; lsilent = false; lclean = -1 }) )
            :: !recs;
          match t.segs with
          | seg :: _ ->
            seg.last_sector <- max seg.last_sector (!s + span - 1);
            seg.hi_pos <- max seg.hi_pos f.Frame.a
          | [] -> ()
        end
        else incr lost
      | Frame.Super | Frame.Ckpt -> ());
      last_good := !s + span;
      s := !s + span
    | Frame.Damaged (f, span) ->
      (match f.Frame.kind with
      | Frame.Record
        when (not t.crc) && !seg_ok && f.Frame.a >= 0
             && f.Frame.a < 1 lsl 40 ->
        (* crc off: admit the damaged record — it will surface as a
           silent hole.  The position field itself is unverified, so
           sanity-cap it. *)
        incr nrec;
        incr silent;
        recs :=
          ( f.Frame.a,
            (!nrec,
             { lpos = f.Frame.a; lorigin = f.Frame.b; lsector = !s;
               lspan = span; lsilent = true; lclean = -1 }) )
          :: !recs;
        (match t.segs with
        | seg :: _ when sane_span span !s ->
          seg.last_sector <- max seg.last_sector (!s + span - 1);
          seg.hi_pos <- max seg.hi_pos f.Frame.a
        | _ -> ())
      | Frame.Header -> seg_ok := false; incr lost
      | _ -> incr lost);
      s := (if sane_span span !s then !s + span else !s + 1)
    | Frame.Broken ->
      (* Unframeable sector: retired (discarded) space, a torn-away
         suffix, or garbage; resync at the next sector. *)
      incr s)
  done;
  (* Dedup by position keeping the latest-written frame (repairs and
     backfills append newer copies of old positions). *)
  let by_pos =
    List.sort
      (fun (p1, (o1, _)) (p2, (o2, _)) -> compare (p1, o1) (p2, o2))
      !recs
  in
  let rec dedup = function
    | (p1, _) :: ((p2, _) :: _ as rest) when p1 = p2 -> dedup rest
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  let kept =
    List.filter_map
      (fun (p, (_, loc)) -> if p >= t.low then Some loc else None)
      (dedup by_pos)
  in
  List.iter (fun loc -> Deque.push_back t.index loc) kept;
  t.high <-
    (match kept with
    | [] -> t.low
    | _ -> (List.fold_left (fun acc l -> max acc l.lpos) 0 kept) + 1);
  (* Quarantine the position gaps in the retained range — only under
     CRC, mirroring detection: without it the gaps go unnoticed. *)
  if t.crc then begin
    let expected = ref t.low in
    List.iter
      (fun loc ->
        if loc.lpos > !expected then quarantine_add t !expected loc.lpos;
        expected := loc.lpos + 1)
      kept
  end;
  t.seg_fill <- t.seg_records (* force a fresh segment header *);
  let torn = if hi > !last_good then hi - !last_good else 0 in
  t.torn <- t.torn + torn;
  t.corrupt <- t.corrupt + !lost;
  t.silent <- t.silent + !silent;
  {
    r_torn_sectors = torn;
    r_lost = !lost;
    r_silent = !silent;
    r_quarantine = t.quarantine;
  }

type counters = {
  torn : int;
  corrupt : int;
  silent : int;
  repaired : int;
  scrubbed : int;
  reloads : int;
}

let counters (t : 'p t) =
  {
    torn = t.torn;
    corrupt = t.corrupt;
    silent = t.silent;
    repaired = t.repaired;
    scrubbed = t.scrubbed;
    reloads = t.reloads;
  }

let pp ppf t =
  Fmt.pf ppf "wal[%d,%d) %d entries (%d appended, %d truncated)" t.low t.high
    (length t) t.appended t.truncated
