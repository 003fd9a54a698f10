(** Per-replica durable state: WAL + checkpoint on simulated block
    devices under one policy (see the interface). *)

open Mmc_sim

type policy = {
  checkpoint_every : int;
  gap_poll : int;
  retain : int;
  scrub_every : int;
  crc : bool;
  seg_records : int;
}

let default_policy =
  {
    checkpoint_every = 16;
    gap_poll = 60;
    retain = 64;
    scrub_every = 120;
    crc = true;
    seg_records = 8;
  }

let validate_policy p =
  if p.checkpoint_every < 1 then
    invalid_arg "Rlog.validate_policy: checkpoint_every must be >= 1";
  if p.gap_poll < 1 then invalid_arg "Rlog.validate_policy: gap_poll must be >= 1";
  if p.retain < 0 then invalid_arg "Rlog.validate_policy: retain must be >= 0";
  if p.scrub_every < 0 then
    invalid_arg "Rlog.validate_policy: scrub_every must be >= 0";
  if p.seg_records < 1 then
    invalid_arg "Rlog.validate_policy: seg_records must be >= 1"

type ('s, 'p) t = {
  policy : policy;
  wal : 'p Wal.t;
  checkpoint : 's Checkpoint.t;
  mutable replayed : int;
  mutable last_write : [ `Wal | `Ckpt ];
      (** which device holds the write in flight — the {!inject_tear}
          target at a crash instant *)
}

let create policy =
  validate_policy policy;
  {
    policy;
    wal = Wal.create ~crc:policy.crc ~seg_records:policy.seg_records ();
    checkpoint = Checkpoint.create ~crc:policy.crc ();
    replayed = 0;
    last_write = `Wal;
  }

let policy t = t.policy
let wal t = t.wal
let checkpoint t = t.checkpoint

let log t entry ~snapshot =
  (* Re-logging a position that is already durable (an orphan applied
     again after catch-up filled the gap before it) is a no-op. *)
  if not (Wal.mem t.wal entry.Wal.pos) then begin
    Wal.append t.wal entry;
    t.last_write <- `Wal;
    let high = Wal.high t.wal in
    if entry.Wal.pos + 1 = high && high mod t.policy.checkpoint_every = 0
    then begin
      Checkpoint.save t.checkpoint ~pos:high (snapshot ());
      t.last_write <- `Ckpt;
      (* Keep [retain] entries below the checkpoint to serve anti-entropy
         catch-up from rejoining peers without full state transfer. *)
      Wal.truncate_below t.wal ~pos:(max 0 (high - t.policy.retain));
      t.last_write <- `Wal
    end
  end

(* Drop both volatile indexes (wipe-crash): the devices survive. *)
let crash t =
  Wal.crash t.wal;
  Checkpoint.crash t.checkpoint

type ('s, 'p) recovery = {
  rsnap : (int * 's) option;
  rreplay : 'p Wal.entry list;  (** contiguous from the snapshot *)
  rorphans : 'p Wal.entry list;
      (** survivors beyond a quarantined gap: already durable, to be
          re-ingested as proven once catch-up refills the gap *)
  rreport : Wal.report;
}

(* Full restart path: rebuild both indexes from their devices, load the
   newest checkpoint that verifies (falling back on damage), split the
   WAL suffix at the first position gap — the contiguous prefix is
   replayable now, the rest only after catch-up repairs the gap. *)
let recover_full t =
  let rreport = Wal.reload t.wal in
  Checkpoint.reload t.checkpoint;
  let rsnap = Checkpoint.load t.checkpoint in
  let from = match rsnap with Some (pos, _) -> pos | None -> 0 in
  let all = Wal.suffix t.wal ~from in
  let rec split expected = function
    | (e : 'p Wal.entry) :: rest when e.Wal.pos = expected ->
      let replay, orphans = split (expected + 1) rest in
      (e :: replay, orphans)
    | rest -> ([], rest)
  in
  let rreplay, rorphans = split from all in
  t.replayed <- t.replayed + List.length rreplay;
  { rsnap; rreplay; rorphans; rreport }

let recover t =
  let r = recover_full t in
  (r.rsnap, r.rreplay)

let serve t ~from = Wal.suffix t.wal ~from

(* Can [from] be served from the retained log alone, or does the peer
   need the checkpoint (full state transfer) first? *)
let serves_from t ~from = from >= Wal.low t.wal

(* {2 Scrub and peer repair} *)

let scrub t = Wal.scrub t.wal
let entry_at t ~pos = Wal.entry_at t.wal ~pos
let patch t entry = Wal.patch t.wal entry
let quarantined t = Wal.quarantined t.wal

(* {2 Storage fault injection} *)

let inject_tear t ~rng =
  match t.last_write with
  | `Wal -> Blockdev.tear (Wal.dev t.wal) ~rng
  | `Ckpt -> Blockdev.tear (Checkpoint.dev t.checkpoint) ~rng

let inject_rot t ~rng =
  let above = match Checkpoint.load t.checkpoint with
    | Some (pos, _) -> pos
    | None -> 0
  in
  Wal.rot_record t.wal ~rng ~above

let inject_stale t ~rng = Checkpoint.damage_latest t.checkpoint ~rng

type stats = {
  appends : int;
  checkpoints : int;
  truncated : int;
  replayed : int;
  torn : int;  (** tail sectors lost to torn writes *)
  corrupt : int;  (** damaged records detected *)
  silent : int;  (** damaged records admitted as holes (crc off) *)
  repaired : int;  (** positions refilled by catch-up or peer patch *)
  scrubbed : int;  (** record verifications done by scrub passes *)
  ckpt_fallbacks : int;  (** damaged checkpoints skipped at load *)
  reclaimed_sectors : int;  (** device space recovered by retirement *)
  resident_bytes : int;  (** device bytes held (WAL + checkpoint) *)
}

let stats t =
  let c = Wal.counters t.wal in
  let d = Blockdev.stats (Wal.dev t.wal) in
  let dc = Blockdev.stats (Checkpoint.dev t.checkpoint) in
  {
    appends = Wal.appended t.wal;
    checkpoints = Checkpoint.taken t.checkpoint;
    truncated = Wal.truncated t.wal;
    replayed = t.replayed;
    torn = c.Wal.torn;
    corrupt = c.Wal.corrupt;
    silent = c.Wal.silent;
    repaired = c.Wal.repaired;
    scrubbed = c.Wal.scrubbed;
    ckpt_fallbacks = Checkpoint.fallbacks t.checkpoint;
    reclaimed_sectors =
      d.Blockdev.reclaimed_sectors + dc.Blockdev.reclaimed_sectors;
    resident_bytes = d.Blockdev.resident_bytes + dc.Blockdev.resident_bytes;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "wal %d appends (%d truncated), %d checkpoints, %d replayed, %d torn, %d \
     corrupt, %d repaired, %d scrubbed, %d bytes resident"
    s.appends s.truncated s.checkpoints s.replayed s.torn s.corrupt s.repaired
    s.scrubbed s.resident_bytes
