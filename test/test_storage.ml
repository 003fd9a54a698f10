(* Tests for the durable-storage layer: the array-backed deque, the
   simulated block device, CRC32 frame codec, and the WAL edge cases
   the storage fault plan exercises — a record split across sectors
   torn mid-record, a tear at an exact record boundary, a damaged
   segment header quarantining its records until peer repair, and
   checkpoint corruption falling back to the previous slot (or
   genesis).  The crc=off mode must admit the same damage as silent
   holes — detection, not decoding, is what the checksums buy. *)

open Mmc_sim
open Mmc_recovery

let entry ?(origin = 0) ?payload pos = { Wal.pos; origin; payload }

let positions w = List.map (fun e -> e.Wal.pos) (Wal.suffix w ~from:0)

(* --- Deque --- *)

let test_deque_laws () =
  let d : int Deque.t = Deque.create () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  for i = 0 to 9 do
    Deque.push_back d i
  done;
  Alcotest.(check int) "length" 10 (Deque.length d);
  Alcotest.(check int) "front" 0 (Deque.front d);
  Alcotest.(check int) "back" 9 (Deque.back d);
  Alcotest.(check int) "get" 4 (Deque.get d 4);
  (* pop the front past the initial capacity so later pushes wrap the
     ring; ordering laws must be oblivious to the wrap point *)
  for _ = 1 to 7 do
    ignore (Deque.pop_front d)
  done;
  for i = 10 to 29 do
    Deque.push_back d i
  done;
  Alcotest.(check (list int)) "wrapped order"
    (7 :: 8 :: 9 :: List.init 20 (fun i -> i + 10))
    (Deque.to_list d);
  Deque.set d 0 70;
  Alcotest.(check int) "set/get" 70 (Deque.get d 0);
  Deque.insert d 1 71;
  Alcotest.(check int) "insert shifts" 71 (Deque.get d 1);
  Alcotest.(check int) "insert keeps successor" 8 (Deque.get d 2);
  Deque.remove d 1;
  Alcotest.(check int) "remove restores" 8 (Deque.get d 1);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "") (fun () ->
      try ignore (Deque.get d 1000)
      with Invalid_argument _ -> raise (Invalid_argument ""));
  Deque.clear d;
  Alcotest.(check int) "cleared" 0 (Deque.length d)

let test_deque_lower_bound () =
  let d : int Deque.t = Deque.create () in
  List.iter (Deque.push_back d) [ 2; 4; 4; 8; 16 ];
  let lb x = Deque.lower_bound d ~cmp:(fun v -> compare v x) in
  Alcotest.(check int) "below front" 0 (lb 1);
  Alcotest.(check int) "exact" 1 (lb 4);
  Alcotest.(check int) "between" 3 (lb 5);
  Alcotest.(check int) "past back" 5 (lb 100)

(* --- Blockdev --- *)

let test_blockdev_roundtrip () =
  let d = Blockdev.create () in
  let sector, span = Blockdev.append d (Bytes.of_string "hello") in
  Alcotest.(check (pair int int)) "first append" (0, 1) (sector, span);
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Blockdev.read d ~sector ~len:5));
  (* a 100-byte write spans two 64-byte sectors *)
  let big = Bytes.make 100 'x' in
  let _, span = Blockdev.append d big in
  Alcotest.(check int) "multi-sector span" 2 span;
  Alcotest.(check int) "watermark" 3 (Blockdev.high d);
  Blockdev.sync d;
  Alcotest.(check int) "synced write cannot tear" 0
    (Blockdev.tear d ~rng:(Rng.create 1));
  Blockdev.discard d ~sector:0 ~sectors:1;
  Alcotest.(check string) "discarded reads zero" "\000\000\000"
    (Bytes.to_string (Blockdev.read d ~sector:0 ~len:3));
  Alcotest.(check int) "reclaimed counted" 1
    (Blockdev.stats d).Blockdev.reclaimed_sectors

let test_blockdev_tear () =
  let d = Blockdev.create () in
  Blockdev.sync d;
  let sector, span = Blockdev.append d (Bytes.make 130 'y') in
  Alcotest.(check int) "three sectors in flight" 3 span;
  let dropped = Blockdev.tear d ~rng:(Rng.create 3) in
  Alcotest.(check bool) "tear drops a non-empty suffix" true
    (dropped >= 1 && dropped <= span);
  let kept = span - dropped in
  let data = Blockdev.read d ~sector ~len:(span * 64) in
  for i = 0 to (span * 64) - 1 do
    let expect = if i < kept * 64 then 'y' else '\000' in
    if Bytes.get data i <> expect then
      Alcotest.failf "byte %d: %C, expected %C" i (Bytes.get data i) expect
  done;
  Alcotest.(check int) "second tear is a no-op" 0
    (Blockdev.tear d ~rng:(Rng.create 4))

(* Discarding a retired prefix frees its chunks: what stays resident
   is the retained extent, rounded out to whole chunks. *)
let test_blockdev_resident_prefix () =
  let d = Blockdev.create () in
  let chunk = Blockdev.chunk_sectors * Blockdev.sector_size d in
  let resident () = (Blockdev.stats d).Blockdev.resident_bytes in
  for _ = 1 to 10 do
    ignore (Blockdev.append d (Bytes.make 1000 'r'))
  done;
  let high = Blockdev.high d in
  Alcotest.(check int) "sixteen sectors a record" 160 high;
  Alcotest.(check int) "whole extent resident" (5 * chunk) (resident ());
  Blockdev.discard d ~sector:0 ~sectors:100;
  let retained_chunks =
    ((high + Blockdev.chunk_sectors - 1) / Blockdev.chunk_sectors)
    - (100 / Blockdev.chunk_sectors)
  in
  Alcotest.(check int) "retained extent resident" (retained_chunks * chunk)
    (resident ());
  Alcotest.(check string) "retained bytes intact" "rrrr"
    (Bytes.to_string (Blockdev.read d ~sector:100 ~len:4));
  Blockdev.discard d ~sector:100 ~sectors:(high - 100);
  Alcotest.(check int) "nothing resident" 0 (resident ());
  Alcotest.(check int) "watermark kept" high (Blockdev.high d)

(* Reference model: the device as one flat [Bytes.t] that grows and
   never shrinks, plus the live-sector rule (write, tear and rot set a
   sector live, discard clears it; a chunk is resident while any of
   its sectors is live). *)
module Flat = struct
  type t = {
    ss : int;
    mutable data : Bytes.t;
    mutable high : int;
    mutable last : (int * Bytes.t * int) option;
    live : (int, unit) Hashtbl.t;
    mutable writes : int;
    mutable reads : int;
    mutable torn : int;
    mutable rotted : int;
    mutable reclaimed : int;
  }

  let create () =
    {
      ss = 64;
      data = Bytes.empty;
      high = 0;
      last = None;
      live = Hashtbl.create 64;
      writes = 0;
      reads = 0;
      torn = 0;
      rotted = 0;
      reclaimed = 0;
    }

  (* Grows geometrically: bytes past the written extent are zeroes,
     exactly what a read past the end returns. *)
  let ensure t bytes =
    if bytes > Bytes.length t.data then begin
      let data = Bytes.make (max bytes (2 * Bytes.length t.data)) '\000' in
      Bytes.blit t.data 0 data 0 (Bytes.length t.data);
      t.data <- data
    end

  let mark t sector sectors =
    for s = sector to sector + sectors - 1 do
      Hashtbl.replace t.live s ()
    done

  let write t ~sector bytes =
    let len = Bytes.length bytes in
    let sectors = if len = 0 then 1 else (len + t.ss - 1) / t.ss in
    ensure t ((sector + sectors) * t.ss);
    let old = Bytes.sub t.data (sector * t.ss) (sectors * t.ss) in
    Bytes.fill t.data (sector * t.ss) (sectors * t.ss) '\000';
    Bytes.blit bytes 0 t.data (sector * t.ss) len;
    mark t sector sectors;
    t.high <- max t.high (sector + sectors);
    t.last <- Some (sector, old, sectors);
    t.writes <- t.writes + 1;
    sectors

  let read t ~sector ~len =
    t.reads <- t.reads + 1;
    let out = Bytes.make len '\000' in
    let off = sector * t.ss in
    let avail = max 0 (min len (Bytes.length t.data - off)) in
    if avail > 0 then Bytes.blit t.data off out 0 avail;
    out

  let tear t ~rng =
    match t.last with
    | None -> 0
    | Some (sector, old, sectors) ->
      let keep = Rng.int rng ~bound:sectors in
      let dropped = sectors - keep in
      Bytes.blit old (keep * t.ss) t.data ((sector + keep) * t.ss)
        (dropped * t.ss);
      mark t (sector + keep) dropped;
      t.torn <- t.torn + dropped;
      t.last <- None;
      dropped

  let rot_at t ~sector ~off =
    let abs = (sector * t.ss) + off in
    Bytes.set t.data abs (Char.chr (Char.code (Bytes.get t.data abs) lxor 0x40));
    mark t (abs / t.ss) 1;
    t.rotted <- t.rotted + 1

  let discard t ~sector ~sectors =
    let hi = min t.high (sector + sectors) in
    if hi > sector then begin
      Bytes.fill t.data (sector * t.ss) ((hi - sector) * t.ss) '\000';
      for s = sector to hi - 1 do
        Hashtbl.remove t.live s
      done;
      t.reclaimed <- t.reclaimed + (hi - sector)
    end

  let stats t =
    let chunks = Hashtbl.create 16 in
    Hashtbl.iter
      (fun s () -> Hashtbl.replace chunks (s / Blockdev.chunk_sectors) ())
      t.live;
    {
      Blockdev.writes = t.writes;
      reads = t.reads;
      sectors = t.high;
      torn_sectors = t.torn;
      rotted_bytes = t.rotted;
      reclaimed_sectors = t.reclaimed;
      resident_bytes = Hashtbl.length chunks * Blockdev.chunk_sectors * t.ss;
    }
end

type dev_op =
  | Append of int  (** payload bytes *)
  | Write of int * int  (** sector, payload bytes *)
  | Read of int * int  (** sector, bytes *)
  | Sync
  | Tear of int  (** rng seed *)
  | Rot of int  (** offset, reduced modulo the written extent *)
  | Discard of int * int  (** sector, sectors *)
  | Churn of int * int * int
      (** records appended, payload bytes each, sectors retained: a
          WAL's append/discard cycle, discarding below [high - retain]
          after every append *)

let pp_dev_op ppf = function
  | Append n -> Fmt.pf ppf "append %d" n
  | Write (s, n) -> Fmt.pf ppf "write %d %d" s n
  | Read (s, n) -> Fmt.pf ppf "read %d %d" s n
  | Sync -> Fmt.string ppf "sync"
  | Tear seed -> Fmt.pf ppf "tear %d" seed
  | Rot off -> Fmt.pf ppf "rot %d" off
  | Discard (s, n) -> Fmt.pf ppf "discard %d %d" s n
  | Churn (k, n, r) -> Fmt.pf ppf "churn %d x %d retain %d" k n r

let dev_op_gen =
  QCheck.Gen.(
    let sector = int_bound 160 and bytes = int_bound 2600 in
    frequency
      [
        (5, map (fun n -> Append n) bytes);
        (2, map2 (fun s n -> Write (s, n)) sector bytes);
        (3, map2 (fun s n -> Read (s, n)) sector (int_bound 4000));
        (1, return Sync);
        (2, map (fun seed -> Tear seed) nat);
        (2, map (fun off -> Rot off) nat);
        (3, map2 (fun s n -> Discard (s, n)) sector (int_bound 80));
        ( 1,
          map3
            (fun k n r -> Churn (k, n, r))
            (int_range 50 400) (int_bound 700) (int_bound 200) );
      ])

let prop_blockdev_model =
  QCheck.Test.make ~name:"blockdev = flat model" ~count:300
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(Dump.list pp_dev_op))
       QCheck.Gen.(list_size (int_bound 60) dev_op_gen))
    (fun ops ->
      let d = Blockdev.create () and m = Flat.create () in
      let payload step n =
        Bytes.init n (fun i -> Char.chr ((i + (step * 7)) mod 256))
      in
      (* The chunk index spans chunk 0 plus at most about four times
         the extent from the lowest live chunk above 0 to the
         watermark (rebuilt at twice it, trimmed on discard past twice
         that) — never the whole address space. *)
      let index_bounded what =
        let cs = Blockdev.chunk_sectors in
        let lowest =
          Hashtbl.fold
            (fun s () lo -> if s >= cs then min lo (s / cs) else lo)
            m.Flat.live max_int
        in
        let extent =
          if lowest = max_int then 0 else ((m.Flat.high - 1) / cs) - lowest + 1
        in
        if Blockdev.index_slots d > 38 + (4 * extent) then
          QCheck.Test.fail_reportf "%s: %d index slots for a %d-chunk extent"
            what (Blockdev.index_slots d) extent
      in
      let agree what =
        if Blockdev.high d <> m.Flat.high then
          QCheck.Test.fail_reportf "%s: high %d, model %d" what
            (Blockdev.high d) m.Flat.high;
        if Blockdev.stats d <> Flat.stats m then
          QCheck.Test.fail_reportf "%s: stats %a, model %a" what
            Blockdev.pp_stats (Blockdev.stats d) Blockdev.pp_stats
            (Flat.stats m);
        index_bounded what
      in
      List.iteri
        (fun step op ->
          let what = Fmt.str "op %d (%a)" step pp_dev_op op in
          (match op with
          | Append n ->
            let s, k = Blockdev.append d (payload step n) in
            let s' = m.Flat.high in
            let k' = Flat.write m ~sector:s' (payload step n) in
            if (s, k) <> (s', k') then
              QCheck.Test.fail_reportf "%s: placed at %d+%d, model %d+%d" what
                s k s' k'
          | Write (s, n) ->
            let k = Blockdev.write d ~sector:s (payload step n) in
            let k' = Flat.write m ~sector:s (payload step n) in
            if k <> k' then
              QCheck.Test.fail_reportf "%s: %d sectors, model %d" what k k'
          | Read (s, n) ->
            if Blockdev.read d ~sector:s ~len:n <> Flat.read m ~sector:s ~len:n
            then QCheck.Test.fail_reportf "%s: bytes differ" what
          | Sync ->
            Blockdev.sync d;
            m.Flat.last <- None
          | Tear seed ->
            let k = Blockdev.tear d ~rng:(Rng.create seed) in
            let k' = Flat.tear m ~rng:(Rng.create seed) in
            if k <> k' then
              QCheck.Test.fail_reportf "%s: %d torn, model %d" what k k'
          | Rot off ->
            let extent = m.Flat.high * m.Flat.ss in
            if extent > 0 then begin
              let abs = off mod extent in
              let sector = abs / m.Flat.ss and off = abs mod m.Flat.ss in
              Blockdev.rot_at d ~sector ~off;
              Flat.rot_at m ~sector ~off
            end
          | Discard (s, n) ->
            Blockdev.discard d ~sector:s ~sectors:n;
            Flat.discard m ~sector:s ~sectors:n
          | Churn (k, n, retain) ->
            for r = 1 to k do
              let _, span = Blockdev.append d (payload (step + r) n) in
              ignore (Flat.write m ~sector:m.Flat.high (payload (step + r) n));
              let cut = m.Flat.high - retain in
              let from = max 0 (cut - span) in
              if cut > from then begin
                Blockdev.discard d ~sector:from ~sectors:(cut - from);
                Flat.discard m ~sector:from ~sectors:(cut - from)
              end;
              index_bounded (Fmt.str "%s, record %d" what r)
            done);
          agree what)
        ops;
      let len = (m.Flat.high + 2) * m.Flat.ss in
      if Blockdev.read d ~sector:0 ~len <> Flat.read m ~sector:0 ~len then
        QCheck.Test.fail_reportf "final image differs";
      agree "final read";
      true)

(* --- Frame --- *)

let test_frame_codec () =
  let d = Blockdev.create () in
  let f = { Frame.kind = Frame.Record; a = 7; b = 2;
            payload = Bytes.of_string "payload!" } in
  let sector, span = Frame.append d f in
  (match Frame.read d ~sector with
  | Frame.Ok (g, sp) ->
    Alcotest.(check int) "a" 7 g.Frame.a;
    Alcotest.(check int) "b" 2 g.Frame.b;
    Alcotest.(check string) "payload" "payload!" (Bytes.to_string g.Frame.payload);
    Alcotest.(check int) "span" span sp
  | _ -> Alcotest.fail "fresh frame should verify");
  (* flip a payload byte: structurally parseable, checksum fails *)
  Blockdev.rot_at d ~sector ~off:(Frame.header_bytes + 3);
  (match Frame.read d ~sector with
  | Frame.Damaged (g, _) -> Alcotest.(check int) "fields best-effort" 7 g.Frame.a
  | _ -> Alcotest.fail "payload rot should read Damaged");
  (* peer repair rewrites in place *)
  ignore (Frame.write_at d ~sector f);
  (match Frame.read d ~sector with
  | Frame.Ok _ -> ()
  | _ -> Alcotest.fail "rewritten frame should verify");
  (* flip a magic byte: not a frame at all *)
  Blockdev.rot_at d ~sector ~off:0;
  (match Frame.read d ~sector with
  | Frame.Broken -> ()
  | _ -> Alcotest.fail "bad magic should read Broken");
  match Frame.read d ~sector:(Blockdev.high d) with
  | Frame.Broken -> ()
  | _ -> Alcotest.fail "past the watermark should read Broken"

(* --- Wal: crash/reload --- *)

let test_wal_reload_equality () =
  let dev = Blockdev.create () in
  let w = Wal.create ~dev () in
  let payload p = if p = 7 then String.make 150 'x' else string_of_int p in
  for p = 0 to 9 do
    Wal.append w (entry ~origin:(p mod 3) ~payload:(payload p) p)
  done;
  Wal.crash w;
  let r = Wal.reload w in
  Alcotest.(check int) "nothing torn" 0 r.Wal.r_torn_sectors;
  Alcotest.(check int) "nothing lost" 0 r.Wal.r_lost;
  Alcotest.(check bool) "no quarantine" false (Wal.quarantined w);
  Alcotest.(check int) "high" 10 (Wal.high w);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "payload survives" (Some (payload e.Wal.pos))
        e.Wal.payload;
      Alcotest.(check int) "origin survives" (e.Wal.pos mod 3) e.Wal.origin)
    (Wal.suffix w ~from:0);
  (* truncation low watermark is durable via the superblock *)
  Wal.truncate_below w ~pos:4;
  Wal.crash w;
  ignore (Wal.reload w);
  Alcotest.(check int) "low from superblock" 4 (Wal.low w);
  Alcotest.(check (list int)) "prefix stays truncated" [ 4; 5; 6; 7; 8; 9 ]
    (positions w);
  (* the log keeps appending after a reload (fresh segment header) *)
  Wal.append w (entry ~payload:"ten" 10);
  Alcotest.(check (list int)) "append after reload" [ 9; 10 ]
    (List.map (fun e -> e.Wal.pos) (Wal.suffix w ~from:9))

(* --- Wal: torn tails --- *)

(* Append four small records then one spanning several sectors, tear
   the in-flight write with [seed], and return the log with the tear's
   shape.  [accept] picks the tear geometry under test. *)
let torn_tail ~accept =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no seed yields the tear under test"
    else begin
      let dev = Blockdev.create () in
      let w = Wal.create ~dev () in
      for p = 0 to 3 do
        Wal.append w (entry ~payload:(string_of_int p) p)
      done;
      let before = Blockdev.high dev in
      Wal.append w (entry ~payload:(String.make 150 'x') 4);
      let span = Blockdev.high dev - before in
      Alcotest.(check bool) "record split across sectors" true (span >= 2);
      let dropped = Blockdev.tear dev ~rng:(Rng.create seed) in
      if accept ~span ~dropped then (w, span, dropped) else go (seed + 1)
    end
  in
  go 1

let check_torn_tail_recovers w r =
  Alcotest.(check (list (pair int int))) "no mid-log quarantine" []
    r.Wal.r_quarantine;
  Alcotest.(check bool) "torn record absent" false (Wal.mem w 4);
  Alcotest.(check int) "head truncated to the last good record" 4 (Wal.high w);
  Alcotest.(check (list int)) "prefix intact" [ 0; 1; 2; 3 ] (positions w);
  (* catch-up refetches the truncated tail as a plain append *)
  Wal.append w (entry ~payload:(String.make 150 'x') 4);
  Alcotest.(check (option string)) "refetched tail verifies"
    (Some (String.make 150 'x'))
    (match Wal.entry_at w ~pos:4 with Some e -> e.Wal.payload | None -> None)

let test_wal_torn_mid_record () =
  (* keep >= 1 sector: the frame survives structurally but its payload
     runs into zeroed sectors, so the checksum convicts it *)
  let w, span, dropped =
    torn_tail ~accept:(fun ~span ~dropped -> dropped < span)
  in
  Wal.crash w;
  let r = Wal.reload w in
  Alcotest.(check int) "whole frame counts as torn" span r.Wal.r_torn_sectors;
  Alcotest.(check bool) "partial frame detected" true (r.Wal.r_lost >= 1);
  Alcotest.(check int) "dropped suffix really shorter" dropped
    (min dropped span);
  check_torn_tail_recovers w r

let test_wal_torn_record_boundary () =
  (* keep = 0 sectors: the tail reverts to exactly the previous record
     boundary; nothing is even parseable past it *)
  let w, span, _ =
    torn_tail ~accept:(fun ~span ~dropped -> dropped = span)
  in
  Wal.crash w;
  let r = Wal.reload w in
  Alcotest.(check int) "torn sectors = the lost frame" span r.Wal.r_torn_sectors;
  Alcotest.(check int) "clean boundary: nothing mis-parsed" 0 r.Wal.r_lost;
  check_torn_tail_recovers w r

(* --- Wal: segment-header damage --- *)

let find_header dev ~seq =
  let hi = Blockdev.high dev in
  let rec go s =
    if s >= hi then Alcotest.fail "segment header not found"
    else
      match Frame.read dev ~sector:s with
      | Frame.Ok (f, span) ->
        if f.Frame.kind = Frame.Header && f.Frame.a = seq then s else go (s + span)
      | Frame.Damaged (_, span) when span > 0 && s + span <= hi -> go (s + span)
      | _ -> go (s + 1)
  in
  go 1

let segmented_wal () =
  let dev = Blockdev.create () in
  let w = Wal.create ~dev ~seg_records:2 () in
  for p = 0 to 5 do
    Wal.append w (entry ~payload:(p * 10) p)
  done;
  (dev, w)

let test_wal_header_torn_away () =
  (* A header torn clean away (its sector reverts to zeroes) loses no
     records: each record frame carries its own checksummed metadata,
     so the scanner resyncs and keeps them all. *)
  let dev, w = segmented_wal () in
  let s = find_header dev ~seq:1 in
  ignore (Blockdev.write dev ~sector:s (Bytes.make 1 '\000'));
  Blockdev.sync dev;
  Wal.crash w;
  let r = Wal.reload w in
  Alcotest.(check int) "no record lost" 0 r.Wal.r_lost;
  Alcotest.(check (list int)) "all records kept" [ 0; 1; 2; 3; 4; 5 ]
    (positions w)

let test_wal_header_corrupt_quarantines () =
  (* A header that reads back Damaged (bit-rot inside the frame) is
     unverifiable, so the records of its segment are quarantined until
     a peer supplies known-good copies. *)
  let dev, w = segmented_wal () in
  let s = find_header dev ~seq:1 in
  Blockdev.rot_at dev ~sector:s ~off:10;
  Wal.crash w;
  let r = Wal.reload w in
  Alcotest.(check (list (pair int int))) "segment quarantined" [ (2, 4) ]
    r.Wal.r_quarantine;
  Alcotest.(check (list int)) "its records dropped" [ 0; 1; 4; 5 ] (positions w);
  Alcotest.(check int) "head unmoved" 6 (Wal.high w);
  (* peer repair refills the quarantined positions *)
  Alcotest.(check bool) "patch 2" true (Wal.patch w (entry ~payload:20 2));
  Alcotest.(check bool) "patch 3" true (Wal.patch w (entry ~payload:30 3));
  Alcotest.(check bool) "quarantine cleared" false (Wal.quarantined w);
  Alcotest.(check (list int)) "log whole again" [ 0; 1; 2; 3; 4; 5 ]
    (positions w);
  Alcotest.(check int) "repairs counted" 2 (Wal.counters w).Wal.repaired

(* --- Wal: scrub + patch --- *)

let test_wal_scrub_patch () =
  let w = Wal.create () in
  for p = 0 to 5 do
    Wal.append w (entry ~payload:(p * 10) p)
  done;
  let pos =
    match Wal.rot_record w ~rng:(Rng.create 11) ~above:2 with
    | Some p -> p
    | None -> Alcotest.fail "nothing to rot"
  in
  Alcotest.(check bool) "rot above the horizon" true (pos >= 2);
  Alcotest.(check (list int)) "scrub finds it" [ pos ] (Wal.scrub w);
  Alcotest.(check bool) "awaiting repair" true (Wal.quarantined w);
  Alcotest.(check (option int)) "damaged payload unreadable" None
    (match Wal.entry_at w ~pos with Some e -> e.Wal.payload | None -> None);
  Alcotest.(check bool) "patch repairs in place" true
    (Wal.patch w (entry ~payload:(pos * 10) pos));
  Alcotest.(check (option int)) "payload readable again" (Some (pos * 10))
    (match Wal.entry_at w ~pos with Some e -> e.Wal.payload | None -> None);
  Alcotest.(check bool) "repair queue drained" false (Wal.quarantined w);
  Alcotest.(check (list int)) "second scrub clean" [] (Wal.scrub w);
  Alcotest.(check bool) "patch without damage is refused" false
    (Wal.patch w (entry ~payload:0 0));
  let c = Wal.counters w in
  Alcotest.(check int) "corrupt counted once" 1 c.Wal.corrupt;
  Alcotest.(check int) "repaired counted once" 1 c.Wal.repaired

(* --- Wal: crc = off --- *)

let test_wal_crc_off_silent_hole () =
  let w = Wal.create ~crc:false () in
  for p = 0 to 3 do
    Wal.append w (entry ~payload:p p)
  done;
  let pos =
    match Wal.rot_record w ~rng:(Rng.create 5) ~above:0 with
    | Some p -> p
    | None -> Alcotest.fail "nothing to rot"
  in
  Alcotest.(check (list int)) "scrubbing is off" [] (Wal.scrub w);
  let suffix = Wal.suffix w ~from:0 in
  Alcotest.(check (list int)) "every position still listed" [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.Wal.pos) suffix);
  List.iter
    (fun e ->
      Alcotest.(check (option int)) "damage admitted as a hole"
        (if e.Wal.pos = pos then None else Some e.Wal.pos)
        e.Wal.payload)
    suffix;
  ignore (Wal.suffix w ~from:0);
  let c = Wal.counters w in
  Alcotest.(check int) "silent loss counted once" 1 c.Wal.silent;
  Alcotest.(check int) "never flagged as corrupt" 0 c.Wal.corrupt;
  Alcotest.(check bool) "nothing quarantined" false (Wal.quarantined w)

(* --- Checkpoint: corruption fallbacks --- *)

let test_checkpoint_fallback_previous () =
  let c = Checkpoint.create () in
  Checkpoint.save c ~pos:4 "a";
  Checkpoint.save c ~pos:9 "b";
  Alcotest.(check bool) "latest damaged" true
    (Checkpoint.damage_latest c ~rng:(Rng.create 2));
  Alcotest.(check (option (pair int string))) "falls back to the older slot"
    (Some (4, "a")) (Checkpoint.load c);
  Alcotest.(check int) "fallback counted" 1 (Checkpoint.fallbacks c);
  (* the damaged slot is dropped: new snapshots resume above the survivor *)
  Checkpoint.save c ~pos:12 "c";
  Alcotest.(check (option (pair int string))) "fresh snapshot wins"
    (Some (12, "c")) (Checkpoint.load c)

let test_checkpoint_fallback_genesis () =
  let c = Checkpoint.create () in
  Checkpoint.save c ~pos:4 "only";
  Alcotest.(check bool) "latest damaged" true
    (Checkpoint.damage_latest c ~rng:(Rng.create 2));
  Alcotest.(check (option (pair int string)))
    "no older slot: genesis + full replay" None (Checkpoint.load c);
  Alcotest.(check int) "fallback counted" 1 (Checkpoint.fallbacks c)

let test_checkpoint_crash_reload () =
  let dev = Blockdev.create () in
  let c = Checkpoint.create ~dev () in
  Checkpoint.save c ~pos:4 "a";
  Checkpoint.save c ~pos:9 "b";
  Checkpoint.crash c;
  Alcotest.(check bool) "volatile index gone" true (Checkpoint.load c = None);
  Checkpoint.reload c;
  Alcotest.(check (option (pair int string))) "device scan finds the newest"
    (Some (9, "b")) (Checkpoint.load c)

let () =
  Alcotest.run "storage"
    [
      ( "deque",
        [
          Alcotest.test_case "laws + wraparound" `Quick test_deque_laws;
          Alcotest.test_case "lower_bound" `Quick test_deque_lower_bound;
        ] );
      ( "blockdev",
        [
          Alcotest.test_case "roundtrip" `Quick test_blockdev_roundtrip;
          Alcotest.test_case "tear" `Quick test_blockdev_tear;
          Alcotest.test_case "resident after prefix discard" `Quick
            test_blockdev_resident_prefix;
          QCheck_alcotest.to_alcotest prop_blockdev_model;
        ] );
      ( "frame",
        [ Alcotest.test_case "codec + damage" `Quick test_frame_codec ] );
      ( "wal",
        [
          Alcotest.test_case "crash/reload equality" `Quick
            test_wal_reload_equality;
          Alcotest.test_case "torn mid-record" `Quick test_wal_torn_mid_record;
          Alcotest.test_case "torn at a record boundary" `Quick
            test_wal_torn_record_boundary;
          Alcotest.test_case "header torn away" `Quick test_wal_header_torn_away;
          Alcotest.test_case "header corrupt quarantines" `Quick
            test_wal_header_corrupt_quarantines;
          Alcotest.test_case "scrub + patch" `Quick test_wal_scrub_patch;
          Alcotest.test_case "crc off: silent hole" `Quick
            test_wal_crc_off_silent_hole;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fallback to previous" `Quick
            test_checkpoint_fallback_previous;
          Alcotest.test_case "fallback to genesis" `Quick
            test_checkpoint_fallback_genesis;
          Alcotest.test_case "crash/reload" `Quick test_checkpoint_crash_reload;
        ] );
    ]
