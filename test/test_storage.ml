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

(* --- Crc32 --- *)

(* The IEEE CRC-32 check value: frames are written and read with the
   same function, so only a known answer pins it to the standard. *)
let test_crc32_known_answer () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int) "digest \"123456789\"" 0xCBF43926
    (Crc32.digest b ~off:0 ~len:9);
  Alcotest.(check int) "empty" 0 (Crc32.digest Bytes.empty ~off:0 ~len:0)

(* The definition, one table lookup per byte. *)
let crc32_bytewise =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun state b ~off ~len ->
    let c = ref state in
    for i = off to off + len - 1 do
      c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
    done;
    !c

(* [Crc32.update] against the definition over random buffers, every
   offset alignment and lengths around each word boundary, whole and
   fed in two chained pieces. *)
let test_crc32_bytewise () =
  let rng = Random.State.make [| 32 |] in
  for trial = 0 to 299 do
    let n = Random.State.int rng 200 in
    let b = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    let off = if n = 0 then 0 else Random.State.int rng (min n 16) in
    let len = Random.State.int rng (n - off + 1) in
    let cut = Random.State.int rng (len + 1) in
    let state = if trial mod 2 = 0 then Crc32.init else Random.State.bits rng in
    let want = crc32_bytewise state b ~off ~len in
    let ctx = Fmt.str "trial %d: %d bytes at %d of %d" trial len off n in
    Alcotest.(check int) (ctx ^ ", whole") want (Crc32.update state b ~off ~len);
    Alcotest.(check int) (ctx ^ Fmt.str ", cut at %d" cut) want
      (Crc32.update
         (Crc32.update state b ~off ~len:cut)
         b ~off:(off + cut) ~len:(len - cut))
  done

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

(* --- Wal: change-aware scrub against a full re-read --- *)

type wal_op =
  | W_append of int * int  (** positions skipped, payload bytes *)
  | W_overwrite of int * int  (** sector (mod watermark), bytes *)
  | W_patch of int * int  (** position (mod the retained range), bytes *)
  | W_rot of int  (** rng seed: flip a byte of a retained record *)
  | W_rot_dev of int  (** rng seed: flip a byte anywhere *)
  | W_tear of int  (** rng seed *)
  | W_discard of int * int  (** sector (mod watermark), sectors *)
  | W_truncate of int  (** new low (mod the retained range) *)
  | W_reload
  | W_scrub

let pp_wal_op ppf = function
  | W_append (g, n) -> Fmt.pf ppf "append +%d %dB" g n
  | W_overwrite (s, n) -> Fmt.pf ppf "overwrite %d %dB" s n
  | W_patch (p, n) -> Fmt.pf ppf "patch %d %dB" p n
  | W_rot seed -> Fmt.pf ppf "rot %d" seed
  | W_rot_dev seed -> Fmt.pf ppf "rot-dev %d" seed
  | W_tear seed -> Fmt.pf ppf "tear %d" seed
  | W_discard (s, n) -> Fmt.pf ppf "discard %d %d" s n
  | W_truncate p -> Fmt.pf ppf "truncate %d" p
  | W_reload -> Fmt.string ppf "reload"
  | W_scrub -> Fmt.string ppf "scrub"

(* Discards reach from a few sectors to past the watermark: emptying
   every chunk above 0 and then growing again rebuilds the chunk index
   (see [prop_blockdev_model]), which forgets dropped chunks' stamps. *)
let wal_op_gen =
  QCheck.Gen.(
    let bytes = int_bound 400 in
    let gap = frequency [ (5, return 0); (1, int_bound 3) ] in
    frequency
      [
        (10, map2 (fun g n -> W_append (g, n)) gap bytes);
        (1, map2 (fun s n -> W_overwrite (s, n)) nat (int_bound 100));
        (2, map2 (fun p n -> W_patch (p, n)) nat bytes);
        (3, map (fun seed -> W_rot seed) nat);
        (1, map (fun seed -> W_rot_dev seed) nat);
        (1, map (fun seed -> W_tear seed) nat);
        ( 2,
          map2
            (fun s n -> W_discard (s, n))
            (frequency [ (1, return 1); (2, nat) ])
            (frequency [ (2, int_bound 20); (1, int_bound 2000) ]) );
        (1, map (fun p -> W_truncate p) nat);
        (1, return W_reload);
        (6, return W_scrub);
      ])

(* After any mix of appends, overwrites below the watermark, patches,
   bit-rot (of frames earlier passes read clean, too), tears,
   discards, truncations and reloads, a scrub reports exactly the
   retained positions whose frame no longer reads back clean — what a
   pass re-reading every frame reports — and counts every frame. *)
let prop_scrub_full_pass =
  QCheck.Test.make ~name:"change-aware scrub = full re-read" ~count:600
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(Dump.list pp_wal_op))
       QCheck.Gen.(list_size (int_bound 200) wal_op_gen))
    (fun ops ->
      let dev = Blockdev.create ~sector_size:32 () in
      let w : string Wal.t = Wal.create ~dev ~seg_records:3 () in
      let text n c = String.make n c in
      let retained k =
        let lo = Wal.low w and hi = Wal.high w in
        if hi > lo then Some (lo + (k mod (hi - lo))) else None
      in
      let sector k = k mod max 1 (Blockdev.high dev) in
      let check what =
        let full =
          List.filter
            (fun p -> Wal.mem w p && Wal.entry_at w ~pos:p = None)
            (List.init (Wal.high w - Wal.low w) (fun i -> Wal.low w + i))
        in
        let before = (Wal.counters w).Wal.scrubbed and len = Wal.length w in
        let got = Wal.scrub w in
        if got <> full then
          QCheck.Test.fail_reportf "%s: scrub %a, full pass %a" what
            Fmt.(Dump.list int) got Fmt.(Dump.list int) full;
        let counted = (Wal.counters w).Wal.scrubbed - before in
        if counted <> len then
          QCheck.Test.fail_reportf "%s: %d frames counted, %d retained" what
            counted len
      in
      List.iteri
        (fun step op ->
          match op with
          | W_append (gap, n) ->
            let pos = Wal.high w + gap in
            Wal.append w (entry ~origin:step ~payload:(text n 'a') pos)
          | W_overwrite (s, n) ->
            if Blockdev.high dev > 0 then
              ignore (Blockdev.write dev ~sector:(sector s) (Bytes.make n 'z'))
          | W_patch (k, n) ->
            Option.iter
              (fun p -> ignore (Wal.patch w (entry ~payload:(text n 'p') p)))
              (retained k)
          | W_rot seed ->
            ignore (Wal.rot_record w ~rng:(Rng.create seed) ~above:0)
          | W_rot_dev seed -> ignore (Blockdev.rot dev ~rng:(Rng.create seed))
          | W_tear seed -> ignore (Blockdev.tear dev ~rng:(Rng.create seed))
          | W_discard (s, n) ->
            Blockdev.discard dev ~sector:(sector s) ~sectors:n
          | W_truncate k ->
            Option.iter (fun pos -> Wal.truncate_below w ~pos) (retained k)
          | W_reload -> ignore (Wal.reload w)
          | W_scrub -> check (Fmt.str "op %d" step))
        ops;
      check "final";
      true)

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

(* --- experiment R5's claims --- *)

(* R5 at its own size (3 seeds, 4 clients, 12 m-operations each): every
   (fault mix, checkpoint interval) row admissible and converged 3/3,
   and every mix with bit-rot repairs at least one record (the repair
   path is live, not just the detection). *)
let test_r5_claims () =
  let module R = Mmc_experiments.Exp_recovery in
  List.iter
    (fun (mix, (plan : Fault.plan)) ->
      List.iter
        (fun ckpt ->
          let js : Mmc_store.Runner.judgement list =
            R.storage_cell ~plan ckpt
          in
          let row = Fmt.str "%s ckpt=%d" mix ckpt in
          let count p = List.length (List.filter p js) in
          Alcotest.(check int) (row ^ ": runs") 3 (List.length js);
          Alcotest.(check int) (row ^ ": admissible") 3
            (count (fun j -> Mmc_core.Check_constrained.admissible j.check));
          Alcotest.(check int) (row ^ ": converged") 3
            (count (fun j -> j.converged));
          let repaired =
            List.fold_left (fun t j -> t + j.Mmc_store.Runner.wal.Rlog.repaired) 0 js
          in
          if plan.Fault.rots <> [] then
            Alcotest.(check bool)
              (Fmt.str "%s: %d records repaired >= 1" row repaired)
              true (repaired >= 1))
        R.r5_intervals)
    R.storage_mixes

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
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc32_known_answer;
          Alcotest.test_case "update = bytewise table" `Quick
            test_crc32_bytewise;
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
          QCheck_alcotest.to_alcotest prop_scrub_full_pass;
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
      ( "experiment R5",
        [
          Alcotest.test_case "admissible, converged, rot repaired" `Quick
            test_r5_claims;
        ] );
    ]
