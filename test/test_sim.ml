(* Tests for the discrete-event simulation substrate. *)

open Mmc_sim

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a ~bound:1000) (Rng.int b ~bound:1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_range rng ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done;
  for _ = 1 to 100 do
    let f = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 1 in
  let c1 = Rng.split parent in
  let x = Rng.int c1 ~bound:1_000_000 in
  (* Re-deriving from the same parent state gives a different stream. *)
  let c2 = Rng.split parent in
  let y = Rng.int c2 ~bound:1_000_000 in
  Alcotest.(check bool) "distinct streams (overwhelmingly)" true (x <> y)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_heap_ordering () =
  let h = Heap.create ~compare ~dummy:0 in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some v ->
      out := v :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 5; 4; 3; 1; 1; 0 ] !out

let test_heap_grow () =
  let h = Heap.create ~compare ~dummy:0 in
  for i = 100 downto 1 do
    Heap.push h i
  done;
  Alcotest.(check int) "length" 100 (Heap.length h);
  Alcotest.(check bool) "min first" true (Heap.pop h = Some 1)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := 5 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 5; 10; 20 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 20 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1 (fun () ->
      log := `A :: !log;
      Engine.schedule e ~delay:2 (fun () -> log := `C :: !log);
      Engine.schedule e ~delay:1 (fun () -> log := `B :: !log));
  Engine.run e;
  Alcotest.(check int) "three events" 3 (List.length !log);
  Alcotest.(check bool) "order" true (List.rev !log = [ `A; `B; `C ])

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule e ~delay:10 tick
  in
  Engine.schedule e ~delay:0 tick;
  Engine.run ~until:95 e;
  Alcotest.(check int) "ticks until cutoff" 10 !count

let test_latency_models () =
  let rng = Rng.create 9 in
  Alcotest.(check int) "constant" 7 (Latency.sample (Latency.Constant 7) rng);
  for _ = 1 to 200 do
    let v = Latency.sample (Latency.Uniform (3, 8)) rng in
    Alcotest.(check bool) "uniform range" true (v >= 3 && v <= 8)
  done;
  for _ = 1 to 200 do
    let v = Latency.sample (Latency.Exponential 10) rng in
    Alcotest.(check bool) "exponential positive" true (v >= 1)
  done;
  for _ = 1 to 50 do
    let v = Latency.sample (Latency.Bimodal { fast = 2; slow = 50; p_slow = 0.5 }) rng in
    Alcotest.(check bool) "bimodal values" true (v = 2 || v = 50)
  done

let test_network_delivery () =
  let e = Engine.create () in
  let rng = Rng.create 5 in
  let net = Network.create e ~n:3 ~latency:(Latency.Uniform (1, 10)) ~rng in
  let received = Array.make 3 [] in
  for node = 0 to 2 do
    Network.set_handler net node (fun src msg ->
        received.(node) <- (src, msg) :: received.(node))
  done;
  Network.send net ~src:0 ~dst:1 "hello";
  Network.send net ~src:2 ~dst:1 "world";
  Network.send_all net ~src:1 "bcast";
  Engine.run e;
  Alcotest.(check int) "node 1 got 3 messages" 3 (List.length received.(1));
  Alcotest.(check int) "node 0 got broadcast" 1 (List.length received.(0));
  Alcotest.(check int) "sent" 5 (Network.messages_sent net);
  Alcotest.(check int) "delivered" 5 (Network.messages_delivered net)

let test_network_reordering_possible () =
  (* With wide jitter, two messages sent in order can be delivered out
     of order for some seed. *)
  let reordered = ref false in
  let seed = ref 0 in
  while (not !reordered) && !seed < 100 do
    let e = Engine.create () in
    let rng = Rng.create !seed in
    let net = Network.create e ~n:2 ~latency:(Latency.Uniform (1, 50)) ~rng in
    let log = ref [] in
    Network.set_handler net 1 (fun _src msg -> log := msg :: !log);
    Network.set_handler net 0 (fun _ _ -> ());
    Network.send net ~src:0 ~dst:1 1;
    Network.send net ~src:0 ~dst:1 2;
    Engine.run e;
    if List.rev !log = [ 2; 1 ] then reordered := true;
    incr seed
  done;
  Alcotest.(check bool) "reordering observed" true !reordered

let test_fifo_channel_orders () =
  (* The FIFO layer must deliver in send order for every seed. *)
  for seed = 0 to 49 do
    let e = Engine.create () in
    let rng = Rng.create seed in
    let chan = Fifo_channel.create e ~n:2 ~latency:(Latency.Uniform (1, 50)) ~rng in
    let log = ref [] in
    Fifo_channel.set_handler chan 1 (fun _src msg -> log := msg :: !log);
    Fifo_channel.set_handler chan 0 (fun _ _ -> ());
    for i = 1 to 10 do
      Fifo_channel.send chan ~src:0 ~dst:1 i
    done;
    Engine.run e;
    Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
      (List.rev !log)
  done

let test_fifo_channel_suppresses_duplicates () =
  (* Exactly-once in-order delivery even over an at-least-once
     network. *)
  for seed = 0 to 29 do
    let e = Engine.create () in
    let rng = Rng.create seed in
    let chan =
      Fifo_channel.create ~duplicate:0.5 e ~n:2 ~latency:(Latency.Uniform (1, 50))
        ~rng
    in
    let log = ref [] in
    Fifo_channel.set_handler chan 1 (fun _src msg -> log := msg :: !log);
    Fifo_channel.set_handler chan 0 (fun _ _ -> ());
    for i = 1 to 10 do
      Fifo_channel.send chan ~src:0 ~dst:1 i
    done;
    Engine.run e;
    Alcotest.(check (list int)) "exactly once, in order"
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
      (List.rev !log)
  done

let test_network_duplicates_occur () =
  (* Sanity: the duplication knob actually produces extra deliveries. *)
  let e = Engine.create () in
  let rng = Rng.create 4 in
  let net = Network.create ~duplicate:0.5 e ~n:2 ~latency:(Latency.Constant 3) ~rng in
  let count = ref 0 in
  Network.set_handler net 1 (fun _ _ -> incr count);
  Network.set_handler net 0 (fun _ _ -> ());
  for _ = 1 to 100 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run e;
  Alcotest.(check bool) "more deliveries than sends" true (!count > 100)

let test_stats_summary () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  let sum = Stats.summarize s in
  Alcotest.(check int) "count" 10 sum.Stats.count;
  Alcotest.(check int) "min" 1 sum.Stats.min;
  Alcotest.(check int) "max" 10 sum.Stats.max;
  Alcotest.(check int) "p50" 5 sum.Stats.p50;
  Alcotest.(check bool) "mean" true (abs_float (sum.Stats.mean -. 5.5) < 0.001)

let test_stats_rejects_negative () =
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Stats.add: negative sample") (fun () ->
      Stats.add (Stats.create ()) (-1))

(* Sort-based reference for the histogram: nearest rank in
   [summarize], linear interpolation at rank [p * (n - 1)] in
   [percentiles]. *)
let ref_summary xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Stats.empty_summary
  else begin
    let rank p =
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
    in
    {
      Stats.count = n;
      mean = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int n;
      min = a.(0);
      max = a.(n - 1);
      p50 = rank 0.50;
      p95 = rank 0.95;
      p99 = rank 0.99;
    }
  end

let ref_quantiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let interpolate p =
    if n = 0 then 0.0
    else if n = 1 then float_of_int a.(0)
    else begin
      let rank = p *. float_of_int (n - 1) in
      let lo = max 0 (min (n - 2) (int_of_float (Float.floor rank))) in
      let frac = rank -. float_of_int lo in
      ((1.0 -. frac) *. float_of_int a.(lo))
      +. (frac *. float_of_int a.(lo + 1))
    end
  in
  {
    Stats.q_count = n;
    q50 = interpolate 0.50;
    q99 = interpolate 0.99;
    q999 = interpolate 0.999;
  }

(* Samples on both sides of the exact range [0, 2^16): empty,
   singleton, spread-out and heavily duplicated lists. *)
let stats_samples_gen =
  QCheck.Gen.(
    let value =
      frequency
        [
          (4, int_bound 200);
          (3, int_bound 70_000);
          (2, int_range 60_000 (1 lsl 22));
          (1, int_range 0 (1 lsl 45));
        ]
    in
    let run = map2 (fun v k -> List.init k (fun _ -> v)) value (int_bound 40) in
    frequency
      [
        (1, return []);
        (1, map (fun v -> [ v ]) value);
        (4, list_size (int_bound 400) value);
        (2, map List.concat (list_size (int_bound 6) run));
      ])

let prop_stats_reference =
  QCheck.Test.make ~name:"histogram = sorted reference" ~count:500
    (QCheck.make ~print:QCheck.Print.(list int) stats_samples_gen)
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let got = Stats.summarize s and want = ref_summary xs in
      let q = Stats.percentiles s and wq = ref_quantiles xs in
      if List.for_all (fun x -> x < 1 lsl 16) xs then got = want && q = wq
      else begin
        (* Above 2^16 a quantile is a bucket midpoint: within 2^-9
           relative of the true sample. *)
        let close g w = Float.abs (g -. w) <= w *. (1. /. 512.) in
        let closei g w = close (float_of_int g) (float_of_int w) in
        got.Stats.count = want.Stats.count
        && got.Stats.mean = want.Stats.mean
        && got.Stats.min = want.Stats.min
        && got.Stats.max = want.Stats.max
        && closei got.Stats.p50 want.Stats.p50
        && closei got.Stats.p95 want.Stats.p95
        && closei got.Stats.p99 want.Stats.p99
        && q.Stats.q_count = wq.Stats.q_count
        && close q.Stats.q50 wq.Stats.q50
        && close q.Stats.q99 wq.Stats.q99
        && close q.Stats.q999 wq.Stats.q999
        && Stats.count s = List.length xs
      end)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~compare ~dummy:0 in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc)
      in
      drain [] = List.sort compare xs)

(* --- Watermark sets against a Hashtbl model --- *)

type wm_op = Add of int | Add_below of int

let pp_wm_op ppf = function
  | Add n -> Fmt.pf ppf "add %d" n
  | Add_below k -> Fmt.pf ppf "add_below %d" k

let wm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun n -> Add n) (int_bound 80));
        (1, map (fun k -> Add_below k) (int_bound 60));
      ])

let prop_watermark_model =
  QCheck.Test.make ~name:"watermark = Hashtbl model" ~count:500
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(Dump.list pp_wm_op))
       QCheck.Gen.(list_size (int_bound 120) wm_op_gen))
    (fun ops ->
      let w = Watermark.create () and model = Hashtbl.create 64 in
      let add n = Hashtbl.replace model n () in
      List.iteri
        (fun step op ->
          (match op with
          | Add n ->
            Watermark.add w n;
            add n
          | Add_below k ->
            Watermark.add_below w k;
            for n = 0 to k - 1 do
              add n
            done);
          let low = ref 0 in
          while Hashtbl.mem model !low do
            incr low
          done;
          let above =
            Hashtbl.fold (fun n () acc -> if n > !low then n :: acc else acc) model []
            |> List.sort compare
          in
          let what = Fmt.str "op %d (%a)" step pp_wm_op op in
          if Watermark.low w <> !low then
            QCheck.Test.fail_reportf "%s: low %d, model %d" what (Watermark.low w) !low;
          if Watermark.above w <> above then
            QCheck.Test.fail_reportf "%s: above differs" what;
          if Watermark.sparse w <> List.length above then
            QCheck.Test.fail_reportf "%s: sparse %d, model %d" what
              (Watermark.sparse w) (List.length above);
          for n = 0 to 130 do
            if Watermark.mem w n <> Hashtbl.mem model n then
              QCheck.Test.fail_reportf "%s: mem %d" what n
          done;
          let c = Watermark.copy w in
          Watermark.add c 1000;
          if Watermark.mem w 1000 then
            QCheck.Test.fail_reportf "%s: copy shares state" what)
        ops;
      true)

(* Long runs of sequence numbers retired out of order within a bounded
   window (a reordering channel's deliveries): the set holds at most
   the window explicitly, and once the stragglers are in, its memory is
   back to that of an empty set however long the run was. *)
let prop_watermark_long_runs =
  QCheck.Test.make ~name:"watermark memory O(gaps) on long runs" ~count:40
    QCheck.(
      make
        ~print:Print.(triple int int int)
        Gen.(triple (int_range 1_000 30_000) (int_range 1 64) nat))
    (fun (len, window, seed) ->
      let w = Watermark.create () in
      let empty_words = Obj.reachable_words (Obj.repr w) in
      let rng = Rng.create seed in
      let order = Array.init len Fun.id in
      let b = ref 0 in
      while !b < len do
        let k = min window (len - !b) in
        let block = Array.sub order !b k in
        Rng.shuffle rng block;
        Array.blit block 0 order !b k;
        b := !b + k
      done;
      Array.iter
        (fun n ->
          Watermark.add w n;
          if Watermark.sparse w >= window then
            QCheck.Test.fail_reportf "%d members held explicitly, window %d"
              (Watermark.sparse w) window)
        order;
      Watermark.low w = len
      && Watermark.sparse w = 0
      && Obj.reachable_words (Obj.repr w) = empty_words)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "grow" `Quick test_heap_grow;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "tie FIFO" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
        ] );
      ( "network",
        [
          Alcotest.test_case "latency models" `Quick test_latency_models;
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "reordering" `Quick test_network_reordering_possible;
          Alcotest.test_case "fifo layer" `Quick test_fifo_channel_orders;
          Alcotest.test_case "fifo duplicates" `Quick
            test_fifo_channel_suppresses_duplicates;
          Alcotest.test_case "duplication knob" `Quick test_network_duplicates_occur;
          Alcotest.test_case "stats" `Quick test_stats_summary;
          Alcotest.test_case "stats rejects negative" `Quick
            test_stats_rejects_negative;
          QCheck_alcotest.to_alcotest prop_stats_reference;
        ] );
      ( "watermark",
        [
          QCheck_alcotest.to_alcotest prop_watermark_model;
          QCheck_alcotest.to_alcotest prop_watermark_long_runs;
        ] );
    ]
