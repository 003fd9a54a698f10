(* Tests for the fault-injection layer and the reliable-channel
   protocol: plan validation, drop/retransmit delivery, partition-heal
   delivery, crash/recovery rejoin, broadcast guarantees over lossy
   wires, and the end-to-end "lossy run is still admissible"
   property. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast

let ( ==> ) a b = (a, b)

(* --- plan validation --- *)

let test_validate_rejects () =
  let invalid plan = Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
      try Fault.validate plan
      with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  invalid { Fault.none with Fault.drop = 1.5 };
  invalid { Fault.none with Fault.drop = -0.1 };
  invalid { Fault.none with Fault.drop = Float.nan };
  invalid { Fault.none with Fault.spike_prob = 2.0 };
  invalid { Fault.none with Fault.spike_delay = -1 };
  invalid { Fault.none with Fault.link_drop = [ (0, 1) ==> 1.01 ] };
  invalid
    { Fault.none with Fault.partitions = [ { Fault.from_ = 10; until = 10; island = [ 0 ] } ] };
  invalid
    { Fault.none with Fault.partitions = [ { Fault.from_ = 0; until = 5; island = [] } ] };
  invalid { Fault.none with Fault.crashes = [ { Fault.node = 0; at = 9; back = 4; wipe = false } ] };
  (* node ids checked against n when provided *)
  Alcotest.check_raises "node out of range" (Invalid_argument "") (fun () ->
      try Fault.validate ~n:2 { Fault.none with Fault.crashes = [ { Fault.node = 5; at = 0; back = 1; wipe = false } ] }
      with Invalid_argument _ -> raise (Invalid_argument ""));
  (* a sane plan passes *)
  Fault.validate ~n:4
    {
      Fault.drop = 0.3;
      link_drop = [ (0, 1) ==> 0.9 ];
      spike_prob = 0.1;
      spike_delay = 50;
      partitions = [ { Fault.from_ = 10; until = 90; island = [ 0; 1 ] } ];
      crashes = [ { Fault.node = 3; at = 5; back = 40; wipe = false } ];
      tears = [ { Fault.node = 3; at = 5 } ];
      rots = [ { Fault.node = 0; at = 50 } ];
      stales = [];
    }

let test_network_duplicate_validated () =
  let e = Engine.create () in
  let rng = Rng.create 1 in
  let mk d = ignore (Network.create ~duplicate:d e ~n:2 ~latency:(Latency.Constant 1) ~rng : unit Network.t) in
  Alcotest.check_raises "duplicate > 1" (Invalid_argument "") (fun () ->
      try mk 1.5 with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "duplicate < 0" (Invalid_argument "") (fun () ->
      try mk (-0.5) with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "duplicate nan" (Invalid_argument "") (fun () ->
      try mk Float.nan with Invalid_argument _ -> raise (Invalid_argument ""));
  mk 0.0;
  mk 1.0

(* --- reliable channel --- *)

let reliable_pair ~seed ~plan =
  let e = Engine.create () in
  let rng = Rng.create seed in
  let fault = Fault.create plan ~rng:(Rng.split rng) in
  let r =
    Reliable.create ~fault e ~n:3 ~latency:(Latency.Uniform (1, 10))
      ~rng:(Rng.split rng)
  in
  let received = Array.make 3 [] in
  let stamps = Array.make 3 [] in
  for node = 0 to 2 do
    Reliable.set_handler r node (fun src msg ->
        received.(node) <- (src, msg) :: received.(node);
        stamps.(node) <- Engine.now e :: stamps.(node))
  done;
  (e, r, fault, received, stamps)

let test_drop_retransmit_delivery () =
  (* 40% loss: every message still arrives, exactly once. *)
  List.iter
    (fun seed ->
      let e, r, fault, received, _ =
        reliable_pair ~seed ~plan:{ Fault.none with Fault.drop = 0.4 }
      in
      for i = 1 to 20 do
        Engine.schedule e ~delay:i (fun () -> Reliable.send r ~src:0 ~dst:1 i)
      done;
      Engine.run e;
      let got = List.sort compare (List.map snd received.(1)) in
      Alcotest.(check (list int))
        (Fmt.str "exactly once (seed %d)" seed)
        (List.init 20 (fun i -> i + 1))
        got;
      Alcotest.(check bool) "loss happened" true ((Fault.counts fault).Fault.loss > 0);
      Alcotest.(check bool) "retransmissions happened" true
        ((Fault.counts fault).Fault.retransmissions > 0);
      Alcotest.(check int) "nothing abandoned" 0 (Fault.counts fault).Fault.abandoned)
    [ 0; 1; 2; 3; 4 ]

let test_partition_heal_delivery () =
  (* A message sent into an open partition is delivered only after the
     heal, by retransmission. *)
  let plan =
    { Fault.none with Fault.partitions = [ { Fault.from_ = 50; until = 400; island = [ 1 ] } ] }
  in
  let e, r, fault, received, stamps = reliable_pair ~seed:7 ~plan in
  Engine.schedule e ~delay:100 (fun () -> Reliable.send r ~src:0 ~dst:1 42);
  Engine.run e;
  Alcotest.(check (list (pair int int))) "delivered exactly once" [ (0, 42) ] received.(1);
  Alcotest.(check bool) "delivered after the heal" true (List.hd stamps.(1) >= 400);
  Alcotest.(check bool) "partition drops counted" true
    ((Fault.counts fault).Fault.partitioned > 0);
  Alcotest.(check bool) "recovery time measured" true (Fault.recovery_time fault > 0)

let test_crash_recovery_rejoin () =
  (* Messages sent while the destination is down arrive after it
     recovers; messages in flight at crash time are lost and
     retransmitted. *)
  let plan = { Fault.none with Fault.crashes = [ { Fault.node = 1; at = 20; back = 300; wipe = false } ] } in
  let e, r, _fault, received, stamps = reliable_pair ~seed:11 ~plan in
  (* in flight at crash time: latency >= 1 puts arrival inside the
     down window *)
  Engine.schedule e ~delay:19 (fun () -> Reliable.send r ~src:0 ~dst:1 1);
  (* sent while down *)
  Engine.schedule e ~delay:100 (fun () -> Reliable.send r ~src:0 ~dst:1 2);
  (* sent by the crashed node itself while down: goes out after recovery *)
  Engine.schedule e ~delay:150 (fun () -> Reliable.send r ~src:1 ~dst:2 3);
  Engine.run e;
  Alcotest.(check (list int)) "rejoined with everything"
    [ 1; 2 ]
    (List.sort compare (List.map snd received.(1)));
  Alcotest.(check bool) "delivered after recovery" true
    (List.for_all (fun t -> t >= 300) stamps.(1));
  Alcotest.(check (list (pair int int))) "crashed sender's message delivered"
    [ (1, 3) ] received.(2)

let test_backoff_cap_bounds_heal_latency () =
  (* Regression for the rto cap: a message stuck behind a long
     partition keeps being retransmitted at a cadence bounded by
     [max_rto], so it lands within one capped interval of the heal.
     Uncapped exponential backoff would be silent for thousands of
     ticks by then and deliver much later. *)
  let heal = 3000 in
  let plan =
    { Fault.none with Fault.partitions = [ { Fault.from_ = 50; until = heal; island = [ 1 ] } ] }
  in
  List.iter
    (fun seed ->
      let e, r, _fault, received, stamps = reliable_pair ~seed ~plan in
      Engine.schedule e ~delay:60 (fun () -> Reliable.send r ~src:0 ~dst:1 7);
      Engine.run e;
      Alcotest.(check (list (pair int int))) "delivered exactly once" [ (0, 7) ] received.(1);
      let t = List.hd stamps.(1) in
      let cfg = Reliable.config r in
      Alcotest.(check bool)
        (Fmt.str "delivered after the heal (seed %d)" seed)
        true (t >= heal);
      Alcotest.(check bool)
        (Fmt.str "within one capped rto of the heal (seed %d, t=%d)" seed t)
        true
        (t <= heal + cfg.Reliable.max_rto + 10))
    [ 0; 1; 2 ]

let test_giveup_surfaces_abandoned () =
  (* A tiny retry budget against a long crash window: the sender gives
     up, the message is never delivered, and the give-up is surfaced in
     the injector's [abandoned] counter. *)
  let plan =
    { Fault.none with Fault.crashes = [ { Fault.node = 1; at = 10; back = 5000; wipe = false } ] }
  in
  let e = Engine.create () in
  let rng = Rng.create 4 in
  let fault = Fault.create plan ~rng:(Rng.split rng) in
  let r =
    Reliable.create
      ~config:{ Reliable.default_config with Reliable.max_retries = 2 }
      ~fault e ~n:3
      ~latency:(Latency.Uniform (1, 10))
      ~rng:(Rng.split rng)
  in
  let received = ref [] in
  for node = 0 to 2 do
    Reliable.set_handler r node (fun src msg -> received := (node, src, msg) :: !received)
  done;
  Engine.schedule e ~delay:20 (fun () -> Reliable.send r ~src:0 ~dst:1 9);
  Engine.run e;
  Alcotest.(check (list (triple int int int))) "never delivered" [] !received;
  Alcotest.(check int) "give-up surfaced" 1 (Fault.counts fault).Fault.abandoned;
  Alcotest.(check bool) "engine quiesced before the recovery" true
    (Engine.now e < 5000)

let test_reliable_self_send () =
  let e, r, _, received, _ = reliable_pair ~seed:3 ~plan:{ Fault.none with Fault.drop = 0.5 } in
  Reliable.send r ~src:2 ~dst:2 99;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "self send delivered" [ (2, 99) ] received.(2)

let prop_reliable_exactly_once =
  QCheck.Test.make ~name:"reliable channel: exactly-once for any seed/drop"
    ~count:40
    QCheck.(make Gen.(pair (int_bound 100_000) (int_bound 30)))
    (fun (seed, drop_pct) ->
      let plan = { Fault.none with Fault.drop = float_of_int drop_pct /. 100.0 } in
      let e, r, _, received, _ = reliable_pair ~seed ~plan in
      for i = 0 to 14 do
        Engine.schedule e ~delay:(i * 3) (fun () ->
            Reliable.send r ~src:(i mod 3) ~dst:((i + 1) mod 3) i)
      done;
      Engine.run e;
      let all = List.concat_map (fun l -> List.map snd l) (Array.to_list received) in
      List.sort compare all = List.init 15 Fun.id)

(* --- FIFO layer over the reliable transport --- *)

let test_fifo_over_faults () =
  (* FIFO exactly-once delivery survives loss + a partition window. *)
  let plan =
    {
      Fault.none with
      Fault.drop = 0.3;
      partitions = [ { Fault.from_ = 40; until = 240; island = [ 1 ] } ];
    }
  in
  for seed = 0 to 9 do
    let e = Engine.create () in
    let rng = Rng.create seed in
    let fault = Fault.create plan ~rng:(Rng.split rng) in
    let chan =
      Fifo_channel.create ~fault e ~n:2 ~latency:(Latency.Uniform (1, 20))
        ~rng:(Rng.split rng)
    in
    let log = ref [] in
    Fifo_channel.set_handler chan 1 (fun _src msg -> log := msg :: !log);
    Fifo_channel.set_handler chan 0 (fun _ _ -> ());
    for i = 1 to 10 do
      Engine.schedule e ~delay:(i * 8) (fun () ->
          Fifo_channel.send chan ~src:0 ~dst:1 i)
    done;
    Engine.run e;
    Alcotest.(check (list int))
      (Fmt.str "FIFO exactly once (seed %d)" seed)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
      (List.rev !log)
  done

(* --- atomic broadcast over lossy wires --- *)

let check_total_order_faulty ~impl ~seed ~n ~plan () =
  let e = Engine.create () in
  let rng = Rng.create seed in
  let fault = Fault.create plan ~rng:(Rng.split rng) in
  let delivered = Array.make n [] in
  let ab =
    (Select.factory impl) ~fault e ~n ~latency:(Latency.Uniform (1, 20))
      ~rng:(Rng.split rng)
      ~deliver:(fun ~node ~origin payload ->
        delivered.(node) <- (origin, payload) :: delivered.(node))
  in
  let sends =
    List.concat_map
      (fun sender -> List.init 4 (fun i -> (sender, (sender * 100) + i, 1 + (i * 9))))
      (List.init n Fun.id)
  in
  List.iter
    (fun (sender, payload, delay) ->
      Engine.schedule e ~delay (fun () -> Abcast.broadcast ab ~src:sender payload))
    sends;
  Engine.run e;
  let reference = List.rev delivered.(0) in
  Alcotest.(check int)
    (Fmt.str "all %d broadcasts delivered exactly once at node 0 (seed %d)"
       (List.length sends) seed)
    (List.length sends) (List.length reference);
  Array.iteri
    (fun node seq ->
      Alcotest.(check bool)
        (Fmt.str "node %d agrees with node 0 (seed %d)" node seed)
        true
        (List.rev seq = reference))
    delivered

let lossy_plan =
  {
    Fault.none with
    Fault.drop = 0.3;
    spike_prob = 0.05;
    spike_delay = 30;
    partitions = [ { Fault.from_ = 60; until = 300; island = [ 0 ] } ];
  }

let test_broadcast_sequencer_lossy () =
  List.iter
    (fun seed ->
      check_total_order_faulty ~impl:Abcast.Sequencer_impl ~seed ~n:4
        ~plan:lossy_plan ())
    [ 0; 1; 2; 3 ]

let test_broadcast_lamport_lossy () =
  List.iter
    (fun seed ->
      check_total_order_faulty ~impl:Abcast.Lamport_impl ~seed ~n:4
        ~plan:lossy_plan ())
    [ 0; 1; 2; 3 ]

let test_broadcast_crash_recovery () =
  (* A node down for a window still converges to the common order. *)
  let plan =
    { Fault.none with Fault.drop = 0.15; crashes = [ { Fault.node = 2; at = 30; back = 400; wipe = false } ] }
  in
  List.iter
    (fun impl ->
      List.iter
        (fun seed -> check_total_order_faulty ~impl ~seed ~n:4 ~plan ())
        [ 0; 1 ])
    [ Abcast.Sequencer_impl; Abcast.Lamport_impl ]

(* --- end to end: lossy protocol runs are still admissible --- *)

let run_lossy ~seed ~kind ~plan =
  let spec = { Mmc_workload.Spec.default with n_objects = 6 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 3;
      n_objects = 6;
      ops_per_proc = 8;
      kind;
      fault = plan;
    }
  in
  Mmc_store.Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let theorem7_admissible (res : Mmc_store.Runner.result) flavour =
  let h = res.Mmc_store.Runner.history in
  let base = History.base_relation h flavour in
  let rec link = function
    | a :: (b :: _ as rest) ->
      Relation.add base a b;
      link rest
    | [ _ ] | [] -> ()
  in
  link res.Mmc_store.Runner.sync_order;
  match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Admissible _ -> true
  | _ -> false

let test_lossy_run_admissible () =
  let plan =
    {
      Fault.none with
      Fault.drop = 0.3;
      partitions = [ { Fault.from_ = 80; until = 280; island = [ 0 ] } ];
      crashes = [ { Fault.node = 2; at = 40; back = 250; wipe = false } ];
    }
  in
  List.iter
    (fun (kind, flavour) ->
      for seed = 0 to 4 do
        let res = run_lossy ~seed ~kind ~plan in
        Alcotest.(check int)
          (Fmt.str "every client finished (%a, seed %d)" Mmc_store.Store.pp_kind
             kind seed)
          (3 * 8) res.Mmc_store.Runner.completed;
        Alcotest.(check bool)
          (Fmt.str "admissible (%a, seed %d)" Mmc_store.Store.pp_kind kind seed)
          true
          (theorem7_admissible res flavour);
        match res.Mmc_store.Runner.fault with
        | None -> Alcotest.fail "fault injector missing from the result"
        | Some f ->
          Alcotest.(check int) "nothing abandoned" 0 (Fault.counts f).Fault.abandoned
      done)
    [ (Mmc_store.Store.Msc, History.Msc); (Mmc_store.Store.Mlin, History.Mlin) ]

let test_fault_free_runs_unchanged () =
  (* An empty plan must not perturb the run: same history as the
     default configuration, message for message. *)
  let base = run_lossy ~seed:5 ~kind:Mmc_store.Store.Msc ~plan:Fault.none in
  let again = run_lossy ~seed:5 ~kind:Mmc_store.Store.Msc ~plan:Fault.none in
  Alcotest.(check bool) "no injector for the empty plan" true
    (base.Mmc_store.Runner.fault = None);
  Alcotest.(check int) "same message count" base.Mmc_store.Runner.messages
    again.Mmc_store.Runner.messages;
  Alcotest.(check int) "same duration" base.Mmc_store.Runner.duration
    again.Mmc_store.Runner.duration

(* --- The textual plan grammar --- *)

(* [to_spec] prints what [of_spec] reads back as the same plan: floats
   exactly, lists in the order the parser rebuilds them. *)
let prop_spec_roundtrip =
  QCheck.Test.make ~name:"of_spec (to_spec p) = p on fuzzed plans" ~count:500
    QCheck.(pair small_nat (int_range 2 7))
    (fun (seed, n) ->
      let plan = Fault.fuzz ~rng:(Rng.create seed) ~n in
      match Fault.of_spec (Fault.to_spec plan) with
      | Ok p when p = plan -> true
      | Ok _ -> QCheck.Test.fail_reportf "%s reads back differently" (Fault.to_spec plan)
      | Error msg -> QCheck.Test.fail_reportf "%s: %s" (Fault.to_spec plan) msg)

let test_spec_grammar () =
  let ok s =
    match Fault.of_spec s with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%S: %s" s msg
  in
  Alcotest.(check bool) "empty spec is no faults" true (ok "" = Fault.none);
  Alcotest.(check string) "no faults prints empty" "" (Fault.to_spec Fault.none);
  let p = ok "drop=0.1,part=150:400:0+2,wipe=1:10:20,crash=2:30:40,rot=0:5" in
  Alcotest.(check (float 0.0)) "drop" 0.1 p.Fault.drop;
  Alcotest.(check (list (pair int int))) "crashes, last field first"
    [ (2, 30); (1, 10) ]
    (List.map (fun (c : Fault.crash) -> (c.node, c.at)) p.Fault.crashes);
  Alcotest.(check string) "prints back"
    "drop=0.1,part=150:400:0+2,wipe=1:10:20,crash=2:30:40,rot=0:5"
    (Fault.to_spec p);
  let rejected ~grammar bad =
    match Fault.of_spec bad with
    | Ok _ -> Alcotest.failf "%S parsed" bad
    | Error msg ->
      let usage = "fields are drop=P, spike=P:DELAY" in
      let n = String.length usage in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = usage || has (i + 1))
      in
      Alcotest.(check bool)
        (Fmt.str "%S: error repeats the grammar" bad)
        grammar (has 0)
  in
  List.iter (rejected ~grammar:true)
    [ "drop"; "drop=x"; "part=1:2"; "bogus=1"; "link=0:1:0.5" ];
  List.iter (rejected ~grammar:false) [ "drop=2.0"; "crash=0:5:5" ];
  Alcotest.check_raises "per-link loss does not print"
    (Invalid_argument "Fault.to_spec: per-link loss has no spec syntax")
    (fun () ->
      ignore
        (Fault.to_spec { Fault.none with Fault.link_drop = [ ((0, 1), 0.5) ] }))

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_validate_rejects;
          Alcotest.test_case "network duplicate validated" `Quick
            test_network_duplicate_validated;
          Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "drop/retransmit delivery" `Quick
            test_drop_retransmit_delivery;
          Alcotest.test_case "partition heal" `Quick test_partition_heal_delivery;
          Alcotest.test_case "crash recovery rejoin" `Quick
            test_crash_recovery_rejoin;
          Alcotest.test_case "backoff cap bounds heal latency" `Quick
            test_backoff_cap_bounds_heal_latency;
          Alcotest.test_case "give-up surfaces abandoned" `Quick
            test_giveup_surfaces_abandoned;
          Alcotest.test_case "self send" `Quick test_reliable_self_send;
          Alcotest.test_case "fifo over faults" `Quick test_fifo_over_faults;
          QCheck_alcotest.to_alcotest prop_reliable_exactly_once;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "sequencer over lossy wire" `Quick
            test_broadcast_sequencer_lossy;
          Alcotest.test_case "lamport over lossy wire" `Quick
            test_broadcast_lamport_lossy;
          Alcotest.test_case "crash window" `Quick test_broadcast_crash_recovery;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "lossy run admissible" `Quick
            test_lossy_run_admissible;
          Alcotest.test_case "fault-free unchanged" `Quick
            test_fault_free_runs_unchanged;
        ] );
    ]
