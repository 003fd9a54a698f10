(* Tests for the crash-recovery subsystem: WAL/checkpoint/Rlog units,
   sequencer failover agreement, and the end-to-end acceptance
   property — seeded runs with wipe-crash + restart events (including
   a sequencer crash) complete, converge to identical replica state,
   and their stitched cross-crash history passes the Theorem-7
   admissibility check, across seeds and both broadcast protocols. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast
open Mmc_recovery

(* --- Wal --- *)

let entry ?(origin = 0) ?payload pos = { Wal.pos; origin; payload }

let test_wal_append_suffix () =
  let w = Wal.create () in
  Alcotest.(check int) "empty high" 0 (Wal.high w);
  List.iter (fun p -> Wal.append w (entry ~payload:(p * 10) p)) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "high" 4 (Wal.high w);
  Alcotest.(check int) "low" 0 (Wal.low w);
  Alcotest.(check (list int)) "suffix from 2" [ 2; 3 ]
    (List.map (fun e -> e.Wal.pos) (Wal.suffix w ~from:2));
  Alcotest.(check (list int)) "suffix payloads in order" [ 0; 10; 20; 30 ]
    (List.filter_map (fun e -> e.Wal.payload) (Wal.suffix w ~from:0));
  Alcotest.check_raises "non-monotone append rejected" (Invalid_argument "")
    (fun () ->
      try Wal.append w (entry 2)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_wal_truncate_holes () =
  let w = Wal.create () in
  (* holes (payload None) occupy positions like any entry *)
  List.iter
    (fun p ->
      Wal.append w (if p = 2 then entry ~origin:(-1) p else entry ~payload:p p))
    [ 0; 1; 2; 3; 4; 5 ];
  Wal.truncate_below w ~pos:3;
  Alcotest.(check int) "low after truncate" 3 (Wal.low w);
  Alcotest.(check int) "high unchanged" 6 (Wal.high w);
  Alcotest.(check int) "length" 3 (Wal.length w);
  Alcotest.(check int) "truncated counted" 3 (Wal.truncated w);
  Alcotest.(check (list int)) "suffix below low clips" [ 3; 4; 5 ]
    (List.map (fun e -> e.Wal.pos) (Wal.suffix w ~from:0))

(* --- Checkpoint --- *)

let test_checkpoint_monotone () =
  let c = Checkpoint.create () in
  Alcotest.(check bool) "empty" true (Checkpoint.load c = None);
  Checkpoint.save c ~pos:4 "a";
  Checkpoint.save c ~pos:9 "b";
  Alcotest.(check (option (pair int string))) "latest wins" (Some (9, "b"))
    (Checkpoint.load c);
  Alcotest.(check int) "taken" 2 (Checkpoint.taken c);
  Alcotest.check_raises "regression rejected" (Invalid_argument "") (fun () ->
      try Checkpoint.save c ~pos:8 "c"
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* --- Rlog --- *)

let test_rlog_checkpoint_and_recover () =
  let policy =
    { Rlog.default_policy with Rlog.checkpoint_every = 4; retain = 2 }
  in
  let rl : (int, int) Rlog.t = Rlog.create policy in
  let state = ref 0 in
  for p = 0 to 9 do
    state := !state + p;
    Rlog.log rl (entry ~payload:p p) ~snapshot:(fun () -> !state)
  done;
  (* checkpoints at positions 4 and 8; retain 2 keeps the log from 6 *)
  let stats = Rlog.stats rl in
  Alcotest.(check int) "appends" 10 stats.Rlog.appends;
  Alcotest.(check int) "checkpoints" 2 stats.Rlog.checkpoints;
  Alcotest.(check int) "wal low respects retain" 6 (Wal.low (Rlog.wal rl));
  let snap, replay = Rlog.recover rl in
  Alcotest.(check (option (pair int int))) "checkpoint state"
    (Some (8, List.fold_left ( + ) 0 [ 0; 1; 2; 3; 4; 5; 6; 7 ]))
    snap;
  Alcotest.(check (list int)) "replay suffix" [ 8; 9 ]
    (List.map (fun e -> e.Wal.pos) replay);
  Alcotest.(check bool) "serves recent" true (Rlog.serves_from rl ~from:7);
  Alcotest.(check bool) "truncated prefix needs state transfer" false
    (Rlog.serves_from rl ~from:2)

let test_rlog_policy_validated () =
  List.iter
    (fun policy ->
      Alcotest.check_raises "rejected" (Invalid_argument "") (fun () ->
          try Rlog.validate_policy policy
          with Invalid_argument _ -> raise (Invalid_argument "")))
    [
      { Rlog.default_policy with Rlog.checkpoint_every = 0 };
      { Rlog.default_policy with Rlog.gap_poll = 0 };
      { Rlog.default_policy with Rlog.retain = -1 };
    ]

(* --- sequencer failover: agreement across a sequencer wipe-crash --- *)

(* Positions delivered at each node; every node must end with the same
   contiguous payload sequence even though the epoch-0 sequencer is
   wiped mid-run and later re-elected. *)
let test_ha_sequencer_failover () =
  List.iter
    (fun seed ->
      let n = 4 in
      let plan =
        {
          Fault.none with
          Fault.drop = 0.1;
          crashes = [ Fault.crash ~wipe:true ~node:0 ~at:100 ~back:600 () ];
        }
      in
      let e = Engine.create () in
      let rng = Rng.create seed in
      let fault = Fault.create plan ~rng:(Rng.split rng) in
      let delivered = Array.init n (fun _ -> Hashtbl.create 32) in
      let rb =
        Ha_sequencer.create ~fault e ~n ~latency:(Latency.Uniform (1, 15))
          ~rng:(Rng.split rng)
          ~deliver:(fun ~node ~origin:_ ~pos d ->
            match d with
            | Rbcast.Retract ->
              (* a retraction must withdraw something delivered *)
              Alcotest.(check bool)
                (Fmt.str "retract hits a delivery (node %d pos %d)" node pos)
                true
                (Hashtbl.mem delivered.(node) pos);
              Hashtbl.remove delivered.(node) pos
            | Rbcast.Payload _ | Rbcast.Hole ->
              (* at most once per stamping: re-delivery only after an
                 intervening retraction *)
              Alcotest.(check bool)
                (Fmt.str "no double delivery (node %d pos %d)" node pos)
                false
                (Hashtbl.mem delivered.(node) pos);
              Hashtbl.replace delivered.(node) pos d)
      in
      let sends = ref 0 in
      for sender = 0 to n - 1 do
        for i = 0 to 4 do
          incr sends;
          Engine.schedule e
            ~delay:(1 + (i * 60) + sender)
            (fun () -> Rbcast.broadcast rb ~src:sender ((sender * 100) + i))
        done
      done;
      Engine.run e;
      let stats = Rbcast.stats rb in
      Alcotest.(check bool)
        (Fmt.str "failover happened (seed %d)" seed)
        true
        (stats.Rbcast.epochs >= 2 && stats.Rbcast.syncs >= 1);
      let seq node =
        Hashtbl.fold (fun pos p acc -> (pos, p) :: acc) delivered.(node) []
        |> List.sort compare
      in
      let reference = seq 0 in
      let payloads =
        List.filter_map
          (fun (_, d) ->
            match d with Rbcast.Payload p -> Some p | _ -> None)
          reference
      in
      Alcotest.(check int)
        (Fmt.str "every broadcast delivered at node 0 (seed %d)" seed)
        !sends (List.length payloads);
      Alcotest.(check (list int))
        (Fmt.str "exactly the broadcast payloads (seed %d)" seed)
        (List.init n (fun s -> List.init 5 (fun i -> (s * 100) + i)) |> List.concat
        |> List.sort compare)
        (List.sort compare payloads);
      for node = 1 to n - 1 do
        Alcotest.(check bool)
          (Fmt.str "node %d agrees with node 0 (seed %d)" node seed)
          true
          (seq node = reference)
      done)
    [ 0; 1; 2 ]

(* --- end to end: recovery runs converge and stay admissible --- *)

let recovery_plan =
  (* Two wipe-crash + restart events, disjoint windows, the first one
     taking down the epoch-0 sequencer. *)
  {
    Fault.none with
    Fault.drop = 0.1;
    crashes =
      [
        Fault.crash ~wipe:true ~node:0 ~at:150 ~back:600 ();
        Fault.crash ~wipe:true ~node:2 ~at:900 ~back:1300 ();
      ];
  }

let run_recovery ~seed ~impl ?reliable ?(policy = Rlog.default_policy) ~plan ()
    =
  let spec = { Mmc_workload.Spec.default with n_objects = 6 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 6;
      ops_per_proc = 10;
      kind = Mmc_store.Store.Rmsc;
      abcast_impl = impl;
      fault = plan;
      reliable;
      recovery = policy;
    }
  in
  Mmc_store.Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let theorem7_admissible (res : Mmc_store.Runner.result) =
  Check_constrained.admissible
    (Mmc_store.Runner.check_trace res ~flavour:History.Msc)

let check_recovery_run ~seed ~impl res =
  let ctx = Fmt.str "(%a, seed %d)" Abcast.pp_impl impl seed in
  Alcotest.(check int)
    (Fmt.str "every client finished %s" ctx)
    (4 * 10) res.Mmc_store.Runner.completed;
  let h =
    match res.Mmc_store.Runner.recovery with
    | Some h -> h
    | None -> Alcotest.failf "recovery handle missing %s" ctx
  in
  Alcotest.(check int) (Fmt.str "two restarts recovered %s" ctx) 2
    (h.Mmc_store.Rstore.recoveries ());
  Alcotest.(check bool)
    (Fmt.str "replicas converged %s" ctx)
    true
    (h.Mmc_store.Rstore.converged ());
  Alcotest.(check bool)
    (Fmt.str "stitched cross-crash history admissible %s" ctx)
    true (theorem7_admissible res);
  (match res.Mmc_store.Runner.fault with
  | None -> Alcotest.failf "fault injector missing %s" ctx
  | Some f ->
    Alcotest.(check int)
      (Fmt.str "both restarts noted %s" ctx)
      2 (Fault.counts f).Fault.restarts);
  h

let test_recovery_acceptance () =
  List.iter
    (fun impl ->
      List.iter
        (fun seed ->
          let res = run_recovery ~seed ~impl ~plan:recovery_plan () in
          ignore (check_recovery_run ~seed ~impl res))
        [ 0; 1; 2; 3; 4 ])
    [ Abcast.Sequencer_impl; Abcast.Lamport_impl ]

let test_recovery_wal_and_checkpoints_used () =
  (* A tight checkpoint policy must actually checkpoint and replay. *)
  let policy =
    {
      Rlog.default_policy with
      Rlog.checkpoint_every = 4;
      gap_poll = 40;
      retain = 8;
    }
  in
  let res =
    run_recovery ~seed:1 ~impl:Abcast.Sequencer_impl ~policy ~plan:recovery_plan
      ()
  in
  let h = check_recovery_run ~seed:1 ~impl:Abcast.Sequencer_impl res in
  let stats = h.Mmc_store.Rstore.log_stats () in
  Alcotest.(check bool) "checkpoints taken" true
    (Array.exists (fun s -> s.Rlog.checkpoints > 0) stats);
  Alcotest.(check bool) "entries logged everywhere" true
    (Array.for_all (fun s -> s.Rlog.appends > 0) stats);
  Alcotest.(check bool) "restart replayed the wal or caught up" true
    (Array.exists (fun s -> s.Rlog.replayed > 0) stats
    || h.Mmc_store.Rstore.pulls () > 0)

let test_recovery_catchup_under_giveup () =
  (* Finite retry budget: retransmissions to the down replica are
     abandoned (satellite: the give-up path surfaces in the fault
     counters), yet anti-entropy catch-up still converges the
     rejoining replica. *)
  let reliable =
    { Reliable.default_config with Reliable.max_retries = 3; max_rto = 160 }
  in
  let res =
    run_recovery ~seed:2 ~impl:Abcast.Sequencer_impl ~reliable
      ~plan:recovery_plan ()
  in
  let h = check_recovery_run ~seed:2 ~impl:Abcast.Sequencer_impl res in
  (match res.Mmc_store.Runner.fault with
  | Some f ->
    Alcotest.(check bool) "give-ups happened" true
      ((Fault.counts f).Fault.abandoned > 0)
  | None -> Alcotest.fail "fault injector missing");
  Alcotest.(check bool) "catch-up pulled from peers" true
    (h.Mmc_store.Rstore.pulls () > 0)

let test_recovery_crash_free_is_plain_msc () =
  (* Without crashes the recoverable store is the msc protocol plus
     logging: same completions, converged, admissible, no recoveries. *)
  List.iter
    (fun impl ->
      let res = run_recovery ~seed:3 ~impl ~plan:Fault.none () in
      Alcotest.(check int) "completed" 40 res.Mmc_store.Runner.completed;
      let h = Option.get res.Mmc_store.Runner.recovery in
      Alcotest.(check int) "no recoveries" 0 (h.Mmc_store.Rstore.recoveries ());
      Alcotest.(check bool) "converged" true (h.Mmc_store.Rstore.converged ());
      Alcotest.(check bool) "admissible" true (theorem7_admissible res))
    [ Abcast.Sequencer_impl; Abcast.Lamport_impl ]

(* --- the judgement of a run: Runner.judge on the pinned reproducers --- *)

(* A run built the way `mmc recover` builds it ([Generator.mixed] over
   [Spec.default] with the run's object count; 4 processes, 8 objects,
   12 m-operations each and the wipe-crash plan by default), judged.
   The cases are the CLI's pinned runs, so this checks the library
   record the CLI prints from, not an exit code. *)
let judged ?(procs = 4) ?(objects = 8) ?(ops = 12)
    ?(policy = Rlog.default_policy) ~seed plan =
  let plan =
    match Fault.of_spec plan with Ok p -> p | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = procs;
      n_objects = objects;
      ops_per_proc = ops;
      kind = Mmc_store.Store.Rmsc;
      fault = plan;
      recovery = policy;
    }
  in
  let spec = { Mmc_workload.Spec.default with n_objects = objects } in
  let res =
    Mmc_store.Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)
  in
  Mmc_store.Runner.judge cfg res

let test_judge_reproducers () =
  let admissible (j : Mmc_store.Runner.judgement) =
    Check_constrained.admissible j.check
  in
  (* `mmc recover --seed 1`: the default plan passes every oracle. *)
  let j = judged ~seed:1 "drop=0.1,wipe=0:150:600,wipe=2:900:1300" in
  Alcotest.(check bool) "seed 1: converged" true j.converged;
  Alcotest.(check bool) "seed 1: admissible" true (admissible j);
  Alcotest.(check (list string)) "seed 1: no problems" [] j.problems;
  Alcotest.(check int) "seed 1: restarts" 2 j.restarts;
  (* Seed 147 converges admissibly but loses 33 operations: only the
     counter oracle fails. *)
  let j =
    judged ~ops:400 ~seed:147
      "drop=0.2278832034565767,part=206:467:0+2+3,crash=2:479:734,stale=2:212"
  in
  Alcotest.(check bool) "seed 147: converged" true j.converged;
  Alcotest.(check bool) "seed 147: admissible" true (admissible j);
  Alcotest.(check (list string))
    "seed 147: the lost operations" [ "completed 1567 ops, expected 1600" ]
    j.problems;
  (* The torn WAL tail: converged, every counter sane, but the stitched
     history is not legal. *)
  let j = judged ~seed:3 "wipe=1:150:600,tear=1:150" in
  Alcotest.(check string) "torn tail: the triple"
    "interfere(a=#43, b=#7, c=#24 on x6)"
    (match j.check with
    | Check_constrained.Not_legal t -> Fmt.str "%a" Legality.pp_triple t
    | r -> Fmt.str "not Not_legal: %a" Check_constrained.pp_result r);
  Alcotest.(check bool) "torn tail: converged" true j.converged;
  Alcotest.(check (list string)) "torn tail: no problems" [] j.problems;
  (* With integrity checking off, a torn tail reaches replay: the
     replicas diverge without the run raising, and the history stays
     admissible. *)
  let j =
    judged ~ops:10 ~seed:16
      ~policy:{ Rlog.default_policy with Rlog.scrub_every = 0; crc = false }
      "drop=0.01987483787741462,crash=0:586:1047,wipe=1:170:641,tear=1:170"
  in
  Alcotest.(check bool) "crc off: diverged" false j.converged;
  Alcotest.(check bool) "crc off: admissible" true (admissible j)

let () =
  Alcotest.run "recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "append/suffix" `Quick test_wal_append_suffix;
          Alcotest.test_case "truncate + holes" `Quick test_wal_truncate_holes;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "monotone latest" `Quick test_checkpoint_monotone ]
      );
      ( "rlog",
        [
          Alcotest.test_case "checkpoint + recover" `Quick
            test_rlog_checkpoint_and_recover;
          Alcotest.test_case "policy validated" `Quick test_rlog_policy_validated;
        ] );
      ( "failover",
        [
          Alcotest.test_case "sequencer wipe-crash agreement" `Quick
            test_ha_sequencer_failover;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "acceptance: crashes converge admissibly" `Quick
            test_recovery_acceptance;
          Alcotest.test_case "wal + checkpoints used" `Quick
            test_recovery_wal_and_checkpoints_used;
          Alcotest.test_case "catch-up under give-up" `Quick
            test_recovery_catchup_under_giveup;
          Alcotest.test_case "crash-free = msc" `Quick
            test_recovery_crash_free_is_plain_msc;
          Alcotest.test_case "judgement of the pinned reproducers" `Quick
            test_judge_reproducers;
        ] );
    ]
