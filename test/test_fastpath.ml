(** The coordination-avoidance fast path ([seg] store).

    Three layers of assurance:

    - unit tests of the {!Mmc_fastpath} classifier itself;
    - differential runs: [seg] must reach the same Theorem-7 verdict
      as [msc] on the same workload, across commute ratios (0 = every
      update escalates, 1 = never broadcasts), seeds and fault plans —
      and at ratio 1 with no queries the run sends {e zero} messages;
    - the pinned oracle test: a deliberately-wrong classifier
      ([Trust_labels]) that marks non-commuting [move]s confluent must
      be {e caught} by the Theorem-7 check, while the sound classifier
      on the identical workload passes.  This is what "soundness via
      oracle" means: the fast path never weakens the checker. *)

open Mmc_core
open Mmc_store
module Spec = Mmc_workload.Spec
module Generator = Mmc_workload.Generator
module Ownership = Mmc_fastpath.Ownership
module Classify = Mmc_fastpath.Classify

(* ------------------------------------------------------------------ *)
(* Classifier units                                                    *)
(* ------------------------------------------------------------------ *)

let test_ownership () =
  let o = Ownership.modulo ~n_owners:3 in
  Alcotest.(check int) "owner 0" 0 (Ownership.owner o 0);
  Alcotest.(check int) "owner 7" 1 (Ownership.owner o 7);
  Alcotest.(check bool) "owns" true (Ownership.owns o ~proc:2 [ 2; 5; 8 ]);
  Alcotest.(check bool) "not owns" false (Ownership.owns o ~proc:2 [ 2; 6 ]);
  Alcotest.(check (list int))
    "owned objects" [ 1; 4; 7 ]
    (Ownership.owned_objects o ~proc:1 ~n_objects:9);
  let shifted = Ownership.compose o (fun x -> x + 1) in
  Alcotest.(check int) "composed" 2 (Ownership.owner shifted 1)

let test_classify () =
  let o = Ownership.modulo ~n_owners:4 in
  let conf = Alcotest.testable Classify.pp_verdict ( = ) in
  Alcotest.check conf "owned faa is confluent" Classify.Confluent
    (Classify.classify Classify.Sound o ~proc:1 ~label:"faa(x5,3)"
       ~may_touch:[ 5 ]);
  Alcotest.check conf "foreign write is sequenced" Classify.Sequenced
    (Classify.classify Classify.Sound o ~proc:1 ~label:"faa(x6,3)"
       ~may_touch:[ 6 ]);
  Alcotest.check conf "mixed footprint is sequenced" Classify.Sequenced
    (Classify.classify Classify.Sound o ~proc:1 ~label:"move(x5->x6,2)"
       ~may_touch:[ 5; 6 ]);
  Alcotest.check conf "empty footprint is sequenced" Classify.Sequenced
    (Classify.classify Classify.Sound o ~proc:1 ~label:"u" ~may_touch:[]);
  Alcotest.check conf "off sequences everything" Classify.Sequenced
    (Classify.classify Classify.Off o ~proc:1 ~label:"faa(x5,3)"
       ~may_touch:[ 5 ]);
  (* The deliberately-wrong mode trusts labels it should not. *)
  let wrong = Classify.Trust_labels [ "transfer"; "move" ] in
  Alcotest.check conf "wrong mode trusts moves" Classify.Confluent
    (Classify.classify wrong o ~proc:1 ~label:"move(x5->x6,2)"
       ~may_touch:[ 5; 6 ]);
  Alcotest.check conf "wrong mode still sound elsewhere" Classify.Confluent
    (Classify.classify wrong o ~proc:1 ~label:"faa(x5,3)" ~may_touch:[ 5 ]);
  Alcotest.(check bool) "mode parsing" true
    (Classify.mode_of_string "sound" = Some Classify.Sound
    && Classify.mode_of_string "on" = Some Classify.Sound
    && Classify.mode_of_string "off" = Some Classify.Off
    && Classify.mode_of_string "nope" = None
    &&
    match Classify.mode_of_string "wrong" with
    | Some (Classify.Trust_labels _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential runs: seg == msc                                       *)
(* ------------------------------------------------------------------ *)

let spec ?(read_ratio = 0.2) n_objects =
  { Spec.default with Spec.n_objects; read_ratio }

let cfg ?(n_procs = 4) ?(n_objects = 12) ?(ops = 15) ?(fault = Mmc_sim.Fault.none)
    ?(fastpath = Classify.Sound) kind =
  {
    Runner.default_config with
    Runner.n_procs;
    n_objects;
    ops_per_proc = ops;
    kind;
    fault;
    fastpath;
  }

let run ?(seed = 7) ?(commute_ratio = 0.9) ?read_ratio (c : Runner.config) =
  Runner.run ~seed c
    ~workload:
      (Generator.counter_commute ~commute_ratio ~n_procs:c.Runner.n_procs
         (spec ?read_ratio c.Runner.n_objects))

let admissible res =
  Check_constrained.admissible (Runner.check_trace res ~flavour:History.Msc)

let test_seg_admissible () =
  List.iter
    (fun ratio ->
      List.iter
        (fun seed ->
          let c = cfg Store.Seg in
          let res = run ~seed ~commute_ratio:ratio c in
          Alcotest.(check int)
            (Fmt.str "completed ratio=%.1f seed=%d" ratio seed)
            (c.Runner.n_procs * c.Runner.ops_per_proc)
            res.Runner.completed;
          Alcotest.(check bool)
            (Fmt.str "admissible ratio=%.1f seed=%d" ratio seed)
            true (admissible res))
        [ 1; 2; 3 ])
    [ 0.0; 0.5; 0.9; 1.0 ]

let test_verdict_equality () =
  List.iter
    (fun seed ->
      let seg = run ~seed (cfg Store.Seg) in
      let msc = run ~seed (cfg Store.Msc) in
      Alcotest.(check int)
        "same completion" msc.Runner.completed seg.Runner.completed;
      Alcotest.(check bool)
        (Fmt.str "verdicts agree seed=%d" seed)
        (admissible msc) (admissible seg))
    [ 11; 12; 13; 14 ]

let test_ratio_one_zero_messages () =
  (* Pure commuting updates, no queries: the whole run is local. *)
  let res = run ~commute_ratio:1.0 ~read_ratio:0.0 (cfg Store.Seg) in
  Alcotest.(check int) "zero messages" 0 res.Runner.messages;
  (match res.Runner.fastpath with
  | None -> Alcotest.fail "seg run must expose a fastpath handle"
  | Some h ->
    Alcotest.(check int) "no escalations" 0 h.Seg_store.stats.Seg_store.escalated;
    Alcotest.(check int) "no flushes" 0 h.Seg_store.stats.Seg_store.flushes);
  Alcotest.(check bool) "still admissible" true (admissible res)

let test_ratio_zero_all_escalate () =
  (* Every update is a cross-owner move: the fast path must stand
     aside and the store degenerate to broadcast-per-update. *)
  let res = run ~commute_ratio:0.0 ~read_ratio:0.0 (cfg Store.Seg) in
  (match res.Runner.fastpath with
  | None -> Alcotest.fail "seg run must expose a fastpath handle"
  | Some h ->
    Alcotest.(check int) "nothing fast"
      0 h.Seg_store.stats.Seg_store.fast;
    Alcotest.(check int) "all escalated" res.Runner.completed
      h.Seg_store.stats.Seg_store.escalated);
  Alcotest.(check bool) "admissible" true (admissible res)

let test_fastpath_off () =
  (* --fastpath off: classifier disabled, everything sequenced; the
     A/B baseline must still verify and complete. *)
  let res = run (cfg ~fastpath:Classify.Off Store.Seg) in
  (match res.Runner.fastpath with
  | None -> Alcotest.fail "seg run must expose a fastpath handle"
  | Some h ->
    Alcotest.(check int) "off means no fast updates" 0
      h.Seg_store.stats.Seg_store.fast);
  Alcotest.(check bool) "admissible" true (admissible res)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let fault_plans =
  let open Mmc_sim in
  [
    ("drop", { Fault.none with Fault.drop = 0.25 });
    ( "spike",
      { Fault.none with Fault.spike_prob = 0.1; Fault.spike_delay = 40 } );
    ( "partition",
      {
        Fault.none with
        Fault.partitions = [ { Fault.from_ = 50; until = 220; island = [ 0 ] } ];
      } );
  ]

let test_seg_under_faults () =
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun seed ->
          let c = cfg ~ops:10 ~fault:plan Store.Seg in
          let res = run ~seed c in
          Alcotest.(check int)
            (Fmt.str "completed under %s seed=%d" name seed)
            (c.Runner.n_procs * c.Runner.ops_per_proc)
            res.Runner.completed;
          Alcotest.(check bool)
            (Fmt.str "admissible under %s seed=%d" name seed)
            true (admissible res))
        [ 5; 6 ])
    fault_plans

(* ------------------------------------------------------------------ *)
(* The pinned oracle test: wrong classifier is caught                  *)
(* ------------------------------------------------------------------ *)

(* A move-heavy workload on few, hot objects: the wrong classifier
   runs the non-commuting moves locally, replicas diverge, and the
   Theorem-7 check must reject the trace.  The checker is the oracle;
   the classifier is never trusted for correctness, only for speed. *)
let wrong_cfg fastpath =
  cfg ~n_procs:4 ~n_objects:4 ~ops:12 ~fastpath Store.Seg

let test_wrong_classifier_caught () =
  let wrong = Classify.Trust_labels [ "transfer"; "move" ] in
  let caught =
    List.exists
      (fun seed ->
        let res = run ~seed ~commute_ratio:0.0 ~read_ratio:0.1 (wrong_cfg wrong) in
        not (admissible res))
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool)
    "Theorem 7 rejects the unsound fast path" true caught;
  (* The identical workload under the sound classifier passes: the
     failure above is the classifier's fault, not the workload's. *)
  List.iter
    (fun seed ->
      let res = run ~seed ~commute_ratio:0.0 ~read_ratio:0.1 (wrong_cfg Classify.Sound) in
      Alcotest.(check bool)
        (Fmt.str "sound classifier passes seed=%d" seed)
        true (admissible res))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Sharded seg                                                         *)
(* ------------------------------------------------------------------ *)

let test_sharded_seg () =
  let n_objects = 24 and n_shards = 4 in
  let placement = Mmc_shard.Placement.hash ~n_shards ~n_objects in
  let c = cfg ~n_procs:4 ~n_objects ~ops:12 Store.Seg in
  let res =
    Mmc_shard.Shard_runner.run ~seed:21 ~placement c
      ~workload:
        (Generator.sharded_counter_commute ~commute_ratio:0.9
           ~n_procs:c.Runner.n_procs placement (spec n_objects))
  in
  Alcotest.(check int) "all completed"
    (c.Runner.n_procs * c.Runner.ops_per_proc)
    res.Mmc_shard.Shard_runner.completed;
  let v = Mmc_shard.Shard_runner.check res ~flavour:History.Msc in
  Alcotest.(check bool) "stitched admissible" true
    (Mmc_shard.Check_sharded.admissible v);
  let st =
    Mmc_shard.Shard_recorder.stitch res.Mmc_shard.Shard_runner.placement
      res.Mmc_shard.Shard_runner.recorders
  in
  Alcotest.(check bool) "dense checker agrees" true
    (Check_constrained.same_verdict v.Mmc_shard.Check_sharded.stitched
       (Check_constrained.check_relation st.Mmc_shard.Shard_recorder.history
          (Mmc_shard.Check_sharded.stitched_relation st ~flavour:History.Msc)
          Constraints.WW));
  let handles =
    Array.to_list res.Mmc_shard.Shard_runner.fastpath |> List.filter_map Fun.id
  in
  Alcotest.(check int) "one handle per shard" n_shards (List.length handles);
  let fast =
    List.fold_left (fun a h -> a + h.Seg_store.stats.Seg_store.fast) 0 handles
  in
  Alcotest.(check bool) "fast path used across shards" true (fast > 0)

(* ------------------------------------------------------------------ *)
(* Experiment F1's claims                                              *)
(* ------------------------------------------------------------------ *)

(* The commute-ratio sweep at F1's own configuration (8 shards, 6
   clients, 60 m-operations each, seed 12): the numbers of README's F1
   table.  At every ratio both stores' per-shard verdicts PASS; at 90%
   commuting ops the fast path needs >= 10x fewer sequencer rounds per
   op, sends < 0.5 messages per op and still wins the closed loop by
   > 1.5x. *)
let test_f1_claims () =
  let module F = Mmc_experiments.Exp_fastpath in
  let points = List.map (fun ratio -> F.point ratio) F.ratios in
  List.iter
    (fun (p : F.point) ->
      Alcotest.(check bool) (Fmt.str "seg PASS at ratio %.2f" p.ratio) true
        p.seg_pass;
      Alcotest.(check bool) (Fmt.str "msc PASS at ratio %.2f" p.ratio) true
        p.msc_pass)
    points;
  let p = List.find (fun (p : F.point) -> p.ratio = 0.9) points in
  let claim what holds = Alcotest.(check bool) what true holds in
  claim
    (Fmt.str "coordination reduction %.1fx >= 10x" p.coordination)
    (p.coordination >= 10.);
  claim
    (Fmt.str "seg msgs-per-op %.3f < 0.5" p.seg_msgs_per_op)
    (p.seg_msgs_per_op < 0.5);
  claim
    (Fmt.str "closed-loop speedup %.2fx > 1.5x" p.speedup)
    (p.speedup > 1.5)

(* ------------------------------------------------------------------ *)
(* QCheck: seg == msc across the whole grid                            *)
(* ------------------------------------------------------------------ *)

let qcheck_equivalence =
  QCheck.Test.make ~count:25 ~name:"seg and msc verdicts agree"
    QCheck.(
      triple (int_range 1 5000) (float_range 0.0 1.0) (int_range 0 3))
    (fun (seed, ratio, fault_idx) ->
      let fault =
        if fault_idx = 0 then Mmc_sim.Fault.none
        else snd (List.nth fault_plans (fault_idx - 1))
      in
      let mk kind = cfg ~n_procs:3 ~n_objects:9 ~ops:8 ~fault kind in
      let seg = run ~seed ~commute_ratio:ratio (mk Store.Seg) in
      let msc = run ~seed ~commute_ratio:ratio (mk Store.Msc) in
      seg.Runner.completed = msc.Runner.completed
      && admissible seg && admissible msc)

let () =
  Alcotest.run "fastpath"
    [
      ( "classifier",
        [
          Alcotest.test_case "ownership" `Quick test_ownership;
          Alcotest.test_case "classify" `Quick test_classify;
        ] );
      ( "seg-store",
        [
          Alcotest.test_case "admissible across ratios" `Quick
            test_seg_admissible;
          Alcotest.test_case "verdict equality with msc" `Quick
            test_verdict_equality;
          Alcotest.test_case "ratio 1.0 sends zero messages" `Quick
            test_ratio_one_zero_messages;
          Alcotest.test_case "ratio 0.0 escalates everything" `Quick
            test_ratio_zero_all_escalate;
          Alcotest.test_case "fastpath off baseline" `Quick test_fastpath_off;
          Alcotest.test_case "fault plans" `Quick test_seg_under_faults;
          Alcotest.test_case "sharded seg" `Quick test_sharded_seg;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "wrong classifier caught" `Quick
            test_wrong_classifier_caught;
        ] );
      ( "experiment F1",
        [ Alcotest.test_case "verdicts and ratio-0.9 claims" `Quick
          test_f1_claims ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_equivalence ] );
    ]
