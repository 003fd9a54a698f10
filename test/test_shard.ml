(* Tests for the sharded store layer: placement algebra, router
   classification, per-shard + stitched verification, with the
   stitched chain verdict compared against the dense checker over the
   same stitched relation (WW and OO workloads, with and without
   faults, and the runs the CLI smoke rules make), codec round-trips of
   stitched histories, and a seeded constraint-violation fixture that
   must be flagged. *)

open Mmc_core
open Mmc_shard
open Mmc_store

(* --- placement --- *)

let placements =
  [
    ("hash 4/16", Placement.hash ~n_shards:4 ~n_objects:16);
    ("hash 3/7", Placement.hash ~n_shards:3 ~n_objects:7);
    ("rr 4/16", Placement.round_robin ~n_shards:4 ~n_objects:16);
    ("rr 5/6", Placement.round_robin ~n_shards:5 ~n_objects:6);
    ( "explicit",
      Placement.explicit ~n_shards:3 [| 2; 2; 0; 1; 0; 2 |] );
  ]

let test_placement_partition () =
  List.iter
    (fun (name, p) ->
      let n_objects = Placement.n_objects p in
      let n_shards = Placement.n_shards p in
      (* every object on exactly one shard, local ids dense per shard *)
      let sizes = Array.make n_shards 0 in
      for x = 0 to n_objects - 1 do
        let s = Placement.shard_of_obj p x in
        Alcotest.(check bool) (name ^ ": shard in range") true (s >= 0 && s < n_shards);
        sizes.(s) <- sizes.(s) + 1;
        (* to_global inverts to_local *)
        Alcotest.(check int)
          (name ^ ": to_global o to_local")
          x
          (Placement.to_global p s (Placement.to_local p x))
      done;
      Array.iteri
        (fun s size ->
          Alcotest.(check int) (name ^ ": size") size (Placement.size p s);
          Alcotest.(check (list int))
            (name ^ ": objects_of ascending")
            (List.sort compare (Placement.objects_of p s))
            (Placement.objects_of p s);
          List.iteri
            (fun l x ->
              Alcotest.(check int) (name ^ ": local id ascending") l
                (Placement.to_local p x))
            (Placement.objects_of p s))
        sizes;
      Alcotest.(check int)
        (name ^ ": total")
        n_objects
        (Array.fold_left ( + ) 0 sizes))
    placements

let test_placement_shards_of () =
  let p = Placement.round_robin ~n_shards:4 ~n_objects:16 in
  Alcotest.(check (list int)) "single" [ 1 ] (Placement.shards_of p [ 1; 5; 13 ]);
  Alcotest.(check (list int)) "two, ascending" [ 0; 3 ]
    (Placement.shards_of p [ 3; 4; 7; 8 ]);
  Alcotest.(check (list int)) "empty" [] (Placement.shards_of p [])

let test_placement_explicit_rejects () =
  Alcotest.check_raises "out of range" (Invalid_argument "") (fun () ->
      try ignore (Placement.explicit ~n_shards:2 [| 0; 2 |])
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* --- sharded runs --- *)

let spec =
  { Mmc_workload.Spec.default with n_objects = 16; read_ratio = 0.5; skew = 0.5 }

let run ?(procs = 4) ?(ops = 12) ?(spec = spec) ?(fault = Mmc_sim.Fault.none)
    ?(kind = Store.Msc) ~seed ~n_shards ~cross () =
  let placement =
    Placement.hash ~n_shards ~n_objects:spec.Mmc_workload.Spec.n_objects
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = spec.Mmc_workload.Spec.n_objects;
      ops_per_proc = ops;
      kind;
      fault;
    }
  in
  Shard_runner.run ~seed ~placement cfg
    ~workload:
      (Mmc_workload.Generator.sharded ~cross_shard_ratio:cross placement spec)

let test_router_classification () =
  (* cross ratio 0: everything single-shard, one segment per mop *)
  let res = run ~seed:7 ~n_shards:4 ~cross:0.0 () in
  let r = res.Shard_runner.router in
  Alcotest.(check int) "no cross ops" 0 r.Router.cross_shard;
  Alcotest.(check int) "all single" res.Shard_runner.completed
    r.Router.single_shard;
  Alcotest.(check int) "one segment each" res.Shard_runner.completed
    r.Router.segments;
  (* positive cross ratio: cross-shard ops exist, each split in exactly
     two shard-rank-ordered segments *)
  let res = run ~seed:7 ~ops:20 ~n_shards:4 ~cross:0.3 () in
  let r = res.Shard_runner.router in
  Alcotest.(check bool) "cross ops observed" true (r.Router.cross_shard > 0);
  Alcotest.(check int) "two segments per cross op"
    (r.Router.single_shard + (2 * r.Router.cross_shard))
    r.Router.segments;
  Alcotest.(check int) "spread of two" 2 r.Router.max_spread;
  Alcotest.(check int) "ascending shard rank" 0 r.Router.out_of_rank;
  Alcotest.(check int) "every op completed"
    (r.Router.single_shard + r.Router.cross_shard)
    res.Shard_runner.completed

let verdict =
  Alcotest.testable Check_constrained.pp_result Check_constrained.same_verdict

(* [Shard_runner.check], with its stitched chain verdict compared
   against the dense checker over the same stitched history and
   relation: the same verdict constructor, or a checker bug. *)
let check_against_dense ?(kind = Constraints.WW) ~flavour name
    (res : Shard_runner.result) =
  let v = Shard_runner.check ~kind res ~flavour in
  let st =
    Shard_recorder.stitch res.Shard_runner.placement res.Shard_runner.recorders
  in
  Alcotest.check verdict
    (name ^ ": stitched chain verdict = dense")
    (Check_constrained.check_relation st.Shard_recorder.history
       (Check_sharded.stitched_relation st ~flavour)
       kind)
    v.Check_sharded.stitched;
  v

let assert_verified ?kind ~flavour name (res : Shard_runner.result) =
  let v = check_against_dense ?kind ~flavour name res in
  Array.iter
    (fun (s : Check_sharded.shard_verdict) ->
      Alcotest.(check bool)
        (Fmt.str "%s: shard %d admissible" name s.Check_sharded.shard)
        true
        (Check_constrained.admissible s.Check_sharded.result))
    v.Check_sharded.per_shard;
  v

(* WW workloads (mixed reads and updates): each shard must be
   admissible on its own and the chain check must match the dense
   checker on the stitched history, across shard counts, cross-shard
   ratios and seeds. *)
let test_agreement_ww () =
  List.iter
    (fun n_shards ->
      List.iter
        (fun cross ->
          List.iter
            (fun seed ->
              let res = run ~seed ~n_shards ~cross () in
              let name = Fmt.str "S=%d cross=%.2f seed=%d" n_shards cross seed in
              ignore (assert_verified ~flavour:History.Msc name res))
            [ 1; 2; 3 ])
        [ 0.0; 0.1; 0.2 ])
    [ 2; 4; 8 ]

(* At a single shard the sharded runner degenerates to the plain store:
   the stitched history must be admissible and compose. *)
let test_single_shard_composes () =
  List.iter
    (fun seed ->
      let res = run ~seed ~n_shards:1 ~cross:0.2 () in
      let v = assert_verified ~flavour:History.Msc "S=1" res in
      Alcotest.(check bool) "stitched admissible" true
        (Check_sharded.admissible v);
      Alcotest.(check bool) "composes" true v.Check_sharded.composes)
    [ 1; 2; 3; 4 ]

(* OO-constrained workloads: update-only traffic (read_ratio 0) puts
   every m-operation in each shard's broadcast chain, so the chains
   totally order all conflicting pairs — the OO constraint holds per
   shard and, through the merged order, globally. *)
let test_agreement_oo () =
  let spec = { spec with Mmc_workload.Spec.read_ratio = 0.0 } in
  List.iter
    (fun n_shards ->
      List.iter
        (fun seed ->
          let res = run ~spec ~seed ~n_shards ~cross:0.2 () in
          let name = Fmt.str "OO S=%d seed=%d" n_shards seed in
          ignore
            (assert_verified ~kind:Constraints.OO ~flavour:History.Msc name res))
        [ 1; 2 ])
    [ 2; 4; 8 ]

(* Fault plans below every shard's transport: reliability is rebuilt by
   the ack/retransmit layer, so verification agreement must survive
   drops and a partition window. *)
let test_agreement_under_faults () =
  let fault =
    {
      Mmc_sim.Fault.none with
      Mmc_sim.Fault.drop = 0.2;
      partitions =
        [ { Mmc_sim.Fault.from_ = 100; until = 300; island = [ 0 ] } ];
    }
  in
  List.iter
    (fun n_shards ->
      List.iter
        (fun seed ->
          let res = run ~fault ~ops:8 ~seed ~n_shards ~cross:0.15 () in
          let name = Fmt.str "fault S=%d seed=%d" n_shards seed in
          ignore (assert_verified ~flavour:History.Msc name res);
          match res.Shard_runner.fault with
          | None -> Alcotest.fail "injector missing"
          | Some f ->
            Alcotest.(check bool)
              (name ^ ": faults actually injected")
              true
              (Mmc_sim.Fault.dropped f > 0))
        [ 1; 2 ])
    [ 2; 4 ]

(* Other per-shard protocols behind the same router.  Mlin records a
   broadcast order per shard, so per-shard admissibility holds like for
   msc; the lock store records no synchronization order, so both
   pipelines must consistently report the missing WW constraint. *)
let test_other_store_kinds () =
  let res = run ~kind:Store.Mlin ~seed:5 ~n_shards:4 ~cross:0.2 () in
  ignore (assert_verified ~flavour:History.Mlin "mlin sharded" res);
  let res = run ~kind:Store.Lock ~seed:5 ~n_shards:4 ~cross:0.2 () in
  ignore (check_against_dense ~flavour:History.Mlin "lock sharded" res)

(* [mmc shard ARGV]'s run, rebuilt from the CLI's defaults (4
   processes, 16 objects, 20 ops, 4 shards, cross ratio 0.1, read
   ratio 0.5, no skew, hash placement, seed 1) and the [--flag value]
   pairs of [argv]; the same seed gives the CLI's run, message counts
   included. *)
let cli_run argv =
  let rec pairs = function k :: v :: rest -> (k, v) :: pairs rest | _ -> [] in
  let args = pairs (String.split_on_char ' ' argv) in
  let opt flag ~default parse =
    Option.fold ~none:default ~some:parse (List.assoc_opt flag args)
  in
  let int flag default = opt flag ~default int_of_string in
  let float flag default = opt flag ~default float_of_string in
  let procs = int "--procs" 4 and objects = int "--objects" 16 in
  let kind =
    opt "--store" ~default:Store.Msc (fun s ->
        Option.get (Store.kind_of_string s))
  in
  let placement =
    (match List.assoc_opt "--placement" args with
    | Some "rr" -> Placement.round_robin
    | _ -> Placement.hash)
      ~n_shards:(int "--shards" 4) ~n_objects:objects
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = objects;
      ops_per_proc = int "--ops" 20;
      kind;
      fastpath =
        opt "--fastpath" ~default:Mmc_fastpath.Classify.Sound (fun s ->
            Option.get (Mmc_fastpath.Classify.mode_of_string s));
      fault =
        opt "--plan" ~default:Mmc_sim.Fault.none (fun s ->
            Result.get_ok (Mmc_sim.Fault.of_spec s));
    }
  in
  let spec =
    {
      Mmc_workload.Spec.default with
      n_objects = objects;
      read_ratio = 0.5;
      skew = float "--skew" 0.0;
    }
  in
  let workload =
    match List.assoc_opt "--commute-ratio" args with
    | None ->
      Mmc_workload.Generator.sharded
        ~cross_shard_ratio:(float "--cross" 0.1)
        placement spec
    | Some r ->
      Mmc_workload.Generator.sharded_counter_commute
        ~commute_ratio:(float_of_string r) ~n_procs:procs placement spec
  in
  (kind, Shard_runner.run ~seed:(int "--seed" 1) ~placement cfg ~workload)

(* The runs `mmc shard` makes in the `test/dune` rules, `make
   shard-smoke`, `make fastpath-smoke` and the canary: the stitched
   chain verdict must be the dense one, and admissible exactly where
   the rule pins exit 0. *)
let test_cli_runs () =
  List.iter
    (fun (argv, admissible) ->
      let kind, res = cli_run argv in
      let v = check_against_dense ~flavour:(Store.flavour kind) argv res in
      Alcotest.(check bool)
        (argv ^ ": stitched admissible")
        admissible (Check_sharded.admissible v))
    ([
      ("--shards 4 --ops 10 --cross 0.2 --seed 3", true);
      ( "--shards 2 --store mlin --ops 8 --cross 0.15 --plan \
         drop=0.2,part=100:300:0 --seed 1",
        true );
      ( "--shards 2 --store mlin --ops 8 --cross 0.15 --plan \
         drop=0.2,part=100:300:0 --placement rr --seed 1",
        true );
      ("--store rmsc --shards 2 --ops 20 --seed 1", true);
      ( "--shards 4 --procs 8 --objects 32 --ops 100 --skew 0.99 --cross 0.1 \
         --seed 2",
        true );
      ( "--store seg --shards 4 --procs 8 --objects 32 --ops 100 --cross 0.0 \
         --seed 4",
        false );
      ( "--store seg --shards 4 --procs 8 --objects 32 --ops 100 --cross 0.0 \
         --seed 4 --fastpath off",
        true );
      ("--store seg --shards 4 --ops 12 --commute-ratio 0.0 --seed 2", true);
      ("--store seg --shards 4 --ops 12 --commute-ratio 1.0 --seed 2", true);
      ( "--store seg --shards 4 --ops 12 --commute-ratio 0.9 --fastpath off \
         --seed 2",
        true );
      ( "--store seg --shards 4 --ops 20 --commute-ratio 0.9 --fastpath wrong \
         --seed 2",
        false );
    ]
    @ List.map
        (fun ratio ->
          ( "--store seg --shards 4 --procs 6 --objects 32 --ops 12 \
             --commute-ratio " ^ ratio ^ " --seed 2",
            true ))
        [ "0.0"; "0.5"; "0.9"; "1.0" ]
    @ [
        ( "--store seg --shards 4 --procs 6 --objects 32 --ops 12 \
           --commute-ratio 0.9 --fastpath off --seed 2",
          true );
        ( "--store seg --shards 4 --procs 6 --objects 32 --ops 20 \
           --commute-ratio 0.9 --fastpath wrong --seed 2",
          false );
      ])

(* --- stitched history structure --- *)

let test_stitch_structure () =
  let res = run ~seed:11 ~n_shards:4 ~cross:0.2 ~ops:15 () in
  let st =
    Shard_recorder.stitch res.Shard_runner.placement res.Shard_runner.recorders
  in
  let h = st.Shard_recorder.history in
  (* every segment of every m-operation is present *)
  Alcotest.(check int) "mops = segments"
    res.Shard_runner.router.Router.segments
    (History.n_mops h - 1);
  (* ids cover 1..n and each is tagged with its executing shard *)
  List.iter
    (fun (m : Mop.t) ->
      match Hashtbl.find_opt st.Shard_recorder.shard_of_mop m.Mop.id with
      | None -> Alcotest.fail (Fmt.str "mop %d has no shard" m.Mop.id)
      | Some s ->
        Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
        (* all objects of the mop live on that shard *)
        List.iter
          (fun op ->
            Alcotest.(check int)
              (Fmt.str "mop %d object %d on its shard" m.Mop.id (Op.obj op))
              s
              (Placement.shard_of_obj res.Shard_runner.placement (Op.obj op)))
          m.Mop.ops)
    (History.real_mops h);
  (* chains list exactly the synchronized updates of each shard *)
  let chained = Hashtbl.create 64 in
  Array.iteri
    (fun s chain ->
      List.iter
        (fun id ->
          Alcotest.(check bool) "chain id fresh" false (Hashtbl.mem chained id);
          Hashtbl.add chained id ();
          Alcotest.(check (option int))
            "chain id on its shard" (Some s)
            (Hashtbl.find_opt st.Shard_recorder.shard_of_mop id))
        chain)
    st.Shard_recorder.chains;
  (* the merged order is a permutation of the chained updates *)
  Alcotest.(check int) "merged order covers chains" (Hashtbl.length chained)
    (List.length st.Shard_recorder.sync_order);
  (* ... and extends every chain *)
  let pos = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) st.Shard_recorder.sync_order;
  Array.iter
    (fun chain ->
      let ps = List.map (Hashtbl.find pos) chain in
      Alcotest.(check (list int)) "merged order extends chain"
        (List.sort compare ps) ps)
    st.Shard_recorder.chains

(* Codec round-trip: stitched global histories (remapped object and
   operation ids) must survive the text format unchanged. *)
let test_stitched_codec_roundtrip () =
  List.iter
    (fun (n_shards, seed) ->
      let res = run ~seed ~n_shards ~cross:0.2 ~ops:10 () in
      let st =
        Shard_recorder.stitch res.Shard_runner.placement
          res.Shard_runner.recorders
      in
      let h = st.Shard_recorder.history in
      let h' = Codec.of_string (Codec.to_string h) in
      Alcotest.(check int) "n_objects" (History.n_objects h)
        (History.n_objects h');
      Alcotest.(check int) "n_mops" (History.n_mops h) (History.n_mops h');
      List.iter2
        (fun (a : Mop.t) (b : Mop.t) ->
          Alcotest.(check bool) "mop equal" true (Mop.equal a b))
        (History.real_mops h) (History.real_mops h');
      Alcotest.(check int) "rf size"
        (List.length (History.rf h))
        (List.length (History.rf h'));
      List.iter
        (fun (e : History.rf_edge) ->
          Alcotest.(check bool) "rf edge preserved" true
            (List.exists (History.equal_rf_edge e) (History.rf h')))
        (History.rf h))
    [ (2, 3); (4, 5); (8, 7) ]

(* --- seeded constraint-violation fixture --- *)

(* A sharded trace whose claimed per-shard broadcast order is corrupted
   (one shard's chain reversed) installs a WW constraint contradicting
   reads-from and process order: the stitched check must flag it, and
   so must the batch checker.  This is the cross-shard analogue of a
   store lying about its commit order. *)
let test_violation_fixture_flagged () =
  let res = run ~seed:2 ~n_shards:4 ~cross:0.2 ~ops:15 () in
  let st =
    Shard_recorder.stitch res.Shard_runner.placement res.Shard_runner.recorders
  in
  let verdict = Check_sharded.check_stitched st ~flavour:History.Msc in
  Alcotest.(check bool) "pristine trace admissible" true
    (Check_constrained.admissible verdict);
  (* reverse the longest chain *)
  let longest = ref 0 in
  Array.iteri
    (fun s c ->
      if List.length c > List.length st.Shard_recorder.chains.(!longest) then
        longest := s;
      ignore c)
    st.Shard_recorder.chains;
  let s = !longest in
  Alcotest.(check bool) "fixture has a chain to corrupt" true
    (List.length st.Shard_recorder.chains.(s) >= 2);
  let corrupted =
    {
      st with
      Shard_recorder.chains =
        Array.mapi
          (fun i c -> if i = s then List.rev c else c)
          st.Shard_recorder.chains;
    }
  in
  let verdict = Check_sharded.check_stitched corrupted ~flavour:History.Msc in
  Alcotest.(check bool) "corrupted trace flagged FAIL" true
    (match verdict with
    | Check_constrained.Admissible _ -> false
    | _ -> true);
  (* the batch checker reaches the same conclusion on the same input *)
  let batch =
    Check_constrained.check_relation corrupted.Shard_recorder.history
      (Check_sharded.stitched_relation corrupted ~flavour:History.Msc)
      Constraints.WW
  in
  Alcotest.(check bool) "batch agrees on FAIL" true
    (match batch with
    | Check_constrained.Admissible _ -> false
    | _ -> true)

(* --- config validation --- *)

(* A shard replica wipe-crashing and rejoining mid-trace must not
   change what verification sees: every shard's recovery handle
   reports convergence, the stitched cross-crash trace passes the
   same per-shard + composed checks, and the verdict agrees with the
   crash-free run of the same seed. *)
let test_recovery_stitching_across_crash () =
  let fault =
    {
      Mmc_sim.Fault.none with
      Mmc_sim.Fault.drop = 0.1;
      crashes = [ Mmc_sim.Fault.crash ~wipe:true ~node:1 ~at:150 ~back:550 () ];
    }
  in
  List.iter
    (fun seed ->
      let crashed =
        run ~kind:Store.Rmsc ~fault ~ops:8 ~seed ~n_shards:2 ~cross:0.15 ()
      in
      let clean = run ~kind:Store.Rmsc ~ops:8 ~seed ~n_shards:2 ~cross:0.15 () in
      Alcotest.(check int)
        (Fmt.str "every client finished (seed %d)" seed)
        clean.Shard_runner.completed crashed.Shard_runner.completed;
      Array.iteri
        (fun s h ->
          match h with
          | None -> Alcotest.failf "shard %d: recovery handle missing" s
          | Some h ->
            Alcotest.(check bool)
              (Fmt.str "shard %d replicas converged (seed %d)" s seed)
              true
              (h.Rstore.converged ()))
        crashed.Shard_runner.recovery;
      let name = Fmt.str "rmsc crash seed=%d" seed in
      let v = assert_verified ~flavour:History.Msc name crashed in
      let v' =
        assert_verified ~flavour:History.Msc (name ^ " (crash-free)") clean
      in
      (* Stitched (global) admissibility is not compared: m-s.c. does
         not compose across shards even crash-free, and recovery can
         widen the stale-read windows that trigger that.  What recovery
         must preserve is the per-shard verdict and checker agreement
         (asserted for both runs above). *)
      Alcotest.(check bool)
        (Fmt.str "per-shard verdicts match the crash-free run (seed %d)" seed)
        true
        (Check_sharded.shards_admissible v.per_shard
        = Check_sharded.shards_admissible v'.per_shard))
    [ 0; 1; 2 ]

let test_config_validation () =
  let placement = Placement.hash ~n_shards:2 ~n_objects:8 in
  let cfg = { Runner.default_config with n_objects = 9 } in
  Alcotest.check_raises "n_objects mismatch" (Invalid_argument "") (fun () ->
      try
        ignore
          (Shard_store.create cfg (Mmc_sim.Engine.create ()) ~placement
             ~rng:(Mmc_sim.Rng.create 1))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let () =
  Alcotest.run "shard"
    [
      ( "placement",
        [
          Alcotest.test_case "partition + translations" `Quick
            test_placement_partition;
          Alcotest.test_case "shards_of" `Quick test_placement_shards_of;
          Alcotest.test_case "explicit rejects" `Quick
            test_placement_explicit_rejects;
        ] );
      ( "router",
        [ Alcotest.test_case "classification" `Quick test_router_classification ]
      );
      ( "verification",
        [
          Alcotest.test_case "WW agreement" `Quick test_agreement_ww;
          Alcotest.test_case "single shard composes" `Quick
            test_single_shard_composes;
          Alcotest.test_case "OO agreement" `Quick test_agreement_oo;
          Alcotest.test_case "agreement under faults" `Quick
            test_agreement_under_faults;
          Alcotest.test_case "other store kinds" `Quick test_other_store_kinds;
          Alcotest.test_case "CLI runs: chain = dense" `Quick test_cli_runs;
        ] );
      ( "stitching",
        [
          Alcotest.test_case "structure" `Quick test_stitch_structure;
          Alcotest.test_case "codec roundtrip" `Quick
            test_stitched_codec_roundtrip;
          Alcotest.test_case "recovery stitching across a crash" `Quick
            test_recovery_stitching_across_crash;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "violation flagged" `Quick
            test_violation_fixture_flagged;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
