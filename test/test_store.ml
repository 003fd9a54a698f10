(* End-to-end protocol tests: the executions generated by the Figure 4
   protocol are m-sequentially consistent (Theorem 15), those of the
   Figure 6 protocol are m-linearizable (Theorem 20), the timestamp
   properties P 5.x hold on the traces, and the unsynchronized baseline
   is caught by the checkers. *)

open Mmc_core
open Mmc_store
open Mmc_broadcast

let spec = { Mmc_workload.Spec.default with n_objects = 4; read_ratio = 0.5 }

let run ?(n_procs = 3) ?(ops = 12) ?(abcast = Abcast.Sequencer_impl)
    ?(latency = Mmc_sim.Latency.Uniform (2, 20)) ~seed kind =
  let cfg =
    {
      Runner.default_config with
      n_procs;
      n_objects = spec.Mmc_workload.Spec.n_objects;
      ops_per_proc = ops;
      kind;
      abcast_impl = abcast;
      latency;
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let admissible h flavour =
  match Admissible.check ~max_states:5_000_000 h flavour with
  | Admissible.Admissible _ -> true
  | Admissible.Not_admissible -> false
  | Admissible.Aborted -> Alcotest.fail "checker aborted"

let test_msc_protocol_msc () =
  List.iter
    (fun seed ->
      let res = run ~seed Store.Msc in
      Alcotest.(check int)
        (Fmt.str "all ops completed (seed %d)" seed)
        (3 * 12) res.Runner.completed;
      Alcotest.(check bool)
        (Fmt.str "m-sequentially consistent (seed %d)" seed)
        true
        (admissible res.Runner.history History.Msc))
    [ 0; 1; 2; 3; 4 ]

let test_mlin_protocol_mlin () =
  List.iter
    (fun seed ->
      let res = run ~seed Store.Mlin in
      Alcotest.(check bool)
        (Fmt.str "m-linearizable (seed %d)" seed)
        true
        (admissible res.Runner.history History.Mlin))
    [ 0; 1; 2; 3; 4 ]

let test_mlin_with_lamport_abcast () =
  List.iter
    (fun seed ->
      let res = run ~seed ~abcast:Abcast.Lamport_impl Store.Mlin in
      Alcotest.(check bool)
        (Fmt.str "m-linearizable under lamport abcast (seed %d)" seed)
        true
        (admissible res.Runner.history History.Mlin))
    [ 5; 6 ]

let test_central_mlin () =
  List.iter
    (fun seed ->
      let res = run ~seed Store.Central in
      Alcotest.(check bool)
        (Fmt.str "central store m-linearizable (seed %d)" seed)
        true
        (admissible res.Runner.history History.Mlin))
    [ 0; 1; 2 ]

let test_local_store_inconsistent () =
  (* With write-heavy contention the unsynchronized store must produce
     at least one non-m-SC history over a batch of seeds. *)
  let contended = { spec with read_ratio = 0.3; n_objects = 2 } in
  let caught = ref false in
  for seed = 0 to 9 do
    let cfg =
      {
        Runner.default_config with
        n_procs = 3;
        n_objects = 2;
        ops_per_proc = 8;
        kind = Store.Local;
      }
    in
    let res =
      Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed contended)
    in
    if not (admissible res.Runner.history History.Msc) then caught := true
  done;
  Alcotest.(check bool) "checker catches the unsynchronized store" true !caught

let test_msc_queries_are_local () =
  let res = run ~seed:7 Store.Msc in
  (* Figure 4 queries respond in the invocation event: zero latency. *)
  Alcotest.(check int) "query p99 latency" 0
    res.Runner.query_latency.Mmc_sim.Stats.p99;
  Alcotest.(check bool) "updates pay broadcast latency" true
    (res.Runner.update_latency.Mmc_sim.Stats.p50 > 0)

let test_mlin_queries_pay_roundtrip () =
  let res = run ~seed:7 Store.Mlin in
  Alcotest.(check bool) "queries not free" true
    (res.Runner.query_latency.Mmc_sim.Stats.p50 > 0)

let test_timestamp_properties () =
  (* P 5.3/5.4 over process order + reads-from, and P 5.7/5.8 over
     reads-from, on both protocols' traces. *)
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let res = run ~seed kind in
          let h = res.Runner.history in
          let rel = History.base_relation h History.Msc in
          let v1 = Version_vector.check_monotonic h res.Runner.stamps rel in
          let v2 = Version_vector.check_reads_from h res.Runner.stamps in
          Alcotest.(check (list string))
            (Fmt.str "P5.x clean (%a seed %d)" Store.pp_kind kind seed)
            []
            (List.map (Fmt.str "%a" Version_vector.pp_violation) (v1 @ v2)))
        [ 0; 1 ])
    [ Store.Msc; Store.Mlin ]

let test_determinism () =
  let r1 = run ~seed:13 Store.Mlin in
  let r2 = run ~seed:13 Store.Mlin in
  Alcotest.(check int) "same duration" r1.Runner.duration r2.Runner.duration;
  Alcotest.(check int) "same messages" r1.Runner.messages r2.Runner.messages;
  Alcotest.(check int) "same events" r1.Runner.events r2.Runner.events

let test_larger_system () =
  let res = run ~n_procs:6 ~ops:8 ~seed:21 Store.Mlin in
  Alcotest.(check int) "completed" 48 res.Runner.completed;
  Alcotest.(check bool) "m-linearizable" true
    (admissible res.Runner.history History.Mlin)

(* Conservative classification: a program that may write but reads
   only must still be handled correctly (broadcast as an update). *)
let test_conservative_write_sets () =
  let inflated = { spec with inflate_write_set = true; read_ratio = 0.4 } in
  let cfg =
    { Runner.default_config with n_procs = 3; n_objects = 4; ops_per_proc = 10 }
  in
  let res =
    Runner.run ~seed:3 cfg ~workload:(Mmc_workload.Generator.mixed inflated)
  in
  Alcotest.(check bool) "still m-SC" true
    (admissible res.Runner.history History.Msc)

(* The practical verification pipeline the paper envisions: protocols
   run under the WW-constraint (atomic broadcast), the recorder keeps
   the broadcast order, and the polynomial Theorem 7 checker validates
   the trace — no NP search needed. *)
let test_theorem7_pipeline () =
  List.iter
    (fun seed ->
      let engine = Mmc_sim.Engine.create () in
      let rng = Mmc_sim.Rng.create seed in
      let recorder = Recorder.create ~n_objects:4 in
      let store =
        Msc_store.create engine ~n:3 ~n_objects:4
          ~latency:(Mmc_sim.Latency.Uniform (2, 20))
          ~rng ~abcast_impl:Abcast.Sequencer_impl ~recorder
      in
      let wrng = Mmc_sim.Rng.create (seed + 99) in
      let rec client proc step () =
        if step < 15 then
          let m = Mmc_workload.Generator.mixed spec wrng ~proc ~step in
          Store.invoke store ~proc m ~k:(fun _ ->
              Mmc_sim.Engine.schedule engine ~delay:2 (client proc (step + 1)))
      in
      for p = 0 to 2 do
        Mmc_sim.Engine.schedule engine ~delay:(1 + p) (client p 0)
      done;
      Mmc_sim.Engine.run engine;
      let h, _, sync_order = Recorder.to_history_full recorder in
      (* All updates are synchronized... *)
      let updates =
        History.real_mops h |> List.filter Mmc_core.Mop.is_update |> List.length
      in
      Alcotest.(check int)
        (Fmt.str "sync order covers all updates (seed %d)" seed)
        updates (List.length sync_order);
      (* ...and chaining them installs the WW-constraint: Theorem 7
         verifies the trace in polynomial time. *)
      let base = History.base_relation h History.Msc in
      Relation.add_edges base (Check_constrained.sync_edges [ sync_order ]);
      match Check_constrained.check_relation h base Constraints.WW with
      | Check_constrained.Admissible wt ->
        Alcotest.(check bool)
          (Fmt.str "witness validates (seed %d)" seed)
          true
          (Sequential.validate h base wt)
      | other ->
        Alcotest.failf "theorem 7 pipeline failed (seed %d): %a" seed
          Check_constrained.pp_result other)
    [ 0; 1; 2; 3 ]

(* Records pinned: one digest over every m-operation's interval, ops
   and reads-from (the history's text form), its start/finish stamps,
   the synchronization order and each run's duration and message
   count, for every store kind at two seeds, fault-free and, for the
   stores whose records carry synchronization positions, under a lossy
   plan; plus [seg] on the owner-local counter workload, whose fast
   path records under the shared namespace (sound classifier) and
   per-replica ones (trusted labels).  Any change to what a store
   runs, sends or records moves it. *)
let pinned_records = "97acb90a7d298af7362517f9278efaf8"

let lossy_plan =
  {
    Mmc_sim.Fault.none with
    Mmc_sim.Fault.drop = 0.2;
    spike_prob = 0.05;
    spike_delay = 40;
    partitions = [ { Mmc_sim.Fault.from_ = 80; until = 260; island = [ 1 ] } ];
  }

let test_records_pinned () =
  let buf = Buffer.create 65536 in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  let record ?(fastpath = Mmc_fastpath.Classify.Sound)
      ?(workload = Mmc_workload.Generator.mixed spec) ctx fault kind seed =
    let cfg =
      {
        Runner.default_config with
        n_procs = 3;
        n_objects = spec.Mmc_workload.Spec.n_objects;
        ops_per_proc = 12;
        kind;
        latency = Mmc_sim.Latency.Uniform (2, 20);
        fault;
        fastpath;
      }
    in
    let res = Runner.run ~seed cfg ~workload in
    let h = res.Runner.history in
    Buffer.add_string buf
      (Fmt.str "%s %a seed=%d duration=%d messages=%d\n" ctx Store.pp_kind
         kind seed res.Runner.duration res.Runner.messages);
    Buffer.add_string buf (Codec.to_string h);
    List.iter
      (fun m ->
        let id = m.Mop.id in
        let s = Hashtbl.find res.Runner.stamps id in
        Buffer.add_string buf
          (Fmt.str "ts %d [%s] [%s]\n" id (ints s.Version_vector.start_ts)
             (ints s.Version_vector.finish_ts)))
      (History.real_mops h);
    Buffer.add_string buf
      (Fmt.str "sync %s\n" (ints (Array.of_list res.Runner.sync_order)))
  in
  let kinds =
    Store.[ Msc; Mlin; Central; Local; Causal; Lock; Aw; Rmsc; Seg ]
  in
  let counters =
    Mmc_workload.Generator.counter_commute ~commute_ratio:0.7 ~n_procs:3 spec
  in
  let trust = Mmc_fastpath.Classify.Trust_labels [ "transfer"; "move" ] in
  List.iter
    (fun seed ->
      List.iter (fun kind -> record "none" Mmc_sim.Fault.none kind seed) kinds;
      List.iter
        (fun kind -> record "lossy" lossy_plan kind seed)
        (List.filter Store.records_sync kinds);
      List.iter
        (fun (ctx, fault) ->
          record ~workload:counters ctx fault Store.Seg seed;
          record ~workload:counters ~fastpath:trust (ctx ^ " trust") fault
            Store.Seg seed)
        [ ("counters", Mmc_sim.Fault.none); ("counters lossy", lossy_plan) ])
    [ 3; 4 ];
  Alcotest.(check string)
    "digest of every record" pinned_records
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let prop_theorem_15_20 =
  QCheck.Test.make
    ~name:"theorems 15/20: protocol histories admissible across seeds"
    ~count:25
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let msc = run ~seed ~ops:8 Store.Msc in
      let mlin = run ~seed ~ops:8 Store.Mlin in
      admissible msc.Runner.history History.Msc
      && admissible mlin.Runner.history History.Mlin)

let () =
  Alcotest.run "store"
    [
      ( "protocols",
        [
          Alcotest.test_case "figure 4 => m-SC" `Quick test_msc_protocol_msc;
          Alcotest.test_case "figure 6 => m-lin" `Quick test_mlin_protocol_mlin;
          Alcotest.test_case "figure 6 + lamport" `Quick test_mlin_with_lamport_abcast;
          Alcotest.test_case "central baseline" `Quick test_central_mlin;
          Alcotest.test_case "local store caught" `Quick test_local_store_inconsistent;
          Alcotest.test_case "conservative write sets" `Quick
            test_conservative_write_sets;
          Alcotest.test_case "theorem 7 pipeline" `Quick test_theorem7_pipeline;
        ] );
      ( "performance-shape",
        [
          Alcotest.test_case "msc queries local" `Quick test_msc_queries_are_local;
          Alcotest.test_case "mlin queries roundtrip" `Quick
            test_mlin_queries_pay_roundtrip;
        ] );
      ( "traces",
        [
          Alcotest.test_case "P5.x timestamp properties" `Quick
            test_timestamp_properties;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "larger system" `Quick test_larger_system;
          Alcotest.test_case "records pinned" `Quick test_records_pinned;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_theorem_15_20 ]);
    ]
