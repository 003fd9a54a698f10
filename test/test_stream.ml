(* Windowed streaming checker vs the full-trace checker.

   The contract under test (DESIGN.md §14): on the same trace,
   `Window_check` fed m-operation by m-operation reaches the same
   PASS/FAIL verdict as `Runner.check_history` over the materialized
   history — for every store kind, flavour, fault plan and window
   size, including window=1 (a check per m-operation) and a window
   larger than the trace (no retirement at all). *)

open Mmc_core
open Mmc_store

let pp_verdict ppf = function
  | Mmc_stream.Window_check.Pass -> Fmt.string ppf "PASS"
  | Mmc_stream.Window_check.Fail { prefix; reason } ->
    Fmt.pf ppf "FAIL[%d: %s]" prefix reason
  | Mmc_stream.Window_check.Inconclusive msg ->
    Fmt.pf ppf "INCONCLUSIVE[%s]" msg

let run_trace ~seed ~kind ~fault ~ops =
  let spec =
    { Mmc_workload.Spec.default with n_objects = 6; read_ratio = 0.5 }
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = 4;
      n_objects = 6;
      ops_per_proc = ops;
      kind;
      fault;
      think_hi = 30;
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

(* Feed the materialized history through the windowed checker and
   compare with the full check of the same history. *)
let compare_one ~seed ~kind ~flavour ~fault ~window ~settle ~ops =
  let res = run_trace ~seed ~kind ~fault ~ops in
  let full = Runner.check_trace res ~flavour in
  let wc =
    Mmc_stream.Window_check.create ~window ~settle ~flavour
      ~n_objects:(History.n_objects res.Runner.history)
      ()
  in
  Mmc_stream.Window_check.feed_history wc res.Runner.history
    ~sync_order:res.Runner.sync_order;
  let v = Mmc_stream.Window_check.finish wc in
  let ctx =
    Fmt.str "seed=%d kind=%s flavour=%a window=%d settle=%d" seed
      (Fmt.str "%a" Store.pp_kind kind) History.pp_flavour flavour window settle
  in
  (match v with
  | Mmc_stream.Window_check.Pass ->
    Alcotest.(check bool)
      (ctx ^ ": full checker agrees with windowed PASS")
      true (Check_constrained.admissible full)
  | Mmc_stream.Window_check.Fail _ ->
    Alcotest.(check bool)
      (ctx ^ ": full checker agrees with windowed FAIL")
      false (Check_constrained.admissible full)
  | Mmc_stream.Window_check.Inconclusive msg ->
    Alcotest.failf "%s: windowed checker inconclusive: %s" ctx msg);
  (v, Mmc_stream.Window_check.metrics wc)

let test_equality_sweep () =
  List.iter
    (fun kind ->
      List.iter
        (fun window ->
          List.iter
            (fun seed ->
              ignore
                (compare_one ~seed ~kind ~flavour:(Store.flavour kind)
                   ~fault:Mmc_sim.Fault.none ~window
                   ~settle:Mmc_stream.Window_check.default_settle ~ops:16))
            [ 1; 2; 3 ])
        [ 1; 4; 16; 100000 ])
    [ Store.Msc; Store.Mlin; Store.Rmsc ]

(* Small settle forces early retirement; the verdict must still agree
   (the fallback for a straggler read would be Inconclusive, which the
   assertion rejects — at settle >= the store's replica lag it must
   not happen). *)
let test_equality_tight_settle () =
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let v, m =
            compare_one ~seed ~kind ~flavour:(Store.flavour kind)
              ~fault:Mmc_sim.Fault.none ~window:4 ~settle:64 ~ops:40
          in
          Alcotest.(check bool)
            (Fmt.str "seed=%d retirement happened (verdict %a)" seed pp_verdict
               v)
            true
            (m.Mmc_stream.Window_check.retired > 0))
        [ 1; 2; 3; 4; 5 ])
    [ Store.Msc; Store.Rmsc ]

(* Mnorm exercises the summary's object-order reads. *)
let test_equality_mnorm () =
  List.iter
    (fun seed ->
      ignore
        (compare_one ~seed ~kind:Store.Msc ~flavour:History.Mnorm
           ~fault:Mmc_sim.Fault.none ~window:4 ~settle:64 ~ops:30))
    [ 1; 2; 3 ]

let test_equality_under_faults () =
  let plan =
    {
      Mmc_sim.Fault.none with
      Mmc_sim.Fault.drop = 0.2;
      spike_prob = 0.05;
      spike_delay = 40;
      partitions =
        [ { Mmc_sim.Fault.from_ = 80; until = 260; island = [ 0 ] } ];
    }
  in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          ignore
            (compare_one ~seed ~kind ~flavour:(Store.flavour kind) ~fault:plan
               ~window:8 ~settle:128 ~ops:16))
        [ 1; 2; 3 ])
    [ Store.Msc; Store.Rmsc ]

(* QCheck: random (seed, window, kind) triples agree with the oracle. *)
let prop_equality =
  QCheck.Test.make ~count:40 ~name:"windowed verdict = full verdict"
    QCheck.(triple (int_bound 9999) (int_range 1 24) (int_bound 2))
    (fun (seed, window, k) ->
      let kind =
        match k with 0 -> Store.Msc | 1 -> Store.Mlin | _ -> Store.Rmsc
      in
      ignore
        (compare_one ~seed ~kind ~flavour:(Store.flavour kind)
           ~fault:Mmc_sim.Fault.none ~window ~settle:128 ~ops:10);
      true)

(* A hand-built inadmissible history: P1 reads version 2 then version 1
   of the same object, against the broadcast order w1 < w2 — the
   classic stale-read cycle.  Both checkers must FAIL. *)
let test_fail_agreement () =
  let v1 = Value.int 11 and v2 = Value.int 22 in
  let mops =
    [
      Mop.make ~id:1 ~proc:0 ~ops:[ Op.write 0 v1 ] ~inv:1 ~resp:2;
      Mop.make ~id:2 ~proc:0 ~ops:[ Op.write 0 v2 ] ~inv:3 ~resp:4;
      Mop.make ~id:3 ~proc:1 ~ops:[ Op.read 0 v2 ] ~inv:5 ~resp:6;
      Mop.make ~id:4 ~proc:1 ~ops:[ Op.read 0 v1 ] ~inv:7 ~resp:8;
    ]
  in
  let rf =
    [
      { History.reader = 3; obj = 0; writer = 2 };
      { History.reader = 4; obj = 0; writer = 1 };
    ]
  in
  let h = History.create ~n_objects:1 mops ~rf in
  let sync_order = [ 1; 2 ] in
  let full = Runner.check_history h ~sync_order ~flavour:History.Msc in
  Alcotest.(check bool)
    "full checker rejects" false
    (Check_constrained.admissible full);
  List.iter
    (fun window ->
      let wc =
        Mmc_stream.Window_check.create ~window ~flavour:History.Msc
          ~n_objects:1 ()
      in
      Mmc_stream.Window_check.feed_history wc h ~sync_order;
      match Mmc_stream.Window_check.finish wc with
      | Mmc_stream.Window_check.Fail _ -> ()
      | v -> Alcotest.failf "window=%d: expected FAIL, got %a" window pp_verdict v)
    [ 1; 2; 100 ]

(* Forward reads-from: a long-running reader completes (and is fed)
   before the writer whose version it read.  The pending queue must
   hold it back, then promote both, and the verdict must still be
   PASS. *)
let test_forward_rf () =
  let v1 = Value.int 7 in
  let mops =
    [
      Mop.make ~id:1 ~proc:1 ~ops:[ Op.read 0 v1 ] ~inv:1 ~resp:20;
      Mop.make ~id:2 ~proc:0 ~ops:[ Op.write 0 v1 ] ~inv:2 ~resp:5;
    ]
  in
  let rf = [ { History.reader = 1; obj = 0; writer = 2 } ] in
  let h = History.create ~n_objects:1 mops ~rf in
  let wc =
    Mmc_stream.Window_check.create ~window:1 ~flavour:History.Msc ~n_objects:1
      ()
  in
  Mmc_stream.Window_check.feed_history wc h ~sync_order:[ 2 ];
  match Mmc_stream.Window_check.finish wc with
  | Mmc_stream.Window_check.Pass -> ()
  | v -> Alcotest.failf "expected PASS, got %a" pp_verdict v

(* Sharded: each shard's sub-trace goes through its own windowed
   checker (sharing one arena) and must agree with the full per-shard
   check. *)
let test_sharded_per_shard () =
  let spec =
    { Mmc_workload.Spec.default with n_objects = 8; read_ratio = 0.5 }
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 12;
      kind = Store.Msc;
    }
  in
  let placement = Mmc_shard.Placement.hash ~n_shards:2 ~n_objects:8 in
  let res =
    Mmc_shard.Shard_runner.run ~seed:5 ~placement cfg
      ~workload:(Mmc_workload.Generator.mixed spec)
  in
  let arena = Relation.Arena.create () in
  Array.iter
    (fun recorder ->
      let h, _, sync_order = Recorder.to_history_full recorder in
      let full = Runner.check_history h ~sync_order ~flavour:History.Msc in
      let wc =
        Mmc_stream.Window_check.create ~arena ~window:4 ~settle:64
          ~flavour:History.Msc ~n_objects:(History.n_objects h) ()
      in
      Mmc_stream.Window_check.feed_history wc h ~sync_order;
      match Mmc_stream.Window_check.finish wc with
      | Mmc_stream.Window_check.Pass ->
        Alcotest.(check bool)
          "shard PASS agrees" true
          (Check_constrained.admissible full)
      | Mmc_stream.Window_check.Fail _ ->
        Alcotest.(check bool)
          "shard FAIL agrees" false
          (Check_constrained.admissible full)
      | Mmc_stream.Window_check.Inconclusive msg ->
        Alcotest.failf "shard inconclusive: %s" msg)
    res.Mmc_shard.Shard_runner.recorders

(* Arena recycling: after warm-up, each epoch check's tables come from
   the free lists — hits grow, misses stop, and the resident words stay
   window-bounded while recycled words track the epoch count. *)
let test_arena_gc () =
  let arena = Relation.Arena.create () in
  let cycle n =
    Relation.Arena.release arena (Relation.Arena.scratch arena n)
  in
  cycle 40;
  let h0 = Relation.Arena.hits arena and m0 = Relation.Arena.misses arena in
  for _ = 1 to 10 do
    cycle 40
  done;
  let h1 = Relation.Arena.hits arena and m1 = Relation.Arena.misses arena in
  Alcotest.(check bool) "hits grow" true (h1 >= h0 + 10);
  Alcotest.(check int) "misses stop after warm-up" m0 m1;
  (* Monotonicity on a live windowed run. *)
  let res = run_trace ~seed:2 ~kind:Store.Msc ~fault:Mmc_sim.Fault.none ~ops:40 in
  let wc =
    Mmc_stream.Window_check.create ~window:4 ~settle:64 ~flavour:History.Msc
      ~n_objects:(History.n_objects res.Runner.history)
      ()
  in
  Mmc_stream.Window_check.feed_history wc res.Runner.history
    ~sync_order:res.Runner.sync_order;
  ignore (Mmc_stream.Window_check.finish wc);
  let m = Mmc_stream.Window_check.metrics wc in
  Alcotest.(check bool)
    "epochs recycled words" true
    (m.Mmc_stream.Window_check.recycled_words > 0);
  Alcotest.(check bool)
    "epoch tables come from the arena after warm-up" true
    (m.Mmc_stream.Window_check.arena_hits > 0);
  Alcotest.(check bool)
    "checks ran" true
    (m.Mmc_stream.Window_check.checks > 1)

(* Resident memory is bounded by the window, not the trace: a small
   window over a longer trace must keep its peak epoch relation far
   below the full-trace relation's size. *)
let test_window_bounded_words () =
  let res = run_trace ~seed:7 ~kind:Store.Msc ~fault:Mmc_sim.Fault.none ~ops:60 in
  let n = History.n_mops res.Runner.history in
  let full_words = n * ((n + 62) / 63) in
  let wc =
    Mmc_stream.Window_check.create ~window:8 ~settle:64 ~flavour:History.Msc
      ~n_objects:(History.n_objects res.Runner.history)
      ()
  in
  Mmc_stream.Window_check.feed_history wc res.Runner.history
    ~sync_order:res.Runner.sync_order;
  (match Mmc_stream.Window_check.finish wc with
  | Mmc_stream.Window_check.Pass -> ()
  | v -> Alcotest.failf "expected PASS, got %a" pp_verdict v);
  let m = Mmc_stream.Window_check.metrics wc in
  Alcotest.(check bool)
    (Fmt.str "peak %d words < full-trace %d words"
       m.Mmc_stream.Window_check.max_resident_words full_words)
    true
    (m.Mmc_stream.Window_check.max_resident_words < full_words)

(* Outcomes pinned: one digest over the verdict text and the count
   metrics (not the arena word counts) of a sweep of windowed runs —
   store traces under every window and settle, m-normality, a lossy
   plan, sharded windows, seeded-corruption FAILs and straggler
   INCONCLUSIVEs.  It was recorded before epochs were checked straight
   from the window's arrays; any change to epoch boundaries,
   retirement, verdicts or messages on well-formed input moves it. *)
let pinned_outcomes = "22cc8bd93164e55304bc6346044e1c36"

let lossy_plan =
  {
    Mmc_sim.Fault.none with
    Mmc_sim.Fault.drop = 0.2;
    spike_prob = 0.05;
    spike_delay = 40;
    partitions = [ { Mmc_sim.Fault.from_ = 80; until = 260; island = [ 0 ] } ];
  }

let test_outcomes_pinned () =
  let module W = Mmc_stream.Window_check in
  let buf = Buffer.create 65536 in
  let inconclusive = ref 0 in
  let record ctx v (m : W.metrics) =
    (match v with W.Inconclusive _ -> incr inconclusive | _ -> ());
    Buffer.add_string buf
      (Fmt.str "%s %a fed=%d pending=%d live=%d max_live=%d checks=%d \
                retired=%d frontier=%d\n"
         ctx pp_verdict v m.W.fed m.W.pending m.W.live m.W.max_live
         m.W.checks m.W.retired m.W.frontier_objects)
  in
  let windowed ?arena ~window ~settle ~flavour h ~sync_order =
    let wc =
      W.create ?arena ~window ~settle ~flavour
        ~n_objects:(History.n_objects h) ()
    in
    W.feed_history wc h ~sync_order;
    let v = W.finish wc in
    (v, W.metrics wc)
  in
  List.iter
    (fun (plan_name, fault) ->
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              let res = run_trace ~seed ~kind ~fault ~ops:20 in
              let flavours =
                Store.flavour kind
                :: (if kind = Store.Msc then [ History.Mnorm ] else [])
              in
              List.iter
                (fun flavour ->
                  List.iter
                    (fun window ->
                      List.iter
                        (fun settle ->
                          let v, m =
                            windowed ~window ~settle ~flavour
                              res.Runner.history
                              ~sync_order:res.Runner.sync_order
                          in
                          record
                            (Fmt.str "%s %a %a seed=%d w=%d s=%d" plan_name
                               Store.pp_kind kind History.pp_flavour flavour
                               seed window settle)
                            v m)
                        [ 0; 64; W.default_settle ])
                    [ 1; 4; 16; 256 ])
                flavours)
            [ 1; 2; 3; 4 ])
        [ Store.Msc; Store.Mlin; Store.Rmsc ])
    [ ("none", Mmc_sim.Fault.none); ("lossy", lossy_plan) ];
  (* Sharded: one window per shard, sharing an arena. *)
  let spec =
    { Mmc_workload.Spec.default with n_objects = 8; read_ratio = 0.5 }
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 12;
      kind = Store.Msc;
    }
  in
  let placement = Mmc_shard.Placement.hash ~n_shards:2 ~n_objects:8 in
  let sres =
    Mmc_shard.Shard_runner.run ~seed:5 ~placement cfg
      ~workload:(Mmc_workload.Generator.mixed spec)
  in
  let arena = Relation.Arena.create () in
  Array.iteri
    (fun i recorder ->
      let h, _, sync_order = Recorder.to_history_full recorder in
      let v, m =
        windowed ~arena ~window:4 ~settle:64 ~flavour:History.Msc h ~sync_order
      in
      record (Fmt.str "shard %d" i) v m)
    sres.Mmc_shard.Shard_runner.recorders;
  (* Open-loop soaks with one seeded stale read: FAIL prefix and
     reason, and a tight settle that answers a straggler. *)
  let soak ~kind ~seed ~settle ~corrupt =
    let spec =
      { Mmc_workload.Spec.default with n_objects = 12; read_ratio = 0.5 }
    in
    let cfg =
      {
        Mmc_stream.Soak.default_config with
        runner =
          { Runner.default_config with n_procs = 4; n_objects = 12; kind };
        rate = 3;
        max_ops = 2500;
        settle;
        corrupt;
      }
    in
    let r =
      Mmc_stream.Soak.run ~seed ~workload:(Mmc_workload.Generator.mixed spec)
        cfg
    in
    record
      (Fmt.str "soak %a seed=%d settle=%d" Store.pp_kind kind seed settle)
      r.Mmc_stream.Soak.verdict r.Mmc_stream.Soak.wc
  in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          soak ~kind ~seed ~settle:W.default_settle ~corrupt:(Some 1000);
          soak ~kind ~seed ~settle:0 ~corrupt:None)
        [ 7; 8 ])
    [ Store.Msc; Store.Mlin ];
  let text = Buffer.contents buf in
  Alcotest.(check bool)
    "the sweep reaches a straggler INCONCLUSIVE" true (!inconclusive > 0);
  Alcotest.(check string)
    "digest of every outcome" pinned_outcomes
    (Digest.to_hex (Digest.string text))

(* The soak benchmark's lossy open-loop rmsc workload (5 replicas, 24
   objects, mean inter-arrival 6, half queries, 5% loss on every link,
   a detector suspecting after 400 ticks without a beat), cut to 3,000
   arrivals: the one test that drives [Soak.run] through [Reliable],
   stable delivery, the WAL and its scrubber.  The digest covers what
   the run's counters say — verdict, arrivals, completions, latency
   quantiles, epoch checks, messages, engine events, the fault
   injector's counters, the WAL counters summed over replicas and the
   stability acks — so a change meant to leave these runs alone must
   leave it unchanged. *)
let pinned_lossy_soak = "0b3ae2448383603ad3848adaebd996f2"

let test_lossy_rmsc_soak_pinned () =
  let buf = Buffer.create 4096 in
  let spec =
    { Mmc_workload.Spec.default with n_objects = 24; read_ratio = 0.5 }
  in
  let cfg =
    {
      Mmc_stream.Soak.default_config with
      runner =
        {
          Runner.default_config with
          n_procs = 5;
          n_objects = 24;
          kind = Store.Rmsc;
          fault = { Mmc_sim.Fault.none with drop = 0.05 };
          detector =
            Some
              { Mmc_sim.Detector.heartbeat_every = 25; suspect_after = 400 };
        };
      rate = 6;
      max_ops = 3000;
    }
  in
  let q ppf (x : Mmc_sim.Stats.quantiles) =
    Fmt.pf ppf "n=%d p50=%g p99=%g p999=%g" x.Mmc_sim.Stats.q_count
      x.Mmc_sim.Stats.q50 x.Mmc_sim.Stats.q99 x.Mmc_sim.Stats.q999
  in
  List.iter
    (fun seed ->
      let r =
        Mmc_stream.Soak.run ~seed
          ~workload:(Mmc_workload.Generator.mixed spec)
          cfg
      in
      let open Mmc_stream.Soak in
      let c = Mmc_sim.Fault.counts (Option.get r.fault) in
      let h = Option.get r.recovery in
      let logs = h.Rstore.log_stats () in
      let sum f = Array.fold_left (fun a s -> a + f s) 0 logs in
      let open Mmc_recovery.Rlog in
      Buffer.add_string buf
        (Fmt.str
           "seed=%d %a arrived=%d completed=%d duration=%d messages=%d \
            events=%d epochs=%d@.  latency %a@.  query %a@.  update %a@.  \
            fault loss=%d partitioned=%d crashed=%d spikes=%d \
            retransmissions=%d acks=%d abandoned=%d duplicates=%d \
            restarts=%d@.  wal appends=%d checkpoints=%d truncated=%d \
            replayed=%d torn=%d corrupt=%d silent=%d repaired=%d \
            scrubbed=%d fallbacks=%d reclaimed=%d resident=%d@.  \
            broadcast %a stability_acks=%d pulls=%d@."
           seed pp_verdict r.verdict r.arrived r.completed r.duration
           r.messages r.events r.wc.Mmc_stream.Window_check.checks q r.latency
           q r.query_latency q r.update_latency c.Mmc_sim.Fault.loss
           c.Mmc_sim.Fault.partitioned c.Mmc_sim.Fault.crashed
           c.Mmc_sim.Fault.spikes c.Mmc_sim.Fault.retransmissions
           c.Mmc_sim.Fault.acks c.Mmc_sim.Fault.abandoned
           c.Mmc_sim.Fault.duplicates c.Mmc_sim.Fault.restarts
           (sum (fun s -> s.appends))
           (sum (fun s -> s.checkpoints))
           (sum (fun s -> s.truncated))
           (sum (fun s -> s.replayed))
           (sum (fun s -> s.torn))
           (sum (fun s -> s.corrupt))
           (sum (fun s -> s.silent))
           (sum (fun s -> s.repaired))
           (sum (fun s -> s.scrubbed))
           (sum (fun s -> s.ckpt_fallbacks))
           (sum (fun s -> s.reclaimed_sectors))
           (sum (fun s -> s.resident_bytes))
           Mmc_broadcast.Rbcast.pp_stats (h.Rstore.broadcast_stats ())
           (h.Rstore.stability_acks ()) (h.Rstore.pulls ())))
    [ 1; 2 ];
  let text = Buffer.contents buf in
  Alcotest.(check string)
    "digest of both runs" pinned_lossy_soak
    (Digest.to_hex (Digest.string text))

(* The soak benchmark's two fault-free open-loop shapes, cut to 3,000
   arrivals: msc-mixed (4 clients, 16 objects, mean inter-arrival 8,
   half queries, uniform keys) and mlin-hot (the same topology, Zipf
   0.99 keys, 20% queries).  The digest covers the verdict, arrivals,
   completions, latency quantiles, epoch checks, retired entries,
   messages and engine events — not the checker's arena words — so a
   change meant to leave these runs alone must leave it unchanged. *)
let pinned_open_soaks = "63e429c03176aa64c4d9b0b4025fbfb9"

let test_open_soaks_pinned () =
  let buf = Buffer.create 4096 in
  let shape ~kind ~skew ~read_ratio =
    let spec =
      { Mmc_workload.Spec.default with n_objects = 16; read_ratio; skew }
    in
    ( {
        Mmc_stream.Soak.default_config with
        runner =
          { Runner.default_config with n_procs = 4; n_objects = 16; kind };
        rate = 8;
        max_ops = 3000;
      },
      Mmc_workload.Generator.mixed spec )
  in
  let q ppf (x : Mmc_sim.Stats.quantiles) =
    Fmt.pf ppf "n=%d p50=%g p99=%g p999=%g" x.Mmc_sim.Stats.q_count
      x.Mmc_sim.Stats.q50 x.Mmc_sim.Stats.q99 x.Mmc_sim.Stats.q999
  in
  List.iter
    (fun (name, (cfg, workload)) ->
      List.iter
        (fun seed ->
          let r = Mmc_stream.Soak.run ~seed ~workload cfg in
          let open Mmc_stream.Soak in
          let m = r.wc in
          let open Mmc_stream.Window_check in
          Buffer.add_string buf
            (Fmt.str
               "%s seed=%d %a arrived=%d completed=%d duration=%d \
                messages=%d events=%d epochs=%d retired=%d fed=%d \
                max_live=%d@.  latency %a@.  query %a@.  update %a@."
               name seed pp_verdict r.verdict r.arrived r.completed
               r.duration r.messages r.events m.checks m.retired m.fed
               m.max_live q r.latency q r.query_latency q r.update_latency))
        [ 1; 2 ])
    [
      ("msc-mixed", shape ~kind:Store.Msc ~skew:0.0 ~read_ratio:0.5);
      ("mlin-hot", shape ~kind:Store.Mlin ~skew:0.99 ~read_ratio:0.2);
    ];
  let text = Buffer.contents buf in
  Alcotest.(check string)
    "digest of all four runs" pinned_open_soaks
    (Digest.to_hex (Digest.string text))

(* Ill-formed feeds: each defect answers INCONCLUSIVE at every window
   and settle, whether the entries involved are still live or have
   retired, and names m-operations by feed index. *)
let test_ill_formed () =
  let module W = Mmc_stream.Window_check in
  let i = Value.int in
  let entry ?sync ?(writes = []) ?(reads = []) proc inv resp ops =
    { W.proc; inv; resp; ops; reads; writes; sync }
  in
  (* #1 writes x0 = 1 at synchronization position 0 (version 1). *)
  let w1 = entry ~sync:0 ~writes:[ (0, 1, i 1) ] 0 0 1 [ Op.write 0 (i 1) ] in
  let read1 ?(v = i 1) reads = entry ~reads 1 2 3 [ Op.read 0 v ] in
  (* A query that lets #1 retire at a small window with no settle
     grace, so that a later read of x0 resolves to the frontier. *)
  let idle = entry ~reads:[ (1, W.Gid 0) ] 1 5 6 [ Op.read 1 (i 0) ] in
  let cases =
    [
      ( "op object out of range",
        [ w1;
          entry ~reads:[ (0, W.Gid 1) ] 1 2 3
            [ Op.read 0 (i 1); Op.read 7 (i 0) ] ],
        None );
      ( "overlap inside the window",
        [ entry 0 0 10 [ Op.read 1 (i 0) ] ~reads:[ (1, W.Gid 0) ];
          entry 0 5 6 [ Op.read 1 (i 0) ] ~reads:[ (1, W.Gid 0) ] ],
        Some "process P0 not sequential: #1 [0,10] overlaps #2 [5,6]" );
      ( "overlap across a retired prefix",
        [ entry ~sync:0 ~writes:[ (0, 1, i 1) ] 0 0 50 [ Op.write 0 (i 1) ];
          entry ~reads:[ (0, W.Gid 1) ] 1 5 6 [ Op.read 0 (i 1) ];
          entry ~sync:1 ~writes:[ (0, 2, i 2) ] 1 7 8 [ Op.write 0 (i 2) ];
          entry ~reads:[ (0, W.Gid 3) ] 1 9 10 [ Op.read 0 (i 2) ];
          entry ~reads:[ (0, W.Gid 3) ] 0 20 30 [ Op.read 0 (i 2) ] ],
        Some "process P0 not sequential: #1 [0,50] overlaps #5 [20,30]" );
      ("missing rf edge", [ w1; read1 [] ], None);
      ("duplicate rf edge", [ w1; read1 [ (0, W.Gid 1); (0, W.Gid 1) ] ], None);
      ("stray rf edge", [ w1; read1 [ (0, W.Gid 1); (1, W.Gid 0) ] ], None);
      ( "self rf edge",
        [ w1;
          entry ~sync:1 ~writes:[ (0, 2, i 2) ] ~reads:[ (0, W.Gid 2) ] 1 2 3
            [ Op.read 0 (i 2); Op.write 0 (i 2) ] ],
        Some "#2 reads-from itself on x0" );
      ( "self rf edge by version",
        [ w1;
          entry ~sync:1 ~writes:[ (0, 2, i 2) ] ~reads:[ (0, W.Version 2) ] 1 2
            3 [ Op.read 0 (i 2); Op.write 0 (i 2) ] ],
        None );
      ( "listed write not the final write",
        [ entry ~sync:0 ~writes:[ (0, 1, i 9) ] 0 0 1
            [ Op.write 0 (i 9); Op.write 0 (i 1) ] ],
        None );
      ( "read value vs a live writer",
        [ w1; read1 ~v:(i 7) [ (0, W.Gid 1) ] ],
        Some "#2 reads 7 from x0 but #1 wrote 1" );
      ( "read value vs the frontier",
        [ w1; idle; entry ~reads:[ (0, W.Gid 1) ] 1 7 8 [ Op.read 0 (i 9) ] ],
        Some "#3 reads 9 from x0 but #1 wrote 1" );
      ( "read value vs the frontier, by version",
        [ w1; idle;
          entry ~reads:[ (0, W.Version 1) ] 1 7 8 [ Op.read 0 (i 9) ] ],
        Some "#3 reads 9 from x0 but #1 wrote 1" );
      ( "read value vs the initial value",
        [ entry ~reads:[ (0, W.Gid 0) ] 1 0 1 [ Op.read 0 (i 5) ] ],
        Some "#1 reads 5 from x0 but #0 wrote 0" );
    ]
  in
  let frontier_reached = ref false in
  List.iter
    (fun (name, entries, msg) ->
      List.iter
        (fun (window, settle) ->
          let wc =
            W.create ~window ~settle ~flavour:History.Msc ~n_objects:2 ()
          in
          List.iter (W.feed wc) entries;
          let ctx = Fmt.str "%s, window %d settle %d" name window settle in
          match W.finish wc with
          | W.Inconclusive m ->
            Option.iter (fun msg -> Alcotest.(check string) ctx msg m) msg;
            if
              name = "read value vs the frontier"
              && (W.metrics wc).W.retired > 0
            then frontier_reached := true
          | v ->
            Alcotest.failf "%s: expected INCONCLUSIVE, got %a" ctx pp_verdict v)
        [ (1, 0); (4, 0); (256, 0); (1, W.default_settle);
          (256, W.default_settle) ])
    cases;
  Alcotest.(check bool)
    "a read resolved against a retired writer's frontier" true
    !frontier_reached;
  (* The same entries, well formed, pass: the defects alone decide. *)
  List.iter
    (fun window ->
      let wc =
        W.create ~window ~settle:0 ~flavour:History.Msc ~n_objects:2 ()
      in
      List.iter (W.feed wc)
        [ w1; idle; entry ~reads:[ (0, W.Gid 1) ] 1 7 8 [ Op.read 0 (i 1) ] ];
      match W.finish wc with
      | W.Pass -> ()
      | v -> Alcotest.failf "well-formed control: %a" pp_verdict v)
    [ 1; 4; 256 ]

(* Record path = feed_history: [Soak.verify_sharded] feeds each
   shard's checker straight from its recorder; [feed_history] over
   [Recorder.to_history_full] of the same recorders, shard by shard
   over one shared arena, must give the same verdict text and the same
   metrics, arena words included.  Sharded traces of every broadcast
   store, seg under the sound and the label-trusting classifier (whose
   fast writes use per-replica version namespaces), fault-free and
   lossy, at 1, 2 and 4 shards. *)
let test_record_path () =
  let module W = Mmc_stream.Window_check in
  let n_procs = 8 and n_objects = 16 in
  let spec =
    { Mmc_workload.Spec.default with n_objects; read_ratio = 0.4 }
  in
  let show_metrics (m : W.metrics) =
    Fmt.str "fed=%d pending=%d live=%d max_live=%d checks=%d retired=%d \
             frontier=%d resident=%d max_resident=%d recycled=%d hits=%d \
             misses=%d"
      m.W.fed m.W.pending m.W.live m.W.max_live m.W.checks m.W.retired
      m.W.frontier_objects m.W.resident_words m.W.max_resident_words
      m.W.recycled_words m.W.arena_hits m.W.arena_misses
  in
  let wrong = Mmc_fastpath.Classify.Trust_labels [ "transfer"; "move" ] in
  let fails = ref 0 and checked = ref 0 in
  List.iter
    (fun (name, kind, fastpath) ->
      List.iter
        (fun (plan_name, fault) ->
          List.iter
            (fun shards ->
              let placement =
                Mmc_shard.Placement.hash ~n_shards:shards ~n_objects
              in
              let cfg =
                { Runner.default_config with
                  n_procs; n_objects; ops_per_proc = 24; kind; fault;
                  fastpath }
              in
              let workload =
                if kind = Store.Seg then
                  Mmc_workload.Generator.sharded_counter_commute
                    ~commute_ratio:0.5 ~n_procs placement spec
                else Mmc_workload.Generator.sharded placement spec
              in
              let res =
                Mmc_shard.Shard_runner.run ~seed:3 ~placement cfg ~workload
              in
              let flavour = Store.flavour kind in
              List.iter
                (fun (window, settle) ->
                  let verdicts, ms =
                    Mmc_stream.Soak.verify_sharded ~window ~settle ~flavour res
                  in
                  let arena = Relation.Arena.create () in
                  Array.iteri
                    (fun i recorder ->
                      let h, _, sync_order =
                        Recorder.to_history_full recorder
                      in
                      let wc =
                        W.create ~arena ~window ~settle ~flavour
                          ~n_objects:(History.n_objects h) ()
                      in
                      W.feed_history wc h ~sync_order;
                      let v = W.finish wc in
                      let ctx =
                        Fmt.str "%s %s shards=%d shard %d w=%d s=%d" name
                          plan_name shards i window settle
                      in
                      (match v with W.Fail _ -> incr fails | _ -> ());
                      incr checked;
                      Alcotest.(check string)
                        (ctx ^ ": verdict")
                        (Fmt.str "%a" pp_verdict v)
                        (Fmt.str "%a" pp_verdict verdicts.(i));
                      Alcotest.(check string)
                        (ctx ^ ": metrics")
                        (show_metrics (W.metrics wc))
                        (show_metrics (List.nth ms i)))
                    res.Mmc_shard.Shard_runner.recorders)
                [ (1, 0); (4, 0); (256, 0); (1, W.default_settle);
                  (4, W.default_settle); (256, W.default_settle) ])
            [ 1; 2; 4 ])
        [ ("none", Mmc_sim.Fault.none); ("lossy", lossy_plan) ])
    [ ("msc", Store.Msc, Mmc_fastpath.Classify.Sound);
      ("mlin", Store.Mlin, Mmc_fastpath.Classify.Sound);
      ("rmsc", Store.Rmsc, Mmc_fastpath.Classify.Sound);
      ("seg", Store.Seg, Mmc_fastpath.Classify.Sound);
      ("seg wrong", Store.Seg, wrong) ];
  Alcotest.(check bool)
    (Fmt.str "the sweep reaches FAILs (%d of %d shard checks)" !fails
       !checked)
    true (!fails > 0)

(* Hand-built recorders: the record path ranks synchronization
   positions with gaps as [to_history_full]'s order does, raises the
   same [Inconsistent_versions], and answers a trace the history
   rejects as ill-formed INCONCLUSIVE with [feed]'s message. *)
let test_record_path_hand_built () =
  let module W = Mmc_stream.Window_check in
  let i = Value.int in
  let record ?(reads = []) ?(writes = []) ?sync proc inv resp ops =
    { Recorder.proc; inv; resp; ops; reads; writes; start_ts = [| 0 |];
      finish_ts = [| 0 |]; sync }
  in
  let raised f =
    match f () with
    | exception Recorder.Inconsistent_versions m -> Some m
    | () -> None
  in
  let same name records =
    let r = Recorder.of_records ~n_objects:1 records in
    let via_history =
      raised (fun () -> ignore (Recorder.to_history_full r))
    in
    let via_records =
      raised (fun () ->
          W.feed_recorder (W.create ~flavour:History.Msc ~n_objects:1 ()) r)
    in
    Alcotest.(check bool) (name ^ ": raises") true (via_history <> None);
    Alcotest.(check (option string)) name via_history via_records
  in
  same "two writers of one version"
    [ record ~writes:[ (0, 1, 0) ] ~sync:0 0 0 1 [ Op.write 0 (i 1) ];
      record ~writes:[ (0, 1, 0) ] ~sync:1 1 2 3 [ Op.write 0 (i 2) ] ];
  same "a read of a version no record wrote"
    [ record ~writes:[ (0, 1, 0) ] ~sync:0 0 0 1 [ Op.write 0 (i 1) ];
      record ~reads:[ (0, 2, 0) ] 1 2 3 [ Op.read 0 (i 2) ] ];
  (* Positions 4 and 9 (a fence hole, a remapped order) feed as 0 and
     1: at window 1 with no settle grace both retire. *)
  let gaps =
    Recorder.of_records ~n_objects:1
      [ record ~writes:[ (0, 1, 0) ] ~sync:4 0 0 1 [ Op.write 0 (i 1) ];
        record ~reads:[ (0, 1, 0) ] ~writes:[ (0, 2, 0) ] ~sync:9 1 2 3
          [ Op.read 0 (i 1); Op.write 0 (i 2) ];
        record ~reads:[ (0, 2, 0) ] 0 4 5 [ Op.read 0 (i 2) ] ]
  in
  let h, _, sync_order = Recorder.to_history_full gaps in
  let tight () =
    W.create ~window:1 ~settle:0 ~flavour:History.Msc ~n_objects:1 ()
  in
  let by_history = tight () and by_records = tight () in
  W.feed_history by_history h ~sync_order;
  W.feed_recorder by_records gaps;
  List.iter
    (fun wc ->
      Alcotest.(check string) "gaps: PASS" "PASS"
        (Fmt.str "%a" pp_verdict (W.finish wc)))
    [ by_history; by_records ];
  Alcotest.(check int) "gaps: the same retired prefix"
    (W.metrics by_history).W.retired (W.metrics by_records).W.retired;
  Alcotest.(check bool) "gaps: the updates retire" true
    ((W.metrics by_records).W.retired >= 2);
  let overlap =
    Recorder.of_records ~n_objects:1
      [ record ~reads:[ (0, 0, 0) ] 0 0 10 [ Op.read 0 Value.initial ];
        record ~reads:[ (0, 0, 0) ] 0 5 6 [ Op.read 0 Value.initial ] ]
  in
  (match Recorder.to_history_full overlap with
  | exception History.Ill_formed _ -> ()
  | _ -> Alcotest.fail "the history accepts an overlapping process");
  let wc = W.create ~flavour:History.Msc ~n_objects:1 () in
  W.feed_recorder wc overlap;
  match W.finish wc with
  | W.Inconclusive m ->
    Alcotest.(check string) "feed's message"
      "process P0 not sequential: #1 [0,10] overlaps #2 [5,6]" m
  | v -> Alcotest.failf "expected INCONCLUSIVE, got %a" pp_verdict v

let () =
  Alcotest.run "stream"
    [
      ( "equality",
        [
          Alcotest.test_case "sweep kinds x windows x seeds" `Quick
            test_equality_sweep;
          Alcotest.test_case "tight settle retires and agrees" `Quick
            test_equality_tight_settle;
          Alcotest.test_case "m-normality summary reads" `Quick
            test_equality_mnorm;
          Alcotest.test_case "under fault plans" `Quick
            test_equality_under_faults;
          QCheck_alcotest.to_alcotest prop_equality;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "hand-built FAIL agrees at any window" `Quick
            test_fail_agreement;
          Alcotest.test_case "forward reads-from pends then passes" `Quick
            test_forward_rf;
          Alcotest.test_case "sharded per-shard windows" `Quick
            test_sharded_per_shard;
          Alcotest.test_case "outcomes pinned" `Quick test_outcomes_pinned;
          Alcotest.test_case "lossy rmsc soak pinned" `Quick
            test_lossy_rmsc_soak_pinned;
          Alcotest.test_case "msc and mlin soaks pinned" `Quick
            test_open_soaks_pinned;
          Alcotest.test_case "record path = feed_history" `Quick
            test_record_path;
          Alcotest.test_case "record path, hand-built recorders" `Quick
            test_record_path_hand_built;
          Alcotest.test_case "ill-formed feeds" `Quick test_ill_formed;
        ] );
      ( "arena",
        [
          Alcotest.test_case "free-list hits after warm-up" `Quick test_arena_gc;
          Alcotest.test_case "resident words window-bounded" `Quick
            test_window_bounded_words;
        ] );
    ]
