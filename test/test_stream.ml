(* Windowed streaming checker vs the full-trace checker.

   The contract under test (DESIGN.md §14): on the same trace,
   `Window_check` fed m-operation by m-operation reaches the same
   PASS/FAIL verdict as `Runner.check_history` over the materialized
   history — for every store kind, flavour, fault plan and window
   size, including window=1 (a check per m-operation) and a window
   larger than the trace (no retirement at all). *)

open Mmc_core
open Mmc_store

let is_admissible = function
  | Check_constrained.Admissible _ -> true
  | _ -> false

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
      true (is_admissible full)
  | Mmc_stream.Window_check.Fail _ ->
    Alcotest.(check bool)
      (ctx ^ ": full checker agrees with windowed FAIL")
      false (is_admissible full)
  | Mmc_stream.Window_check.Inconclusive msg ->
    Alcotest.failf "%s: windowed checker inconclusive: %s" ctx msg);
  (v, Mmc_stream.Window_check.metrics wc)

let flavour_of = function Store.Mlin -> History.Mlin | _ -> History.Msc

let test_equality_sweep () =
  List.iter
    (fun kind ->
      List.iter
        (fun window ->
          List.iter
            (fun seed ->
              ignore
                (compare_one ~seed ~kind ~flavour:(flavour_of kind)
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
            compare_one ~seed ~kind ~flavour:(flavour_of kind)
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
            (compare_one ~seed ~kind ~flavour:(flavour_of kind) ~fault:plan
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
        (compare_one ~seed ~kind ~flavour:(flavour_of kind)
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
  Alcotest.(check bool) "full checker rejects" false (is_admissible full);
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
        Alcotest.(check bool) "shard PASS agrees" true (is_admissible full)
      | Mmc_stream.Window_check.Fail _ ->
        Alcotest.(check bool) "shard FAIL agrees" false (is_admissible full)
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
        ] );
      ( "arena",
        [
          Alcotest.test_case "free-list hits after warm-up" `Quick test_arena_gc;
          Alcotest.test_case "resident words window-bounded" `Quick
            test_window_bounded_words;
        ] );
    ]
