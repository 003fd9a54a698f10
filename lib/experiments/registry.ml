(** All experiments, by DESIGN.md identifier. *)

type entry = {
  id : string;
  description : string;
  run : unit -> Table.t;
  quick : unit -> Table.t;  (** reduced sizes for `dune runtest`/CI *)
}

let all : entry list =
  [
    {
      id = "T1";
      description = "exhaustive vs Theorem-7 checking cost";
      run = (fun () -> Exp_checker.t1 ());
      quick = (fun () -> Exp_checker.t1 ~sizes:[ 4; 6; 8 ] ~seeds:2 ());
    };
    {
      id = "T2";
      description = "single-object polynomial vs multi-object exhaustive";
      run = (fun () -> Exp_checker.t2 ());
      quick = (fun () -> Exp_checker.t2 ~sizes:[ 6; 10 ] ~seeds:2 ());
    };
    {
      id = "T7";
      description = "legality <=> admissibility under WW";
      run = (fun () -> Exp_checker.t7 ());
      quick = (fun () -> Exp_checker.t7 ~n_histories:15 ());
    };
    {
      id = "P1";
      description = "m-SC protocol latency by class";
      run = (fun () -> Exp_protocol.p1 ());
      quick = (fun () -> Exp_protocol.p1 ~procs:[ 2; 4 ] ());
    };
    {
      id = "P2";
      description = "m-linearizability protocol latency by class";
      run = (fun () -> Exp_protocol.p2 ());
      quick = (fun () -> Exp_protocol.p2 ~procs:[ 2; 4 ] ());
    };
    {
      id = "P3";
      description = "read-ratio sweep across stores";
      run = (fun () -> Exp_protocol.p3 ());
      quick = (fun () -> Exp_protocol.p3 ~ratios:[ 0.0; 0.5; 1.0 ] ());
    };
    {
      id = "P4";
      description = "atomic broadcast ablation";
      run = (fun () -> Exp_broadcast.p4 ());
      quick = (fun () -> Exp_broadcast.p4 ~sizes:[ 2; 4 ] ());
    };
    {
      id = "B1";
      description = "broadcast batching: batch size x fan-out sweep";
      run = (fun () -> Exp_broadcast.b1 ());
      quick = (fun () -> Exp_broadcast.b1 ~ks:[ 1; 8 ] ());
    };
    {
      id = "P5";
      description = "DCAS under contention";
      run = (fun () -> Exp_objects.p5 ());
      quick = (fun () -> Exp_objects.p5 ~procs:[ 1; 2 ] ~attempts:5 ());
    };
    {
      id = "C1";
      description = "conservative write-set classification cost";
      run = (fun () -> Exp_protocol.c1 ());
      quick = (fun () -> Exp_protocol.c1 ());
    };
    {
      id = "J1";
      description = "latency-model ablation (tail sensitivity)";
      run = (fun () -> Exp_protocol.j1 ());
      quick = (fun () -> Exp_protocol.j1 ());
    };
    {
      id = "V1";
      description = "protocol correctness summary";
      run = (fun () -> Exp_protocol.v1 ());
      quick = (fun () -> Exp_protocol.v1 ~seeds:3 ());
    };
    {
      id = "W1";
      description = "consistency spectrum: causal vs m-SC vs m-lin";
      run = (fun () -> Exp_protocol.w1 ());
      quick = (fun () -> Exp_protocol.w1 ~seeds:3 ());
    };
    {
      id = "L1";
      description = "2PL vs broadcast under write contention";
      run = (fun () -> Exp_protocol.l1 ());
      quick = (fun () -> Exp_protocol.l1 ~procs:[ 2; 4 ] ());
    };
    {
      id = "A1";
      description = "clock/delay assumptions: Attiya-Welch vs Figure 6";
      run = (fun () -> Exp_protocol.a1 ());
      quick = (fun () -> Exp_protocol.a1 ~seeds:3 ());
    };
    {
      id = "V2";
      description = "verifying protocol traces: Theorem 7 pipeline vs NP";
      run = (fun () -> Exp_checker.v2 ());
      quick = (fun () -> Exp_checker.v2 ~sizes:[ 30; 60 ] ());
    };
    {
      id = "R1";
      description = "fault injection: drop-rate sweep + sequencer partition";
      run = (fun () -> Exp_faults.f1 ());
      quick = (fun () -> Exp_faults.f1 ~drops:[ 0.0; 0.3 ] ~seeds:2 ~ops:8 ());
    };
    {
      id = "R2";
      description = "fault injection: outage-length sweep (partition + crash)";
      run = (fun () -> Exp_faults.f2 ());
      quick = (fun () -> Exp_faults.f2 ~lengths:[ 0; 250 ] ~seeds:2 ~ops:8 ());
    };
    {
      id = "R3";
      description = "crash recovery: wipe schedule x checkpoint interval";
      run = (fun () -> Exp_recovery.r3 ());
      quick =
        (fun () ->
          Exp_recovery.r3 ~intervals:[ 4; 64 ] ~seeds:2 ~ops:8
            ~schedule_names:[ "seq"; "seq+flw" ] ());
    };
    {
      id = "R4";
      description = "failure detection: suspicion timeout x loss rate";
      run = (fun () -> Exp_recovery.r4 ());
      quick =
        (fun () ->
          Exp_recovery.r4 ~timeouts:[ 60; 200 ] ~drops:[ 0.0; 0.2 ] ~seeds:2
            ~ops:8 ());
    };
    {
      id = "R5";
      description = "storage faults: fault mix x checkpoint interval";
      run = (fun () -> Exp_recovery.r5 ());
      quick =
        (fun () ->
          Exp_recovery.r5 ~intervals:[ 16 ] ~seeds:2 ~ops:8
            ~mix_names:[ "tear"; "tear+rot+stale" ] ());
    };
    {
      id = "S1";
      description = "sharding: shard count x cross-shard ratio";
      run = (fun () -> Exp_shard.s1 ());
      quick =
        (fun () ->
          Exp_shard.s1 ~shards:[ 1; 4 ] ~ratios:[ 0.0; 0.2 ] ~seeds:2 ~ops:8 ());
    };
    {
      id = "F1";
      description = "coordination avoidance: commute-ratio sweep (seg vs msc)";
      run = (fun () -> Exp_fastpath.f1 ());
      quick =
        (fun () ->
          Exp_fastpath.f1 ~ratios:[ 0.0; 0.9; 1.0 ] ~n_shards:4 ~ops:12 ());
    };
    {
      id = "M1";
      description = "streaming verification: arrival rate x window";
      run = (fun () -> Exp_stream.m1 ());
      quick =
        (fun () ->
          Exp_stream.m1 ~rates:[ 6; 2 ] ~windows:[ 128; 512 ] ~ops:4_000 ());
    };
    {
      id = "Z1";
      description = "Zipf contention skew: 2PL vs broadcast";
      run = (fun () -> Exp_protocol.z1 ());
      quick = (fun () -> Exp_protocol.z1 ~skews:[ 0.0; 1.5 ] ());
    };
  ]

let find id = List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all
