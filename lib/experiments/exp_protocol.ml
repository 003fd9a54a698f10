(** Protocol experiments (P1–P3, C1, J1, V1): the performance shape of
    the Section 5 protocols. *)

open Mmc_core
open Mmc_store
open Mmc_sim
open Mmc_broadcast

let spec = { Mmc_workload.Spec.default with n_objects = 8 }

let run ?(spec = spec) ?(n_procs = 4) ?(ops = 40) ?(seed = 1)
    ?(latency = Latency.Uniform (5, 15)) ?(abcast = Abcast.Sequencer_impl) kind
    =
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

let per_op_messages res =
  float_of_int res.Runner.messages /. float_of_int (max 1 res.Runner.completed)

(** P1 — the m-SC protocol: queries are local (zero latency), updates
    pay the atomic broadcast; scaling with the number of processes. *)
let p1 ?(procs = [ 2; 4; 8; 16 ]) () =
  let rows =
    List.map
      (fun n ->
        let res = run ~n_procs:n Store.Msc in
        [
          Table.i n;
          Table.i res.Runner.query_latency.Stats.p50;
          Table.i res.Runner.query_latency.Stats.p95;
          Table.i res.Runner.update_latency.Stats.p50;
          Table.i res.Runner.update_latency.Stats.p95;
          Table.f1 (per_op_messages res);
        ])
      procs
  in
  {
    Table.id = "P1";
    title = "m-SC protocol (Figure 4): latency by operation class";
    header =
      [ "procs"; "query p50"; "query p95"; "update p50"; "update p95"; "msgs/op" ];
    rows;
    notes =
      [
        "queries are free: applied to the local copy at invocation (A3)";
        "updates pay 2 broadcast hops; msgs/op grows with n (fan-out)";
      ];
  }

(** P2 — the m-linearizability protocol: queries pay a round trip to
    every replica (2n messages) and wait for the slowest reply. *)
let p2 ?(procs = [ 2; 4; 8; 16 ]) () =
  let rows =
    List.map
      (fun n ->
        let res = run ~n_procs:n Store.Mlin in
        [
          Table.i n;
          Table.i res.Runner.query_latency.Stats.p50;
          Table.i res.Runner.query_latency.Stats.p95;
          Table.i res.Runner.update_latency.Stats.p50;
          Table.i res.Runner.update_latency.Stats.p95;
          Table.f1 (per_op_messages res);
        ])
      procs
  in
  {
    Table.id = "P2";
    title = "m-linearizability protocol (Figure 6): latency by class";
    header =
      [ "procs"; "query p50"; "query p95"; "update p50"; "update p95"; "msgs/op" ];
    rows;
    notes =
      [
        "query latency = max over n replica replies: grows with n";
        "the price of m-linearizability without synchronized clocks";
      ];
  }

(** P3 — read-ratio sweep across the three stores: who wins where. *)
let p3 ?(ratios = [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ]) () =
  let mean_latency res =
    let q = res.Runner.query_latency and u = res.Runner.update_latency in
    let n = q.Stats.count + u.Stats.count in
    if n = 0 then 0.0
    else
      ((q.Stats.mean *. float_of_int q.Stats.count)
      +. (u.Stats.mean *. float_of_int u.Stats.count))
      /. float_of_int n
  in
  let rows =
    List.map
      (fun ratio ->
        let s = { spec with read_ratio = ratio } in
        let msc = run ~spec:s Store.Msc in
        let mlin = run ~spec:s Store.Mlin in
        let central = run ~spec:s Store.Central in
        let lock = run ~spec:s Store.Lock in
        [
          Table.f2 ratio;
          Table.f1 (mean_latency msc);
          Table.f1 (mean_latency mlin);
          Table.f1 (mean_latency central);
          Table.f1 (mean_latency lock);
          Table.f1 (per_op_messages msc);
          Table.f1 (per_op_messages mlin);
          Table.f1 (per_op_messages central);
          Table.f1 (per_op_messages lock);
        ])
      ratios
  in
  {
    Table.id = "P3";
    title = "read-ratio sweep: mean op latency and msgs/op per store";
    header =
      [
        "read ratio";
        "msc lat";
        "mlin lat";
        "central lat";
        "lock lat";
        "msc m/op";
        "mlin m/op";
        "central m/op";
        "lock m/op";
      ];
    rows;
    notes =
      [
        "m-SC latency falls toward 0 as reads dominate (local queries)";
        "central stays flat (~1 RTT); m-lin queries cost the full fan-out";
        "2PL pays sequential lock+RPC rounds per touched object, always";
      ];
  }

(** C1 — the cost of conservative update classification: read-only
    m-operations with inflated may-write sets are broadcast as
    updates. *)
let c1 () =
  let rows =
    List.map
      (fun inflate ->
        let s = { spec with inflate_write_set = inflate; read_ratio = 0.7 } in
        let res = run ~spec:s Store.Msc in
        [
          (if inflate then "conservative" else "exact");
          Table.i res.Runner.query_latency.Stats.count;
          Table.i res.Runner.update_latency.Stats.count;
          Table.i res.Runner.query_latency.Stats.p50;
          Table.i res.Runner.update_latency.Stats.p50;
          Table.f1 (per_op_messages res);
        ])
      [ false; true ]
  in
  {
    Table.id = "C1";
    title = "conservative write-set classification cost (m-SC store)";
    header =
      [ "classification"; "queries"; "updates"; "q p50"; "u p50"; "msgs/op" ];
    rows;
    notes =
      [
        "with inflated may-write sets, would-be queries become updates:";
        "they lose the free local read and pay broadcast latency + messages";
      ];
  }

(** J1 — jitter sensitivity: the m-lin query waits for the slowest of n
    replies, so tail jitter hurts it disproportionately. *)
let j1 () =
  let models =
    [
      ("constant(10)", Latency.Constant 10);
      ("uniform(5,15)", Latency.Uniform (5, 15));
      ("bimodal(5/100)", Latency.Bimodal { fast = 5; slow = 100; p_slow = 0.1 });
    ]
  in
  let rows =
    List.map
      (fun (name, latency) ->
        let msc = run ~latency Store.Msc in
        let mlin = run ~latency Store.Mlin in
        [
          name;
          Table.i msc.Runner.update_latency.Stats.p95;
          Table.i mlin.Runner.query_latency.Stats.p50;
          Table.i mlin.Runner.query_latency.Stats.p95;
          Table.i mlin.Runner.query_latency.Stats.p99;
        ])
      models
  in
  {
    Table.id = "J1";
    title = "latency-model ablation: tail sensitivity of m-lin queries";
    header =
      [ "latency model"; "msc u p95"; "mlin q p50"; "mlin q p95"; "mlin q p99" ];
    rows;
    notes =
      [ "m-lin queries take the max of n samples: tails amplify with jitter" ];
  }

(** V1 — protocol verification summary: every trace checked against its
    consistency condition and the P 5.x timestamp properties. *)
let v1 ?(seeds = 8) () =
  let check kind flavour =
    let ok_adm = ref 0 and ok_ts = ref 0 in
    for seed = 0 to seeds - 1 do
      let res = run ~seed ~n_procs:3 ~ops:10 kind in
      let h = res.Runner.history in
      (match Admissible.check ~max_states:5_000_000 h flavour with
      | Admissible.Admissible _ -> incr ok_adm
      | _ -> ());
      let rel = History.base_relation h History.Msc in
      let violations =
        Version_vector.check_monotonic h res.Runner.stamps rel
        @ Version_vector.check_reads_from h res.Runner.stamps
      in
      if violations = [] then incr ok_ts
    done;
    (!ok_adm, !ok_ts)
  in
  let msc_adm, msc_ts = check Store.Msc History.Msc in
  let mlin_adm, mlin_ts = check Store.Mlin History.Mlin in
  let central_adm, central_ts = check Store.Central History.Mlin in
  {
    Table.id = "V1";
    title = "protocol correctness: admissibility and P5.x per trace";
    header = [ "store"; "condition"; "admissible"; "P5.x clean"; "of" ];
    rows =
      [
        [ "msc"; "m-SC"; Table.i msc_adm; Table.i msc_ts; Table.i seeds ];
        [ "mlin"; "m-lin"; Table.i mlin_adm; Table.i mlin_ts; Table.i seeds ];
        [
          "central"; "m-lin"; Table.i central_adm; Table.i central_ts; Table.i seeds;
        ];
      ];
    notes = [ "Theorems 15 and 20: every run must be admissible" ];
  }

(** W1 — strength vs cost: the consistency spectrum from causal
    propagation (Raynal et al., the weaker condition the paper
    contrasts with) through m-SC to m-linearizability. *)
let w1 ?(seeds = 6) () =
  let verdict_counts kind =
    let q_lat = ref 0.0 and u_lat = ref 0.0 and msgs = ref 0 in
    let causal_ok = ref 0 and msc_ok = ref 0 and mlin_ok = ref 0 in
    for seed = 0 to seeds - 1 do
      let res = run ~seed ~n_procs:3 ~ops:10 kind in
      let h = res.Runner.history in
      q_lat := !q_lat +. res.Runner.query_latency.Stats.mean;
      u_lat := !u_lat +. res.Runner.update_latency.Stats.mean;
      msgs := !msgs + res.Runner.messages;
      (match Check_causal.check ~max_states:3_000_000 h with
      | Check_causal.Causal _ -> incr causal_ok
      | _ -> ());
      (match Admissible.check ~max_states:3_000_000 h History.Msc with
      | Admissible.Admissible _ -> incr msc_ok
      | _ -> ());
      match Admissible.check ~max_states:3_000_000 h History.Mlin with
      | Admissible.Admissible _ -> incr mlin_ok
      | _ -> ()
    done;
    let d = float_of_int seeds in
    ( !q_lat /. d,
      !u_lat /. d,
      !msgs / seeds,
      !causal_ok,
      !msc_ok,
      !mlin_ok )
  in
  let rows =
    List.map
      (fun kind ->
        let q, u, m, c, s, l = verdict_counts kind in
        [
          Fmt.str "%a" Store.pp_kind kind;
          Table.f1 q;
          Table.f1 u;
          Table.i m;
          Fmt.str "%d/%d" c seeds;
          Fmt.str "%d/%d" s seeds;
          Fmt.str "%d/%d" l seeds;
        ])
      [ Store.Causal; Store.Msc; Store.Mlin; Store.Central; Store.Lock ]
  in
  {
    Table.id = "W1";
    title = "consistency spectrum: guarantees bought per message/latency";
    header =
      [ "store"; "q lat"; "u lat"; "msgs"; "causal"; "m-SC"; "m-lin" ];
    rows;
    notes =
      [
        "causal: free updates and queries, causal-only guarantees";
        "msc: free queries, broadcast updates, m-SC always; m-lin only when \
         lucky";
        "mlin/central: pay on queries too, m-linearizable always";
      ];
  }

(** L1 — locking vs broadcast under write contention: 2PL's lock-queue
    waiting grows with contending processes and with the touch-set
    width; the broadcast protocols' update latency stays flat (ordering
    is pipelined through the sequencer, not serialized per object). *)
let l1 ?(procs = [ 2; 4; 8 ]) () =
  let contended =
    { spec with read_ratio = 0.1; n_objects = 4; mop_len_lo = 2; mop_len_hi = 3 }
  in
  let rows =
    List.map
      (fun n ->
        let lock = run ~spec:contended ~n_procs:n Store.Lock in
        let msc = run ~spec:contended ~n_procs:n Store.Msc in
        [
          Table.i n;
          Table.i lock.Runner.update_latency.Stats.p50;
          Table.i lock.Runner.update_latency.Stats.p95;
          Table.f1 (per_op_messages lock);
          Table.i msc.Runner.update_latency.Stats.p50;
          Table.i msc.Runner.update_latency.Stats.p95;
          Table.f1 (per_op_messages msc);
        ])
      procs
  in
  {
    Table.id = "L1";
    title = "2PL vs broadcast under write contention (90% updates)";
    header =
      [
        "procs";
        "lock u p50";
        "lock u p95";
        "lock m/op";
        "msc u p50";
        "msc u p95";
        "msc m/op";
      ];
    rows;
    notes =
      [
        "lock latency tail grows with contention (queueing per object)";
        "broadcast update latency is contention-insensitive; messages grow \
         with n instead";
      ];
  }

(** A1 — the clock-assumption ablation the paper's motivation rests on:
    the Attiya–Welch-style clock-based algorithm is m-linearizable only
    while its message-delay bound holds; the paper's Figure 6 protocol
    makes no such assumption and is immune. *)
let a1 ?(seeds = 6) () =
  let regimes =
    [
      ("within bound", Latency.Uniform (5, 15));
      ("5% late x4", Latency.Bimodal { fast = 10; slow = 60; p_slow = 0.05 });
      ("20% late x4", Latency.Bimodal { fast = 10; slow = 60; p_slow = 0.2 });
    ]
  in
  let count kind latency =
    let ok = ref 0 in
    let lat = ref 0.0 in
    for seed = 0 to seeds - 1 do
      let cfg =
        {
          Runner.default_config with
          n_procs = 3;
          n_objects = spec.Mmc_workload.Spec.n_objects;
          ops_per_proc = 12;
          kind;
          latency;
        }
      in
      let res =
        Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)
      in
      lat := !lat +. res.Runner.update_latency.Stats.mean;
      match Admissible.check ~max_states:3_000_000 res.Runner.history History.Mlin with
      | Admissible.Admissible _ -> incr ok
      | _ -> ()
    done;
    (!ok, !lat /. float_of_int seeds)
  in
  let rows =
    List.map
      (fun (name, latency) ->
        let aw_ok, aw_lat = count Store.Aw latency in
        let mlin_ok, mlin_lat = count Store.Mlin latency in
        [
          name;
          Fmt.str "%d/%d" aw_ok seeds;
          Table.f1 aw_lat;
          Fmt.str "%d/%d" mlin_ok seeds;
          Table.f1 mlin_lat;
        ])
      regimes
  in
  {
    Table.id = "A1";
    title = "clock/delay assumptions: Attiya-Welch vs the Figure 6 protocol";
    header = [ "latency regime"; "aw m-lin"; "aw u lat"; "fig6 m-lin"; "fig6 u lat" ];
    rows;
    notes =
      [
        "aw assumes delay <= 15 (delta); late messages break linearizability";
        "the paper's protocol assumes nothing about clocks or delays";
      ];
  }

(** Z1 — contention skew: Zipf-distributed object selection makes a
    few objects hot.  Per-object queueing (2PL) collapses on the hot
    objects; the broadcast protocol is skew-insensitive. *)
let z1 ?(skews = [ 0.0; 0.9; 1.5 ]) () =
  let rows =
    List.map
      (fun skew ->
        let s =
          { spec with read_ratio = 0.2; n_objects = 8; skew; mop_len_hi = 3 }
        in
        let lock = run ~spec:s ~n_procs:6 Store.Lock in
        let msc = run ~spec:s ~n_procs:6 Store.Msc in
        [
          Table.f2 skew;
          Table.i lock.Runner.update_latency.Stats.p50;
          Table.i lock.Runner.update_latency.Stats.p95;
          Table.i msc.Runner.update_latency.Stats.p50;
          Table.i msc.Runner.update_latency.Stats.p95;
        ])
      skews
  in
  {
    Table.id = "Z1";
    title = "Zipf contention skew: 2PL hot-object queueing vs broadcast";
    header = [ "zipf s"; "lock u p50"; "lock u p95"; "msc u p50"; "msc u p95" ];
    rows;
    notes =
      [ "hotter objects lengthen 2PL queues; broadcast ordering is skew-blind" ];
  }
