(** Fault-tolerance experiments (R1, R2): the Section 5 protocols over
    lossy transports.

    The protocols assume reliable reordering channels; here the wire
    below them drops messages, spikes, partitions and crashes, and the
    {!Mmc_sim.Reliable} ack/retransmit layer rebuilds the assumption.
    Every surviving history is re-verified with the Theorem-7
    polynomial checker (the trace carries its atomic-broadcast order,
    so admissibility is decidable in polynomial time) — the checker
    doubles as a fault-tolerance oracle: if reliability were rebuilt
    incorrectly, delivered orders would diverge and admissibility would
    fail. *)

open Mmc_core
open Mmc_store
open Mmc_sim

let spec = { Mmc_workload.Spec.default with n_objects = 8 }

let run_faulty ?(procs = 4) ?(ops = 12) ~seed ~kind ~plan () =
  let cfg =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = spec.Mmc_workload.Spec.n_objects;
      ops_per_proc = ops;
      kind;
      fault = plan;
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

(** Theorem-7 admissibility of a protocol trace: base relation of the
    store's condition plus the recorded atomic-broadcast order, checked
    under the WW constraint (the broadcast totally orders updates), by
    the chain-decomposed check ({!Runner.check_trace}). *)
let admissible (res : Runner.result) flavour =
  Check_constrained.admissible (Runner.check_trace res ~flavour)

(** The runs of one (store, plan) cell, one per seed [0 .. seeds - 1]. *)
let runs ?procs ?ops ~seeds ~kind ~plan () =
  List.init seeds (fun seed -> run_faulty ?procs ?ops ~seed ~kind ~plan ())

(* One reading of a run's fault injector (0 when it has none), and one
   of its counters. *)
let injected f (res : Runner.result) = Option.fold ~none:0 ~some:f res.fault
let counted f = injected (fun fl -> f (Fault.counts fl))

(* The cells of a row over its runs [rs]: admissible runs, a counter
   totalled, a reading at its worst. *)
let adm kind rs = Table.frac (fun r -> admissible r (Store.flavour kind)) rs
let total rs f = Table.i (Table.sum f rs)
let worst rs f = Table.i (Table.worst f rs)

(* The columns R1 and R2 end on: the worst update-latency percentiles,
   first-delivery delay p95 and post-heal catch-up time. *)
let latency_cells rs =
  let worst = worst rs in
  [
    worst (fun (r : Runner.result) -> r.update_latency.Stats.p50);
    worst (fun (r : Runner.result) -> r.update_latency.Stats.p95);
    worst (fun (r : Runner.result) -> r.update_latency.Stats.p99);
    worst (injected (fun f -> (Fault.delivery_delay f).Stats.p95));
    worst (injected Fault.recovery_time);
  ]

(** R1 — drop-rate sweep under a fixed partition window: loss up to 30%
    plus a 250-unit partition isolating node 0 (the sequencer — the
    harshest cut).  Both broadcast protocols must stay admissible;
    retransmissions and delivery-delay inflation are the price. *)
let f1 ?(drops = [ 0.0; 0.1; 0.2; 0.3 ]) ?(seeds = 3) ?(procs = 4) ?(ops = 12)
    () =
  let plan_of drop =
    {
      Fault.none with
      Fault.drop;
      spike_prob = 0.05;
      spike_delay = 40;
      partitions = [ { Fault.from_ = 150; until = 400; island = [ 0 ] } ];
    }
  in
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun drop ->
            let rs = runs ~procs ~ops ~seeds ~kind ~plan:(plan_of drop) () in
            let total = total rs in
            [
              Fmt.str "%a" Store.pp_kind kind;
              Table.f2 drop;
              adm kind rs;
              total (counted (fun c -> c.Fault.retransmissions));
              total (injected Fault.dropped);
              total (counted (fun c -> c.Fault.duplicates));
              total (counted (fun c -> c.Fault.abandoned));
            ]
            @ latency_cells rs)
          drops)
      [ Store.Msc; Store.Mlin ]
  in
  {
    Table.id = "R1";
    title = "fault sweep: drop rate x 250-unit sequencer partition";
    header =
      [
        "store";
        "drop";
        "admissible";
        "retrans";
        "dropped";
        "dups";
        "given up";
        "u p50";
        "u p95";
        "u p99";
        "dlv p95";
        "recovery";
      ];
    rows;
    notes =
      [
        "admissible must be full even at drop 0.3: reliability is rebuilt \
         below the protocols (Theorem-7 checker as oracle)";
        "retransmissions and delivery-delay p95 grow with the drop rate; \
         'given up' must stay 0 (the retry budget outlasts the faults)";
        "recovery: time the ack/retransmit layer needed to drain the \
         backlog once the partition healed";
      ];
  }

(** R2 — outage-length sweep at fixed 10% loss: a partition isolating
    node 0 and a crash of the last node, both [len] units long.
    Recovery time tracks the outage length; admissibility never
    budges. *)
let f2 ?(lengths = [ 0; 100; 250; 500 ]) ?(seeds = 3) ?(procs = 4) ?(ops = 12)
    () =
  let plan_of len =
    if len = 0 then { Fault.none with Fault.drop = 0.1 }
    else
      {
        Fault.none with
        Fault.drop = 0.1;
        partitions = [ { Fault.from_ = 100; until = 100 + len; island = [ 0 ] } ];
        crashes = [ { Fault.node = procs - 1; at = 60; back = 60 + len; wipe = false } ];
      }
  in
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun len ->
            let rs = runs ~procs ~ops ~seeds ~kind ~plan:(plan_of len) () in
            let total = total rs in
            [
              Fmt.str "%a" Store.pp_kind kind;
              Table.i len;
              adm kind rs;
              total (counted (fun c -> c.Fault.retransmissions));
              total (injected Fault.dropped);
            ]
            @ latency_cells rs)
          lengths)
      [ Store.Msc; Store.Mlin ]
  in
  {
    Table.id = "R2";
    title = "outage-length sweep at 10% loss: partition + crash windows";
    header =
      [
        "store";
        "outage";
        "admissible";
        "retrans";
        "dropped";
        "u p50";
        "u p95";
        "u p99";
        "dlv p95";
        "recovery";
      ];
    rows;
    notes =
      [
        "outage = length of both the node-0 partition and the last node's \
         crash window; messages queued during the outage arrive by \
         retransmission after it";
        "delivery-delay p95 and recovery scale with the outage; \
         admissibility is unaffected";
      ];
  }
