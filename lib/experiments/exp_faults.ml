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
  match Runner.check_trace res ~flavour with
  | Check_constrained.Admissible _ -> true
  | _ -> false

let flavour_of = function
  | Store.Msc -> History.Msc
  | _ -> History.Mlin

(** One (store, plan) cell aggregated over seeds. *)
type cell = {
  ok : int;  (** admissible traces *)
  of_ : int;
  retrans : int;
  dropped : int;
  dups : int;
  abandoned : int;
  u_p50 : int;  (** worst update latency percentiles over the seeds *)
  u_p95 : int;
  u_p99 : int;
  dd_p95 : int;  (** worst first-delivery delay p95 *)
  recovery : int;  (** worst post-heal catch-up time *)
}

let measure ?procs ?ops ~seeds ~kind ~plan () =
  let acc =
    ref
      {
        ok = 0;
        of_ = seeds;
        retrans = 0;
        dropped = 0;
        dups = 0;
        abandoned = 0;
        u_p50 = 0;
        u_p95 = 0;
        u_p99 = 0;
        dd_p95 = 0;
        recovery = 0;
      }
  in
  for seed = 0 to seeds - 1 do
    let res = run_faulty ?procs ?ops ~seed ~kind ~plan () in
    let a = !acc in
    let a =
      if admissible res (flavour_of kind) then { a with ok = a.ok + 1 } else a
    in
    let a =
      {
        a with
        u_p50 = max a.u_p50 res.Runner.update_latency.Stats.p50;
        u_p95 = max a.u_p95 res.Runner.update_latency.Stats.p95;
        u_p99 = max a.u_p99 res.Runner.update_latency.Stats.p99;
      }
    in
    acc :=
      (match res.Runner.fault with
      | None -> a
      | Some f ->
        let c = Fault.counts f in
        {
          a with
          retrans = a.retrans + c.Fault.retransmissions;
          dropped = a.dropped + Fault.dropped f;
          dups = a.dups + c.Fault.duplicates;
          abandoned = a.abandoned + c.Fault.abandoned;
          dd_p95 = max a.dd_p95 (Fault.delivery_delay f).Stats.p95;
          recovery = max a.recovery (Fault.recovery_time f);
        })
  done;
  !acc

let adm c = Fmt.str "%d/%d" c.ok c.of_

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
            let c = measure ~procs ~ops ~seeds ~kind ~plan:(plan_of drop) () in
            [
              Fmt.str "%a" Store.pp_kind kind;
              Table.f2 drop;
              adm c;
              Table.i c.retrans;
              Table.i c.dropped;
              Table.i c.dups;
              Table.i c.abandoned;
              Table.i c.u_p50;
              Table.i c.u_p95;
              Table.i c.u_p99;
              Table.i c.dd_p95;
              Table.i c.recovery;
            ])
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
            let c = measure ~procs ~ops ~seeds ~kind ~plan:(plan_of len) () in
            [
              Fmt.str "%a" Store.pp_kind kind;
              Table.i len;
              adm c;
              Table.i c.retrans;
              Table.i c.dropped;
              Table.i c.u_p50;
              Table.i c.u_p95;
              Table.i c.u_p99;
              Table.i c.dd_p95;
              Table.i c.recovery;
            ])
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
