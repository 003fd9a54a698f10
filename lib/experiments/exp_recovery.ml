(** Crash-recovery experiment (R3): the recoverable store ([rmsc])
    under wipe-crash schedules x checkpoint intervals.

    Wipe crashes erase a replica's volatile state; the restart path is
    checkpoint load + WAL replay + anti-entropy catch-up, and — under
    the sequencer broadcast — epoch-fenced failover whenever the
    sequencer itself is wiped.  Every run must end with all replicas
    converged to identical state and with the history stitched across
    crash epochs Theorem-7 admissible for m-sequential consistency;
    the sweep shows how the checkpoint interval trades WAL replay
    length against checkpoint frequency, and what each crash schedule
    costs in catch-up traffic and failover machinery. *)

open Mmc_core
open Mmc_store
open Mmc_sim
open Mmc_recovery

let spec = { Mmc_workload.Spec.default with n_objects = 8 }

(** The runs of one cell, one per seed [0 .. seeds - 1], each with its
    {!Runner.judge}ment: the rmsc store under [plan], broadcast [impl]
    (default sequencer), WAL [policy] and [detector] tuning. *)
let runs ?(procs = 4) ?(ops = 12) ?(impl = Mmc_broadcast.Abcast.Sequencer_impl)
    ?(policy = Rlog.default_policy) ?detector ~seeds plan =
  List.init seeds (fun seed ->
      let cfg =
        {
          Runner.default_config with
          n_procs = procs;
          n_objects = spec.Mmc_workload.Spec.n_objects;
          ops_per_proc = ops;
          kind = Store.Rmsc;
          abcast_impl = impl;
          fault = plan;
          recovery = policy;
          detector;
        }
      in
      let res =
        Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)
      in
      (res, Runner.judge cfg res))

(* The cells every R3-R5 row starts with: admissible and converged runs
   of [js], out of all of them. *)
let verdict_cells (js : Runner.judgement list) =
  [
    Table.frac
      (fun (j : Runner.judgement) -> Check_constrained.admissible j.check)
      js;
    Table.frac (fun (j : Runner.judgement) -> j.converged) js;
  ]

(* One counter of the judged runs [js], totalled; [bcast] reads it off
   the broadcast's stats. *)
let total js f = Table.i (Table.sum f js)

let bcast js f =
  total js (fun (j : Runner.judgement) -> f (j.handle.broadcast_stats ()))

(* Catch-up entries plus snapshots a run's replicas shipped. *)
let pushed (h : Rstore.handle) = h.entries_pushed () + h.snapshots_pushed ()

(** The crash schedules swept: none (loss only), a wipe of the initial
    sequencer, and the sequencer plus a follower later in the run. *)
let schedules =
  let wipe node at back = { Fault.node; at; back; wipe = true } in
  [
    ("none", { Fault.none with Fault.drop = 0.1 });
    ( "seq",
      { Fault.none with Fault.drop = 0.1; crashes = [ wipe 0 150 600 ] } );
    ( "seq+flw",
      {
        Fault.none with
        Fault.drop = 0.1;
        crashes = [ wipe 0 150 600; wipe 2 900 1300 ];
      } );
  ]

(** R3 — crash schedule x checkpoint interval, both broadcasts. *)
let r3 ?(intervals = [ 4; 16; 64 ]) ?(seeds = 3) ?(procs = 4) ?(ops = 12)
    ?(schedule_names = [ "none"; "seq"; "seq+flw" ]) () =
  let schedules =
    List.filter (fun (n, _) -> List.mem n schedule_names) schedules
  in
  let rows =
    List.concat_map
      (fun impl ->
        List.concat_map
          (fun (sname, plan) ->
            List.map
              (fun checkpoint_every ->
                let policy = { Rlog.default_policy with checkpoint_every } in
                let js =
                  List.map snd (runs ~procs ~ops ~impl ~policy ~seeds plan)
                in
                let total = total js and bcast = bcast js in
                [
                  Fmt.str "%a" Mmc_broadcast.Abcast.pp_impl impl;
                  sname;
                  Table.i checkpoint_every;
                ]
                @ verdict_cells js
                @ [
                    total (fun j -> j.handle.recoveries ());
                    total (fun j -> j.wal.replayed);
                    total (fun j -> j.wal.checkpoints);
                    total (fun j -> j.handle.pulls ());
                    total (fun j -> pushed j.handle);
                    bcast (fun b -> b.Mmc_broadcast.Rbcast.epochs);
                    bcast (fun b -> b.holes);
                    bcast (fun b -> b.resubmits);
                  ])
              intervals)
          schedules)
      [ Mmc_broadcast.Abcast.Sequencer_impl; Mmc_broadcast.Abcast.Lamport_impl ]
  in
  {
    Table.id = "R3";
    title = "crash recovery: wipe schedule x checkpoint interval";
    header =
      [
        "abcast";
        "crashes";
        "ckpt";
        "admissible";
        "converged";
        "recov";
        "replayed";
        "ckpts";
        "pulls";
        "pushed";
        "epochs";
        "holes";
        "resub";
      ];
    rows;
    notes =
      [
        "admissible and converged must be full in every row: wipe crashes \
         are masked by checkpoint + WAL replay + catch-up (and epoch \
         failover under the sequencer)";
        "smaller checkpoint intervals -> more checkpoints, fewer WAL \
         entries replayed at restart; the product is the durability bill";
        "epochs/holes/resub are sequencer-only: the lamport broadcast has \
         no distinguished node to fail over";
      ];
  }

(** The storage-fault mixes swept: every plan wipes the initial
    sequencer (a tear needs a crash to tear), then layers torn
    writes, bit-rot and stale-checkpoint loss on top. *)
let storage_mixes =
  let base =
    {
      Fault.none with
      Fault.drop = 0.1;
      crashes = [ { Fault.node = 0; at = 150; back = 600; wipe = true } ];
    }
  in
  let tears = [ { Fault.node = 0; at = 150 } ] in
  let rots = [ { Fault.node = 1; at = 300 }; { Fault.node = 3; at = 500 } ] in
  (* the stale checkpoint strikes the wiped node while it is down, so
     its restart must actually take the fallback path *)
  let stales = [ { Fault.node = 0; at = 400 } ] in
  [
    ("none", base);
    ("tear", { base with Fault.tears });
    ("rot", { base with Fault.rots });
    ("tear+rot+stale", { base with Fault.tears; rots; stales });
  ]

(** The checkpoint intervals R5 sweeps. *)
let r5_intervals = [ 4; 16 ]

(** One R5 cell: the judgements of the runs of the storage-fault
    [plan] at checkpoint interval [checkpoint_every], one per seed
    [0 .. seeds - 1].  The table rows and the test gating R5's claims
    both read it from here. *)
let storage_cell ?(seeds = 3) ?procs ?ops ~plan checkpoint_every =
  (* retain tightened so segment retirement actually fires at this
     trace length (the truncated/reclaimed columns) *)
  let policy = { Rlog.default_policy with checkpoint_every; retain = 16 } in
  List.map snd (runs ?procs ?ops ~policy ~seeds plan)

(** R5 — storage-fault mix x checkpoint interval.  Convergence and
    admissibility must survive every mix: CRC framing detects the
    damage, the torn tail is refetched via catch-up, quarantined and
    rotted records are repaired from peers (scrub), and a corrupted
    checkpoint falls back to the previous slot.  The counters show
    where each fault's bill lands. *)
let r5 ?(intervals = r5_intervals) ?seeds ?procs ?ops
    ?(mix_names = [ "none"; "tear"; "rot"; "tear+rot+stale" ]) () =
  let mixes = List.filter (fun (n, _) -> List.mem n mix_names) storage_mixes in
  let rows =
    List.concat_map
      (fun (mname, plan) ->
        List.map
          (fun checkpoint_every ->
            let js = storage_cell ?seeds ?procs ?ops ~plan checkpoint_every in
            let total = total js in
            [ mname; Table.i checkpoint_every ]
            @ verdict_cells js
            @ [
                total (fun j -> j.wal.torn);
                total (fun j -> j.wal.corrupt);
                total (fun j -> j.wal.repaired);
                total (fun j -> j.wal.truncated);
                total (fun j -> pushed j.handle);
                total (fun j -> j.wal.scrubbed);
                total (fun j -> j.wal.ckpt_fallbacks);
              ])
          intervals)
      mixes
  in
  {
    Table.id = "R5";
    title = "storage faults: fault mix x checkpoint interval";
    header =
      [
        "faults";
        "ckpt";
        "admissible";
        "converged";
        "torn";
        "corrupt";
        "repaired";
        "truncated";
        "xfer";
        "scrubbed";
        "ckpt-fb";
      ];
    rows;
    notes =
      [
        "admissible and converged must be full in every row: CRC framing \
         detects every injected fault and the scrub/catch-up/peer-repair \
         machinery masks it (with crc off the same plans diverge)";
        "tears surface as torn sectors truncated off the tail and refetched \
         via catch-up; rot as corrupt records repaired from peers; a stale \
         checkpoint as a fallback to the previous slot plus a longer replay";
        "tighter checkpoints truncate the WAL sooner (fewer records left to \
         rot) but give bit-rot a bigger target in snapshots";
      ];
  }

(** R4 — suspicion timeout x loss rate under the in-band failure
    detector.  The plan wipes the initial sequencer mid-run, so every
    cell exercises suspicion-triggered failover; the loss rate stresses
    the heartbeat channel and (at aggressive timeouts) provokes false
    suspicions, whose cost shows up as extra epochs and resubmits —
    never as divergence or inadmissibility. *)
let r4 ?(timeouts = [ 60; 100; 200 ]) ?(drops = [ 0.0; 0.1; 0.2 ])
    ?(seeds = 3) ?(procs = 4) ?(ops = 12) () =
  let rows =
    List.concat_map
      (fun suspect_after ->
        List.map
          (fun drop ->
            let plan =
              {
                Fault.none with
                Fault.drop;
                crashes = [ { Fault.node = 0; at = 150; back = 600; wipe = true } ];
              }
            in
            let detector = { Detector.default_config with suspect_after } in
            let rs = runs ~procs ~ops ~detector ~seeds plan in
            let js = List.map snd rs in
            let total = total js and bcast = bcast js in
            let det f =
              total (fun j ->
                  Option.fold ~none:0 ~some:f
                    (j.Runner.handle.Rstore.detector_stats ()))
            in
            [ Table.i suspect_after; Fmt.str "%.2f" drop ]
            @ verdict_cells js
            @ [
                det (fun d -> d.Detector.suspicions);
                det (fun d -> d.false_suspicions);
                det (fun d -> d.refutations);
                bcast (fun b -> b.Mmc_broadcast.Rbcast.epochs);
                bcast (fun b -> b.resubmits);
                total (fun j -> j.handle.stability_acks ());
                Table.i
                  (Table.sum (fun ((r : Runner.result), _) -> r.duration) rs
                  / seeds);
              ])
          drops)
      timeouts
  in
  {
    Table.id = "R4";
    title = "failure detection: suspicion timeout x loss rate";
    header =
      [
        "suspect";
        "drop";
        "admissible";
        "converged";
        "susp";
        "false";
        "refuted";
        "epochs";
        "resub";
        "stab-acks";
        "time";
      ];
    rows;
    notes =
      [
        "admissible and converged must be full in every row: quorum-stable \
         delivery makes safety independent of detector tuning";
        "aggressive timeouts (below a few heartbeat round-trips) under loss \
         produce false suspicions -> extra epochs and resubmissions; the \
         refutation path (incarnation bump) repairs every one";
        "larger timeouts trade those spurious failovers for slower reaction \
         to the real sequencer wipe (the duration column)";
      ];
  }
