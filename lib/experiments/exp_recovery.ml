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

let run_recovery ?(procs = 4) ?(ops = 12) ~seed ~impl ~policy ~plan () =
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
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let admissible (res : Runner.result) =
  match Runner.check_trace res ~flavour:History.Msc with
  | Check_constrained.Admissible _ -> true
  | _ -> false

(** One (impl, schedule, interval) cell aggregated over seeds. *)
type cell = {
  ok : int;  (** admissible stitched histories *)
  conv : int;  (** runs where every replica converged *)
  of_ : int;
  recoveries : int;
  replayed : int;  (** WAL entries replayed across restarts *)
  checkpoints : int;
  pulls : int;  (** anti-entropy pull rounds *)
  pushed : int;  (** catch-up entries + snapshots shipped *)
  epochs : int;  (** sequencer view changes (0 under lamport) *)
  holes : int;
  resubmits : int;
}

let zero ~seeds =
  {
    ok = 0;
    conv = 0;
    of_ = seeds;
    recoveries = 0;
    replayed = 0;
    checkpoints = 0;
    pulls = 0;
    pushed = 0;
    epochs = 0;
    holes = 0;
    resubmits = 0;
  }

let measure ?procs ?ops ~seeds ~impl ~policy ~plan () =
  let acc = ref (zero ~seeds) in
  for seed = 0 to seeds - 1 do
    let res = run_recovery ?procs ?ops ~seed ~impl ~policy ~plan () in
    let a = !acc in
    let a = if admissible res then { a with ok = a.ok + 1 } else a in
    acc :=
      (match res.Runner.recovery with
      | None -> a
      | Some h ->
        let logs = h.Rstore.log_stats () in
        let sum f = Array.fold_left (fun t s -> t + f s) 0 logs in
        let b = h.Rstore.broadcast_stats () in
        {
          a with
          conv = (a.conv + if h.Rstore.converged () then 1 else 0);
          recoveries = a.recoveries + h.Rstore.recoveries ();
          replayed = a.replayed + sum (fun s -> s.Rlog.replayed);
          checkpoints = a.checkpoints + sum (fun s -> s.Rlog.checkpoints);
          pulls = a.pulls + h.Rstore.pulls ();
          pushed =
            a.pushed + h.Rstore.entries_pushed ()
            + h.Rstore.snapshots_pushed ();
          epochs = a.epochs + b.Mmc_broadcast.Rbcast.epochs;
          holes = a.holes + b.Mmc_broadcast.Rbcast.holes;
          resubmits = a.resubmits + b.Mmc_broadcast.Rbcast.resubmits;
        })
  done;
  !acc

let frac a b = Fmt.str "%d/%d" a b

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
                let c =
                  measure ~procs ~ops ~seeds ~impl ~policy ~plan ()
                in
                [
                  Fmt.str "%a" Mmc_broadcast.Abcast.pp_impl impl;
                  sname;
                  Table.i checkpoint_every;
                  frac c.ok c.of_;
                  frac c.conv c.of_;
                  Table.i c.recoveries;
                  Table.i c.replayed;
                  Table.i c.checkpoints;
                  Table.i c.pulls;
                  Table.i c.pushed;
                  Table.i c.epochs;
                  Table.i c.holes;
                  Table.i c.resubmits;
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

(** One (fault mix, interval) cell of R5 aggregated over seeds. *)
type scell = {
  s_ok : int;
  s_conv : int;
  s_of : int;
  torn : int;  (** sectors truncated off torn tails *)
  corrupt : int;  (** damaged records detected by CRC *)
  repaired : int;  (** records refilled in place or from peers *)
  truncated : int;  (** WAL records retired behind checkpoints *)
  transferred : int;  (** catch-up entries + snapshots shipped *)
  scrubbed : int;  (** record verifications by the scrub daemon *)
  fallbacks : int;  (** damaged checkpoints skipped at load *)
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

(** One R5 cell: the storage-fault [plan] at checkpoint interval
    [checkpoint_every], summed over seeds [0 .. seeds - 1].  The table
    rows and the test gating R5's claims both read it from here. *)
let storage_cell ?(seeds = 3) ?(procs = 4) ?(ops = 12) ~plan checkpoint_every =
  (* retain tightened so segment retirement actually fires at this
     trace length (the truncated/reclaimed columns) *)
  let policy = { Rlog.default_policy with checkpoint_every; retain = 16 } in
  let acc =
    ref
      {
        s_ok = 0;
        s_conv = 0;
        s_of = seeds;
        torn = 0;
        corrupt = 0;
        repaired = 0;
        truncated = 0;
        transferred = 0;
        scrubbed = 0;
        fallbacks = 0;
      }
  in
  for seed = 0 to seeds - 1 do
    let res =
      run_recovery ~procs ~ops ~seed ~policy ~plan
        ~impl:Mmc_broadcast.Abcast.Sequencer_impl ()
    in
    let a = !acc in
    let a = if admissible res then { a with s_ok = a.s_ok + 1 } else a in
    acc :=
      (match res.Runner.recovery with
      | None -> a
      | Some h ->
        let logs = h.Rstore.log_stats () in
        let sum f = Array.fold_left (fun t s -> t + f s) 0 logs in
        {
          a with
          s_conv = (a.s_conv + if h.Rstore.converged () then 1 else 0);
          torn = a.torn + sum (fun s -> s.Rlog.torn);
          corrupt = a.corrupt + sum (fun s -> s.Rlog.corrupt);
          repaired = a.repaired + sum (fun s -> s.Rlog.repaired);
          truncated = a.truncated + sum (fun s -> s.Rlog.truncated);
          transferred =
            a.transferred + h.Rstore.entries_pushed ()
            + h.Rstore.snapshots_pushed ();
          scrubbed = a.scrubbed + sum (fun s -> s.Rlog.scrubbed);
          fallbacks = a.fallbacks + sum (fun s -> s.Rlog.ckpt_fallbacks);
        })
  done;
  !acc

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
            let c = storage_cell ?seeds ?procs ?ops ~plan checkpoint_every in
            [
              mname;
              Table.i checkpoint_every;
              frac c.s_ok c.s_of;
              frac c.s_conv c.s_of;
              Table.i c.torn;
              Table.i c.corrupt;
              Table.i c.repaired;
              Table.i c.truncated;
              Table.i c.transferred;
              Table.i c.scrubbed;
              Table.i c.fallbacks;
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

(** One (suspect_after, drop) cell of R4 aggregated over seeds. *)
type dcell = {
  d_ok : int;
  d_conv : int;
  d_of : int;
  suspicions : int;
  false_susp : int;
  refuted : int;
  d_epochs : int;
  d_resubmits : int;
  stab_acks : int;
  d_duration : int;
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
            let detector =
              Some { Detector.default_config with suspect_after }
            in
            let acc =
              ref
                {
                  d_ok = 0;
                  d_conv = 0;
                  d_of = seeds;
                  suspicions = 0;
                  false_susp = 0;
                  refuted = 0;
                  d_epochs = 0;
                  d_resubmits = 0;
                  stab_acks = 0;
                  d_duration = 0;
                }
            in
            for seed = 0 to seeds - 1 do
              let cfg =
                {
                  Runner.default_config with
                  n_procs = procs;
                  n_objects = spec.Mmc_workload.Spec.n_objects;
                  ops_per_proc = ops;
                  kind = Store.Rmsc;
                  fault = plan;
                  detector;
                }
              in
              let res =
                Runner.run ~seed cfg
                  ~workload:(Mmc_workload.Generator.mixed spec)
              in
              let a = !acc in
              let a = if admissible res then { a with d_ok = a.d_ok + 1 } else a in
              acc :=
                (match res.Runner.recovery with
                | None -> a
                | Some h ->
                  let b = h.Rstore.broadcast_stats () in
                  let ds =
                    match h.Rstore.detector_stats () with
                    | Some s -> s
                    | None ->
                      {
                        Detector.beats_sent = 0;
                        beats_delivered = 0;
                        suspicions = 0;
                        false_suspicions = 0;
                        refutations = 0;
                        doubts = 0;
                      }
                  in
                  {
                    a with
                    d_conv = (a.d_conv + if h.Rstore.converged () then 1 else 0);
                    suspicions = a.suspicions + ds.Detector.suspicions;
                    false_susp = a.false_susp + ds.Detector.false_suspicions;
                    refuted = a.refuted + ds.Detector.refutations;
                    d_epochs = a.d_epochs + b.Mmc_broadcast.Rbcast.epochs;
                    d_resubmits = a.d_resubmits + b.Mmc_broadcast.Rbcast.resubmits;
                    stab_acks = a.stab_acks + h.Rstore.stability_acks ();
                    d_duration = a.d_duration + res.Runner.duration;
                  })
            done;
            let c = !acc in
            [
              Table.i suspect_after;
              Fmt.str "%.2f" drop;
              frac c.d_ok c.d_of;
              frac c.d_conv c.d_of;
              Table.i c.suspicions;
              Table.i c.false_susp;
              Table.i c.refuted;
              Table.i c.d_epochs;
              Table.i c.d_resubmits;
              Table.i c.stab_acks;
              Table.i (c.d_duration / seeds);
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
