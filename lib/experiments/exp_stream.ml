(** Streaming verification experiment (M1): arrival rate x window.

    Runs the open-loop soak harness ({!Mmc_stream.Soak}) over the msc
    store, sweeping the mean inter-arrival time (smaller = heavier
    offered load) against the windowed checker's epoch window, and
    reports the two claims the subsystem makes:

    - {e flat memory}: max resident checker words must be a function
      of the window, not of the trace length — the resident-words
      column must not grow with ops, and recycled words (the check
      tables the arena handed back) must dwarf it;
    - {e open-loop latency}: p50/p99/p999 include queueing delay, so
      overload shows up as latency and queue growth while throughput
      saturates — the checker's verdict must stay PASS throughout
      (verification never throttles the store). *)

open Mmc_store
open Mmc_stream

let spec =
  {
    Mmc_workload.Spec.default with
    n_objects = 16;
    read_ratio = 0.5;
    skew = 0.8;
  }

let run_soak ~seed ~procs ~ops ~rate ~window () =
  let cfg =
    {
      Soak.default_config with
      runner =
        {
          Runner.default_config with
          kind = Store.Msc;
          n_procs = procs;
          n_objects = spec.Mmc_workload.Spec.n_objects;
        };
      rate;
      max_ops = ops;
      window;
    }
  in
  Soak.run ~seed ~workload:(Mmc_workload.Generator.mixed spec) cfg

let verdict_word = function
  | Window_check.Pass -> "PASS"
  | Window_check.Fail _ -> "FAIL"
  | Window_check.Inconclusive _ -> "inconcl"

(** M1 — arrival rate x checker window over the msc store. *)
let m1 ?(rates = [ 12; 6; 2 ]) ?(windows = [ 128; 512; 2048 ]) ?(procs = 8)
    ?(ops = 50_000) ?(seed = 11) () =
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun window ->
            let r = run_soak ~seed ~procs ~ops ~rate ~window () in
            let thr =
              1000.0 *. float_of_int r.Soak.completed
              /. float_of_int (max 1 r.Soak.duration)
            in
            let q = r.Soak.latency in
            let m = r.Soak.wc in
            [
              Table.i rate;
              Table.i window;
              Table.i r.Soak.completed;
              Table.f1 thr;
              Table.f1 q.Mmc_sim.Stats.q50;
              Table.f1 q.Mmc_sim.Stats.q99;
              Table.f1 q.Mmc_sim.Stats.q999;
              Table.i r.Soak.max_queue;
              Table.i m.Window_check.max_live;
              Table.i m.Window_check.retired;
              Table.i m.Window_check.max_resident_words;
              Table.i (m.Window_check.recycled_words / 1000);
              verdict_word r.Soak.verdict;
            ])
          windows)
      rates
  in
  {
    Table.id = "M1";
    title = "streaming verification: mean inter-arrival x window (msc)";
    header =
      [
        "iat";
        "window";
        "ops";
        "thr/kt";
        "p50";
        "p99";
        "p999";
        "maxq";
        "live";
        "retired";
        "res w";
        "recyc kw";
        "verdict";
      ];
    rows;
    notes =
      [
        "res w (max resident checker words) must track the window column, \
         not the ops column — that is the flat-memory claim; recycled kw \
         is the check-table storage the arena handed back across epochs";
        "latency is arrival-to-response (open loop): as the inter-arrival \
         time shrinks toward service capacity, queueing appears — maxq and \
         the tail (p999) grow while p50 stays near service latency — and \
         the verdict must stay PASS regardless";
        "retired < ops by at most the last window: only the final epoch's \
         live entries are never retired";
      ];
  }
