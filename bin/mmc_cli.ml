(* mmc: command-line front end.

   Subcommands:
     simulate     run a protocol simulation, report stats, optionally
                  check the trace and save it
     soak         open-loop soak under the windowed streaming checker
     faults       run a protocol over a faulty transport, check the trace
     recover      run the recoverable store under wipe-crashes
     chaos        fuzz the recoverable store with random fault plans
     shard        run a sharded store, check the stitched history
     check        check a saved history against a consistency condition
     generate     emit a random history in the text format
     experiments  print experiment tables (see EXPERIMENTS.md)
     figures      print the paper's worked figures and their verdicts
     stats, show, dot  measure or render a saved history

   The six run-style subcommands (simulate to shard) share one run
   configuration: each of their flags is declared once, as a setting of
   [Runner.config] (see "the run configuration" below). *)

open Cmdliner
open Mmc_core
module Runner = Mmc_store.Runner
module Store = Mmc_store.Store

(* --- shared argument converters --- *)

(* With [~synced:true], only the stores whose records carry
   synchronization positions ([Store.records_sync]): the others'
   traces violate Theorem 7's WW constraint by construction. *)
let store_kind_conv ~synced =
  let names =
    if synced then "msc|rmsc|seg|mlin|central"
    else "msc|rmsc|seg|mlin|central|local|causal|lock|aw"
  in
  let parse s =
    match Store.kind_of_string s with
    | Some k when synced && not (Store.records_sync k) ->
      Error
        (`Msg
          (Fmt.str
             "store %S records no synchronization positions for Theorem 7 \
              to order its updates by (%s)"
             s names))
    | Some k -> Ok k
    | None -> Error (`Msg (Fmt.str "unknown store %S (%s)" s names))
  in
  Arg.conv (parse, Store.pp_kind)

let fastpath_conv =
  let parse s =
    match Mmc_fastpath.Classify.mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Fmt.str "unknown fastpath mode %S (sound|off|wrong)" s))
  in
  Arg.conv (parse, Mmc_fastpath.Classify.pp_mode)

let abcast_conv =
  let parse = function
    | "sequencer" -> Ok Mmc_broadcast.Abcast.Sequencer_impl
    | "lamport" -> Ok Mmc_broadcast.Abcast.Lamport_impl
    | s -> Error (`Msg (Fmt.str "unknown abcast %S (sequencer|lamport)" s))
  in
  Arg.conv (parse, Mmc_broadcast.Abcast.pp_impl)

let flavour_conv =
  let parse = function
    | "msc" -> Ok History.Msc
    | "mnorm" -> Ok History.Mnorm
    | "mlin" -> Ok History.Mlin
    | s -> Error (`Msg (Fmt.str "unknown condition %S (msc|mnorm|mlin)" s))
  in
  Arg.conv (parse, History.pp_flavour)

let latency_conv =
  let usage =
    "latency model: constant:D | uniform:LO:HI | exp:MEAN | \
     bimodal:FAST:SLOW:P, with delays >= 0, LO <= HI, MEAN >= 1 and P in \
     [0, 1]"
  in
  let parse s =
    match String.split_on_char ':' s with
    | [ "constant"; d ] -> Mmc_sim.Latency.Constant (int_of_string d)
    | [ "uniform"; lo; hi ] ->
      Mmc_sim.Latency.Uniform (int_of_string lo, int_of_string hi)
    | [ "exp"; m ] -> Mmc_sim.Latency.Exponential (int_of_string m)
    | [ "bimodal"; fast; slow; p ] ->
      Mmc_sim.Latency.Bimodal
        {
          fast = int_of_string fast;
          slow = int_of_string slow;
          p_slow = float_of_string p;
        }
    | _ -> failwith usage
  in
  (* A model the simulator cannot sample is a usage error (exit 124),
     not a crash at the first message. *)
  let parse s =
    match parse s with
    | Mmc_sim.Latency.Constant d when d >= 0 -> Ok (Mmc_sim.Latency.Constant d)
    | Uniform (lo, hi) when 0 <= lo && lo <= hi -> Ok (Uniform (lo, hi))
    | Exponential m when m >= 1 -> Ok (Exponential m)
    | Bimodal { fast; slow; p_slow } as b
      when fast >= 0 && slow >= 0 && p_slow >= 0. && p_slow <= 1. ->
      Ok b
    | _ | (exception Failure _) -> Error (`Msg usage)
  in
  (* Prints what [parse] reads back (the chaos replay lines use it). *)
  let pp ppf = function
    | Mmc_sim.Latency.Constant d -> Fmt.pf ppf "constant:%d" d
    | Uniform (lo, hi) -> Fmt.pf ppf "uniform:%d:%d" lo hi
    | Exponential m -> Fmt.pf ppf "exp:%d" m
    | Bimodal { fast; slow; p_slow } ->
      Fmt.pf ppf "bimodal:%d:%d:%.17g" fast slow p_slow
  in
  Arg.conv (parse, pp)

(* The --plan grammar lives in [Fault.of_spec]; [Fault.to_spec]
   prints a plan back in it (the chaos replay lines use it). *)
let fault_plan_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Mmc_sim.Fault.of_spec s) in
  Arg.conv (parse, Fmt.of_to_string Mmc_sim.Fault.to_spec)

let delivery_conv =
  let parse s =
    match Mmc_store.Rstore.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error (`Msg (Fmt.str "unknown delivery mode %S (stable|optimistic)" s))
  in
  Arg.conv (parse, Mmc_store.Rstore.pp_mode)

let scrub_conv =
  let parse = function
    | "off" -> Ok 0
    | s -> (
      match int_of_string_opt s with
      | Some i when i > 0 -> Ok i
      | _ -> Error (`Msg (Fmt.str "expected a positive interval or 'off', got %S" s)))
  in
  let pp ppf = function 0 -> Fmt.string ppf "off" | i -> Fmt.int ppf i in
  Arg.conv (parse, pp)

let crc_conv =
  let parse = function
    | "on" -> Ok true
    | "off" -> Ok false
    | s -> Error (`Msg (Fmt.str "expected 'on' or 'off', got %S" s))
  in
  let pp ppf b = Fmt.string ppf (if b then "on" else "off") in
  Arg.conv (parse, pp)

(* Every count flag takes a [count]: an integer below [least] (1 by
   default) is a usage error (exit 124) before anything runs. *)
let count_from least =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < least ->
      Error (`Msg (Fmt.str "expected a count >= %d, got %d" least n))
    | r -> r
  in
  Arg.conv (parse, Fmt.int)

let count = count_from 1

(* --- flags that are not part of the run configuration --- *)

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let procs_arg ?(doc = "Number of processes.") default =
  Arg.(value & opt count default & info [ "procs" ] ~docv:"N" ~doc)

let objects_arg ?(doc = "Number of shared objects.") default =
  Arg.(value & opt count default & info [ "objects" ] ~docv:"N" ~doc)

let ops_arg ?(conv = count) ?(doc = "m-operations per process.") default =
  Arg.value (Arg.opt conv default (Arg.info [ "ops" ] ~docv:"N" ~doc))

let read_ratio =
  Arg.(value & opt float 0.5 & info [ "read-ratio" ] ~docv:"R" ~doc:"Query fraction.")

let save ?(doc = "Save the history in the text format.") () =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let shards ~default ~docv ~doc =
  Arg.(value & opt count default & info [ "shards" ] ~docv ~doc)

let window ~doc =
  Arg.(
    value
    & opt count Mmc_stream.Window_check.default_window
    & info [ "window" ] ~docv:"W" ~doc)

let settle ~doc =
  Arg.(
    value
    & opt (count_from 0) Mmc_stream.Window_check.default_settle
    & info [ "settle" ] ~docv:"S" ~doc)

let json ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* --- the run configuration --- *)

(* Each flag that shapes a run is one [setting]: a term that sets one
   part of a [Runner.config].  A subcommand stacks the settings it
   takes onto [base] with [+>]; [config] applies the stack to
   [Runner.default_config] and validates the record once. *)
type setting = (Runner.config -> Runner.config) Term.t

let ( +> ) (a : setting) (b : setting) : setting =
  Term.(const (fun f g c -> g (f c)) $ a $ b)

let set f arg : setting = Term.(const f $ arg)

(* One flag, [--name], that sets one field of the record. *)
let field name ~docv ~doc conv default f =
  set f (Arg.value (Arg.opt conv default (Arg.info [ name ] ~docv ~doc)))

let procs ?doc () = set (fun n_procs c -> { c with Runner.n_procs }) (procs_arg ?doc 4)

let objects default =
  set (fun n_objects c -> { c with Runner.n_objects }) (objects_arg default)

let ops default =
  set (fun ops_per_proc c -> { c with Runner.ops_per_proc }) (ops_arg default)

let abcast ?(doc = "Atomic broadcast: sequencer or lamport.") () =
  field "abcast" ~docv:"IMPL" ~doc abcast_conv
    Mmc_broadcast.Abcast.Sequencer_impl (fun abcast_impl c ->
      { c with Runner.abcast_impl })

let latency =
  field "latency" ~docv:"MODEL" ~doc:"Latency model." latency_conv
    (Mmc_sim.Latency.Uniform (5, 15)) (fun latency c -> { c with Runner.latency })

(* --batch / --flush-every / --fanout: broadcast-layer batching and
   tree dissemination, shared by every command that runs a store. *)
let batch =
  let size =
    Arg.(
      value & opt count 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Sequencer-side batching: one ordered wire message carries up to \
             $(docv) stamped updates (default 1 = unbatched).  Batching \
             changes only the wire framing, never the delivered order.")
  in
  let flush_every =
    Arg.(
      value & opt int 0
      & info [ "flush-every" ] ~docv:"D"
          ~doc:
            "Flush a partial batch $(docv) time units after its first entry \
             (default 0 = at the end of the current simulation instant).")
  in
  let fanout =
    Arg.(
      value & opt int 0
      & info [ "fanout" ] ~docv:"F"
          ~doc:
            "Disseminate ordered messages along a complete $(docv)-ary tree \
             rooted at the stamping node instead of a flat fan-out (default \
             0 = flat); for the lamport broadcast this also replaces the \
             all-to-all acknowledgements with a convergecast.")
  in
  (* [Batch.make] checks the three together; its [Invalid_argument]
     becomes a usage error in [config]. *)
  let make size flush_every fanout c =
    {
      c with
      Runner.batch = Mmc_broadcast.Batch.make ~size ~flush_every ~fanout ();
    }
  in
  Term.(const make $ size $ flush_every $ fanout)

(* The flags all six run-style subcommands take. *)
let base ?procs_doc ?abcast_doc objects_default =
  procs ?doc:procs_doc () +> objects objects_default
  +> abcast ?doc:abcast_doc () +> latency +> batch

let store
    ?(doc = "Store protocol: msc, rmsc, seg, mlin, central, local, causal, lock or aw.")
    ?(synced = false) () =
  field "store" ~docv:"STORE" ~doc (store_kind_conv ~synced) Store.Msc
    (fun kind c -> { c with Runner.kind })

(* recover and chaos always run the recoverable store. *)
let rmsc : setting = Term.const (fun c -> { c with Runner.kind = Store.Rmsc })

(* --fastpath: the seg store's classifier mode, shared by every
   command that can run one. *)
let fastpath =
  field "fastpath" ~docv:"MODE"
    ~doc:
      "The seg store's commutativity classifier: $(b,sound) (default; \
       ownership rule), $(b,off) (everything sequenced — the \
       broadcast-always A/B baseline) or $(b,wrong) (deliberately unsound, \
       to demonstrate the Theorem-7 oracle catching it)."
    fastpath_conv Mmc_fastpath.Classify.Sound (fun fastpath c ->
      { c with Runner.fastpath })

let plan ~default ~doc =
  field "plan" ~docv:"PLAN"
    ~doc:
      ("Fault plan, comma-separated fields: drop=P (message loss), \
        spike=P:DELAY (latency spikes), part=FROM:UNTIL:N1+N2+.. (a \
        partition), crash=NODE:AT:BACK (a crash keeping its state), \
        wipe=NODE:AT:BACK (a crash losing its volatile state), tear=NODE:AT \
        (a write torn at a crash instant), rot=NODE:AT (bit-rot in a stored \
        record) and stale=NODE:AT (a corrupted newest checkpoint); every \
        field but drop and spike repeats.  " ^ doc)
    fault_plan_conv default (fun fault c -> { c with Runner.fault })

(* A flag that, once given, overrides one field of an optional part of
   the record: [get c] stays [None] (the library's default [d]) until
   the first override, and each flag left off keeps [d]'s value. *)
let override ~get ~put d name ~docv ~doc f =
  field name ~docv ~doc Arg.(some int) None (fun v c ->
      match v with
      | None -> c
      | Some v -> put c (Some (f (Option.value (get c) ~default:d) v)))

(* Retry-budget overrides of the reliable channel layer. *)
let reliable ~cmd =
  let d = Mmc_sim.Reliable.default_config in
  let knob =
    override ~get:(fun c -> c.Runner.reliable)
      ~put:(fun c reliable -> { c with Runner.reliable }) d
  in
  knob "rto" ~docv:"T"
    ~doc:
      (Fmt.str
         "Initial retransmission timeout of the reliable channel layer used \
          by $(b,%s) (default %d virtual-time units)."
         cmd d.Mmc_sim.Reliable.rto)
    (fun r rto -> { r with Mmc_sim.Reliable.rto })
  +> knob "max-rto" ~docv:"T"
       ~doc:(Fmt.str "Retransmission backoff cap (default %d)." d.max_rto)
       (fun r max_rto -> { r with max_rto })
  +> knob "max-retries" ~docv:"N"
       ~doc:
         (Fmt.str
            "Retransmissions per message before the channel gives up; \
             abandoned messages are reported in the fault counters (default \
             %d)."
            d.max_retries)
       (fun r max_retries -> { r with max_retries })

(* Failure-detector tuning for the rmsc broadcast; [config] validates
   the result. *)
let detector =
  let d = Mmc_sim.Detector.default_config in
  let knob =
    override ~docv:"T" ~get:(fun c -> c.Runner.detector)
      ~put:(fun c detector -> { c with Runner.detector }) d
  in
  knob "heartbeat-every"
    ~doc:
      (Fmt.str
         "Failure-detector heartbeat period of the rmsc broadcast (default \
          %d virtual-time units)."
         d.Mmc_sim.Detector.heartbeat_every)
    (fun dc heartbeat_every -> { dc with Mmc_sim.Detector.heartbeat_every })
  +> knob "suspect-after"
       ~doc:
         (Fmt.str
            "Suspect a peer after this long without heartbeat evidence \
             (default %d).  Too close to the latency bound and false \
             suspicions become routine; the protocol stays safe either way."
            d.suspect_after)
       (fun dc suspect_after -> { dc with suspect_after })

let delivery =
  field "delivery" ~docv:"MODE"
    ~doc:
      "Delivery rule of the rmsc store: $(b,stable) applies an update only \
       once a majority quorum acknowledged its stamp (the default); \
       $(b,optimistic) applies on first delivery and can expose the \
       epoch-change divergence anomaly."
    delivery_conv Mmc_store.Rstore.Stable (fun delivery c ->
      { c with Runner.delivery })

(* Storage-integrity knobs of the rmsc store's durable layer, each
   setting one field of the WAL policy. *)
let policy name ~docv ~doc conv default f =
  field name ~docv ~doc conv default (fun v c ->
      { c with Runner.recovery = f c.Runner.recovery v })

let dpolicy = Mmc_recovery.Rlog.default_policy

let checkpoint_every =
  policy "checkpoint-every" ~docv:"N"
    ~doc:"Take a replica snapshot every $(docv) applied positions." count
    dpolicy.checkpoint_every (fun p checkpoint_every ->
      { p with Mmc_recovery.Rlog.checkpoint_every })

let scrub =
  policy "scrub" ~docv:"T"
    ~doc:
      (Fmt.str
         "Background CRC scrub pass period in virtual time, or $(b,off) to \
          disable scrubbing (default %d).  Scrubbing finds bit-rot before the \
          data is needed and repairs it from peers."
         dpolicy.scrub_every)
    scrub_conv dpolicy.scrub_every (fun p scrub_every ->
      { p with Mmc_recovery.Rlog.scrub_every })

let crc =
  policy "crc" ~docv:"on|off"
    ~doc:
      "Storage integrity checking: $(b,on) (default) detects, quarantines \
       and repairs damaged frames; $(b,off) trusts the medium, so injected \
       corruption silently becomes holes — expect the oracles to catch the \
       resulting divergence."
    crc_conv true (fun p crc -> { p with Mmc_recovery.Rlog.crc })

(* The subcommand's settings applied to [Runner.default_config], then
   the checks no single flag can make: the plan's node ids against
   --procs, the batch and detector settings.  Any failure is a usage
   error (exit 124). *)
let config (settings : setting) : Runner.config Term.t =
  let build set =
    match
      let cfg = set Runner.default_config in
      Mmc_sim.Fault.validate ~n:cfg.Runner.n_procs cfg.Runner.fault;
      Option.iter Mmc_sim.Detector.validate_config cfg.Runner.detector;
      cfg
    with
    | cfg -> `Ok cfg
    | exception Invalid_argument msg -> `Error (true, msg)
  in
  Term.(ret (const build $ settings))

(* --- shared jobs of the run-style subcommands --- *)

let mixed ?(read_ratio = Mmc_workload.Spec.default.read_ratio)
    (cfg : Runner.config) =
  Mmc_workload.Generator.mixed
    { Mmc_workload.Spec.default with n_objects = cfg.n_objects; read_ratio }

(* --save: write a history in the text format and say where. *)
let save_history ?(what = "history saved") save h =
  Option.iter
    (fun path ->
      Codec.to_file (Lazy.force h) path;
      Fmt.pr "%-15s %s@." what path)
    save

(* The Theorem-7 check line of faults and recover; [true] on PASS. *)
let check_line label = function
  | Check_constrained.Admissible _ ->
    Fmt.pr "check           %s (Theorem 7, WW): PASS@." label;
    true
  | r ->
    Fmt.pr "check           %s (Theorem 7, WW): FAIL (%a)@." label
      Check_constrained.pp_result r;
    false

let pp_detector_stats ppf (s : Mmc_sim.Detector.stats) =
  Fmt.pf ppf
    "%d beats (%d delivered), %d suspicions (%d false), %d refuted, %d doubts"
    s.Mmc_sim.Detector.beats_sent s.Mmc_sim.Detector.beats_delivered
    s.Mmc_sim.Detector.suspicions s.Mmc_sim.Detector.false_suspicions
    s.Mmc_sim.Detector.refutations s.Mmc_sim.Detector.doubts

(* One run of the recoverable store (recover, chaos) and its judgement.
   Raises what the run raises: unchecked corruption reaching replay can
   make the recorder see two writers of one version, and the callers
   report that as divergence. *)
let run_judged ~seed (cfg : Runner.config) =
  let res = Runner.run ~seed cfg ~workload:(mixed cfg) in
  (res, Runner.judge cfg res)

(* --- simulate --- *)

let simulate (cfg : Runner.config) seed read_ratio check save =
  let res = Runner.run ~seed cfg ~workload:(mixed ~read_ratio cfg) in
  Fmt.pr "store           %a@." Store.pp_kind cfg.kind;
  Fmt.pr "processes       %d@." cfg.n_procs;
  Fmt.pr "completed ops   %d@." res.completed;
  Fmt.pr "virtual time    %d@." res.duration;
  Fmt.pr "messages        %d@." res.messages;
  Fmt.pr "engine events   %d@." res.events;
  Fmt.pr "query latency   %a@." Mmc_sim.Stats.pp_summary res.query_latency;
  Fmt.pr "update latency  %a@." Mmc_sim.Stats.pp_summary res.update_latency;
  let h = res.history in
  save_history save (lazy h);
  if check then begin
    match cfg.kind with
    | Store.Causal -> (
      match Check_causal.check ~max_states:10_000_000 h with
      | Check_causal.Causal _ -> Fmt.pr "check           causal: PASS@."
      | Check_causal.Not_causal p -> Fmt.pr "check           causal: FAIL (P%d)@." p
      | Check_causal.Aborted -> Fmt.pr "check           causal: budget exhausted@.")
    | kind -> (
      let flavour = Store.flavour kind in
      match Admissible.check ~max_states:10_000_000 h flavour with
      | Admissible.Admissible _ ->
        Fmt.pr "check           %a: PASS@." History.pp_flavour flavour
      | Admissible.Not_admissible ->
        Fmt.pr "check           %a: FAIL@." History.pp_flavour flavour
      | Admissible.Aborted ->
        Fmt.pr "check           %a: budget exhausted@." History.pp_flavour
          flavour)
  end;
  0

let simulate_cmd =
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Check the trace after the run.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a protocol simulation")
    Term.(
      const simulate
      $ config (base 8 +> ops 30 +> store ())
      $ seed $ read_ratio $ check $ save ())

(* --- soak --- *)

let pp_soak_verdict ppf = function
  | Mmc_stream.Window_check.Pass -> Fmt.string ppf "PASS"
  | Mmc_stream.Window_check.Fail { prefix; reason } ->
    Fmt.pf ppf "FAIL (first %d m-operations: %s)" prefix reason
  | Mmc_stream.Window_check.Inconclusive reason ->
    Fmt.pf ppf "INCONCLUSIVE (%s)" reason

let soak_verdict_word = function
  | Mmc_stream.Window_check.Pass -> "PASS"
  | Mmc_stream.Window_check.Fail _ -> "FAIL"
  | Mmc_stream.Window_check.Inconclusive _ -> "INCONCLUSIVE"

let soak_exit_code = function
  | Mmc_stream.Window_check.Pass -> 0
  | Mmc_stream.Window_check.Fail _ -> 1
  | Mmc_stream.Window_check.Inconclusive _ -> 2

(* Peak major-heap size of this process so far, in words: the
   process-level flat-memory figure, next to the checker's own words. *)
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* One greppable line with everything a dashboard scrape needs. *)
let soak_summary_line ~store ~procs ~objects ~window ~completed ~duration
    ~(latency : Mmc_sim.Stats.quantiles) (wc : Mmc_stream.Window_check.metrics)
    verdict =
  let thr =
    if duration > 0 then 1000.0 *. float_of_int completed /. float_of_int duration
    else 0.0
  in
  Fmt.pr
    "soak summary store=%s procs=%d objects=%d ops=%d duration=%d thr=%.1f \
     p50=%.1f p99=%.1f p999=%.1f window=%d max_live=%d retired=%d checks=%d \
     resident_w=%d max_resident_w=%d recycled_w=%d top_heap_w=%d \
     verdict=%s@."
    store procs objects completed duration thr latency.Mmc_sim.Stats.q50
    latency.Mmc_sim.Stats.q99 latency.Mmc_sim.Stats.q999 window
    wc.Mmc_stream.Window_check.max_live wc.Mmc_stream.Window_check.retired
    wc.Mmc_stream.Window_check.checks
    wc.Mmc_stream.Window_check.resident_words
    wc.Mmc_stream.Window_check.max_resident_words
    wc.Mmc_stream.Window_check.recycled_words (top_heap_words ())
    (soak_verdict_word verdict)

let soak (scfg : Mmc_stream.Soak.config) seed shards json read_ratio =
  let rcfg = scfg.runner in
  let procs = rcfg.n_procs and objects = rcfg.n_objects in
  let window = scfg.window in
  let spec =
    { Mmc_workload.Spec.default with n_objects = objects; read_ratio }
  in
  let store_name = Fmt.str "%a" Store.pp_kind rcfg.kind in
  if shards > 1 then begin
    (* Sharded soak: closed-loop generation (the open loop drives one
       store), then each shard's trace streams through its own
       windowed checker over a shared arena; the global stitched
       condition stays an offline check (DESIGN.md §14). *)
    if scfg.corrupt <> None || scfg.verify_full || json then begin
      Fmt.epr
        "mmc: soak: --corrupt/--verify-full/--json apply to the single-store \
         soak (--shards 1)@.";
      exit 124
    end;
    let total = if scfg.max_ops > 0 then scfg.max_ops else 10_000 in
    let rcfg =
      { rcfg with ops_per_proc = max 1 ((total + procs - 1) / procs) }
    in
    let placement =
      Mmc_shard.Placement.hash ~n_shards:shards ~n_objects:objects
    in
    let res =
      Mmc_shard.Shard_runner.run ~seed ~placement rcfg
        ~workload:(Mmc_workload.Generator.sharded placement spec)
    in
    let flavour = Store.flavour rcfg.kind in
    let verdicts, ms =
      Mmc_stream.Soak.verify_sharded ~window ~settle:scfg.settle ~flavour res
    in
    let verdict =
      Array.fold_left
        (fun acc v ->
          match acc with Mmc_stream.Window_check.Pass -> v | _ -> acc)
        Mmc_stream.Window_check.Pass verdicts
    in
    let wc =
      List.fold_left
        (fun (acc : Mmc_stream.Window_check.metrics)
             (m : Mmc_stream.Window_check.metrics) ->
          {
            acc with
            Mmc_stream.Window_check.fed = acc.Mmc_stream.Window_check.fed + m.Mmc_stream.Window_check.fed;
            retired = acc.Mmc_stream.Window_check.retired + m.Mmc_stream.Window_check.retired;
            checks = acc.Mmc_stream.Window_check.checks + m.Mmc_stream.Window_check.checks;
            max_live = max acc.Mmc_stream.Window_check.max_live m.Mmc_stream.Window_check.max_live;
            resident_words = acc.Mmc_stream.Window_check.resident_words + m.Mmc_stream.Window_check.resident_words;
            (* summed, not maxed: the shards' checkers are resident
               together, so the peak-per-shard sum bounds the total *)
            max_resident_words =
              acc.Mmc_stream.Window_check.max_resident_words + m.Mmc_stream.Window_check.max_resident_words;
            recycled_words = acc.Mmc_stream.Window_check.recycled_words + m.Mmc_stream.Window_check.recycled_words;
          })
        (match ms with m :: _ -> { m with Mmc_stream.Window_check.fed = 0; retired = 0; checks = 0; max_live = 0; resident_words = 0; max_resident_words = 0; recycled_words = 0 } | [] -> assert false)
        ms
    in
    Fmt.pr "store            %s (%d shards)@." store_name shards;
    Fmt.pr "completed ops    %d@." res.Mmc_shard.Shard_runner.completed;
    Fmt.pr "virtual time     %d@." res.Mmc_shard.Shard_runner.duration;
    Fmt.pr "messages         %d@." res.Mmc_shard.Shard_runner.messages;
    Array.iteri
      (fun s v -> Fmt.pr "shard %-2d         %a@." s pp_soak_verdict v)
      verdicts;
    let q =
      (* Closed-loop generation has no arrival latency; update latency
         is the informative one (msc queries are local, latency 0).
         The summary record has no p999 — at a few hundred updates the
         max is that tail. *)
      let s = res.Mmc_shard.Shard_runner.update_latency in
      {
        Mmc_sim.Stats.q_count = s.Mmc_sim.Stats.count;
        q50 = float_of_int s.Mmc_sim.Stats.p50;
        q99 = float_of_int s.Mmc_sim.Stats.p99;
        q999 = float_of_int s.Mmc_sim.Stats.max;
      }
    in
    soak_summary_line
      ~store:(Fmt.str "sharded-%s:%d" store_name shards)
      ~procs ~objects ~window
      ~completed:res.Mmc_shard.Shard_runner.completed
      ~duration:res.Mmc_shard.Shard_runner.duration ~latency:q wc verdict;
    soak_exit_code verdict
  end
  else begin
    let on_sample (s : Mmc_stream.Soak.sample) =
      if json then
        let q = s.Mmc_stream.Soak.s_interval in
        let m = s.Mmc_stream.Soak.s_wc in
        Fmt.pr
          "{\"t\":%d,\"completed\":%d,\"queue\":%d,\"n\":%d,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"live\":%d,\"pending\":%d,\"retired\":%d,\"checks\":%d,\"resident_words\":%d,\"recycled_words\":%d}@."
          s.Mmc_stream.Soak.s_now s.Mmc_stream.Soak.s_completed
          s.Mmc_stream.Soak.s_queue q.Mmc_sim.Stats.q_count
          q.Mmc_sim.Stats.q50 q.Mmc_sim.Stats.q99 q.Mmc_sim.Stats.q999
          m.Mmc_stream.Window_check.live m.Mmc_stream.Window_check.pending
          m.Mmc_stream.Window_check.retired m.Mmc_stream.Window_check.checks
          m.Mmc_stream.Window_check.resident_words
          m.Mmc_stream.Window_check.recycled_words
    in
    match
      Mmc_stream.Soak.run ~on_sample ~seed
        ~workload:(Mmc_workload.Generator.mixed spec) scfg
    with
    | exception Invalid_argument msg ->
      Fmt.epr "mmc: soak: %s@." msg;
      exit 124
    | r ->
      if not json then begin
        Fmt.pr "store            %s@." store_name;
        Fmt.pr "arrived ops      %d@." r.Mmc_stream.Soak.arrived;
        Fmt.pr "completed ops    %d@." r.Mmc_stream.Soak.completed;
        Fmt.pr "virtual time     %d@." r.Mmc_stream.Soak.duration;
        Fmt.pr "messages         %d@." r.Mmc_stream.Soak.messages;
        Fmt.pr "engine events    %d@." r.Mmc_stream.Soak.events;
        Fmt.pr "latency          %a@." Mmc_sim.Stats.pp_quantiles
          r.Mmc_stream.Soak.latency;
        Fmt.pr "query latency    %a@." Mmc_sim.Stats.pp_quantiles
          r.Mmc_stream.Soak.query_latency;
        Fmt.pr "update latency   %a@." Mmc_sim.Stats.pp_quantiles
          r.Mmc_stream.Soak.update_latency;
        Fmt.pr "max queue        %d@." r.Mmc_stream.Soak.max_queue;
        let m = r.Mmc_stream.Soak.wc in
        Fmt.pr "window occupancy %d live (max %d), %d pending@."
          m.Mmc_stream.Window_check.live m.Mmc_stream.Window_check.max_live
          m.Mmc_stream.Window_check.pending;
        Fmt.pr "retired prefix   %d of %d fed (%d epoch checks)@."
          m.Mmc_stream.Window_check.retired m.Mmc_stream.Window_check.fed
          m.Mmc_stream.Window_check.checks;
        Fmt.pr "checker words    %d resident (max %d), %d recycled@."
          m.Mmc_stream.Window_check.resident_words
          m.Mmc_stream.Window_check.max_resident_words
          m.Mmc_stream.Window_check.recycled_words;
        Fmt.pr "process heap     %d words peak (top_heap_w)@."
          (top_heap_words ())
      end;
      (if json then
         (* Keep stdout pure NDJSON: the run ends with one summary
            object instead of the human verdict + summary lines. *)
         let m = r.Mmc_stream.Soak.wc in
         let q = r.Mmc_stream.Soak.latency in
         Fmt.pr
           "{\"summary\":true,\"store\":\"%s\",\"ops\":%d,\"duration\":%d,\"p50\":%.1f,\"p99\":%.1f,\"p999\":%.1f,\"max_queue\":%d,\"max_live\":%d,\"retired\":%d,\"checks\":%d,\"resident_words\":%d,\"max_resident_words\":%d,\"recycled_words\":%d,\"verdict\":\"%s\"}@."
           store_name r.Mmc_stream.Soak.completed r.Mmc_stream.Soak.duration
           q.Mmc_sim.Stats.q50 q.Mmc_sim.Stats.q99 q.Mmc_sim.Stats.q999
           r.Mmc_stream.Soak.max_queue m.Mmc_stream.Window_check.max_live
           m.Mmc_stream.Window_check.retired m.Mmc_stream.Window_check.checks
           m.Mmc_stream.Window_check.resident_words
           m.Mmc_stream.Window_check.max_resident_words
           m.Mmc_stream.Window_check.recycled_words
           (soak_verdict_word r.Mmc_stream.Soak.verdict)
       else begin
         (match r.Mmc_stream.Soak.full_verdict with
         | Some fv ->
           Fmt.pr "full-trace check %s (%s)@." fv
             (match r.Mmc_stream.Soak.agreement with
             | Some true -> "windowed verdict agrees"
             | Some false -> "WINDOWED VERDICT DISAGREES"
             | None -> "no windowed verdict to compare")
         | None -> ());
         Fmt.pr "verdict          %a@." pp_soak_verdict
           r.Mmc_stream.Soak.verdict;
         soak_summary_line ~store:store_name ~procs ~objects ~window
           ~completed:r.Mmc_stream.Soak.completed
           ~duration:r.Mmc_stream.Soak.duration
           ~latency:r.Mmc_stream.Soak.latency r.Mmc_stream.Soak.wc
           r.Mmc_stream.Soak.verdict
       end);
      if r.Mmc_stream.Soak.agreement = Some false then 3
      else soak_exit_code r.Mmc_stream.Soak.verdict
  end

let soak_json = json ~doc:"Stream observability samples as NDJSON on stdout."

(* The soak's own settings, over the run configuration. *)
let soak_config =
  let rate =
    Arg.(
      value & opt count 8
      & info [ "rate" ] ~docv:"IAT"
          ~doc:
            "Mean inter-arrival time in virtual ticks (open-loop: arrivals \
             are independent of service latency and queue for an idle \
             client).")
  in
  let max_ops =
    ops_arg ~conv:Arg.int
      ~doc:"Stop after $(docv) arrivals (0 = by --duration only)." 0
  in
  let max_time =
    Arg.(
      value
      & opt (some int) None
      & info [ "duration" ] ~docv:"T"
          ~doc:"Stop arrivals at virtual time $(docv).")
  in
  let sample_every =
    Arg.(
      value & opt int 0
      & info [ "sample-every" ] ~docv:"T"
          ~doc:
            "Emit an observability sample every $(docv) virtual ticks \
             (default: off; 2000 with --json).")
  in
  let corrupt =
    Arg.(
      value
      & opt (some int) None
      & info [ "corrupt" ] ~docv:"N"
          ~doc:
            "Inject one stale read at roughly the $(docv)-th checked \
             m-operation — a seeded known-FAIL.")
  in
  let verify_full =
    Arg.(
      value & flag
      & info [ "verify-full" ]
          ~doc:
            "Also keep the whole trace and cross-check the windowed verdict \
             against the full-trace checker (O(trace) memory).")
  in
  let make runner rate max_ops max_time window settle sample_every corrupt
      verify_full json =
    if max_ops <= 0 && max_time = None then
      `Error (true, "soak: need --ops and/or --duration")
    else
    match runner.Runner.kind with
    | Store.Msc | Store.Mlin | Store.Rmsc | Store.Seg ->
      let sample_every =
        if sample_every = 0 && json then 2_000 else sample_every
      in
      `Ok
        {
          Mmc_stream.Soak.runner;
          rate;
          max_ops;
          max_time;
          window;
          settle;
          sample_every;
          corrupt;
          verify_full;
        }
    | k ->
      `Error
        ( true,
          Fmt.str
            "soak: store %a has no synchronization order (use msc, mlin, \
             rmsc or seg)"
            Store.pp_kind k )
  in
  Term.(
    ret
      (const make
      $ config
          (base ~procs_doc:"Client pool size." 16
          +> store ~doc:"Store protocol: msc, mlin, rmsc or seg (broadcast-based)." ()
          +> fastpath)
      $ rate $ max_ops $ max_time
      $ window ~doc:"Live m-operations that trigger an epoch check."
      $ settle
          ~doc:
            "Virtual-time grace after a version is superseded before the \
             checker assumes no straggler still reads it."
      $ sample_every $ corrupt $ verify_full $ soak_json))

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Open-loop soak: drive a store at a target arrival rate while the \
          windowed checker verifies the trace as it streams (exit 0 PASS, 1 \
          FAIL, 2 inconclusive)")
    Term.(
      const soak $ soak_config $ seed
      $ shards ~default:1 ~docv:"N"
          ~doc:
            "Shard count; above 1 the run is generated closed-loop through \
             the sharded store and each shard's trace streams through its \
             own windowed checker."
      $ soak_json $ read_ratio)

(* --- faults --- *)

let faults (cfg : Runner.config) seed save =
  let res = Runner.run ~seed cfg ~workload:(mixed cfg) in
  Fmt.pr "store           %a over %a@." Store.pp_kind cfg.kind
    Mmc_broadcast.Abcast.pp_impl cfg.abcast_impl;
  Fmt.pr "fault plan      %a@." Mmc_sim.Fault.pp_plan cfg.fault;
  Fmt.pr "completed ops   %d@." res.completed;
  Fmt.pr "virtual time    %d@." res.duration;
  Fmt.pr "messages        %d@." res.messages;
  Fmt.pr "update latency  %a@." Mmc_sim.Stats.pp_summary res.update_latency;
  (match res.fault with
  | None -> Fmt.pr "faults          none injected (empty plan)@."
  | Some f ->
    let c = Mmc_sim.Fault.counts f in
    Fmt.pr "dropped         %d (loss %d, partition %d, crashed %d)@."
      (Mmc_sim.Fault.dropped f) c.Mmc_sim.Fault.loss c.Mmc_sim.Fault.partitioned
      c.Mmc_sim.Fault.crashed;
    Fmt.pr "spikes          %d@." c.Mmc_sim.Fault.spikes;
    Fmt.pr "retransmits     %d (given up %d)@." c.Mmc_sim.Fault.retransmissions
      c.Mmc_sim.Fault.abandoned;
    Fmt.pr "acks            %d@." c.Mmc_sim.Fault.acks;
    Fmt.pr "dups suppressed %d@." c.Mmc_sim.Fault.duplicates;
    Fmt.pr "delivery delay  %a@." Mmc_sim.Stats.pp_summary
      (Mmc_sim.Fault.delivery_delay f);
    Fmt.pr "recovery time   %d@." (Mmc_sim.Fault.recovery_time f));
  save_history save (lazy res.history);
  let flavour = Store.flavour cfg.kind in
  if
    check_line
      (Fmt.str "%a" History.pp_flavour flavour)
      (Runner.check_trace res ~flavour)
  then 0
  else 1

let faults_cmd =
  let plan =
    plan
      ~default:
        {
          Mmc_sim.Fault.none with
          Mmc_sim.Fault.drop = 0.2;
          partitions =
            [ { Mmc_sim.Fault.from_ = 150; until = 400; island = [ 0 ] } ];
        }
      ~doc:"Default: 20% loss and node 0 cut off during [150, 400)."
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a protocol over a faulty transport and verify the trace \
          (Theorem-7 admissibility as a fault-tolerance oracle)")
    Term.(
      const faults
      $ config
          (base 8 +> ops 20
          +> store ~synced:true
               ~doc:"Store protocol: msc, rmsc, seg, mlin or central."
               ()
          +> fastpath +> plan +> reliable ~cmd:"faults")
      $ seed $ save ())

(* --- recover --- *)

let recover (cfg : Runner.config) seed json save =
  let plan = cfg.fault in
  if not (List.exists (fun c -> c.Mmc_sim.Fault.wipe) plan.Mmc_sim.Fault.crashes)
  then
    Fmt.epr
      "mmc: recover: note: plan has no wipe crashes; nothing exercises the \
       WAL/checkpoint restart path@.";
  let expected = cfg.n_procs * cfg.ops_per_proc in
  let res, (j : Runner.judgement) =
    (* A run blowing up (e.g. the recorder detecting two writers of one
       version, as unchecked corruption reaching replay will cause) is
       divergence-grade evidence, reported like the chaos driver does. *)
    match run_judged ~seed cfg with
    | r -> r
    | exception e ->
      (* No result, so no completion is counted: every op is lost. *)
      Fmt.pr "recover         DIVERGED: run raised %s@." (Printexc.to_string e);
      Fmt.pr "fault plan      %a@." Mmc_sim.Fault.pp_plan plan;
      Fmt.pr
        "summary         converged=no admissible=no given-up=0 restarts=0 \
         repaired=0 lost=%d@."
        expected;
      if json then
        Fmt.pr
          "{\"cmd\":\"recover\",\"seed\":%d,\"converged\":false,\"admissible\":false,\"raised\":true,\"completed\":0,\"expected\":%d}@."
          seed expected;
      exit 2
  in
  let h = j.handle and w = j.wal in
  Fmt.pr "store           %a over %a (%a delivery)@." Store.pp_kind
    Store.Rmsc Mmc_broadcast.Abcast.pp_impl cfg.abcast_impl
    Mmc_store.Rstore.pp_mode cfg.delivery;
  Fmt.pr "fault plan      %a@." Mmc_sim.Fault.pp_plan plan;
  Fmt.pr "completed ops   %d@." res.completed;
  Fmt.pr "virtual time    %d@." res.duration;
  Fmt.pr "messages        %d@." res.messages;
  (match res.fault with
  | None -> Fmt.pr "faults          none injected (empty plan)@."
  | Some f ->
    let c = Mmc_sim.Fault.counts f in
    Fmt.pr "dropped         %d (loss %d, partition %d, crashed %d)@."
      (Mmc_sim.Fault.dropped f) c.Mmc_sim.Fault.loss c.Mmc_sim.Fault.partitioned
      c.Mmc_sim.Fault.crashed;
    Fmt.pr "retransmits     %d (given up %d)@." c.Mmc_sim.Fault.retransmissions
      c.Mmc_sim.Fault.abandoned;
    Fmt.pr "restarts        %d@." c.Mmc_sim.Fault.restarts);
  Fmt.pr "recoveries      %d@." (h.Mmc_store.Rstore.recoveries ());
  Fmt.pr "wal             %d appends, %d checkpoints, %d replayed, %d \
          truncated@."
    w.appends w.checkpoints w.replayed w.truncated;
  Fmt.pr "storage         %d torn sectors, %d corrupt, %d silent, %d \
          repaired, %d scrubbed, %d ckpt-fallbacks, %d reclaimed@."
    w.torn w.corrupt w.silent w.repaired w.scrubbed w.ckpt_fallbacks
    w.reclaimed_sectors;
  Fmt.pr "catch-up        %d pulls, %d pushes (%d entries, %d snapshots)@."
    (h.Mmc_store.Rstore.pulls ())
    (h.Mmc_store.Rstore.pushes ())
    (h.Mmc_store.Rstore.entries_pushed ())
    (h.Mmc_store.Rstore.snapshots_pushed ());
  Fmt.pr "broadcast       %a@." Mmc_broadcast.Rbcast.pp_stats
    (h.Mmc_store.Rstore.broadcast_stats ());
  (match h.Mmc_store.Rstore.detector_stats () with
  | Some d -> Fmt.pr "detector        %a@." pp_detector_stats d
  | None -> ());
  Fmt.pr "stability acks  %d@." (h.Mmc_store.Rstore.stability_acks ());
  Fmt.pr "replicas        %s@." (if j.converged then "converged" else "DIVERGED");
  save_history save (lazy res.history);
  let admissible = check_line "msc" j.check in
  (* One greppable line with the run's verdicts and the retry-budget
     exhaustion counters: [given-up] is messages the reliable layer
     abandoned after its retry budget, the usual first suspect when a
     run fails to converge under an aggressive plan. *)
  let completed = res.completed in
  List.iter (Fmt.pr "note            %s@.") j.problems;
  Fmt.pr "summary         converged=%s admissible=%s given-up=%d restarts=%d \
          repaired=%d lost=%d@."
    (if j.converged then "yes" else "NO")
    (if admissible then "yes" else "NO")
    j.given_up j.restarts w.repaired (expected - completed);
  if json then
    Fmt.pr
      "{\"cmd\":\"recover\",\"seed\":%d,\"converged\":%b,\"admissible\":%b,\"completed\":%d,\"expected\":%d,\"restarts\":%d,\"given_up\":%d,\"repaired\":%d,\"torn\":%d,\"corrupt\":%d,\"silent\":%d,\"scrubbed\":%d,\"ckpt_fallbacks\":%d}@."
      seed j.converged admissible completed expected j.restarts j.given_up
      w.repaired w.torn w.corrupt w.silent w.scrubbed w.ckpt_fallbacks;
  if not j.converged then 2
  else if (not admissible) || j.problems <> [] then 1
  else 0

let summary_json =
  json
    ~doc:
      "Append a one-line JSON summary object to stdout (the greppable text \
       summary line stays)."

let recover_cmd =
  let plan =
    plan
      ~default:
        {
          Mmc_sim.Fault.none with
          Mmc_sim.Fault.drop = 0.1;
          crashes =
            [
              { Mmc_sim.Fault.node = 0; at = 150; back = 600; wipe = true };
              { Mmc_sim.Fault.node = 2; at = 900; back = 1300; wipe = true };
            ];
        }
      ~doc:
        "Use wipe= for wipe-crashes that exercise the restart path.  The \
         default wipes the initial sequencer at t=150 and node 2 at t=900."
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run the recoverable store under wipe-crashes and verify \
          convergence plus Theorem-7 admissibility of the stitched \
          cross-crash history"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the rmsc store (WAL + checkpoints + anti-entropy \
              catch-up, epoch-fenced sequencer failover under the \
              sequencer broadcast) over a fault plan with wipe-crashes, \
              then checks that every replica converged to identical state \
              and that the history stitched across crash epochs is \
              Theorem-7 admissible for m-sequential consistency.";
           `P
             "Storage faults (tear=, rot=, stale= plan fields) damage the \
              simulated block devices under the WAL and checkpoints; with \
              $(b,--crc on) the damage is detected, quarantined and \
              repaired from peers (see $(b,--scrub)), with $(b,--crc off) \
              it silently corrupts recovery — which the oracles then \
              catch.";
           `P
             "Exit status: 0 when replicas converge, the history is \
              admissible and the counters are sane (every operation \
              completed, every wipe-crash restarted and recovered); 1 when \
              the admissibility check or a counter check fails, with a \
              $(b,note) line naming the counter; 2 when replicas did not \
              converge.";
         ])
    Term.(
      const recover
      $ config
          (base 8 +> ops 12 +> rmsc +> plan +> checkpoint_every +> scrub
         +> crc +> reliable ~cmd:"recover" +> delivery +> detector)
      $ seed $ summary_json $ save ())

(* --- chaos --- *)

(* The [mmc recover] command line that reruns one chaos plan: the plan
   in --plan syntax, and every run knob left off its default. *)
let pp_replay (cfg : Runner.config) ~seed ppf plan =
  let opt flag pp v = Fmt.pf ppf " %s %a" flag pp v in
  let policy = cfg.recovery in
  Fmt.pf ppf "mmc recover --procs %d --objects %d --ops %d --seed %d"
    cfg.n_procs cfg.n_objects cfg.ops_per_proc seed;
  opt "--delivery" Mmc_store.Rstore.pp_mode cfg.delivery;
  if cfg.abcast_impl <> Mmc_broadcast.Abcast.Sequencer_impl then
    opt "--abcast" Mmc_broadcast.Abcast.pp_impl cfg.abcast_impl;
  if cfg.latency <> Mmc_sim.Latency.Uniform (5, 15) then
    opt "--latency" (Arg.conv_printer latency_conv) cfg.latency;
  if cfg.batch <> Mmc_broadcast.Batch.unbatched then
    Fmt.pf ppf " --batch %d --flush-every %d --fanout %d"
      cfg.batch.Mmc_broadcast.Batch.size cfg.batch.Mmc_broadcast.Batch.flush_every
      cfg.batch.Mmc_broadcast.Batch.fanout;
  Option.iter
    (fun (d : Mmc_sim.Detector.config) ->
      let dd = Mmc_sim.Detector.default_config in
      if d.heartbeat_every <> dd.heartbeat_every then
        opt "--heartbeat-every" Fmt.int d.heartbeat_every;
      if d.suspect_after <> dd.suspect_after then
        opt "--suspect-after" Fmt.int d.suspect_after)
    cfg.detector;
  if policy.scrub_every <> dpolicy.scrub_every then
    opt "--scrub" (Arg.conv_printer scrub_conv) policy.scrub_every;
  if not policy.crc then Fmt.string ppf " --crc off";
  Fmt.pf ppf " --plan '%s'" (Mmc_sim.Fault.to_spec plan)

let chaos (cfg : Runner.config) seed plans json verbose =
  let diverged = ref 0 in
  let failed = ref 0 in
  let torn = ref 0 and corrupt = ref 0 and silent = ref 0 in
  let repaired = ref 0 and restarts = ref 0 in
  for i = 0 to plans - 1 do
    let run_seed = seed + i in
    let plan =
      Mmc_sim.Fault.fuzz ~rng:(Mmc_sim.Rng.create run_seed) ~n:cfg.n_procs
    in
    let run =
      try Ok (run_judged ~seed:run_seed { cfg with fault = plan })
      with e -> Error e
    in
    (* The three oracles: replicas converged, the stitched history is
       Theorem-7 admissible for m-SC, the counters are sane.  A run
       blowing up (e.g. the recorder detecting two writers of one
       version) is divergence-grade evidence, not a crash of the chaos
       loop. *)
    let problems =
      match run with
      | Error e ->
        incr diverged;
        [ "run raised " ^ Printexc.to_string e ]
      | Ok (_, (j : Runner.judgement)) ->
        let w = j.wal in
        torn := !torn + w.torn;
        corrupt := !corrupt + w.corrupt;
        silent := !silent + w.silent;
        repaired := !repaired + w.repaired;
        restarts := !restarts + j.restarts;
        if not j.converged then incr diverged;
        (if j.converged then [] else [ "replicas DIVERGED" ])
        @ (match j.check with
          | Check_constrained.Admissible _ -> []
          | c ->
            [ Fmt.str "trace not admissible (%a)" Check_constrained.pp_result c ])
        @ j.problems
    in
    match run with
    | Ok (res, _) when problems = [] ->
      if verbose then
        Fmt.pr "seed %-6d ok    t=%-6d plan: %a@." run_seed res.duration
          Mmc_sim.Fault.pp_plan plan
    | _ -> (
      incr failed;
      Fmt.pr "seed %-6d FAIL  plan: %a@." run_seed Mmc_sim.Fault.pp_plan plan;
      List.iter (fun p -> Fmt.pr "            - %s@." p) problems;
      Fmt.pr "            replay: %a@." (pp_replay cfg ~seed:run_seed) plan;
      match run with
      | Ok (res, { handle; _ }) when verbose -> (
        Fmt.pr "            cursors: %a@."
          Fmt.(array ~sep:(any " ") int)
          (handle.Mmc_store.Rstore.cursors ());
        Fmt.pr "            broadcast: %a@." Mmc_broadcast.Rbcast.pp_stats
          (handle.Mmc_store.Rstore.broadcast_stats ());
        (match handle.Mmc_store.Rstore.detector_stats () with
        | Some d -> Fmt.pr "            detector: %a@." pp_detector_stats d
        | None -> ());
        match res.fault with
        | None -> ()
        | Some f ->
          let c = Mmc_sim.Fault.counts f in
          Fmt.pr
            "            faults: dropped %d, retransmits %d, given up %d@."
            (Mmc_sim.Fault.dropped f) c.Mmc_sim.Fault.retransmissions
            c.Mmc_sim.Fault.abandoned)
      | _ -> ())
  done;
  let policy = cfg.recovery in
  Fmt.pr "chaos           %d random plans (seeds %d..%d), %a delivery@."
    plans seed
    (seed + plans - 1)
    Mmc_store.Rstore.pp_mode cfg.delivery;
  Fmt.pr "storage         %d torn sectors, %d corrupt, %d silent, %d \
          repaired (crc %s, scrub %s)@."
    !torn !corrupt !silent !repaired
    (if policy.crc then "on" else "off")
    (if policy.scrub_every = 0 then "off" else string_of_int policy.scrub_every);
  Fmt.pr "failed          %d (%d diverged)@." !failed !diverged;
  if json then
    Fmt.pr
      "{\"cmd\":\"chaos\",\"plans\":%d,\"seed\":%d,\"failed\":%d,\"diverged\":%d,\"converged\":%b,\"admissible\":%b,\"restarts\":%d,\"repaired\":%d,\"torn\":%d,\"corrupt\":%d,\"silent\":%d,\"crc\":%b,\"scrub\":%d}@."
      plans seed !failed !diverged (!diverged = 0) (!failed = 0) !restarts
      !repaired !torn !corrupt !silent policy.crc policy.scrub_every;
  if !diverged > 0 then 2 else if !failed > 0 then 1 else 0

let chaos_cmd =
  let plans =
    Arg.(
      value & opt count 25
      & info [ "plans" ] ~docv:"N"
          ~doc:
            "Number of random fault plans to run; plan $(i,i) is drawn \
             deterministically from seed $(b,--seed)+$(i,i).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print one line per plan, not only failures.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fuzz the recoverable store with random fault plans and assert \
          the recovery oracles on every run"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Draws $(b,--plans) deterministic random fault plans (message \
              loss, latency spikes, a timed partition, up to two \
              crash/wipe windows — see $(b,Fault.fuzz)), runs the rmsc \
              store over each, and asserts three oracles per run: every \
              replica converged to identical state, the history stitched \
              across crash epochs is Theorem-7 admissible for \
              m-sequential consistency, and the run's counters are sane \
              (no operation lost, every wipe-crash restarted and \
              recovered).";
           `P
             "With $(b,--delivery optimistic) the store applies updates on \
              first delivery instead of waiting for quorum stability; \
              expect occasional divergence under wipe-crashes that \
              straddle an epoch change — the anomaly quorum-stable \
              delivery exists to rule out.";
           `P
             "Fuzzed plans also draw storage faults — torn writes riding \
              wipe-crash instants, bit-rot, stale-checkpoint loss — so the \
              same oracles double as an end-to-end check of CRC framing, \
              scrubbing and peer repair.  Running with $(b,--crc off) \
              $(b,--scrub off) is expected to fail: silent corruption \
              then reaches replay.";
           `P
             "Exit status: 0 when every plan passes, 2 when any run \
              diverged, 1 when only other oracle failures occurred.";
         ])
    Term.(
      const chaos
      $ config
          (base 8 +> ops 10 +> rmsc +> delivery +> detector +> scrub +> crc)
      $ seed $ plans $ summary_json $ verbose)

(* --- shard --- *)

let placement_conv =
  let parse = function
    | "hash" -> Ok `Hash
    | "rr" | "round-robin" -> Ok `Round_robin
    | s -> Error (`Msg (Fmt.str "unknown placement %S (hash|rr)" s))
  in
  let pp ppf = function
    | `Hash -> Fmt.string ppf "hash"
    | `Round_robin -> Fmt.string ppf "rr"
  in
  Arg.conv (parse, pp)

let shard (cfg : Runner.config) seed n_shards cross read_ratio skew
    commute_ratio placement save =
  let open Mmc_shard in
  let objects = cfg.n_objects in
  let placement =
    try
      match placement with
      | `Hash -> Placement.hash ~n_shards ~n_objects:objects
      | `Round_robin -> Placement.round_robin ~n_shards ~n_objects:objects
    with Invalid_argument msg ->
      Fmt.epr "mmc: shard: %s@." msg;
      exit 124
  in
  let spec =
    { Mmc_workload.Spec.default with n_objects = objects; read_ratio; skew }
  in
  let workload =
    match commute_ratio with
    | None ->
      Mmc_workload.Generator.sharded ~cross_shard_ratio:cross placement spec
    | Some r ->
      (* Commuting-ratio counter workload: the seg store's fast path
         regime, also runnable against any other store for A/B. *)
      Mmc_workload.Generator.sharded_counter_commute ~commute_ratio:r
        ~n_procs:cfg.n_procs placement spec
  in
  let res = Shard_runner.run ~seed ~placement cfg ~workload in
  Fmt.pr "store           %a x %d shards (%a placement)@."
    Store.pp_kind cfg.kind n_shards Placement.pp placement;
  Fmt.pr "processes       %d@." cfg.n_procs;
  Fmt.pr "completed ops   %d@." res.Shard_runner.completed;
  Fmt.pr "virtual time    %d@." res.Shard_runner.duration;
  Fmt.pr "messages        %d (%a by shard)@." res.Shard_runner.messages
    Fmt.(array ~sep:(any " ") int)
    res.Shard_runner.messages_by_shard;
  Fmt.pr "engine events   %d@." res.Shard_runner.events;
  Fmt.pr "router          %a@." Router.pp_stats res.Shard_runner.router;
  Fmt.pr "query latency   %a@." Mmc_sim.Stats.pp_summary
    res.Shard_runner.query_latency;
  Fmt.pr "update latency  %a@." Mmc_sim.Stats.pp_summary
    res.Shard_runner.update_latency;
  (match res.Shard_runner.fault with
  | None -> ()
  | Some f ->
    let c = Mmc_sim.Fault.counts f in
    Fmt.pr "faults          dropped %d, retransmits %d (given up %d)@."
      (Mmc_sim.Fault.dropped f) c.Mmc_sim.Fault.retransmissions
      c.Mmc_sim.Fault.abandoned);
  (* One greppable line for the seg store: how much coordination the
     fast path avoided. *)
  (match cfg.kind with
  | Store.Seg ->
    let handles =
      Array.to_list res.Shard_runner.fastpath |> List.filter_map Fun.id
    in
    let sum f = List.fold_left (fun a h -> a + f h.Mmc_store.Seg_store.stats) 0 handles in
    let local =
      sum (fun s -> s.Mmc_store.Seg_store.fast)
      + sum (fun s -> s.Mmc_store.Seg_store.fast_queries)
    in
    let escalated = sum (fun s -> s.Mmc_store.Seg_store.escalated) in
    let msgs_per_op =
      if res.Shard_runner.completed > 0 then
        float_of_int res.Shard_runner.messages
        /. float_of_int res.Shard_runner.completed
      else 0.0
    in
    Fmt.pr
      "fastpath summary local=%d escalated=%d flushes=%d msgs-per-op=%.3f \
       mode=%a@."
      local escalated
      (sum (fun s -> s.Mmc_store.Seg_store.flushes))
      msgs_per_op Mmc_fastpath.Classify.pp_mode cfg.fastpath
  | _ -> ());
  save_history ~what:"stitched saved" save
    (lazy
      (Shard_recorder.stitch res.Shard_runner.placement
         res.Shard_runner.recorders)
        .Shard_recorder.history);
  let v = Shard_runner.check res ~flavour:(Store.flavour cfg.kind) in
  Fmt.pr "%a@." Check_sharded.pp v;
  if Check_sharded.admissible v then 0 else 1

let shard_cmd =
  let n_shards = shards ~default:4 ~docv:"S" ~doc:"Number of shards." in
  let commute_ratio =
    Arg.(
      value
      & opt (some float) None
      & info [ "commute-ratio" ] ~docv:"R"
          ~doc:
            "Switch to the commuting-counter workload: fraction $(docv) of \
             updates are owner-local fetch-and-adds (confluent under the seg \
             store's classifier), the rest cross-owner moves (sequenced).  \
             Omitted = the default mixed sharded workload.")
  in
  let cross =
    Arg.(
      value & opt float 0.1
      & info [ "cross" ] ~docv:"R"
          ~doc:"Fraction of m-operations spanning two shards.")
  in
  let skew =
    Arg.(
      value & opt float 0.0
      & info [ "skew" ] ~docv:"S" ~doc:"Zipf exponent for object popularity.")
  in
  let placement =
    Arg.(
      value & opt placement_conv `Hash
      & info [ "placement" ] ~docv:"POLICY" ~doc:"Object placement: hash or rr.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run a sharded store (one ordering mechanism per shard), verify each \
          shard with the Theorem-7 checker and check the stitched global \
          history"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Exit status: 0 when the stitched history is admissible, 1 when \
              it is not (e.g. a cross-shard composition anomaly — per-shard \
              sequential consistency does not compose).";
         ])
    Term.(
      const shard
      $ config
          (base ~abcast_doc:"Per-shard atomic broadcast: sequencer or lamport."
             16
          +> ops 20
          +> store ~synced:true
               ~doc:"Per-shard store protocol: msc, rmsc, seg, mlin or central."
               ()
          +> fastpath
          +> plan ~default:Mmc_sim.Fault.none
               ~doc:"Applied under every shard's transport; default none.")
      $ seed $ n_shards $ cross $ read_ratio $ skew $ commute_ratio $ placement
      $ save ~doc:"Save the stitched global history in the text format." ())

(* --- check --- *)

(* The rf-closed prefix of the first [k] m-operations: readers pull in
   their writers transitively, so the restriction is well-formed. *)
let rf_closed_prefix h k =
  let keep = Hashtbl.create 64 in
  let rec pull id =
    if id > 0 && not (Hashtbl.mem keep id) then begin
      Hashtbl.add keep id ();
      List.iter
        (fun (e : History.rf_edge) -> pull e.History.writer)
        (History.rf_of_reader h id)
    end
  in
  for id = 1 to k do
    pull id
  done;
  Hashtbl.fold (fun id () acc -> id :: acc) keep []

(* Admissibility restricts to rf-closed sub-histories (drop the absent
   m-operations from the witness), so once a prefix fails every longer
   one does — binary search finds the first failing length. *)
let failing_prefix h flavour =
  let n = History.n_mops h - 1 in
  let fails k =
    let hk, _ = History.restrict h (rf_closed_prefix h k) in
    match Admissible.check ~max_states:10_000_000 hk flavour with
    | Admissible.Not_admissible -> true
    | Admissible.Admissible _ | Admissible.Aborted -> false
  in
  if n < 1 || not (fails n) then None
  else begin
    let lo = ref 1 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fails mid then hi := mid else lo := mid + 1
    done;
    Some !hi
  end

(* Streaming check: NDJSON in, windowed Theorem-7 checker over it —
   resident state stays O(window) however long the trace.  Updates
   must carry their broadcast position ("sync"); without one the
   polynomial checker has no WW constraint to work under and answers
   inconclusive. *)
let check_stream file flavour window settle =
  match if file = "-" then stdin else open_in file with
  | exception Sys_error msg ->
    Fmt.epr "mmc: check: %s@." msg;
    124
  | ic ->
  Fun.protect ~finally:(fun () -> if file <> "-" then close_in ic)
  @@ fun () ->
  let wc = ref None in
  match
    Codec.Stream.fold ic ~init:0 ~f:(fun n ~n_objects (m : Mop.t) ~rf ~sync ->
        let w =
          match !wc with
          | Some w -> w
          | None ->
            let w =
              Mmc_stream.Window_check.create ~window ~settle ~flavour
                ~n_objects ()
            in
            wc := Some w;
            w
        in
        Mmc_stream.Window_check.feed w
          (Mmc_stream.Window_check.make_entry ~proc:m.Mop.proc ~inv:m.Mop.inv
             ~resp:m.Mop.resp ~ops:m.Mop.ops
             ~reads:
               (List.map
                  (fun (x, wr) -> (x, Mmc_stream.Window_check.Gid wr))
                  rf)
             ~sync);
        n + 1)
  with
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | n -> (
    match !wc with
    | None ->
      Fmt.pr "empty stream@.";
      0
    | Some w ->
      let verdict = Mmc_stream.Window_check.finish w in
      let m = Mmc_stream.Window_check.metrics w in
      Fmt.pr "%d m-operations streamed (window %d, %d epoch checks, %d \
              retired, %d words resident)@."
        n window m.Mmc_stream.Window_check.checks
        m.Mmc_stream.Window_check.retired
        m.Mmc_stream.Window_check.max_resident_words;
      (match verdict with
      | Mmc_stream.Window_check.Inconclusive reason ->
        Fmt.pr "%a: inconclusive: %s@." History.pp_flavour flavour reason
      | v -> Fmt.pr "%a: %a@." History.pp_flavour flavour pp_soak_verdict v);
      soak_exit_code verdict)

(* A saved history handed to [k], or why not: an unreadable file is a
   usage error (exit 124), a parse error or an ill-formed history exits
   1. *)
let with_history ~cmd file k =
  match Codec.of_file file with
  | exception Sys_error msg ->
    Fmt.epr "mmc: %s: %s@." cmd msg;
    124
  | exception Codec.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | exception History.Ill_formed msg ->
    Fmt.epr "ill-formed history: %s@." msg;
    1
  | h -> k h

let check_history file flavour single stream window settle =
  if stream then check_stream file flavour window settle
  else
  with_history ~cmd:"check" file @@ fun h ->
    Fmt.pr "%d m-operations over %d objects@." (History.n_mops h - 1)
      (History.n_objects h);
    if single then begin
      match Check_single.check h with
      | Check_single.Linearizable w ->
        Fmt.pr "single-object polynomial check: linearizable@.witness: %a@."
          Sequential.pp w;
        0
      | Check_single.Not_linearizable ->
        Fmt.pr "single-object polynomial check: NOT linearizable@.";
        1
      | Check_single.Not_single_object ->
        Fmt.epr "history is not single-object; use --condition instead@.";
        2
    end
    else begin
      match Admissible.check ~max_states:10_000_000 h flavour with
      | Admissible.Admissible w ->
        Fmt.pr "%a: PASS@.witness: %a@." History.pp_flavour flavour
          Sequential.pp w;
        0
      | Admissible.Not_admissible ->
        (match failing_prefix h flavour with
        | Some k ->
          Fmt.pr "%a: FAIL (first %d m-operations already inadmissible)@."
            History.pp_flavour flavour k
        | None -> Fmt.pr "%a: FAIL@." History.pp_flavour flavour);
        1
      | Admissible.Aborted ->
        Fmt.pr "%a: state budget exhausted@." History.pp_flavour flavour;
        2
    end

(* Cmdliner's [file] converter, except that "-" (stdin, read by
   --stream) passes unchecked. *)
let input_file_conv =
  let parse s = if s = "-" then Ok s else Arg.conv_parser Arg.file s in
  Arg.conv (parse, Arg.conv_printer Arg.file)

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some input_file_conv) None
      & info [] ~docv:"FILE"
          ~doc:"History file (\"-\" for stdin with --stream).")
  in
  let flavour =
    Arg.(
      value
      & opt flavour_conv History.Mlin
      & info [ "condition" ] ~docv:"COND" ~doc:"msc, mnorm or mlin.")
  in
  let single =
    Arg.(
      value & flag
      & info [ "single" ]
          ~doc:"Use the polynomial single-object linearizability checker.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Treat $(docv) as an NDJSON stream (\"-\" for stdin) and check \
             it with the windowed streaming checker — O(window) resident \
             state, any trace length.  Updates must carry broadcast \
             positions.")
  in
  let window = window ~doc:"Streaming window size (with --stream)." in
  let settle = settle ~doc:"Streaming settle grace (with --stream)." in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a saved history")
    Term.(
      const check_history $ file $ flavour $ single $ stream $ window
      $ settle)

(* --- generate --- *)

let generate family n_procs n_objects n_mops seed out stream =
  let h =
    match family with
    | "legal" ->
      Mmc_workload.Histories.legal_random ~seed ~n_procs ~n_objects ~n_mops
        ~max_len:3 ~read_ratio:0.5 ()
    | "register" ->
      Mmc_workload.Histories.random_register ~seed ~n_procs ~n_objects ~n_mops
        ~write_ratio:0.5 ()
    | "multi" ->
      Mmc_workload.Histories.random_multi ~seed ~n_procs ~n_objects ~n_mops
        ~max_reads:2 ~max_writes:2 ()
    | "mutated" -> (
      let h =
        Mmc_workload.Histories.legal_random ~seed ~n_procs ~n_objects ~n_mops
          ~max_len:3 ~read_ratio:0.5 ()
      in
      match Mmc_workload.Histories.perturb_rf ~seed h with
      | Some h' -> h'
      | None -> h)
    | f ->
      Fmt.epr "unknown family %S (legal|register|multi|mutated)@." f;
      exit 2
  in
  (if stream then
     (* Emit in (inv, resp) order with ids renumbered to that rank —
        the order a streaming consumer (mmc check --stream) feeds. *)
     let mops =
       List.sort
         (fun (a : Mop.t) (b : Mop.t) ->
           compare
             (a.Mop.inv, a.Mop.resp, a.Mop.id)
             (b.Mop.inv, b.Mop.resp, b.Mop.id))
         (History.real_mops h)
     in
     let remap = Hashtbl.create (List.length mops) in
     Hashtbl.add remap 0 0;
     List.iteri (fun i (m : Mop.t) -> Hashtbl.add remap m.Mop.id (i + 1)) mops;
     (* The legal family is consistent by construction with the id
        order as witness, so that order's update subsequence is a
        valid synchronization order to emit.  The other families have
        no known witness; fabricating one would impose a WW constraint
        the history was never built to satisfy. *)
     let sync_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
     if family = "legal" then begin
       let pos = ref 0 in
       List.iter
         (fun (m : Mop.t) ->
           if Mop.final_writes m <> [] then begin
             Hashtbl.add sync_of m.Mop.id !pos;
             incr pos
           end)
         (History.real_mops h)
     end;
     let rf_of = Hashtbl.create (List.length mops) in
     List.iter
       (fun (e : History.rf_edge) ->
         let prev =
           Option.value ~default:[] (Hashtbl.find_opt rf_of e.History.reader)
         in
         Hashtbl.replace rf_of e.History.reader
           ((e.History.obj, Hashtbl.find remap e.History.writer) :: prev))
       (History.rf h);
     let emit oc =
       Codec.Stream.write_header oc ~n_objects:(History.n_objects h);
       List.iteri
         (fun i (m : Mop.t) ->
           let m' =
             Mop.make ~id:(i + 1) ~proc:m.Mop.proc ~ops:m.Mop.ops ~inv:m.Mop.inv
               ~resp:m.Mop.resp
           in
           let rf =
             List.rev
               (Option.value ~default:[] (Hashtbl.find_opt rf_of m.Mop.id))
           in
           Codec.Stream.write_mop oc ?sync:(Hashtbl.find_opt sync_of m.Mop.id)
             m' ~rf)
         mops
     in
     match out with
     | Some path -> Out_channel.with_open_text path emit
     | None -> emit stdout
   else
     let text = Codec.to_string h in
     match out with
     | Some path ->
       Out_channel.with_open_text path (fun oc -> output_string oc text)
     | None -> print_string text);
  0

let generate_cmd =
  let family =
    Arg.(
      value & opt string "legal"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"legal, register, multi or mutated.")
  in
  let procs = procs_arg ~doc:"" 3 in
  let objects = objects_arg ~doc:"" 4 in
  let mops = Arg.(value & opt int 10 & info [ "mops" ] ~docv:"N") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Emit NDJSON (one m-operation per line) instead of the text \
             format, for piping traces too large to materialise.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random history")
    Term.(
      const generate $ family $ procs $ objects $ mops $ seed $ out $ stream)
(* --- experiments --- *)

let experiments ids quick =
  let known = Mmc_experiments.Registry.all in
  let unknown =
    List.filter
      (fun id ->
        String.lowercase_ascii id <> "all"
        && Mmc_experiments.Registry.find id = None)
      ids
  in
  if unknown <> [] then begin
    List.iter
      (fun id ->
        Fmt.epr "mmc: experiments: unknown experiment %S (known: all, %s)@." id
          (String.concat ", "
             (List.map (fun (e : Mmc_experiments.Registry.entry) -> e.id) known)))
      unknown;
    124
  end
  else begin
    let entries =
      if ids = [] || List.exists (fun id -> String.lowercase_ascii id = "all") ids
      then known
      else List.filter_map Mmc_experiments.Registry.find ids
    in
    List.iter
      (fun (e : Mmc_experiments.Registry.entry) ->
        Mmc_experiments.Table.print (if quick then e.quick () else e.run ());
        print_newline ())
      entries;
    0
  end

let experiments_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids to print; $(b,all) (or none) prints every table.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes.") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print experiment tables"
       ~man:
         [
           `S Manpage.s_description;
           `P "Exit status: 0 after printing the tables, 124 on an unknown id \
               (nothing is printed then).";
         ])
    Term.(const experiments $ ids $ quick)

(* --- stats, show, dot --- *)

let history_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"History file.")

let stats file =
  with_history ~cmd:"stats" file @@ fun h ->
  Fmt.pr "%a@." Analysis.pp (Analysis.analyze h);
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Structural metrics of a history")
    Term.(const stats $ history_file)

let show file width =
  with_history ~cmd:"show" file @@ fun h ->
  print_string (Timeline.render ~width h);
  0

let show_cmd =
  let width =
    Arg.(
      value
      & opt count Timeline.default_width
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline width in columns.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render a history as an ASCII timeline")
    Term.(const show $ history_file $ width)

let dot file out include_rt =
  with_history ~cmd:"dot" file @@ fun h ->
  let text = Dot.history ~include_rt h in
  (match out with
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc text)
  | None -> print_string text);
  0

let dot_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE")
  in
  let no_rt =
    Arg.(value & flag & info [ "no-rt" ] ~doc:"Omit real-time edges.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a history as graphviz")
    Term.(const dot $ history_file $ out $ Term.app (const not) no_rt)

(* --- figures --- *)

let figures () =
  let h1, _ = Mmc_workload.Figures.figure1 () in
  Fmt.pr "Figure 1:@.%a@.@." History.pp h1;
  let h2, _, ww = Mmc_workload.Figures.figure2 () in
  Fmt.pr "Figure 2 (H1):@.%a@.WW edges: %a@." History.pp h2
    Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
    ww;
  Fmt.pr "S1 (Figure 3) legal: %b@."
    (Sequential.legal_and_equivalent h2 Mmc_workload.Figures.figure3_s1_order);
  0

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Print the paper's figures")
    Term.(const figures $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "mmc" ~version:"1.0.0"
       ~doc:"Multi-object consistency conditions: protocols and checkers")
    [
      simulate_cmd;
      soak_cmd;
      faults_cmd;
      recover_cmd;
      chaos_cmd;
      shard_cmd;
      check_cmd;
      generate_cmd;
      experiments_cmd;
      figures_cmd;
      dot_cmd;
      show_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
