(* The DESIGN.md §12 optimistic-delivery anomaly as a pinned
   regression, a small deterministic chaos sweep, and the takeover
   cases the release rule (ordering state pruned below each replica's
   applied cursor) must get right.

   The schedule: five replicas, a partition isolates {0,1} during
   [150,500), and node 1 wipe-crashes inside the island at 250.  The
   majority side elects a new epoch and keeps stamping; under
   optimistic delivery the minority applies positions that the epoch
   change later fences, and the replicas end in divergent states.
   Under quorum-stable delivery the same schedule cannot apply an
   unstable position, so the run converges and the stitched history
   stays Theorem-7 admissible. *)

open Mmc_core
open Mmc_sim

let anomaly_plan =
  {
    Fault.none with
    Fault.partitions = [ { Fault.from_ = 150; until = 500; island = [ 0; 1 ] } ];
    Fault.crashes = [ Fault.crash ~wipe:true ~node:1 ~at:250 ~back:550 () ];
  }

let run ~seed ~delivery ~plan =
  let spec = { Mmc_workload.Spec.default with n_objects = 8 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 5;
      n_objects = 8;
      ops_per_proc = 10;
      kind = Mmc_store.Store.Rmsc;
      latency = Latency.Uniform (5, 15);
      fault = plan;
      delivery;
    }
  in
  Mmc_store.Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let admissible res =
  match Mmc_store.Runner.check_trace res ~flavour:History.Msc with
  | Check_constrained.Admissible _ -> true
  | _ -> false

let handle (res : Mmc_store.Runner.result) =
  match res.Mmc_store.Runner.recovery with
  | Some h -> h
  | None -> Alcotest.fail "recovery handle missing"

(* Optimistic delivery: the run either ends with divergent replica
   states or blows up mid-run when the recorder sees two writers of
   the same version — both are the anomaly. *)
let test_optimistic_diverges () =
  match run ~seed:3 ~delivery:Mmc_store.Rstore.Optimistic ~plan:anomaly_plan with
  | exception _ -> ()
  | res ->
    let h = handle res in
    Alcotest.(check bool)
      "optimistic delivery diverges under the §12 schedule" false
      (h.Mmc_store.Rstore.converged ())

let test_stable_converges () =
  let res = run ~seed:3 ~delivery:Mmc_store.Rstore.Stable ~plan:anomaly_plan in
  let h = handle res in
  Alcotest.(check bool) "replicas converged" true
    (h.Mmc_store.Rstore.converged ());
  Alcotest.(check bool) "stitched history admissible" true (admissible res);
  Alcotest.(check int) "every client finished" (5 * 10)
    res.Mmc_store.Runner.completed

(* One fuzzed plan under stable delivery must satisfy the three
   recovery oracles: convergence, stitched admissibility and counter
   sanity (every client finished, every wipe recovered). *)
let check_fuzzed ~ops seed =
  let plan = Fault.fuzz ~rng:(Rng.create seed) ~n:4 in
  let spec = { Mmc_workload.Spec.default with n_objects = 8 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = ops;
      kind = Mmc_store.Store.Rmsc;
      latency = Latency.Uniform (5, 15);
      fault = plan;
      delivery = Mmc_store.Rstore.Stable;
    }
  in
  let ctx = Fmt.str "(fuzz seed %d, %d ops: %a)" seed ops Fault.pp_plan plan in
  match
    Mmc_store.Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)
  with
  | exception e -> Alcotest.failf "run raised %s %s" (Printexc.to_string e) ctx
  | res ->
    let h = handle res in
    Alcotest.(check bool)
      (Fmt.str "replicas converged %s" ctx)
      true
      (h.Mmc_store.Rstore.converged ());
    Alcotest.(check bool)
      (Fmt.str "stitched history admissible %s" ctx)
      true (admissible res);
    Alcotest.(check int)
      (Fmt.str "every client finished %s" ctx)
      (4 * ops) res.Mmc_store.Runner.completed;
    Alcotest.(check int)
      (Fmt.str "every wipe recovered %s" ctx)
      (List.length (Fault.wipes plan))
      (h.Mmc_store.Rstore.recoveries ())

(* A short deterministic fuzz sweep in stable mode.  The CLI smoke run
   ([mmc chaos --plans 25]) covers more seeds; this keeps a handful
   under dune runtest so a regression fails close to home. *)
let test_fuzz_stable () =
  for seed = 1 to 8 do
    check_fuzzed ~ops:10 seed
  done

(* Longer fuzzed runs reach the catch-up snapshot path.  At seeds 24
   and 78 a replica's pull from position 0 was answered with a peer
   checkpoint after its cursor had moved on; installing it skipped the
   replica's own unresponded update, and a later read of that version
   found no recorded writer.  A snapshot now installs only while the
   cursor still stands where the pull asked from. *)
let test_stale_snapshot_seeds () = List.iter (check_fuzzed ~ops:400) [ 24; 78 ]

(* A chaos FAIL prints its plan as [mmc recover --plan '…']: the
   printed plan must rerun the very same run. *)
let test_replayed_plans () =
  let spec = { Mmc_workload.Spec.default with n_objects = 8 } in
  let run ~seed plan =
    let cfg =
      {
        Mmc_store.Runner.default_config with
        n_procs = 4;
        n_objects = 8;
        ops_per_proc = 10;
        kind = Mmc_store.Store.Rmsc;
        fault = plan;
      }
    in
    let r =
      Mmc_store.Runner.run ~seed cfg
        ~workload:(Mmc_workload.Generator.mixed spec)
    in
    Mmc_store.Runner.(r.completed, r.duration, r.messages)
  in
  for seed = 1 to 20 do
    let plan = Fault.fuzz ~rng:(Rng.create seed) ~n:4 in
    let replayed =
      match Fault.of_spec (Fault.to_spec plan) with
      | Ok p -> p
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg
    in
    Alcotest.(check (triple int int int))
      (Fmt.str "seed %d: completed, duration, messages" seed)
      (run ~seed plan) (run ~seed replayed)
  done

(* A takeover after most of a long run has been released: the epoch-0
   sequencer is wiped late in a 5-replica run of 5000 updates.  The
   survivors' sync answers carry only their unreleased tails, yet the
   new epoch must neither fence nor renumber a decided position nor
   stamp a decided update twice. *)
let test_takeover_after_release () =
  List.iter
    (fun seed ->
      let spec =
        { Mmc_workload.Spec.default with n_objects = 8; read_ratio = 0.0 }
      in
      let plan =
        {
          Fault.none with
          Fault.crashes =
            [ Fault.crash ~wipe:true ~node:0 ~at:28_000 ~back:28_600 () ];
        }
      in
      let cfg =
        {
          Mmc_store.Runner.default_config with
          n_procs = 5;
          n_objects = 8;
          ops_per_proc = 1000;
          kind = Mmc_store.Store.Rmsc;
          latency = Latency.Uniform (5, 15);
          fault = plan;
          delivery = Mmc_store.Rstore.Stable;
        }
      in
      let res =
        Mmc_store.Runner.run ~seed cfg
          ~workload:(Mmc_workload.Generator.mixed spec)
      in
      let h = handle res in
      let b = h.Mmc_store.Rstore.broadcast_stats () in
      let ctx = Fmt.str "(seed %d)" seed in
      Alcotest.(check bool) ("a takeover formed " ^ ctx) true
        (b.Mmc_broadcast.Rbcast.syncs >= 1);
      Alcotest.(check bool) ("replicas converged " ^ ctx) true
        (h.Mmc_store.Rstore.converged ());
      Alcotest.(check bool) ("stitched history admissible " ^ ctx) true
        (admissible res);
      Alcotest.(check int) ("completed = issued " ^ ctx) 5000
        res.Mmc_store.Runner.completed;
      Alcotest.(check int) ("one record per update " ^ ctx) 5000
        (List.length res.Mmc_store.Runner.sync_order);
      (* Unpruned, each answer would ship every position its sender
         ever saw: thousands per sync. *)
      Alcotest.(check bool)
        (Fmt.str "sync answers carry the unreleased tail (%d entries) %s"
           b.Mmc_broadcast.Rbcast.sync_entries ctx)
        true
        (b.Mmc_broadcast.Rbcast.sync_entries <= 100))
    [ 1; 2; 3 ]

(* A replica applies a position through catch-up while its [seen] still
   holds a superseded stamp there: its own update, stamped by a deposed
   sequencer inside a minority island.  The applied stamping is the
   authority, but the stale entry must stay until the close withdraws
   it — the withdrawal is what hands the update back for resubmission.

   Driven at the broadcast layer with a test store that applies a
   position once a majority holds its exact stamping (the stable rule)
   and releases it.  Node 4's catch-up is scripted: inside the
   partition it applies position 2 with the stamping the majority
   decided there. *)
let test_catchup_over_superseded_stamp () =
  let open Mmc_broadcast in
  let n = 5 and quorum = 3 in
  let plan =
    {
      Fault.none with
      Fault.partitions = [ { Fault.from_ = 50; until = 700; island = [ 0; 4 ] } ];
    }
  in
  let e = Engine.create () in
  let rng = Rng.create 7 in
  let fault = Fault.create plan ~rng:(Rng.split rng) in
  let rb = ref None in
  (* per node: delivered stamps at or above the cursor, the cursor, and
     the applied sequence *)
  let held = Array.init n (fun _ -> Hashtbl.create 16) in
  let cursor = Array.make n 0 in
  let applied = Array.make n [] in
  let holders = Hashtbl.create 16 in
  let count key = Option.value ~default:0 (Hashtbl.find_opt holders key) in
  let apply node pos stamp =
    let origin, oseq = match stamp with Some s -> s | None -> (-1, -1) in
    Rbcast.release (Option.get !rb) ~node ~pos ~origin ~oseq;
    applied.(node) <- (pos, stamp) :: applied.(node);
    cursor.(node) <- pos + 1
  in
  let rec drain node =
    match Hashtbl.find_opt held.(node) cursor.(node) with
    | Some (Some s) when count (cursor.(node), s) >= quorum ->
      apply node cursor.(node) (Some s);
      drain node
    | Some None ->
      apply node cursor.(node) None;
      drain node
    | _ -> ()
  in
  let drain_all () =
    for node = 0 to n - 1 do
      drain node
    done
  in
  rb :=
    Some
      (Ha_sequencer.create ~fault e ~n ~latency:(Latency.Uniform (1, 5))
         ~rng:(Rng.split rng)
         ~deliver:(fun ~node ~origin:_ ~pos d ->
           if pos >= cursor.(node) then begin
             (match (Hashtbl.find_opt held.(node) pos, d) with
             | Some (Some s), _ ->
               Hashtbl.replace holders (pos, s) (count (pos, s) - 1)
             | _ -> ());
             match d with
             | Rbcast.Payload s ->
               Hashtbl.replace held.(node) pos (Some s);
               Hashtbl.replace holders (pos, s) (count (pos, s) + 1)
             | Rbcast.Hole -> Hashtbl.replace held.(node) pos None
             | Rbcast.Retract -> Hashtbl.remove held.(node) pos
           end;
           drain_all ()));
  let rb = Option.get !rb in
  (* Each payload is its own (origin, oseq), oseqs counting per origin. *)
  let next = Array.make n 0 in
  let bcast ~at src =
    Engine.at e ~time:at (fun () ->
        let p = (src, next.(src)) in
        next.(src) <- next.(src) + 1;
        Rbcast.broadcast rb ~src p)
  in
  bcast ~at:1 2;
  bcast ~at:5 3;
  (* inside the island: stamped at 2 by the soon-deposed sequencer *)
  bcast ~at:60 4;
  (* after the majority's takeover: its epoch stamps position 2 *)
  bcast ~at:400 1;
  Engine.at e ~time:500 (fun () ->
      Alcotest.(check int) "node 4 waits at position 2" 2 cursor.(4);
      Alcotest.(check bool) "the majority applied (1, 0) at 2" true
        (List.mem (2, Some (1, 0)) applied.(1));
      apply 4 2 (Some (1, 0)));
  Engine.run e;
  let seq node = List.rev applied.(node) in
  for node = 0 to n - 1 do
    Alcotest.(check bool)
      (Fmt.str "node %d applied node 4's update once" node)
      true
      (List.length (List.filter (fun (_, s) -> s = Some (4, 0)) (seq node)) = 1);
    Alcotest.(check bool)
      (Fmt.str "node %d agrees with node 1" node)
      true
      (seq node = seq 1)
  done;
  Alcotest.(check bool) "a takeover formed" true
    ((Rbcast.stats rb).Rbcast.syncs >= 1)

let () =
  Alcotest.run "chaos"
    [
      ( "section-12 anomaly",
        [
          Alcotest.test_case "optimistic delivery diverges" `Quick
            test_optimistic_diverges;
          Alcotest.test_case "stable delivery converges" `Quick
            test_stable_converges;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "stable mode survives random plans" `Quick
            test_fuzz_stable;
          Alcotest.test_case "stale snapshot seeds 24 and 78" `Quick
            test_stale_snapshot_seeds;
          Alcotest.test_case "printed plans replay the same runs" `Quick
            test_replayed_plans;
        ] );
      ( "release",
        [
          Alcotest.test_case "takeover after most positions released" `Quick
            test_takeover_after_release;
          Alcotest.test_case "catch-up over a superseded stamp" `Quick
            test_catchup_over_superseded_stamp;
        ] );
    ]
