(* Differential suite: the chain-decomposed Theorem-7 check against the
   dense reference pipeline.

   For every input, `Check_constrained.check_chain` over a flavour plus
   synchronization orders must give the verdict constructor
   `check_relation` gives over the dense base relation plus the same
   orders' edges; an `Admissible`
   witness must validate against that dense base, a `Not_legal` triple
   must violate its dense closure, and the same check over a recycled
   arena must return the identical result.  Inputs: the random history
   families (legal, register, multi-object, perturbed reads-from) at
   2..40 m-operations under every flavour x WW/OO/WO, with and without
   a random synchronization chain; the golden traces; and protocol runs
   under a fault plan.  The deterministic sweep must produce all five
   verdict kinds. *)

open Mmc_core

let kind_name = function
  | Check_constrained.Admissible _ -> "admissible"
  | Check_constrained.Not_legal _ -> "not-legal"
  | Check_constrained.Constraint_violated -> "constraint-violated"
  | Check_constrained.Cyclic -> "cyclic"
  | Check_constrained.Extended_cyclic -> "extended-cyclic"

let seen : (string, int) Hashtbl.t = Hashtbl.create 8
let comparisons = ref 0

(* Shared by every case, so the check's scratch tables come back dirty
   from earlier, differently sized histories. *)
let arena = Relation.Arena.create ()

(* Compare one (history, flavour, sync, kind) case; [Error msg] on a
   mismatch. *)
let compare_case h ~flavour ~sync kind =
  let base = History.base_relation h flavour in
  Relation.add_edges base (Check_constrained.sync_edges sync);
  let dense = Check_constrained.check_relation h base kind in
  let chain = Check_constrained.check_chain h ~flavour ~sync kind in
  let recycled = Check_constrained.check_chain ~arena h ~flavour ~sync kind in
  incr comparisons;
  let k = kind_name chain in
  Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k));
  if kind_name dense <> k then
    Error (Fmt.str "dense %s, chain %s" (kind_name dense) k)
  else if recycled <> chain then
    Error
      (Fmt.str "chain with a recycled arena gives %a, without %a"
         Check_constrained.pp_result recycled Check_constrained.pp_result chain)
  else
    match chain with
    | Check_constrained.Admissible w when not (Sequential.validate h base w) ->
      Error (Fmt.str "chain witness %a does not validate" Sequential.pp w)
    | Check_constrained.Not_legal t ->
      let closed = Relation.transitive_closure base in
      if
        t.Legality.gamma <> t.Legality.alpha
        && t.Legality.gamma <> t.Legality.beta
        && Relation.mem closed t.Legality.beta t.Legality.gamma
        && Relation.mem closed t.Legality.gamma t.Legality.alpha
      then Ok ()
      else Error (Fmt.str "chain triple %a is not a violation" Legality.pp_triple t)
    | _ -> Ok ()

let ctx h ~flavour ~sync kind =
  Fmt.str "%a@.flavour=%a kind=%a sync=[%a]" History.pp h History.pp_flavour
    flavour Constraints.pp_kind kind
    Fmt.(list ~sep:semi (list ~sep:(any "<") int))
    sync

let expect_same h ~flavour ~sync kind =
  match compare_case h ~flavour ~sync kind with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s@.%s" msg (ctx h ~flavour ~sync kind)

let flavours = [ History.Msc; History.Mnorm; History.Mlin ]
let kinds = [ Constraints.WW; Constraints.OO; Constraints.WO ]

(* Synchronization chains for a history: none; its updates in id
   order (the witness order of the legal family, so admissible cases
   occur under WW); and a random order over a random subset of
   m-operations (contradictions give cycles and violations). *)
let sync_chains ~seed h =
  let rng = Mmc_sim.Rng.create seed in
  let real = History.real_mops h in
  let updates =
    List.filter_map
      (fun (m : Mop.t) -> if Mop.is_update m then Some m.Mop.id else None)
      real
  in
  let subset =
    List.filter_map
      (fun (m : Mop.t) ->
        if Mmc_sim.Rng.bernoulli rng ~p:0.6 then Some m.Mop.id else None)
      real
    |> Array.of_list
  in
  for i = Array.length subset - 1 downto 1 do
    let j = Mmc_sim.Rng.int rng ~bound:(i + 1) in
    let t = subset.(i) in
    subset.(i) <- subset.(j);
    subset.(j) <- t
  done;
  [ []; [ updates ]; [ Array.to_list subset ] ]

let all_cases ~seed h =
  List.iter
    (fun sync ->
      List.iter
        (fun flavour ->
          List.iter (fun kind -> expect_same h ~flavour ~sync kind) kinds)
        flavours)
    (sync_chains ~seed h)

let family ~seed ~n = function
  | 0 ->
    Some
      (Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:3
         ~n_mops:n ~max_len:3 ~read_ratio:0.5 ())
  | 1 ->
    Some
      (Mmc_workload.Histories.random_register ~seed ~n_procs:3 ~n_objects:2
         ~n_mops:n ~write_ratio:0.5 ())
  | 2 ->
    Some
      (Mmc_workload.Histories.random_multi ~seed ~n_procs:3 ~n_objects:3
         ~n_mops:n ~max_reads:2 ~max_writes:2 ())
  | 3 ->
    Mmc_workload.Histories.perturb_rf ~seed
      (Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:3
         ~n_mops:n ~max_len:3 ~read_ratio:0.5 ())
  | _ ->
    Mmc_workload.Histories.perturb_rf ~seed
      (Mmc_workload.Histories.random_multi ~seed ~n_procs:4 ~n_objects:3
         ~n_mops:n ~max_reads:2 ~max_writes:2 ())

(* Deterministic sweep: every family at sizes 2..40. *)
let test_families () =
  for fam = 0 to 4 do
    for n = 2 to 40 do
      for seed = 1 to 5 do
        let seed = (fam * 1000) + (n * 10) + seed in
        Option.iter (all_cases ~seed) (family ~seed ~n fam)
      done
    done
  done

let prop_random =
  QCheck.Test.make ~count:300 ~name:"chain verdict = dense verdict"
    QCheck.(triple (int_bound 99_999) (int_range 2 40) (int_bound 4))
    (fun (seed, n, fam) ->
      match family ~seed ~n fam with
      | None -> true
      | Some h ->
        all_cases ~seed h;
        true)

(* The verdict-only first stage against [check_chains] on the same
   input, under WW and OO (where Theorem 7 makes legality
   admissibility): the same refutation with the same [Not_legal]
   triple, and [Legal] exactly where [check_chains] answers
   [Admissible].  The first stage runs over the shared arena, as the
   windowed checker runs it. *)
let decided : (string, int) Hashtbl.t = Hashtbl.create 8

let decide_case h ~flavour ~sync kind =
  let c = Check_constrained.chains_of h ~sync in
  let full = Check_constrained.check_chains c ~flavour kind in
  let d = Check_constrained.decide_chains ~arena c ~flavour kind in
  let agree =
    match (d, full) with
    | Check_constrained.Legal, Check_constrained.Admissible _ -> true
    | Check_constrained.Refuted (Check_constrained.Not_legal t),
      Check_constrained.Not_legal t' ->
      t = t'
    | Check_constrained.Refuted Check_constrained.Cyclic, Check_constrained.Cyclic
    | ( Check_constrained.Refuted Check_constrained.Constraint_violated,
        Check_constrained.Constraint_violated ) ->
      true
    | _ -> false
  in
  let k = match d with Check_constrained.Legal -> "legal" | _ -> kind_name full in
  Hashtbl.replace decided k
    (1 + Option.value ~default:0 (Hashtbl.find_opt decided k));
  if not agree then
    Alcotest.failf "verdict-only %s, check_chains %a@.%s"
      (match d with
      | Check_constrained.Legal -> "legal"
      | Check_constrained.Refuted r -> Fmt.str "%a" Check_constrained.pp_result r)
      Check_constrained.pp_result full (ctx h ~flavour ~sync kind)

let decide_all ~seed h =
  List.iter
    (fun sync ->
      List.iter
        (fun flavour ->
          List.iter
            (fun kind -> decide_case h ~flavour ~sync kind)
            [ Constraints.WW; Constraints.OO ])
        flavours)
    (sync_chains ~seed h)

let load name =
  let candidates =
    [ Filename.concat "data" name; Filename.concat "test/data" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> Codec.of_file path
  | None -> Alcotest.failf "fixture %s not found" name

let test_golden () =
  List.iteri
    (fun i name -> all_cases ~seed:(i + 1) (load name))
    [
      "aw_broken.trace";
      "dekker.trace";
      "local_bad.trace";
      "mlin_good.trace";
      "stale_read.trace";
    ]

let test_decide () =
  for fam = 0 to 4 do
    for n = 2 to 40 do
      for seed = 1 to 5 do
        let seed = (fam * 1000) + (n * 10) + seed in
        Option.iter (decide_all ~seed) (family ~seed ~n fam)
      done
    done
  done;
  List.iteri
    (fun i name -> decide_all ~seed:(i + 1) (load name))
    [
      "aw_broken.trace";
      "dekker.trace";
      "local_bad.trace";
      "mlin_good.trace";
      "stale_read.trace";
    ];
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "verdict %s occurred" k)
        true
        (Hashtbl.mem decided k))
    [ "legal"; "not-legal"; "constraint-violated"; "cyclic" ]

(* Protocol traces: the recorded broadcast order is the sync order. *)
let test_protocol_runs () =
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
          let spec =
            { Mmc_workload.Spec.default with n_objects = 6; read_ratio = 0.5 }
          in
          let cfg =
            {
              Mmc_store.Runner.default_config with
              n_procs = 4;
              n_objects = 6;
              ops_per_proc = 10;
              kind;
              fault = plan;
            }
          in
          let res =
            Mmc_store.Runner.run ~seed cfg
              ~workload:(Mmc_workload.Generator.mixed spec)
          in
          let h = res.Mmc_store.Runner.history in
          let sync = [ res.Mmc_store.Runner.sync_order ] in
          List.iter
            (fun flavour ->
              List.iter (fun k -> expect_same h ~flavour ~sync k) kinds)
            flavours)
        [ 1; 2; 3 ])
    [ Mmc_store.Store.Msc; Mmc_store.Store.Mlin; Mmc_store.Store.Rmsc ]

(* Runs last: the sweep above must have met every verdict kind, or the
   differential comparison is not exercising every branch. *)
let test_coverage () =
  List.iter
    (fun k ->
      let count = Option.value ~default:0 (Hashtbl.find_opt seen k) in
      Fmt.pr "%-20s %d of %d comparisons@." k count !comparisons;
      Alcotest.(check bool) (Fmt.str "verdict %s occurred" k) true (count > 0))
    [
      "admissible"; "not-legal"; "constraint-violated"; "cyclic";
      "extended-cyclic";
    ]

let () =
  Alcotest.run "chain"
    [
      ( "differential",
        [
          Alcotest.test_case "history families x flavours x constraints"
            `Quick test_families;
          Alcotest.test_case "golden traces" `Quick test_golden;
          Alcotest.test_case "protocol runs under faults" `Quick
            test_protocol_runs;
          Alcotest.test_case "all five verdicts occur" `Quick test_coverage;
          Alcotest.test_case "verdict-only = check_chains" `Quick test_decide;
          QCheck_alcotest.to_alcotest prop_random;
        ] );
    ]
