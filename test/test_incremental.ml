(* Equivalence of the incremental Theorem-7 pipeline and the batch
   checker: on random Generator traces, `Check_constrained.Incremental`
   fed edge-by-edge (the `Runner.check_trace` path) must reach the same
   verdict as `check_relation` over the same relation built in one
   shot. *)

open Mmc_core
open Mmc_store

let verdict =
  Alcotest.testable Check_constrained.pp_result Check_constrained.same_verdict

(* The batch relation `check_trace` streams: flavour base edges plus
   the recorded broadcast order. *)
let batch_check (res : Runner.result) ~flavour ~kind =
  let h = res.Runner.history in
  let rel = Relation.create (History.n_mops h) in
  Relation.add_edges rel (History.base_edges h flavour);
  Relation.add_edges rel (Check_constrained.sync_edges [ res.Runner.sync_order ]);
  Check_constrained.check_relation h rel kind

let run_one ~seed ~kind ~read_ratio =
  let spec =
    { Mmc_workload.Spec.default with n_objects = 8; read_ratio }
  in
  let cfg =
    {
      Runner.default_config with
      n_procs = 4;
      n_objects = 8;
      ops_per_proc = 12;
      kind;
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

(* Sweep stores x read ratios x seeds under WW. *)
let test_equivalence_ww () =
  List.iter
    (fun kind ->
      List.iter
        (fun read_ratio ->
          for seed = 0 to 4 do
            let res = run_one ~seed ~kind ~read_ratio in
            let flavour = Store.flavour kind in
            Alcotest.check verdict
              (Fmt.str "%a r=%.1f seed=%d" Store.pp_kind kind read_ratio seed)
              (batch_check res ~flavour ~kind:Constraints.WW)
              (Runner.check_trace res ~flavour)
          done)
        [ 0.0; 0.5; 1.0 ])
    [ Store.Msc; Store.Mlin; Store.Central ]

(* Update-only traffic satisfies the OO constraint too (the broadcast
   chain orders every conflicting pair); verdicts must still match. *)
let test_equivalence_oo () =
  List.iter
    (fun kind ->
      for seed = 0 to 4 do
        let res = run_one ~seed ~kind ~read_ratio:0.0 in
        let flavour = Store.flavour kind in
        Alcotest.check verdict
          (Fmt.str "OO %a seed=%d" Store.pp_kind kind seed)
          (batch_check res ~flavour ~kind:Constraints.OO)
          (Runner.check_trace ~kind:Constraints.OO res ~flavour)
      done)
    [ Store.Msc; Store.Mlin ]

(* Stores without a global broadcast order (empty sync_order) exercise
   the Constraint_violated path: mixed traffic leaves update pairs
   unordered.  Both pipelines must say so. *)
let test_equivalence_unsynchronized () =
  for seed = 0 to 2 do
    let res = run_one ~seed ~kind:Store.Lock ~read_ratio:0.3 in
    Alcotest.check verdict
      (Fmt.str "lock seed=%d" seed)
      (batch_check res ~flavour:History.Mlin ~kind:Constraints.WW)
      (Runner.check_trace res ~flavour:History.Mlin)
  done

(* Property-style: random small traces across many seeds, all three
   verdict pipelines stay in lockstep. *)
let test_equivalence_many_seeds () =
  for seed = 10 to 40 do
    let res = run_one ~seed ~kind:Store.Msc ~read_ratio:0.4 in
    Alcotest.check verdict
      (Fmt.str "msc sweep seed=%d" seed)
      (batch_check res ~flavour:History.Msc ~kind:Constraints.WW)
      (Runner.check_trace res ~flavour:History.Msc)
  done

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "WW stores x ratios x seeds" `Quick
            test_equivalence_ww;
          Alcotest.test_case "OO update-only" `Quick test_equivalence_oo;
          Alcotest.test_case "unsynchronized stores" `Quick
            test_equivalence_unsynchronized;
          Alcotest.test_case "seed sweep" `Quick test_equivalence_many_seeds;
        ] );
    ]
