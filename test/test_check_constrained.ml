(* Tests for the polynomial constrained checker (Theorem 7): under the
   OO- or WW-constraint, admissibility <=> legality, and the checker
   agrees with the exhaustive search. *)

open Mmc_core

let w x v = Op.write x (Value.Int v)
let r x v = Op.read x (Value.Int v)

let mop id proc ops inv resp = Mop.make ~id ~proc ~ops ~inv ~resp

(* Figure 2 as the canonical WW-constrained history. *)
let fig2_with_base () =
  let h, ids, ww = Mmc_workload.Figures.figure2 () in
  let base = History.base_relation h History.Msc in
  Relation.add_edges base ww;
  (h, ids, base)

let test_figure2_admissible () =
  let h, _, base = fig2_with_base () in
  match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Admissible wt ->
    Alcotest.(check bool) "witness validates" true (Sequential.validate h base wt)
  | other ->
    Alcotest.failf "expected admissible, got %a" Check_constrained.pp_result other

let test_figure2_naive_extension_rejected () =
  (* Figure 3's S1 = alpha gamma delta beta is sequential but not
     legal. *)
  let h, _, _ = Mmc_workload.Figures.figure2 () in
  Alcotest.(check bool) "S1 not legal" false
    (Sequential.legal_and_equivalent h Mmc_workload.Figures.figure3_s1_order);
  Alcotest.(check bool) "guided order legal" true
    (Sequential.legal_and_equivalent h Mmc_workload.Figures.figure2_legal_order)

let test_constraint_violation_detected () =
  let h, _, _ = Mmc_workload.Figures.figure2 () in
  (* Without the synchronization edges the history is not under WW. *)
  let base = History.base_relation h History.Msc in
  match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Constraint_violated -> ()
  | other -> Alcotest.failf "expected violation, got %a" Check_constrained.pp_result other

let test_illegal_rejected () =
  (* WW-synchronized history with an interposed overwrite: b reads x
     from a, c writes x, order a < c < b under ~H: illegal. *)
  let h =
    History.create ~n_objects:1
      [ mop 1 0 [ w 0 1 ] 0 5; mop 2 1 [ w 0 2 ] 10 15; mop 3 2 [ r 0 1 ] 20 25 ]
      ~rf:[ { History.reader = 3; obj = 0; writer = 1 } ]
  in
  let base = History.base_relation h History.Mlin in
  match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Not_legal t ->
    Alcotest.(check int) "interposer" 2 t.Legality.gamma
  | other -> Alcotest.failf "expected Not_legal, got %a" Check_constrained.pp_result other

let test_cyclic_relation () =
  (* Mutual reads give a cyclic ~H. *)
  let h =
    History.create ~n_objects:2
      [
        mop 1 0 [ r 1 2; w 0 1 ] 0 5;
        mop 2 1 [ r 0 1; w 1 2 ] 0 5;
      ]
      ~rf:
        [
          { History.reader = 1; obj = 1; writer = 2 };
          { History.reader = 2; obj = 0; writer = 1 };
        ]
  in
  let base = History.base_relation h History.Msc in
  match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Cyclic -> ()
  | other -> Alcotest.failf "expected Cyclic, got %a" Check_constrained.pp_result other

(* Install WW on a history by chaining updates in id order; returns the
   base relation. *)
let ww_base h =
  let updates =
    History.real_mops h
    |> List.filter Mop.is_update
    |> List.map (fun (m : Mop.t) -> m.Mop.id)
  in
  let base = History.base_relation h History.Msc in
  Relation.add_edges base (Check_constrained.sync_edges [ updates ]);
  base

let prop_accepts_consistent_ww =
  QCheck.Test.make
    ~name:"theorem 7 checker accepts consistent WW histories" ~count:80
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let h =
        Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:4
          ~n_mops:10 ~max_len:3 ~read_ratio:0.5 ()
      in
      let base = ww_base h in
      match Check_constrained.check_relation h base Constraints.WW with
      | Check_constrained.Admissible wt -> Sequential.validate h base wt
      | _ -> false)

(* Theorem 7 equivalence: under WW, the polynomial verdict (legal or
   not) must agree with the exhaustive admissibility search. *)
let prop_theorem7_equivalence =
  QCheck.Test.make ~name:"theorem 7: legality <=> admissibility under WW"
    ~count:80
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let h =
        Mmc_workload.Histories.random_register ~seed ~n_procs:3 ~n_objects:2
          ~n_mops:7 ~write_ratio:0.5 ()
      in
      let base = ww_base h in
      QCheck.assume (Relation.is_acyclic base);
      let poly =
        match Check_constrained.check_relation h base Constraints.WW with
        | Check_constrained.Admissible _ -> true
        | Check_constrained.Not_legal _ -> false
        | Check_constrained.Constraint_violated | Check_constrained.Cyclic
        | Check_constrained.Extended_cyclic ->
          QCheck.assume_fail ()
      in
      let exhaustive =
        match Admissible.search h base with
        | Admissible.Admissible _ -> true
        | Admissible.Not_admissible -> false
        | Admissible.Aborted -> QCheck.assume_fail ()
      in
      poly = exhaustive)

let () =
  Alcotest.run "check-constrained"
    [
      ( "unit",
        [
          Alcotest.test_case "figure 2 admissible" `Quick test_figure2_admissible;
          Alcotest.test_case "figure 3 rejected" `Quick
            test_figure2_naive_extension_rejected;
          Alcotest.test_case "constraint violation" `Quick
            test_constraint_violation_detected;
          Alcotest.test_case "illegal rejected" `Quick test_illegal_rejected;
          Alcotest.test_case "cyclic relation" `Quick test_cyclic_relation;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_accepts_consistent_ww; prop_theorem7_equivalence ] );
    ]
