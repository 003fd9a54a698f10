(* Tests for the WW/OO/WO constraints and the ~rw extension (Section 4). *)

open Mmc_core

let w x v = Op.write x (Value.Int v)

let mop id proc ops inv resp = Mop.make ~id ~proc ~ops ~inv ~resp

(* Figure 2's H1 with the WW synchronization edges. *)
let fig2 () =
  let h, ids, ww = Mmc_workload.Figures.figure2 () in
  let base = History.base_relation h History.Msc in
  Relation.add_edges base ww;
  (h, ids, Relation.transitive_closure base)

let test_ww_satisfied () =
  let h, _, closed = fig2 () in
  Alcotest.(check bool) "WW holds" true (Constraints.satisfies_ww h closed);
  Alcotest.(check bool) "WO holds" true (Constraints.satisfies_wo h closed)

let test_ww_violated_without_sync () =
  let h, _, _ = fig2 () in
  let closed =
    Relation.transitive_closure (History.base_relation h History.Msc)
  in
  (* Updates gamma (w x) and delta (w y) are on one process, ordered;
     but alpha (w y) and gamma (w x) are unordered without the sync
     edges. *)
  Alcotest.(check bool) "WW fails" false (Constraints.satisfies_ww h closed)

let test_oo () =
  let h, (_alpha, beta, _gamma, delta), closed = fig2 () in
  (* beta reads y, delta writes y: they conflict but are not ordered
     under WW sync alone — OO must fail. *)
  Alcotest.(check bool) "conflicting pair unordered" false
    (Relation.mem closed beta delta || Relation.mem closed delta beta);
  Alcotest.(check bool) "OO fails" false (Constraints.satisfies_oo h closed);
  (* Adding the missing edge satisfies OO. *)
  let r2 = Relation.copy closed in
  Relation.add r2 beta delta;
  let r2 = Relation.transitive_closure r2 in
  Alcotest.(check bool) "OO holds with edge" true (Constraints.satisfies_oo h r2)

let test_wo_weaker_than_both () =
  (* Two writers of different objects: WO holds, WW does not. *)
  let h =
    History.create ~n_objects:2
      [ mop 1 0 [ w 0 1 ] 0 5; mop 2 1 [ w 1 2 ] 0 5 ]
      ~rf:[]
  in
  let closed =
    Relation.transitive_closure (History.base_relation h History.Msc)
  in
  Alcotest.(check bool) "WO holds" true (Constraints.satisfies_wo h closed);
  Alcotest.(check bool) "WW fails" false (Constraints.satisfies_ww h closed)

let test_rw_edges_figure2 () =
  let h, (alpha, beta, gamma, delta), closed = fig2 () in
  let rw = Constraints.rw_edges h closed in
  (* interfere(beta, alpha, delta) on y and alpha ~H delta (through
     gamma) force beta ~rw delta. *)
  Alcotest.(check bool) "beta ~rw delta" true (List.mem (beta, delta) rw);
  (* interfere(alpha, init, gamma) on x and init ~H gamma force
     alpha ~rw gamma (already in ~H, but ~rw derives it too). *)
  Alcotest.(check bool) "alpha ~rw gamma" true (List.mem (alpha, gamma) rw)

let test_extended_acyclic_figure2 () =
  let h, (_, beta, _, delta), closed = fig2 () in
  let ext = Constraints.extended h closed in
  Alcotest.(check bool) "extension irreflexive" true (Relation.is_irreflexive ext);
  Alcotest.(check bool) "beta before delta forced" true (Relation.mem ext beta delta)

(* Lemma 4 as a property: on legal WW-constrained histories, the
   extended relation is irreflexive. *)
let prop_lemma4 =
  QCheck.Test.make ~name:"lemma 4: legal + WW => extension irreflexive"
    ~count:100
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let h =
        Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:3
          ~n_mops:8 ~max_len:3 ~read_ratio:0.5 ()
      in
      (* Synchronize all updates in generation order to install WW. *)
      let updates =
        History.real_mops h
        |> List.filter Mop.is_update
        |> List.map (fun (m : Mop.t) -> m.Mop.id)
      in
      let base = History.base_relation h History.Msc in
      Relation.add_edges base (Check_constrained.sync_edges [ updates ]);
      let closed = Relation.transitive_closure base in
      if not (Relation.is_irreflexive closed) then
        QCheck.Test.fail_report "base relation cyclic";
      if not (Constraints.satisfies_ww h closed) then
        QCheck.Test.fail_report "WW not installed";
      if not (Legality.is_legal h closed) then
        QCheck.Test.fail_report "generated history not legal";
      Relation.is_irreflexive (Constraints.extended h closed))

let () =
  Alcotest.run "constraints"
    [
      ( "unit",
        [
          Alcotest.test_case "WW satisfied" `Quick test_ww_satisfied;
          Alcotest.test_case "WW needs sync" `Quick test_ww_violated_without_sync;
          Alcotest.test_case "OO" `Quick test_oo;
          Alcotest.test_case "WO weaker" `Quick test_wo_weaker_than_both;
          Alcotest.test_case "rw edges (Figure 2)" `Quick test_rw_edges_figure2;
          Alcotest.test_case "extension (Figure 2)" `Quick test_extended_acyclic_figure2;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_lemma4 ]);
    ]
