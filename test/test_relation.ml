(* Unit and property tests for Mmc_core.Relation. *)

open Mmc_core

let check = Alcotest.(check bool)

let test_empty () =
  let r = Relation.create 4 in
  check "no edges" false (Relation.mem r 0 1);
  check "acyclic" true (Relation.is_acyclic r);
  Alcotest.(check int) "cardinal" 0 (Relation.cardinal r)

let test_add_mem () =
  let r = Relation.create 4 in
  Relation.add r 0 1;
  Relation.add r 1 2;
  check "0->1" true (Relation.mem r 0 1);
  check "1->2" true (Relation.mem r 1 2);
  check "0->2 not direct" false (Relation.mem r 0 2);
  Relation.remove r 0 1;
  check "removed" false (Relation.mem r 0 1)

let test_closure () =
  let r = Relation.of_edges 5 [ (0, 1); (1, 2); (2, 3) ] in
  let c = Relation.transitive_closure r in
  check "0->3 in closure" true (Relation.mem c 0 3);
  check "0->2 in closure" true (Relation.mem c 0 2);
  check "3->0 not in closure" false (Relation.mem c 3 0);
  check "original untouched" false (Relation.mem r 0 3)

let test_cycle_detection () =
  let r = Relation.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  check "cyclic" false (Relation.is_acyclic r);
  let r2 = Relation.of_edges 3 [ (0, 1); (1, 2) ] in
  check "acyclic" true (Relation.is_acyclic r2);
  let self = Relation.of_edges 2 [ (0, 0) ] in
  check "self loop is a cycle" false (Relation.is_acyclic self)

let test_topo_sort () =
  let r = Relation.of_edges 4 [ (2, 0); (0, 1); (1, 3) ] in
  (match Relation.topo_sort r with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
    check "respects" true (Relation.respects r order);
    Alcotest.(check int) "length" 4 (Array.length order));
  let cyc = Relation.of_edges 2 [ (0, 1); (1, 0) ] in
  check "cyclic has no topo order" true (Relation.topo_sort cyc = None)

let test_topo_deterministic () =
  let r = Relation.of_edges 4 [ (3, 1) ] in
  match Relation.topo_sort r with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
    (* Ties broken by smallest id: 0, 2, 3 free initially. *)
    Alcotest.(check (array int)) "deterministic" [| 0; 2; 3; 1 |] order

let test_union_subset () =
  let a = Relation.of_edges 3 [ (0, 1) ] in
  let b = Relation.of_edges 3 [ (1, 2) ] in
  let u = Relation.union a b in
  check "a subset u" true (Relation.subset a u);
  check "b subset u" true (Relation.subset b u);
  check "u not subset a" false (Relation.subset u a);
  check "union edges" true (Relation.mem u 0 1 && Relation.mem u 1 2)

let test_respects () =
  let r = Relation.of_edges 3 [ (0, 1); (1, 2) ] in
  check "good order" true (Relation.respects r [| 0; 1; 2 |]);
  check "bad order" false (Relation.respects r [| 1; 0; 2 |]);
  check "not a permutation" false (Relation.respects r [| 0; 0; 2 |])

let test_of_total_order () =
  let r = Relation.of_total_order [| 2; 0; 1 |] in
  check "2->0" true (Relation.mem r 2 0);
  check "2->1" true (Relation.mem r 2 1);
  check "0->1" true (Relation.mem r 0 1);
  check "1->0 absent" false (Relation.mem r 1 0)

(* A size mismatch names the operation that was called. *)
let test_size_mismatch () =
  Alcotest.check_raises "equal"
    (Invalid_argument "Relation.equal: size mismatch") (fun () ->
      ignore (Relation.equal (Relation.create 3) (Relation.create 4)))

(* Properties *)

let gen_edges n =
  QCheck.Gen.(
    list_size (int_bound (n * 2))
      (pair (int_bound (n - 1)) (int_bound (n - 1))))

let arb_edges n = QCheck.make (gen_edges n)

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure idempotent" ~count:200 (arb_edges 8)
    (fun edges ->
      let r = Relation.of_edges 8 edges in
      let c1 = Relation.transitive_closure r in
      let c2 = Relation.transitive_closure c1 in
      Relation.equal c1 c2)

let prop_closure_contains =
  QCheck.Test.make ~name:"closure contains original" ~count:200 (arb_edges 8)
    (fun edges ->
      let r = Relation.of_edges 8 edges in
      Relation.subset r (Relation.transitive_closure r))

let prop_topo_respects =
  QCheck.Test.make ~name:"topo sort respects relation" ~count:200
    (arb_edges 10) (fun edges ->
      let edges = List.filter (fun (i, j) -> i < j) edges in
      let r = Relation.of_edges 10 edges in
      match Relation.topo_sort r with
      | None -> false (* i < j edges are always acyclic *)
      | Some order -> Relation.respects r order)

let prop_acyclic_iff_topo =
  QCheck.Test.make ~name:"acyclic iff topo sort exists" ~count:200
    (arb_edges 8) (fun edges ->
      let r = Relation.of_edges 8 edges in
      Relation.is_acyclic r = (Relation.topo_sort r <> None))

(* The sparse Kahn sort (shard stitching, the chain check) keeps the
   dense sort's smallest-ready-id tie-break: same order on the same
   edges, and [None] on both for cyclic graphs. *)
let prop_digraph_topo_matches =
  QCheck.Test.make ~name:"Digraph.topo_sort = Relation.topo_sort" ~count:500
    (arb_edges 8) (fun edges ->
      Digraph.topo_sort (Digraph.of_edges 8 edges)
      = Relation.topo_sort (Relation.of_edges 8 edges))

let () =
  Alcotest.run "relation"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/mem/remove" `Quick test_add_mem;
          Alcotest.test_case "transitive closure" `Quick test_closure;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "topo sort" `Quick test_topo_sort;
          Alcotest.test_case "topo deterministic" `Quick test_topo_deterministic;
          Alcotest.test_case "union/subset" `Quick test_union_subset;
          Alcotest.test_case "respects" `Quick test_respects;
          Alcotest.test_case "of_total_order" `Quick test_of_total_order;
          Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_idempotent;
            prop_closure_contains;
            prop_topo_respects;
            prop_acyclic_iff_topo;
            prop_digraph_topo_matches;
          ] );
    ]
