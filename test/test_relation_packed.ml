(* Property tests for the word-packed Mmc_core.Relation against a naive
   bool-matrix reference implementation.  Sizes cross the 63-bit word
   boundaries (63, 64, 126, 127) and go up to n = 200 randomized, so
   packing bugs at row edges cannot hide. *)

open Mmc_core

(* --- naive reference: bool matrix --- *)

module Ref = struct
  type t = bool array array

  let create n = Array.make_matrix n n false

  let of_edges n edges =
    let r = create n in
    List.iter (fun (i, j) -> r.(i).(j) <- true) edges;
    r

  let closure r =
    let n = Array.length r in
    let c = Array.map Array.copy r in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if c.(i).(k) then
          for j = 0 to n - 1 do
            if c.(k).(j) then c.(i).(j) <- true
          done
      done
    done;
    c

  let union a b =
    Array.mapi (fun i row -> Array.mapi (fun j x -> x || b.(i).(j)) row) a

  let subset a b =
    let ok = ref true in
    Array.iteri
      (fun i row -> Array.iteri (fun j x -> if x && not b.(i).(j) then ok := false) row)
      a;
    !ok

  let cardinal r =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun a x -> if x then a + 1 else a) acc row)
      0 r

  let irreflexive r =
    let ok = ref true in
    Array.iteri (fun i row -> if row.(i) then ok := false) r;
    !ok

  let same (r : t) (p : Relation.t) =
    let n = Array.length r in
    Relation.size p = n
    &&
    try
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if r.(i).(j) <> Relation.mem p i j then raise Exit
        done
      done;
      true
    with Exit -> false
end

(* --- generators --- *)

(* (n, edges): node count from [sizes], edge count scaled to stay sparse
   enough that closures keep structure (not the complete relation). *)
let gen_graph sizes =
  QCheck.Gen.(
    let* n = oneofl sizes in
    let* edges =
      list_size (int_bound (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return (n, edges))

let print_graph (n, edges) =
  Printf.sprintf "n=%d edges=[%s]" n
    (String.concat "; " (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) edges))

let arb sizes = QCheck.make ~print:print_graph (gen_graph sizes)

let small = [ 1; 2; 3; 5; 8; 13 ]
let boundary = [ 62; 63; 64; 65; 126; 127 ]
let large = [ 200 ]

(* --- closure / union / subset vs reference --- *)

let prop_closure sizes count =
  QCheck.Test.make ~name:(Printf.sprintf "closure matches reference (n<=%d)"
                            (List.fold_left max 0 sizes))
    ~count (arb sizes) (fun (n, edges) ->
      Ref.same
        (Ref.closure (Ref.of_edges n edges))
        (Relation.transitive_closure (Relation.of_edges n edges)))

let prop_union_subset =
  QCheck.Test.make ~name:"union and subset match reference" ~count:100
    QCheck.(pair (arb (small @ boundary)) (make (QCheck.Gen.list_size
                                                   (QCheck.Gen.int_bound 30)
                                                   QCheck.Gen.(pair (int_bound 1000) (int_bound 1000)))))
    (fun ((n, e1), e2) ->
      let clip = List.map (fun (i, j) -> (i mod n, j mod n)) e2 in
      let a = Relation.of_edges n e1 and b = Relation.of_edges n clip in
      let ra = Ref.of_edges n e1 and rb = Ref.of_edges n clip in
      Ref.same (Ref.union ra rb) (Relation.union a b)
      && Relation.subset a (Relation.union a b)
      && Relation.subset b (Relation.union a b)
      && Ref.subset ra rb = Relation.subset a b)

let prop_cardinal_edges =
  QCheck.Test.make ~name:"cardinal/edges/successors/predecessors" ~count:100
    (arb (small @ boundary)) (fun (n, edges) ->
      let p = Relation.of_edges n edges and r = Ref.of_edges n edges in
      Relation.cardinal p = Ref.cardinal r
      && List.for_all (fun (i, j) -> r.(i).(j)) (Relation.edges p)
      && List.length (Relation.edges p) = Ref.cardinal r
      && List.for_all
           (fun i ->
             Relation.successors p i
             = List.filter (fun j -> r.(i).(j)) (List.init n Fun.id)
             && Relation.predecessors p i
                = List.filter (fun j -> r.(j).(i)) (List.init n Fun.id))
           (List.init n Fun.id))

(* --- incremental closure maintenance --- *)

let prop_add_edge_closed =
  QCheck.Test.make ~name:"add_edge_closed = re-closure" ~count:200
    QCheck.(pair (arb (small @ boundary)) (make QCheck.Gen.(pair (int_bound 1000) (int_bound 1000))))
    (fun ((n, edges), (i, j)) ->
      let i = i mod n and j = j mod n in
      let closed = Relation.transitive_closure (Relation.of_edges n edges) in
      Relation.add_edge_closed closed i j;
      Ref.same (Ref.closure (Ref.of_edges n ((i, j) :: edges))) closed)

let prop_incremental_build =
  QCheck.Test.make ~name:"incremental build from empty = batch closure" ~count:200
    (arb (small @ boundary)) (fun (n, edges) ->
      let inc = Relation.create n in
      List.iter (fun (i, j) -> Relation.add_edge_closed inc i j) edges;
      Ref.same (Ref.closure (Ref.of_edges n edges)) inc)

let prop_closure_with =
  QCheck.Test.make ~name:"closure_with = closure of union" ~count:200
    QCheck.(pair (arb (small @ boundary)) (arb [ 1000 ]))
    (fun ((n, e1), (_, e2)) ->
      let fresh = List.map (fun (i, j) -> (i mod n, j mod n)) e2 in
      let closed = Relation.transitive_closure (Relation.of_edges n e1) in
      Ref.same
        (Ref.closure (Ref.of_edges n (fresh @ e1)))
        (Relation.closure_with closed fresh))

(* --- acyclicity / topological sorts --- *)

let prop_topo_closed =
  QCheck.Test.make ~name:"topo_sort_closed: valid extension iff acyclic" ~count:200
    (arb (small @ boundary)) (fun (n, edges) ->
      let closed = Relation.transitive_closure (Relation.of_edges n edges) in
      match Relation.topo_sort_closed closed with
      | None -> not (Ref.irreflexive (Ref.closure (Ref.of_edges n edges)))
      | Some order ->
        Array.length order = n
        && Relation.respects closed order
        && Relation.is_acyclic (Relation.of_edges n edges))

let prop_topo_agree =
  QCheck.Test.make ~name:"topo_sort and topo_sort_closed agree on existence"
    ~count:200 (arb (small @ boundary)) (fun (n, edges) ->
      let r = Relation.of_edges n edges in
      let closed = Relation.transitive_closure r in
      (Relation.topo_sort r <> None) = (Relation.topo_sort_closed closed <> None))

(* --- totality tests --- *)

let prop_total_on =
  QCheck.Test.make ~name:"total_on matches pairwise mem" ~count:200
    QCheck.(pair (arb (small @ boundary)) (make QCheck.Gen.(list_size (int_bound 8) (int_bound 1000))))
    (fun ((n, edges), ids) ->
      let ids = Array.of_list (List.sort_uniq compare (List.map (fun i -> i mod n) ids)) in
      let c = Relation.transitive_closure (Relation.of_edges n edges) in
      let naive = ref true in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if a <> b && not (Relation.mem c a b || Relation.mem c b a) then
                naive := false)
            ids)
        ids;
      Relation.total_on c ids = !naive)

let prop_total_between =
  QCheck.Test.make ~name:"total_between matches pairwise mem" ~count:200
    QCheck.(triple (arb (small @ boundary))
              (make QCheck.Gen.(list_size (int_bound 6) (int_bound 1000)))
              (make QCheck.Gen.(list_size (int_bound 6) (int_bound 1000))))
    (fun ((n, edges), xs, ys) ->
      let clip l = Array.of_list (List.map (fun i -> i mod n) l) in
      let xs = clip xs and ys = clip ys in
      let c = Relation.transitive_closure (Relation.of_edges n edges) in
      let naive = ref true in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if a <> b && not (Relation.mem c a b || Relation.mem c b a) then
                naive := false)
            ys)
        xs;
      Relation.total_between c xs ys = !naive)

(* --- large randomized (word-packing at scale) --- *)

let prop_large =
  QCheck.Test.make ~name:"n=200: closure + incremental + topo agree" ~count:5
    (arb large) (fun (n, edges) ->
      let r = Relation.of_edges n edges in
      let closed = Relation.transitive_closure r in
      let inc = Relation.create n in
      List.iter (fun (i, j) -> Relation.add_edge_closed inc i j) edges;
      Ref.same (Ref.closure (Ref.of_edges n edges)) closed
      && Relation.equal closed inc
      &&
      match Relation.topo_sort_closed closed with
      | None -> not (Relation.is_acyclic r)
      | Some order -> Relation.respects closed order)

(* --- Bitset vs bool array --- *)

let prop_bitset =
  QCheck.Test.make ~name:"Bitset matches bool array" ~count:200
    QCheck.(pair (make (QCheck.Gen.oneofl [ 1; 7; 63; 64; 127; 200 ]))
              (make QCheck.Gen.(list_size (int_bound 50) (pair bool (int_bound 1000)))))
    (fun (n, ops) ->
      let bs = Relation.Bitset.create n in
      let arr = Array.make n false in
      List.iter
        (fun (set, i) ->
          let i = i mod n in
          if set then begin
            Relation.Bitset.set bs i;
            arr.(i) <- true
          end
          else begin
            Relation.Bitset.clear bs i;
            arr.(i) <- false
          end)
        ops;
      Relation.Bitset.length bs = n
      && Array.for_all Fun.id
           (Array.mapi (fun i x -> Relation.Bitset.mem bs i = x) arr))

let prop_bitset_key =
  QCheck.Test.make ~name:"Bitset buffer key injective on contents" ~count:200
    QCheck.(pair (make QCheck.Gen.(list_size (int_bound 20) (int_bound 126)))
              (make QCheck.Gen.(list_size (int_bound 20) (int_bound 126))))
    (fun (xs, ys) ->
      let mk l =
        let bs = Relation.Bitset.create 127 in
        List.iter (Relation.Bitset.set bs) l;
        let buf = Buffer.create 16 in
        Relation.Bitset.add_to_buffer bs buf;
        Buffer.contents buf
      in
      let same_set =
        List.sort_uniq compare xs = List.sort_uniq compare ys
      in
      (mk xs = mk ys) = same_set)

(* --- arena scratch --- *)

(* Scratch handed back is handed out again: after the first round every
   request comes off the free list, and jittering sizes within one size
   class share it. *)
let test_arena_reuses_words () =
  let arena = Relation.Arena.create () in
  for round = 1 to 10 do
    let t = Relation.Arena.scratch arena (70 + round) in
    Relation.Arena.release arena t
  done;
  Alcotest.(check bool) "free list actually hit" true
    (Relation.Arena.hits arena >= 9);
  Alcotest.(check bool) "at most one miss per size class" true
    (Relation.Arena.misses arena <= 1)

(* A call's resident footprint is the most it holds at once: scratch
   handed back and taken again counts once there, twice in
   [scratch_words]. *)
let test_arena_peak_during () =
  let arena = Relation.Arena.create () in
  let taken0 = Relation.Arena.scratch_words arena in
  let (), peak =
    Relation.Arena.peak_during arena (fun () ->
        for _ = 1 to 2 do
          let a = Relation.Arena.scratch arena 100 in
          let b = Relation.Arena.scratch arena 50 in
          Relation.Arena.release arena a;
          Relation.Arena.release arena b
        done)
  in
  let taken = Relation.Arena.scratch_words arena - taken0 in
  Alcotest.(check int) "peak = one round" (taken / 2) peak;
  let (), again = Relation.Arena.peak_during arena (fun () -> ()) in
  Alcotest.(check int) "nothing held after the call" 0 again

(* --- unit: exact word-boundary bits --- *)

let test_boundary_bits () =
  List.iter
    (fun n ->
      let r = Relation.create n in
      let last = n - 1 in
      Relation.add r 0 last;
      Relation.add r last 0;
      Alcotest.(check bool) "0 -> last" true (Relation.mem r 0 last);
      Alcotest.(check bool) "last -> 0" true (Relation.mem r last 0);
      Alcotest.(check bool) "last -> last absent" false (Relation.mem r last last);
      Alcotest.(check int) "cardinal" 2 (Relation.cardinal r);
      Relation.remove r 0 last;
      Alcotest.(check bool) "removed" false (Relation.mem r 0 last))
    [ 2; 63; 64; 65; 126; 127; 128 ]

let test_cycle_via_incremental () =
  let r = Relation.create 70 in
  Relation.add_edge_closed r 0 69;
  Relation.add_edge_closed r 69 35;
  Alcotest.(check bool) "still irreflexive" true (Relation.is_irreflexive r);
  Relation.add_edge_closed r 35 0;
  Alcotest.(check bool) "cycle surfaces reflexively" false
    (Relation.is_irreflexive r);
  Alcotest.(check bool) "no topo order" true (Relation.topo_sort_closed r = None)

let () =
  Alcotest.run "relation_packed"
    [
      ( "unit",
        [
          Alcotest.test_case "word-boundary bits" `Quick test_boundary_bits;
          Alcotest.test_case "cycle via add_edge_closed" `Quick
            test_cycle_via_incremental;
          Alcotest.test_case "arena reuses words" `Quick test_arena_reuses_words;
          Alcotest.test_case "arena peak_during" `Quick test_arena_peak_during;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure small 200;
            prop_closure boundary 25;
            prop_union_subset;
            prop_cardinal_edges;
            prop_add_edge_closed;
            prop_incremental_build;
            prop_closure_with;
            prop_topo_closed;
            prop_topo_agree;
            prop_total_on;
            prop_total_between;
            prop_large;
            prop_bitset;
            prop_bitset_key;
          ] );
    ]
