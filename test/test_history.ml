(* Tests for History: construction, validation, derived relations. *)

open Mmc_core

let w x v = Op.write x (Value.Int v)
let r x v = Op.read x (Value.Int v)
let r0 x = Op.read x Value.initial

let mop id proc ops inv resp = Mop.make ~id ~proc ~ops ~inv ~resp

(* Two processes:
   P0: a=w(0)1 [0,5];  b=r(1)2 [10,15]
   P1: c=w(1)2 [2,8];  d=r(0)1 [20,25] *)
let sample () =
  let a = mop 1 0 [ w 0 1 ] 0 5 in
  let b = mop 2 0 [ r 1 2 ] 10 15 in
  let c = mop 3 1 [ w 1 2 ] 2 8 in
  let d = mop 4 1 [ r 0 1 ] 20 25 in
  History.create ~n_objects:2 [ a; b; c; d ]
    ~rf:
      [
        { History.reader = 2; obj = 1; writer = 3 };
        { History.reader = 4; obj = 0; writer = 1 };
      ]

let test_create_ok () =
  let h = sample () in
  Alcotest.(check int) "n_mops includes init" 5 (History.n_mops h);
  Alcotest.(check int) "n_objects" 2 (History.n_objects h);
  Alcotest.(check (list int)) "procs" [ 0; 1 ] (History.procs h)

let expect_ill_formed f =
  match f () with
  | exception History.Ill_formed _ -> ()
  | _ -> Alcotest.fail "expected Ill_formed"

let test_bad_ids () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1 [ mop 2 0 [ w 0 1 ] 0 5 ] ~rf:[])

let test_object_out_of_range () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1 [ mop 1 0 [ w 3 1 ] 0 5 ] ~rf:[])

let test_overlapping_process_ops () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1
        [ mop 1 0 [ w 0 1 ] 0 10; mop 2 0 [ w 0 2 ] 5 15 ]
        ~rf:[])

let test_missing_rf () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1 [ mop 1 0 [ r 0 1 ] 0 5 ] ~rf:[])

let test_rf_value_mismatch () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1
        [ mop 1 0 [ w 0 1 ] 0 5; mop 2 1 [ r 0 9 ] 10 15 ]
        ~rf:[ { History.reader = 2; obj = 0; writer = 1 } ])

let test_rf_writer_does_not_write () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:2
        [ mop 1 0 [ w 1 1 ] 0 5; mop 2 1 [ r 0 1 ] 10 15 ]
        ~rf:[ { History.reader = 2; obj = 0; writer = 1 } ])

let test_duplicate_rf () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1
        [ mop 1 0 [ w 0 1 ] 0 5; mop 2 1 [ r 0 1 ] 10 15 ]
        ~rf:
          [
            { History.reader = 2; obj = 0; writer = 1 };
            { History.reader = 2; obj = 0; writer = 1 };
          ])

let test_self_rf () =
  expect_ill_formed (fun () ->
      History.create ~n_objects:1
        [ mop 1 0 [ r 0 1; w 0 1 ] 0 5 ]
        ~rf:[ { History.reader = 1; obj = 0; writer = 1 } ])

(* A reads-from edge for an object its reader never reads still orders
   the writer before the reader, so it could flip a verdict: #2 reads
   only x1, and the extra edge claims it read x0 from #1. *)
let test_stray_rf () =
  let mops = [ mop 1 0 [ w 0 0; w 1 5 ] 0 3; mop 2 1 [ r 1 0 ] 1 2 ] in
  let rf = [ { History.reader = 2; obj = 1; writer = 0 } ] in
  ignore (History.create ~n_objects:2 mops ~rf);
  match
    History.create ~n_objects:2 mops
      ~rf:(rf @ [ { History.reader = 2; obj = 0; writer = 1 } ])
  with
  | exception History.Ill_formed msg ->
    Alcotest.(check string) "message"
      "reads-from edge for x0 by #2, which does not read x0" msg
  | _ -> Alcotest.fail "expected Ill_formed"

let test_rfobjects () =
  let h = sample () in
  Alcotest.(check (list int)) "rfobjects b from c" [ 1 ] (History.rfobjects h 2 3);
  Alcotest.(check (list int)) "rfobjects none" [] (History.rfobjects h 2 1)

let test_proc_order () =
  let h = sample () in
  let edges = History.proc_order_edges h in
  Alcotest.(check bool) "a before b" true (List.mem (1, 2) edges);
  Alcotest.(check bool) "c before d" true (List.mem (3, 4) edges);
  Alcotest.(check bool) "init before all" true
    (List.for_all (fun j -> List.mem (Types.init_mop, j) edges) [ 1; 2; 3; 4 ])

let test_rt_edges () =
  let h = sample () in
  let rt = History.rt_edges h in
  (* a[0,5] and c[2,8] overlap: no edge either way. *)
  Alcotest.(check bool) "overlap" false (List.mem (1, 3) rt || List.mem (3, 1) rt);
  Alcotest.(check bool) "a before b" true (List.mem (1, 2) rt);
  Alcotest.(check bool) "c before b" true (List.mem (3, 2) rt);
  Alcotest.(check bool) "b before d" true (List.mem (2, 4) rt)

let test_obj_edges () =
  let h = sample () in
  let oo = History.obj_edges h in
  (* c writes x1, b reads x1, c finishes before b starts: object edge. *)
  Alcotest.(check bool) "c ~X b" true (List.mem (3, 2) oo);
  (* a writes x0 and b reads x1: no shared object. *)
  Alcotest.(check bool) "a !~X b" false (List.mem (1, 2) oo)

let test_base_relation_flavours () =
  let h = sample () in
  let msc = History.base_relation h History.Msc in
  let mlin = History.base_relation h History.Mlin in
  let mnorm = History.base_relation h History.Mnorm in
  (* rt edge b->d only in mlin. *)
  Alcotest.(check bool) "msc has no rt-only edge" false (Relation.mem msc 2 4);
  Alcotest.(check bool) "mlin has rt edge" true (Relation.mem mlin 2 4);
  (* b and d share no object: edge absent from mnorm. *)
  Alcotest.(check bool) "mnorm lacks no-shared-object edge" false
    (Relation.mem mnorm 2 4);
  (* rf edges everywhere. *)
  Alcotest.(check bool) "rf in msc" true (Relation.mem msc 3 2);
  Alcotest.(check bool) "rf in mnorm" true (Relation.mem mnorm 3 2)

let test_infer_rf_unique () =
  let mops =
    [ mop 1 0 [ w 0 7 ] 0 5; mop 2 1 [ r 0 7 ] 10 15 ]
  in
  match History.infer_rf ~n_objects:1 mops with
  | Error e -> Alcotest.fail e
  | Ok rf ->
    Alcotest.(check int) "one edge" 1 (List.length rf);
    let e = List.hd rf in
    Alcotest.(check int) "writer" 1 e.History.writer

let test_infer_rf_ambiguous () =
  let mops =
    [ mop 1 0 [ w 0 7 ] 0 5; mop 2 1 [ w 0 7 ] 0 5; mop 3 2 [ r 0 7 ] 10 15 ]
  in
  match History.infer_rf ~n_objects:1 mops with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected ambiguity"

let test_infer_rf_initial () =
  let mops = [ mop 1 0 [ r0 0 ] 0 5 ] in
  match History.infer_rf ~n_objects:1 mops with
  | Error e -> Alcotest.fail e
  | Ok [ e ] -> Alcotest.(check int) "init writer" Types.init_mop e.History.writer
  | Ok _ -> Alcotest.fail "expected exactly one edge"

let test_of_mops () =
  let h =
    History.of_mops ~n_objects:1 [ mop 1 0 [ w 0 7 ] 0 5; mop 2 1 [ r 0 7 ] 10 15 ]
  in
  Alcotest.(check int) "rf size" 1 (List.length (History.rf h))

let () =
  Alcotest.run "history"
    [
      ( "create",
        [
          Alcotest.test_case "ok" `Quick test_create_ok;
          Alcotest.test_case "bad ids" `Quick test_bad_ids;
          Alcotest.test_case "object range" `Quick test_object_out_of_range;
          Alcotest.test_case "overlapping process ops" `Quick test_overlapping_process_ops;
          Alcotest.test_case "missing rf" `Quick test_missing_rf;
          Alcotest.test_case "rf value mismatch" `Quick test_rf_value_mismatch;
          Alcotest.test_case "rf writer does not write" `Quick test_rf_writer_does_not_write;
          Alcotest.test_case "duplicate rf" `Quick test_duplicate_rf;
          Alcotest.test_case "self rf" `Quick test_self_rf;
          Alcotest.test_case "stray rf" `Quick test_stray_rf;
        ] );
      ( "relations",
        [
          Alcotest.test_case "rfobjects" `Quick test_rfobjects;
          Alcotest.test_case "process order" `Quick test_proc_order;
          Alcotest.test_case "real-time order" `Quick test_rt_edges;
          Alcotest.test_case "object order" `Quick test_obj_edges;
          Alcotest.test_case "flavours" `Quick test_base_relation_flavours;
        ] );
      ( "infer-rf",
        [
          Alcotest.test_case "unique" `Quick test_infer_rf_unique;
          Alcotest.test_case "ambiguous" `Quick test_infer_rf_ambiguous;
          Alcotest.test_case "initial" `Quick test_infer_rf_initial;
          Alcotest.test_case "of_mops" `Quick test_of_mops;
        ] );
    ]
