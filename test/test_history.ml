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

(* --- differential: History.create and the final-write lookups --------- *)

(* Verbatim copies of [Mop.external_reads], [Mop.final_writes],
   [Mop.final_write_value] and [History.create] as they stood before
   those became table-free scans — the oracle the rewritten functions
   must match.  The only edits: [create] calls the copied
   [external_reads] and [final_write_value] and returns its per-reader
   edge lists, since [History.t] is abstract here. *)
module Oracle = struct
  open History

  let external_reads (t : Mop.t) =
    let rec go written acc = function
      | [] -> List.rev acc
      | Op.Write (x, _) :: rest -> go (x :: written) acc rest
      | Op.Read (x, v) :: rest ->
        if List.mem x written || List.mem_assoc x acc then go written acc rest
        else go written ((x, v) :: acc) rest
    in
    go [] [] t.ops

  let final_writes (t : Mop.t) =
    let tbl = Hashtbl.create 8 in
    List.iter
      (function
        | Op.Write (x, v) -> Hashtbl.replace tbl x v
        | Op.Read _ -> ())
      t.ops;
    Hashtbl.fold (fun x v acc -> (x, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let final_write_value t x = List.assoc_opt x (final_writes t)

  let ill_formed fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

  let create ~n_objects mops ~rf =
    let arr = Array.of_list (Mop.initializer_ ~n_objects :: mops) in
    Array.iteri
      (fun i (m : Mop.t) ->
        if m.Mop.id <> i then
          ill_formed "m-operation at position %d has id %d" i m.Mop.id;
        List.iter
          (fun op ->
            let x = Op.obj op in
            if x < 0 || x >= n_objects then
              ill_formed "m-operation #%d touches object x%d outside range" i x)
          m.Mop.ops)
      arr;
    let rf_by_reader = Array.make (Array.length arr) [] in
    List.iter
      (fun e ->
        if e.reader >= 0 && e.reader < Array.length arr then
          rf_by_reader.(e.reader) <- e :: rf_by_reader.(e.reader))
      (List.rev rf);
    let by_proc = Hashtbl.create 8 in
    Array.iter
      (fun (m : Mop.t) ->
        if m.Mop.id <> Types.init_mop then
          Hashtbl.replace by_proc m.Mop.proc
            (m :: (Option.value ~default:[] (Hashtbl.find_opt by_proc m.Mop.proc))))
      arr;
    Hashtbl.iter
      (fun proc ms ->
        let ms =
          List.sort (fun (a : Mop.t) (b : Mop.t) -> compare a.Mop.inv b.Mop.inv) ms
        in
        let rec check = function
          | a :: (b :: _ as rest) ->
            if not (Mop.rt_precedes a b) then
              ill_formed
                "process P%d subhistory not sequential: #%d [%d,%d] overlaps \
                 #%d [%d,%d]"
                proc a.Mop.id a.Mop.inv a.Mop.resp b.Mop.id b.Mop.inv b.Mop.resp;
            check rest
          | [ _ ] | [] -> ()
        in
        check ms)
      by_proc;
    Array.iter
      (fun (m : Mop.t) ->
        if m.Mop.id <> Types.init_mop then begin
          let reads = external_reads m in
          List.iter
            (fun (x, v) ->
              match List.filter (fun e -> e.obj = x) rf_by_reader.(m.Mop.id) with
              | [] ->
                ill_formed "no reads-from edge for read of x%d by #%d" x m.Mop.id
              | [ e ] -> (
                if e.writer = e.reader then
                  ill_formed "#%d reads-from itself on x%d" m.Mop.id x;
                if e.writer < 0 || e.writer >= Array.length arr then
                  ill_formed "reads-from writer #%d out of range" e.writer;
                match final_write_value arr.(e.writer) x with
                | None ->
                  ill_formed "#%d has no (final) write to x%d but #%d reads from it"
                    e.writer x m.Mop.id
                | Some w ->
                  if not (Value.equal w v) then
                    ill_formed
                      "#%d reads %s from x%d but writer #%d wrote %s"
                      m.Mop.id (Value.show v) x e.writer (Value.show w))
              | _ :: _ :: _ ->
                ill_formed "duplicate reads-from edges for read of x%d by #%d" x
                  m.Mop.id)
            reads;
          List.iter
            (fun e ->
              if not (List.mem_assoc e.obj reads) then
                ill_formed
                  "reads-from edge for x%d by #%d, which does not read x%d" e.obj
                  m.Mop.id e.obj)
            rf_by_reader.(m.Mop.id)
        end)
      arr;
    List.iter
      (fun e ->
        if e.reader <= 0 || e.reader >= Array.length arr then
          ill_formed "reads-from reader #%d out of range" e.reader)
      rf;
    rf_by_reader
end

(* One input to [History.create]: real m-operations and reads-from. *)
type input = { n_objects : int; mops : Mop.t list; rf : History.rf_edge list }

let input_of h =
  { n_objects = History.n_objects h; mops = History.real_mops h; rf = History.rf h }

(* Before the final write of each object, a shadow write of another
   value and an internal read of it: m-operations that write an object
   twice and read their own write, with the same external reads and
   final writes. *)
let shadow_writes inp =
  let shadow = Value.Str "shadow" in
  let mops =
    List.map
      (fun (m : Mop.t) ->
        let ops, _ =
          List.fold_left
            (fun (acc, seen) op ->
              match op with
              | Op.Write (x, _) when not (List.mem x seen) ->
                (Op.write x shadow :: Op.read x shadow :: op :: acc, x :: seen)
              | op -> (op :: acc, seen))
            ([], []) (List.rev m.Mop.ops)
        in
        { m with Mop.ops })
      inp.mops
  in
  { inp with mops }

(* Protocol traces: [Recorder.to_history_full] of msc and mlin runs. *)
let run_inputs =
  lazy
    (List.concat_map
       (fun kind ->
         List.map
           (fun seed ->
             let cfg =
               {
                 Mmc_store.Runner.default_config with
                 n_procs = 4;
                 n_objects = 6;
                 ops_per_proc = 12;
                 kind;
               }
             in
             let spec =
               { Mmc_workload.Spec.default with n_objects = 6; read_ratio = 0.5 }
             in
             input_of
               (Mmc_store.Runner.run ~seed cfg
                  ~workload:(Mmc_workload.Generator.mixed spec))
                 .Mmc_store.Runner.history)
           [ 1; 2; 3 ])
       [ Mmc_store.Store.Msc; Mmc_store.Store.Mlin ])

let base_input ~family ~seed =
  let module Hs = Mmc_workload.Histories in
  let n_procs = 1 + (seed mod 4) and n_objects = 1 + (seed / 4 mod 4) in
  let n_mops = seed / 16 mod 24 in
  let legal () =
    Hs.legal_random ~seed ~n_procs ~n_objects ~n_mops ~max_len:4 ~read_ratio:0.5
      ()
  in
  match family with
  | 0 -> input_of (legal ())
  | 1 -> shadow_writes (input_of (legal ()))
  | 2 ->
    input_of
      (Hs.random_register ~seed ~n_procs ~n_objects ~n_mops ~write_ratio:0.5 ())
  | 3 ->
    input_of
      (Hs.random_multi ~seed ~n_procs ~n_objects ~n_mops ~max_reads:3
         ~max_writes:3 ())
  | 4 ->
    let h = legal () in
    input_of (Option.value ~default:h (Hs.perturb_rf ~seed h))
  | _ ->
    let runs = Lazy.force run_inputs in
    List.nth runs (seed mod List.length runs)

(* The single defects, one per [Ill_formed] branch of [History.create]. *)
let defects =
  [|
    "none"; "wrong id"; "object range"; "overlap"; "missing rf"; "duplicate rf";
    "self rf"; "writer range"; "stray rf"; "value"; "no final write";
    "reader range";
  |]

let pick st = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int st (List.length l)))

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let insert_at l i x =
  let rec go j = function
    | l when j = i -> x :: l
    | [] -> [ x ]
    | y :: rest -> y :: go (j + 1) rest
  in
  go 0 l

let remake (m : Mop.t) ?(id = m.Mop.id) ?(ops = m.Mop.ops) ?(inv = m.Mop.inv)
    ?(resp = m.Mop.resp) () =
  Mop.make ~id ~proc:m.Mop.proc ~ops ~inv ~resp

let perturb_edge st inp f =
  match inp.rf with
  | [] -> inp
  | rf ->
    let i = Random.State.int st (List.length rf) in
    { inp with rf = replace_nth rf i (f (List.nth rf i)) }

let apply_defect st inp defect =
  let n = List.length inp.mops + 1 in
  let idx = List.mapi (fun i m -> (i, m)) inp.mops in
  let with_mop i m = { inp with mops = replace_nth inp.mops i m } in
  let any_edge reader =
    {
      History.reader;
      obj = Random.State.int st (inp.n_objects + 2) - 1;
      writer = Random.State.int st (n + 2) - 1;
    }
  in
  match defects.(defect) with
  | "wrong id" -> (
    match pick st idx with
    | None -> inp
    | Some (i, m) ->
      let id = List.nth [ 0; i; i + 2; n; -1 ] (Random.State.int st 5) in
      with_mop i (remake m ~id ()))
  | "object range" -> (
    match pick st (List.filter (fun (_, (m : Mop.t)) -> m.Mop.ops <> []) idx) with
    | None -> inp
    | Some (i, m) ->
      let k = Random.State.int st (List.length m.Mop.ops) in
      let x = if Random.State.bool st then inp.n_objects else -1 in
      let op =
        match List.nth m.Mop.ops k with
        | Op.Read (_, v) -> Op.read x v
        | Op.Write (_, v) -> Op.write x v
      in
      with_mop i (remake m ~ops:(replace_nth m.Mop.ops k op) ()))
  | "overlap" -> (
    (* Move [b] onto an interval that overlaps its process-mate [a]'s:
       starting with it, inside it or before it — [a] and [b] in either
       list order. *)
    let pairs =
      List.concat_map
        (fun (i, (a : Mop.t)) ->
          List.filter_map
            (fun (j, (b : Mop.t)) ->
              if i <> j && a.Mop.proc = b.Mop.proc then Some ((i, a), (j, b))
              else None)
            idx)
        idx
    in
    match pick st pairs with
    | None -> inp
    | Some ((_, a), (j, b)) ->
      let len = Random.State.int st 4 in
      let inv =
        match Random.State.int st 3 with
        | 0 -> a.Mop.inv
        | 1 -> a.Mop.inv + Random.State.int st (a.Mop.resp - a.Mop.inv + 1)
        | _ -> a.Mop.inv - 1 - len
      in
      let resp = max (inv + len) (if inv < a.Mop.inv then a.Mop.inv else inv) in
      with_mop j (remake b ~inv ~resp ()))
  | "missing rf" -> (
    match inp.rf with
    | [] -> inp
    | rf ->
      let i = Random.State.int st (List.length rf) in
      { inp with rf = List.filteri (fun j _ -> j <> i) rf })
  | "duplicate rf" -> (
    match pick st inp.rf with
    | None -> inp
    | Some e ->
      { inp with rf = insert_at inp.rf (Random.State.int st (List.length inp.rf + 1)) e })
  | "self rf" -> perturb_edge st inp (fun e -> { e with writer = e.History.reader })
  | "writer range" ->
    perturb_edge st inp (fun e ->
        { e with writer = (if Random.State.bool st then n + Random.State.int st 3 else -1) })
  | "stray rf" -> (
    match pick st idx with
    | None -> inp
    | Some (i, m) ->
      let reads = List.map fst (Mop.external_reads m) in
      let e = any_edge (i + 1) in
      if List.mem e.History.obj reads then inp
      else
        { inp with rf = insert_at inp.rf (Random.State.int st (List.length inp.rf + 1)) e })
  | "value" -> (
    let readers =
      List.filter (fun (_, m) -> Mop.external_reads m <> []) idx
    in
    match pick st readers with
    | None -> inp
    | Some (i, m) ->
      let x, _ = Option.get (pick st (Mop.external_reads m)) in
      (* The external read of [x] is its first op on [x]. *)
      let k, _ =
        List.find (fun (_, op) -> Op.obj op = x) (List.mapi (fun k op -> (k, op)) m.Mop.ops)
      in
      with_mop i (remake m ~ops:(replace_nth m.Mop.ops k (Op.read x (Value.Str "bogus"))) ()))
  | "no final write" ->
    perturb_edge st inp (fun e ->
        let non_writers =
          List.filter
            (fun (_, (m : Mop.t)) ->
              m.Mop.id <> e.History.reader
              && Mop.final_write_value m e.History.obj = None)
            idx
        in
        match pick st non_writers with
        | None -> e
        | Some (_, m) -> { e with writer = m.Mop.id })
  | "reader range" ->
    let reader = List.nth [ 0; -1; n; n + 2 ] (Random.State.int st 4) in
    { inp with rf = insert_at inp.rf (Random.State.int st (List.length inp.rf + 1)) (any_edge reader) }
  | _ -> inp

(* Which [Ill_formed] branch the oracle took, per defect, over the whole
   property run — checked for coverage afterwards. *)
let reached : (string, unit) Hashtbl.t = Hashtbl.create 16

let branch msg =
  let kinds =
    [
      "has id"; "outside range"; "not sequential"; "no reads-from edge";
      "reads-from itself"; "reads-from writer"; "no (final) write";
      "but writer"; "duplicate reads-from"; "does not read";
      "reads-from reader";
    ]
  in
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
    at 0
  in
  match List.find_opt has kinds with Some k -> k | None -> "?" ^ msg

let same_final_writes (m : Mop.t) ~n_objects =
  Mop.external_reads m = Oracle.external_reads m
  && Mop.final_writes m = Oracle.final_writes m
  && List.for_all
       (fun x -> Mop.final_write_value m x = Oracle.final_write_value m x)
       (List.init (n_objects + 2) (fun x -> x - 1))

let prop_create_matches_oracle =
  QCheck.Test.make ~count:3000
    ~name:"create, external reads and final writes = oracle"
    QCheck.(
      quad (int_bound 5) (int_bound 100_000)
        (int_bound (Array.length defects - 1))
        (int_bound 1_000_000))
    (fun (family, seed, defect, dseed) ->
      let inp =
        apply_defect
          (Random.State.make [| dseed |])
          (base_input ~family ~seed) defect
      in
      let { n_objects; mops; rf } = inp in
      List.iter
        (fun m ->
          if not (same_final_writes m ~n_objects) then
            QCheck.Test.fail_reportf "external reads or final writes differ on %a"
              Mop.pp m)
        (Mop.initializer_ ~n_objects :: mops);
      let expected =
        match Oracle.create ~n_objects mops ~rf with
        | by_reader -> Ok by_reader
        | exception History.Ill_formed msg -> Error msg
      in
      let got =
        match History.create ~n_objects mops ~rf with
        | h -> Ok h
        | exception History.Ill_formed msg -> Error msg
      in
      match (expected, got) with
      | Ok by_reader, Ok h ->
        Hashtbl.replace reached "accepted" ();
        let n = Array.length by_reader in
        History.n_mops h = n
        && List.for_all
             (fun id ->
               let want = if id < 0 || id >= n then [] else by_reader.(id) in
               List.equal History.equal_rf_edge want (History.rf_of_reader h id))
             (List.init (n + 2) (fun id -> id - 1))
      | Error want, Error msg ->
        Hashtbl.replace reached (branch want) ();
        if msg <> want then
          QCheck.Test.fail_reportf "defect %s: raised %S, oracle %S"
            defects.(defect) msg want;
        true
      | Ok _, Error msg ->
        QCheck.Test.fail_reportf "defect %s: raised %S, oracle accepts"
          defects.(defect) msg
      | Error want, Ok _ ->
        QCheck.Test.fail_reportf "defect %s: accepted, oracle raises %S"
          defects.(defect) want)

(* Runs after the property: every branch must have been reached, or the
   comparison is not exercising it. *)
let test_oracle_coverage () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fmt.str "%s reached" k) true (Hashtbl.mem reached k))
    [
      "accepted"; "has id"; "outside range"; "not sequential";
      "no reads-from edge"; "reads-from itself"; "reads-from writer";
      "no (final) write"; "but writer"; "duplicate reads-from";
      "does not read"; "reads-from reader";
    ];
  Hashtbl.iter
    (fun k () ->
      if String.length k > 0 && k.[0] = '?' then
        Alcotest.failf "unclassified message %s" k)
    reached

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
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_create_matches_oracle;
          Alcotest.test_case "every branch reached" `Quick test_oracle_coverage;
        ] );
    ]
