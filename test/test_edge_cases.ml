(* Edge cases across the core library: empty and degenerate histories,
   checker budget exhaustion, version-vector arithmetic, restriction,
   causal-order construction, and zipf sampling. *)

open Mmc_core

let w x v = Op.write x (Value.Int v)
let r x v = Op.read x (Value.Int v)

let mop id proc ops inv resp = Mop.make ~id ~proc ~ops ~inv ~resp

let test_empty_history_everywhere () =
  let h = History.create ~n_objects:3 [] ~rf:[] in
  Alcotest.(check int) "one mop (init)" 1 (History.n_mops h);
  Alcotest.(check bool) "m-lin" true
    (match Admissible.check h History.Mlin with
    | Admissible.Admissible _ -> true
    | _ -> false);
  Alcotest.(check bool) "causal" true
    (match Check_causal.check h with Check_causal.Causal _ -> true | _ -> false);
  Alcotest.(check bool) "theorem 7" true
    (Check_constrained.admissible
       (Check_constrained.check h History.Msc Constraints.WW));
  Alcotest.(check int) "no triples" 0
    (List.length (Legality.interfering_triples h))

let test_single_mop () =
  let h =
    History.create ~n_objects:1 [ mop 1 0 [ w 0 1 ] 0 5 ] ~rf:[]
  in
  Alcotest.(check bool) "single update m-lin" true
    (match Admissible.check h History.Mlin with
    | Admissible.Admissible _ -> true
    | _ -> false)

let test_checker_budget_aborts () =
  (* A hard instance with a one-state budget must abort, not crash or
     mislabel. *)
  let h =
    Mmc_workload.Histories.legal_random ~seed:5 ~n_procs:4 ~n_objects:2
      ~n_mops:20 ~max_len:3 ~read_ratio:0.3 ()
  in
  match Admissible.check ~max_states:1 h History.Msc with
  | Admissible.Aborted -> ()
  | Admissible.Admissible _ ->
    (* The witness may be found within the very first states — accept
       only if genuinely valid. *)
    ()
  | Admissible.Not_admissible -> Alcotest.fail "budget must not flip the verdict"

let test_version_vector_orders () =
  let a = [| 1; 2; 3 |] and b = [| 1; 3; 3 |] and c = [| 2; 1; 3 |] in
  Alcotest.(check bool) "leq" true (Version_vector.leq a b);
  Alcotest.(check bool) "lt" true (Version_vector.lt a b);
  Alcotest.(check bool) "not leq incomparable" false (Version_vector.leq b c);
  Alcotest.(check bool) "not leq incomparable'" false (Version_vector.leq c b);
  Alcotest.(check bool) "eq refl" true (Version_vector.equal a (Version_vector.copy a));
  let d = Version_vector.copy a in
  Version_vector.bump d 1;
  Alcotest.(check int) "bump" 3 (Version_vector.get d 1);
  let dst = [| 0; 5; 1 |] in
  Version_vector.max_into ~dst a;
  Alcotest.(check bool) "max_into" true (dst = [| 1; 5; 3 |])

let test_restrict () =
  let h =
    History.create ~n_objects:1
      [
        mop 1 0 [ w 0 1 ] 0 5;
        mop 2 1 [ r 0 1 ] 10 15;
        mop 3 2 [ w 0 2 ] 20 25;
      ]
      ~rf:[ { History.reader = 2; obj = 0; writer = 1 } ]
  in
  let sub, mapping = History.restrict h [ 1; 3 ] in
  Alcotest.(check int) "two kept + init" 3 (History.n_mops sub);
  Alcotest.(check int) "renumbered" 2 (Hashtbl.find mapping 3);
  (* Dropping a writer still read is rejected. *)
  match History.restrict h [ 2 ] with
  | exception History.Ill_formed _ -> ()
  | _ -> Alcotest.fail "expected Ill_formed"

let test_causal_order_contains_po_rf () =
  let h =
    History.create ~n_objects:1
      [ mop 1 0 [ w 0 1 ] 0 5; mop 2 0 [ w 0 2 ] 10 15; mop 3 1 [ r 0 2 ] 20 25 ]
      ~rf:[ { History.reader = 3; obj = 0; writer = 2 } ]
  in
  let co = Check_causal.causal_order h in
  Alcotest.(check bool) "po edge" true (Relation.mem co 1 2);
  Alcotest.(check bool) "rf edge" true (Relation.mem co 2 3);
  Alcotest.(check bool) "transitive" true (Relation.mem co 1 3)

let test_zipf_sampling () =
  let rng = Mmc_sim.Rng.create 3 in
  let counts = Array.make 8 0 in
  for _ = 1 to 4000 do
    let k = Mmc_sim.Rng.zipf rng ~n:8 ~s:1.2 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 8);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(7));
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > 4000 / 4);
  (* s = 0 is uniform. *)
  let rng = Mmc_sim.Rng.create 4 in
  let c0 = ref 0 in
  for _ = 1 to 4000 do
    if Mmc_sim.Rng.zipf rng ~n:8 ~s:0.0 = 0 then incr c0
  done;
  Alcotest.(check bool) "uniform-ish" true (!c0 > 300 && !c0 < 700)

(* The Zipf table must draw exactly what the per-draw O(n) walk of the
   same cumulative weights drew before it; that walk is the oracle. *)
let zipf_oracle t ~n ~s =
  let module Rng = Mmc_sim.Rng in
  if s = 0.0 then Rng.int t ~bound:n
  else begin
    let weight k = 1.0 /. (float_of_int (k + 1) ** s) in
    let total = ref 0.0 in
    for k = 0 to n - 1 do
      total := !total +. weight k
    done;
    let u = Rng.float t *. !total in
    let rec pick k acc =
      if k = n - 1 then k
      else begin
        let acc = acc +. weight k in
        if u < acc then k else pick (k + 1) acc
      end
    in
    pick 0 0.0
  end

let prop_zipf_table_matches_walk =
  QCheck.Test.make ~count:500 ~name:"zipf table draws = linear walk"
    QCheck.(
      triple (int_range 1 64)
        (oneofl [ 0.0; 0.5; 0.99; 1.2; 2.0 ])
        (int_bound 1_000_000))
    (fun (n, s, seed) ->
      let module Rng = Mmc_sim.Rng in
      let table = Rng.zipf_table ~n ~s in
      let a = Rng.create seed and b = Rng.create seed and c = Rng.create seed in
      for _ = 1 to 50 do
        let want = zipf_oracle a ~n ~s in
        if Rng.zipf_draw b table <> want || Rng.zipf c ~n ~s <> want then
          QCheck.Test.fail_reportf "n=%d s=%g seed=%d: draw differs" n s seed
      done;
      let next = Rng.next_int64 a in
      Rng.next_int64 b = next && Rng.next_int64 c = next)

let test_engine_stop_and_limits () =
  let e = Mmc_sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count = 5 then raise Mmc_sim.Engine.Stop;
    Mmc_sim.Engine.schedule e ~delay:1 tick
  in
  Mmc_sim.Engine.schedule e ~delay:0 tick;
  Mmc_sim.Engine.run e;
  Alcotest.(check int) "stopped at 5" 5 !count;
  (* max_events cap *)
  let e2 = Mmc_sim.Engine.create () in
  let n = ref 0 in
  let rec tick2 () =
    incr n;
    Mmc_sim.Engine.schedule e2 ~delay:1 tick2
  in
  Mmc_sim.Engine.schedule e2 ~delay:0 tick2;
  Mmc_sim.Engine.run ~max_events:7 e2;
  Alcotest.(check int) "max events" 7 !n

let test_relation_bounds () =
  let r = Relation.create 3 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Relation: index (3,0) out of [0,3)") (fun () ->
      Relation.add r 3 0)

let test_runner_think_validation () =
  let cfg = { Mmc_store.Runner.default_config with think_lo = 0 } in
  match
    Mmc_store.Runner.run ~seed:1 cfg
      ~workload:(Mmc_workload.Generator.mixed Mmc_workload.Spec.default)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for think_lo = 0"

let test_timeline_renders () =
  let h =
    Mmc_workload.Histories.legal_random ~seed:2 ~n_procs:3 ~n_objects:2
      ~n_mops:8 ~max_len:2 ~read_ratio:0.5 ()
  in
  let s = Timeline.render ~width:60 h in
  Alcotest.(check bool) "mentions count" true
    (String.length s > 0
    && List.exists
         (fun line ->
           String.length line >= 2 && line.[0] = 'P' && line.[1] <> ' ')
         (String.split_on_char '\n' s));
  Alcotest.(check bool) "empty history" true
    (Timeline.render (History.create ~n_objects:1 [] ~rf:[]) = "(empty history)\n")

let test_analysis_metrics () =
  let h =
    History.create ~n_objects:2
      [
        mop 1 0 [ w 0 1; w 1 2 ] 0 10;
        mop 2 1 [ r 0 1 ] 5 15;
        mop 3 1 [ r 1 2 ] 20 25;
      ]
      ~rf:
        [
          { History.reader = 2; obj = 0; writer = 1 };
          { History.reader = 3; obj = 1; writer = 1 };
        ]
  in
  let a = Analysis.analyze h in
  Alcotest.(check int) "mops" 3 a.Analysis.n_mops;
  Alcotest.(check int) "updates" 1 a.Analysis.n_updates;
  Alcotest.(check int) "multi-object" 1 a.Analysis.multi_object_mops;
  (* #1 [0,10] overlaps #2 [5,15]; both touch x0 and conflict. *)
  Alcotest.(check int) "concurrent pairs" 1 a.Analysis.concurrent_pairs;
  Alcotest.(check int) "conflicting" 1 a.Analysis.conflicting_concurrent_pairs;
  Alcotest.(check int) "max in-flight" 2 a.Analysis.max_concurrency;
  Alcotest.(check int) "span" 25 a.Analysis.span

let test_codec_roundtrip_protocol_trace () =
  (* Histories produced by the protocol runner survive the text
     format. *)
  let spec = { Mmc_workload.Spec.default with n_objects = 4 } in
  let cfg =
    {
      Mmc_store.Runner.default_config with
      n_procs = 3;
      n_objects = 4;
      ops_per_proc = 8;
      kind = Mmc_store.Store.Mlin;
    }
  in
  let res =
    Mmc_store.Runner.run ~seed:7 cfg ~workload:(Mmc_workload.Generator.mixed spec)
  in
  let h = res.Mmc_store.Runner.history in
  let h2 = Codec.of_string (Codec.to_string h) in
  Alcotest.(check int) "mops" (History.n_mops h) (History.n_mops h2);
  Alcotest.(check int) "rf" (List.length (History.rf h)) (List.length (History.rf h2));
  let v1 =
    match Admissible.check h History.Mlin with
    | Admissible.Admissible _ -> true
    | _ -> false
  in
  let v2 =
    match Admissible.check h2 History.Mlin with
    | Admissible.Admissible _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "same verdict" v1 v2

let () =
  Alcotest.run "edge-cases"
    [
      ( "core",
        [
          Alcotest.test_case "empty history" `Quick test_empty_history_everywhere;
          Alcotest.test_case "single mop" `Quick test_single_mop;
          Alcotest.test_case "budget abort" `Quick test_checker_budget_aborts;
          Alcotest.test_case "version vectors" `Quick test_version_vector_orders;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "causal order" `Quick test_causal_order_contains_po_rf;
          Alcotest.test_case "relation bounds" `Quick test_relation_bounds;
          Alcotest.test_case "timeline" `Quick test_timeline_renders;
          Alcotest.test_case "analysis" `Quick test_analysis_metrics;
          Alcotest.test_case "codec on protocol trace" `Quick
            test_codec_roundtrip_protocol_trace;
        ] );
      ( "sim",
        [
          Alcotest.test_case "zipf" `Quick test_zipf_sampling;
          QCheck_alcotest.to_alcotest prop_zipf_table_matches_walk;
          Alcotest.test_case "engine stop/limits" `Quick test_engine_stop_and_limits;
          Alcotest.test_case "runner validation" `Quick test_runner_think_validation;
        ] );
    ]
