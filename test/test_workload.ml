(* Tests for the workload generators and random history families. *)

open Mmc_core
open Mmc_store
open Mmc_sim

let spec = Mmc_workload.Spec.default

let test_mixed_generator_shapes () =
  let rng = Rng.create 1 in
  let queries = ref 0 and updates = ref 0 in
  for step = 0 to 199 do
    let m = Mmc_workload.Generator.mixed spec rng ~proc:0 ~step in
    if Prog.is_query m then begin
      incr queries;
      (* Query programs must not write. *)
      let arr = Array.make spec.Mmc_workload.Spec.n_objects Value.initial in
      let before = Array.copy arr in
      ignore (Prog.run_on_array m.Prog.prog arr);
      Alcotest.(check bool) "query writes nothing" true (arr = before)
    end
    else begin
      incr updates;
      (* Declared write set covers the actual writes. *)
      let arr = Array.make spec.Mmc_workload.Spec.n_objects Value.initial in
      let written = ref [] in
      let rd x = arr.(x) in
      let wr x v =
        arr.(x) <- v;
        written := x :: !written
      in
      ignore (Prog.run m.Prog.prog ~read:rd ~write:wr);
      Alcotest.(check bool) "may_write covers writes" true
        (List.for_all (fun x -> List.mem x m.Prog.may_write) !written)
    end
  done;
  Alcotest.(check bool) "both kinds generated" true (!queries > 20 && !updates > 20)

let test_dcas_workload_write_sets () =
  let rng = Rng.create 2 in
  for step = 0 to 99 do
    let m = Mmc_workload.Generator.dcas_contention spec rng ~proc:1 ~step in
    let arr = Array.make spec.Mmc_workload.Spec.n_objects Value.initial in
    let written = ref [] in
    ignore
      (Prog.run m.Prog.prog ~read:(fun x -> arr.(x))
         ~write:(fun x v ->
           arr.(x) <- v;
           written := x :: !written));
    Alcotest.(check bool) "declared superset" true
      (List.for_all (fun x -> List.mem x m.Prog.may_write) !written)
  done

(* Determinism pin: every generator must draw exactly what it drew
   when its tables were rebuilt on every call.  Each call's label,
   declared sets, the ops [Apply] records on a fixed state, and the
   stream's next draw after the call fold into one digest per
   generator, recorded before the tables were hoisted. *)
let pin_digest ~n_procs ~n_objects gen =
  let acc = ref (Digest.string "") in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      for step = 0 to 1999 do
        for proc = 0 to n_procs - 1 do
          let m = gen rng ~proc ~step in
          let state = Array.init n_objects (fun k -> Value.Int k) in
          let ts = Array.make n_objects 0 in
          let applied = Apply.update state ts ~ns:0 m.Prog.prog in
          let line =
            Fmt.str "%s|%s|%s|%a|%Ld" m.Prog.label (ints m.Prog.may_touch)
              (ints m.Prog.may_write)
              Fmt.(list ~sep:(any ";") Op.pp)
              applied.Apply.ops (Rng.next_int64 rng)
          in
          acc := Digest.string (Digest.to_hex !acc ^ line)
        done
      done)
    [ 7; 31 ];
  Digest.to_hex !acc

let test_generator_pins () =
  let module G = Mmc_workload.Generator in
  let module P = Mmc_shard.Placement in
  let module S = Mmc_workload.Spec in
  let hot = { spec with S.n_objects = 16; read_ratio = 0.2; skew = 0.99 } in
  let wide = { spec with S.n_objects = 32; skew = 0.99 } in
  let counters = { spec with S.n_objects = 32 } in
  let small = { spec with S.n_objects = 16 } in
  let placement = P.hash ~n_shards:4 ~n_objects:32 in
  let cases =
    [
      ( "mixed skew 0.99",
        pin_digest ~n_procs:4 ~n_objects:16 (G.mixed hot),
        "49267efd28d82fe4be0d700ee74148fe" );
      ( "mixed uniform",
        pin_digest ~n_procs:4 ~n_objects:8 (G.mixed spec),
        "22843bd6c32d429e8292ce8bbba2aa90" );
      ( "sharded skew 0.99 cross 0.1",
        pin_digest ~n_procs:8 ~n_objects:32
          (G.sharded ~cross_shard_ratio:0.1 placement wide),
        "09039c5c727b26f4c0e6bab7d5064750" );
      ( "sharded uniform cross 0.2",
        pin_digest ~n_procs:8 ~n_objects:32
          (G.sharded ~cross_shard_ratio:0.2 placement counters),
        "4bc067e311b0257b7034bfa9ac71f0ad" );
      ( "counter_commute",
        pin_digest ~n_procs:8 ~n_objects:32
          (G.counter_commute ~n_procs:8 counters),
        "f249c898da461415cfffd9793efda2e6" );
      ( "sharded_counter_commute",
        pin_digest ~n_procs:8 ~n_objects:32
          (G.sharded_counter_commute ~commute_ratio:0.9 ~n_procs:8 placement
             counters),
        "0b21c0e325efda690d1052c94f6e8368" );
      (* Four owners over four round-robin shards: each shard is homed
         at one process, whose moves take the any-foreign fallback;
         processes 4 and 5 own nothing and draw any object. *)
      ( "sharded_counter_commute, single-owner shards",
        pin_digest ~n_procs:6 ~n_objects:16
          (G.sharded_counter_commute ~commute_ratio:0.5 ~n_procs:4
             (P.round_robin ~n_shards:4 ~n_objects:16)
             small),
        "1ab997229280165748697dd025f527aa" );
      ( "counter_commute, more processes than objects",
        pin_digest ~n_procs:6 ~n_objects:4
          (G.counter_commute ~commute_ratio:0.5 ~n_procs:6
             { spec with S.n_objects = 4 }),
        "8a680f6d85daf51aba84daddff449011" );
    ]
  in
  List.iter (fun (name, got, want) -> Alcotest.(check string) name want got) cases

let test_legal_random_well_formed () =
  for seed = 0 to 20 do
    let h =
      Mmc_workload.Histories.legal_random ~seed ~n_procs:4 ~n_objects:5
        ~n_mops:15 ~max_len:4 ~read_ratio:0.5 ()
    in
    Alcotest.(check int)
      (Fmt.str "mop count (seed %d)" seed)
      16 (History.n_mops h)
  done

let test_legal_random_identity_witness () =
  for seed = 0 to 20 do
    let h =
      Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:4
        ~n_mops:12 ~max_len:3 ~read_ratio:0.5 ()
    in
    let order = Array.init (History.n_mops h) Fun.id in
    Alcotest.(check bool)
      (Fmt.str "identity order is m-lin witness (seed %d)" seed)
      true
      (Sequential.validate h (History.base_relation h History.Mlin) order)
  done

let test_random_register_single_ops () =
  let h =
    Mmc_workload.Histories.random_register ~seed:5 ~n_procs:3 ~n_objects:2
      ~n_mops:12 ~write_ratio:0.5 ()
  in
  List.iter
    (fun (m : Mop.t) ->
      Alcotest.(check int) "single op" 1 (List.length m.Mop.ops))
    (History.real_mops h)

let test_random_multi_valid () =
  (* Construction must satisfy History.create's validation for many
     seeds. *)
  for seed = 0 to 30 do
    let h =
      Mmc_workload.Histories.random_multi ~seed ~n_procs:3 ~n_objects:3
        ~n_mops:8 ~max_reads:3 ~max_writes:2 ()
    in
    Alcotest.(check int) (Fmt.str "count (seed %d)" seed) 9 (History.n_mops h)
  done

let test_figures_build () =
  let h1, _ = Mmc_workload.Figures.figure1 () in
  Alcotest.(check int) "figure 1 mops" 6 (History.n_mops h1);
  let h2, _, ww = Mmc_workload.Figures.figure2 () in
  Alcotest.(check int) "figure 2 mops" 5 (History.n_mops h2);
  Alcotest.(check int) "figure 2 ww edges" 2 (List.length ww)

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          Alcotest.test_case "mixed" `Quick test_mixed_generator_shapes;
          Alcotest.test_case "dcas write sets" `Quick test_dcas_workload_write_sets;
          Alcotest.test_case "draws pinned" `Quick test_generator_pins;
        ] );
      ( "histories",
        [
          Alcotest.test_case "legal_random well-formed" `Quick
            test_legal_random_well_formed;
          Alcotest.test_case "legal_random witness" `Quick
            test_legal_random_identity_witness;
          Alcotest.test_case "random_register shape" `Quick
            test_random_register_single_ops;
          Alcotest.test_case "random_multi valid" `Quick test_random_multi_valid;
          Alcotest.test_case "figures build" `Quick test_figures_build;
        ] );
    ]
