(* The Attiya–Welch contrast (paper, Section 1): the clock-based
   algorithm is m-linearizable exactly while its delay-bound assumption
   holds; the paper's Figure 6 protocol needs no such assumption. *)

open Mmc_core
open Mmc_store

let spec = { Mmc_workload.Spec.default with n_objects = 4; read_ratio = 0.5 }

let run ~kind ~latency ~seed =
  let cfg =
    {
      Runner.default_config with
      n_procs = 3;
      n_objects = 4;
      ops_per_proc = 12;
      kind;
      latency;
    }
  in
  Runner.run ~seed cfg ~workload:(Mmc_workload.Generator.mixed spec)

let mlin h =
  match Admissible.check ~max_states:5_000_000 h History.Mlin with
  | Admissible.Admissible _ -> true
  | Admissible.Not_admissible -> false
  | Admissible.Aborted -> Alcotest.fail "checker aborted"

let within_bound = Mmc_sim.Latency.Uniform (5, 15)

let broken_bound =
  Mmc_sim.Latency.Bimodal { fast = 5; slow = 60; p_slow = 0.2 }

let test_linearizable_within_bound () =
  for seed = 0 to 5 do
    let res = run ~kind:Store.Aw ~latency:within_bound ~seed in
    Alcotest.(check int)
      (Fmt.str "completed (seed %d)" seed)
      36 res.Runner.completed;
    Alcotest.(check bool)
      (Fmt.str "m-linearizable within bound (seed %d)" seed)
      true
      (mlin res.Runner.history)
  done

let test_violations_beyond_bound () =
  (* With a fifth of the messages taking 4x the assumed bound, some
     run must break linearizability. *)
  let broken = ref 0 in
  for seed = 0 to 5 do
    let res = run ~kind:Store.Aw ~latency:broken_bound ~seed in
    if not (mlin res.Runner.history) then incr broken
  done;
  Alcotest.(check bool) "violations observed" true (!broken > 0)

let test_mlin_protocol_immune () =
  (* The paper's protocol under the identical hostile latency: still
     m-linearizable on every seed. *)
  for seed = 0 to 5 do
    let res = run ~kind:Store.Mlin ~latency:broken_bound ~seed in
    Alcotest.(check bool)
      (Fmt.str "figure 6 protocol unaffected (seed %d)" seed)
      true
      (mlin res.Runner.history)
  done

let test_update_latency_is_delta () =
  (* AW updates respond exactly delta + 1 after issue (applied at the
     first instant strictly after the bound). *)
  let res = run ~kind:Store.Aw ~latency:within_bound ~seed:2 in
  Alcotest.(check int) "update p50 = delta + 1" 16
    res.Runner.update_latency.Mmc_sim.Stats.p50;
  Alcotest.(check int) "update max = delta + 1" 16
    res.Runner.update_latency.Mmc_sim.Stats.max;
  Alcotest.(check int) "queries local" 0
    res.Runner.query_latency.Mmc_sim.Stats.p99

let () =
  Alcotest.run "aw"
    [
      ( "contrast",
        [
          Alcotest.test_case "linearizable within bound" `Quick
            test_linearizable_within_bound;
          Alcotest.test_case "violations beyond bound" `Quick
            test_violations_beyond_bound;
          Alcotest.test_case "figure 6 immune" `Quick test_mlin_protocol_immune;
          Alcotest.test_case "update latency = delta" `Quick
            test_update_latency_is_delta;
        ] );
    ]
