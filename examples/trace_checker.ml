(* Using the library as a consistency-checking tool: classify a batch
   of histories against all three conditions, show the checkers'
   complexity counters, and demonstrate the Theorem 7 fast path.

   Run with: dune exec examples/trace_checker.exe *)

open Mmc_core

let classify h =
  let verdict flavour =
    match Admissible.check ~max_states:2_000_000 h flavour with
    | Admissible.Admissible _ -> "yes"
    | Admissible.Not_admissible -> "no "
    | Admissible.Aborted -> "?? "
  in
  (verdict History.Msc, verdict History.Mnorm, verdict History.Mlin)

let () =
  Fmt.pr "seed  m-ops  m-SC  m-norm  m-lin  source@.";
  Fmt.pr "---------------------------------------------@.";
  (* Consistent histories: all three conditions hold. *)
  for seed = 0 to 3 do
    let h =
      Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:3
        ~n_mops:10 ~max_len:3 ~read_ratio:0.5 ()
    in
    let sc, norm, lin = classify h in
    Fmt.pr "%-5d %-6d %-5s %-7s %-6s consistent-by-construction@." seed
      (History.n_mops h - 1) sc norm lin
  done;
  (* Mutated histories: one reads-from edge redirected. *)
  for seed = 4 to 9 do
    let h =
      Mmc_workload.Histories.legal_random ~seed ~n_procs:3 ~n_objects:2
        ~n_mops:10 ~max_len:3 ~read_ratio:0.4 ()
    in
    match Mmc_workload.Histories.perturb_rf ~seed h with
    | None -> ()
    | Some h' ->
      let sc, norm, lin = classify h' in
      Fmt.pr "%-5d %-6d %-5s %-7s %-6s rf-mutated@." seed
        (History.n_mops h' - 1) sc norm lin
  done;
  (* Arbitrary register histories. *)
  for seed = 10 to 14 do
    let h =
      Mmc_workload.Histories.random_register ~seed ~n_procs:3 ~n_objects:2
        ~n_mops:8 ~write_ratio:0.5 ()
    in
    let sc, norm, lin = classify h in
    Fmt.pr "%-5d %-6d %-5s %-7s %-6s random-register@." seed
      (History.n_mops h - 1) sc norm lin
  done;

  (* The Theorem 7 fast path on a protocol-shaped history. *)
  Fmt.pr "@.Theorem 7 fast path:@.";
  let h =
    Mmc_workload.Histories.legal_random ~seed:42 ~n_procs:4 ~n_objects:4
      ~n_mops:40 ~max_len:3 ~read_ratio:0.5 ()
  in
  let base = History.base_relation h History.Msc in
  let updates =
    History.real_mops h
    |> List.filter Mop.is_update
    |> List.map (fun (m : Mop.t) -> m.Mop.id)
  in
  Relation.add_edges base (Check_constrained.sync_edges [ updates ]);
  let t0 = Sys.time () in
  (match Check_constrained.check_relation h base Constraints.WW with
  | Check_constrained.Admissible _ ->
    Fmt.pr "  40 m-operations under WW: admissible via legality check, %.2f ms@."
      ((Sys.time () -. t0) *. 1000.)
  | other -> Fmt.pr "  unexpected: %a@." Check_constrained.pp_result other);
  let stats = { Admissible.states = 0; memo_hits = 0 } in
  let t0 = Sys.time () in
  (match Admissible.search ~stats h base with
  | Admissible.Admissible _ ->
    Fmt.pr "  exhaustive on the same history: %d states, %.2f ms@."
      stats.Admissible.states
      ((Sys.time () -. t0) *. 1000.)
  | _ -> Fmt.pr "  exhaustive disagreed (bug!)@.")
