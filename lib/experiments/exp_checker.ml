(** Checker complexity experiments (T1, T2, T7): the paper's Section 3
    NP-completeness results and the Section 4 escape hatch, measured. *)

open Mmc_core

(* Chain all updates of [h] in id order on top of its m-SC relation:
   installs the WW-constraint the way the protocols do (atomic
   broadcast order). *)
let ww_base h =
  let updates =
    History.real_mops h
    |> List.filter Mop.is_update
    |> List.map (fun (m : Mop.t) -> m.Mop.id)
  in
  let base = History.base_relation h History.Msc in
  Relation.add_edges base (Check_constrained.sync_edges [ updates ]);
  base

(* The hard corpus for a given size: near-consistent histories —
   consistent executions with one reads-from edge redirected to a
   same-value writer.  These pass the cheap pre-checks and force the
   exhaustive checker to search; the m-SC relation (no real-time
   pruning) is the hardest flavour. *)
let hard_instance ~seed n =
  let h =
    Mmc_workload.Histories.legal_random ~seed ~n_procs:5 ~n_objects:2 ~n_mops:n
      ~max_len:3 ~read_ratio:0.3 ()
  in
  match Mmc_workload.Histories.perturb_rf ~seed:(seed + 1) h with
  | Some h' -> h'
  | None -> h

(** T1 — exhaustive admissibility checking vs the Theorem 7 polynomial
    checker, as the history grows.  Near-consistent mutated histories
    are the hard instances for the exhaustive search; WW-constrained
    consistent histories feed the polynomial checker. *)
let t1 ?(sizes = [ 8; 12; 16; 20; 24; 28 ]) ?(seeds = 8) () =
  let rows =
    List.map
      (fun n ->
        let states = ref 0 in
        let max_states_seen = ref 0 in
        let max_states_inv = ref 0 in
        let exh_ms = ref 0.0 in
        let poly_ms = ref 0.0 in
        let admissible = ref 0 in
        for seed = 0 to seeds - 1 do
          let h = hard_instance ~seed:(seed + (n * 1000)) n in
          let stats = { Admissible.states = 0; memo_hits = 0 } in
          let verdict, ms =
            Table.time_ms (fun () ->
                Admissible.check ~stats ~max_states:3_000_000 h History.Msc)
          in
          let stats_inv = { Admissible.states = 0; memo_hits = 0 } in
          ignore
            (Admissible.check ~stats:stats_inv ~frontier:Admissible.By_inv
               ~max_states:3_000_000 h History.Msc);
          max_states_inv := max !max_states_inv stats_inv.Admissible.states;
          exh_ms := !exh_ms +. ms;
          states := !states + stats.Admissible.states;
          max_states_seen := max !max_states_seen stats.Admissible.states;
          (match verdict with
          | Admissible.Admissible _ -> incr admissible
          | Admissible.Not_admissible | Admissible.Aborted -> ());
          (* Constrained checker on a WW-synchronized consistent history
             of the same size. *)
          let hc =
            Mmc_workload.Histories.legal_random ~seed:(seed + (n * 1000))
              ~n_procs:3 ~n_objects:3 ~n_mops:n ~max_len:3 ~read_ratio:0.5 ()
          in
          let base = ww_base hc in
          let _, pms =
            Table.time_ms (fun () ->
                Check_constrained.check_relation hc base Constraints.WW)
          in
          poly_ms := !poly_ms +. pms
        done;
        let d = float_of_int seeds in
        [
          Table.i n;
          Table.i (!states / seeds);
          Table.i !max_states_seen;
          Table.i !max_states_inv;
          Table.f2 (!exh_ms /. d);
          Table.f2 (!poly_ms /. d);
          Table.i !admissible;
        ])
      sizes
  in
  {
    Table.id = "T1";
    title = "exhaustive vs Theorem-7 checking cost";
    header =
      [
        "m-ops";
        "mean states";
        "max states";
        "max (inv frontier)";
        "exhaustive ms";
        "theorem7 ms";
        "admissible";
      ];
    rows;
    notes =
      [
        "exhaustive search states grow super-polynomially with history size";
        "the Theorem 7 checker stays polynomial (ms roughly cubic, tiny here)";
        "invocation-order frontier: cheaper witnesses on admissible \
         instances, same blowup on refutations";
      ];
  }

(** T2 — the complexity separation of Theorem 2: single-object
    histories with known reads-from are checkable in polynomial time
    (Misra), multi-object ones are not. *)
let t2 ?(sizes = [ 6; 10; 14; 18; 22 ]) ?(seeds = 5) () =
  let rows =
    List.map
      (fun n ->
        let single_ms = ref 0.0 in
        let multi_states = ref 0 in
        let multi_ms = ref 0.0 in
        let rounds = ref 0 in
        for seed = 0 to seeds - 1 do
          let hs =
            Mmc_workload.Histories.random_register ~seed:(seed + (n * 77))
              ~n_procs:4 ~n_objects:2 ~n_mops:n ~write_ratio:0.5 ()
          in
          let _, ms = Table.time_ms (fun () -> Check_single.check hs) in
          single_ms := !single_ms +. ms;
          rounds := !rounds + !Check_single.rounds;
          let hm = hard_instance ~seed:(seed + (n * 77)) n in
          let stats = { Admissible.states = 0; memo_hits = 0 } in
          let _, ms =
            Table.time_ms (fun () ->
                Admissible.check ~stats ~max_states:3_000_000 hm History.Msc)
          in
          multi_ms := !multi_ms +. ms;
          multi_states := !multi_states + stats.Admissible.states
        done;
        let d = float_of_int seeds in
        [
          Table.i n;
          Table.f2 (!single_ms /. d);
          Table.i (!rounds / seeds);
          Table.i n;
          Table.f2 (!multi_ms /. d);
          Table.i (!multi_states / seeds);
        ])
      sizes
  in
  {
    Table.id = "T2";
    title = "single-object polynomial vs multi-object exhaustive";
    header =
      [
        "ops";
        "single-obj ms";
        "fixpoint rounds";
        "multi ops";
        "multi ms";
        "multi states";
      ];
    rows;
    notes =
      [
        "single-object checking with known reads-from is polynomial (Misra)";
        "multi-object checking is NP-complete even with reads-from known \
         (Theorem 2)";
      ];
  }

(** T7 — Theorem 7 as an experiment: over a mixed corpus of
    WW-constrained histories, legality and admissibility always agree,
    and the polynomial checker is much cheaper. *)
let t7 ?(n_histories = 60) () =
  let agree = ref 0 in
  let legal_count = ref 0 in
  let poly_ms = ref 0.0 in
  let exh_ms = ref 0.0 in
  let total = ref 0 in
  for seed = 0 to n_histories - 1 do
    let h =
      Mmc_workload.Histories.random_register ~seed ~n_procs:3 ~n_objects:2
        ~n_mops:8 ~write_ratio:0.5 ()
    in
    let base = ww_base h in
    if Relation.is_acyclic base then begin
      incr total;
      let poly, pms =
        Table.time_ms (fun () ->
            Check_constrained.check_relation h base Constraints.WW)
      in
      let exh, ems = Table.time_ms (fun () -> Admissible.search h base) in
      poly_ms := !poly_ms +. pms;
      exh_ms := !exh_ms +. ems;
      let legal = Check_constrained.admissible poly in
      let adm =
        match exh with Admissible.Admissible _ -> true | _ -> false
      in
      if legal then incr legal_count;
      if legal = adm then incr agree
    end
  done;
  {
    Table.id = "T7";
    title = "legality <=> admissibility under the WW-constraint";
    header =
      [ "histories"; "legal"; "agreements"; "theorem7 ms"; "exhaustive ms" ];
    rows =
      [
        [
          Table.i !total;
          Table.i !legal_count;
          Table.i !agree;
          Table.f2 !poly_ms;
          Table.f2 !exh_ms;
        ];
      ];
    notes =
      [ "agreements must equal histories: Theorem 7's equivalence, observed" ];
  }

(** V2 — the practical verification pipeline: protocol traces carry
    their atomic-broadcast order, so the Theorem 7 polynomial checker
    can validate them directly; the exhaustive NP checker is the
    alternative.  Cost comparison as traces grow. *)
let v2 ?(sizes = [ 30; 60; 120; 240 ]) () =
  let spec = { Mmc_workload.Spec.default with n_objects = 6 } in
  let rows =
    List.map
      (fun total_ops ->
        let cfg =
          {
            Mmc_store.Runner.default_config with
            n_procs = 3;
            n_objects = 6;
            ops_per_proc = total_ops / 3;
            kind = Mmc_store.Store.Msc;
          }
        in
        let res =
          Mmc_store.Runner.run ~seed:5 cfg
            ~workload:(Mmc_workload.Generator.mixed spec)
        in
        let h = res.Mmc_store.Runner.history in
        let base = History.base_relation h History.Msc in
        Relation.add_edges base
          (Check_constrained.sync_edges [ res.Mmc_store.Runner.sync_order ]);
        let poly_ok, poly_ms =
          Table.time_ms (fun () ->
              Check_constrained.admissible
                (Check_constrained.check_relation h base Constraints.WW))
        in
        let stats = { Admissible.states = 0; memo_hits = 0 } in
        let np_ok, np_ms =
          Table.time_ms (fun () ->
              match
                Admissible.check ~stats ~max_states:3_000_000 h History.Msc
              with
              | Admissible.Admissible _ -> true
              | _ -> false)
        in
        [
          Table.i total_ops;
          (if poly_ok then "pass" else "FAIL");
          Table.f2 poly_ms;
          (if np_ok then "pass" else "FAIL");
          Table.f2 np_ms;
          Table.i stats.Admissible.states;
        ])
      sizes
  in
  {
    Table.id = "V2";
    title = "verifying protocol traces: Theorem 7 pipeline vs NP search";
    header =
      [ "trace ops"; "thm7"; "thm7 ms"; "np"; "np ms"; "np states" ];
    rows;
    notes =
      [
        "the recorded broadcast order installs the WW-constraint: \
         verification is polynomial";
        "the NP search is feasible here only because protocol traces are \
         consistent (witness found greedily)";
      ];
  }
