(** Per-shard + stitched verification of a sharded run (see the
    interface). *)

open Mmc_core
open Mmc_store

type shard_verdict = {
  shard : int;
  mops : int;
  result : Check_constrained.result;
}

type t = {
  per_shard : shard_verdict array;
  stitched : Check_constrained.result;
  batch : Check_constrained.result option;
  agree : bool;
  composes : bool;
}

let is_admissible = function
  | Check_constrained.Admissible _ -> true
  | _ -> false

(* Verdicts are compared by shape: the chain and batch paths decide
   over the same closure but may differ in witness/counterexample
   details. *)
let same_verdict a b =
  match (a, b) with
  | Check_constrained.Admissible _, Check_constrained.Admissible _
  | Check_constrained.Not_legal _, Check_constrained.Not_legal _
  | Check_constrained.Constraint_violated, Check_constrained.Constraint_violated
  | Check_constrained.Cyclic, Check_constrained.Cyclic
  | Check_constrained.Extended_cyclic, Check_constrained.Extended_cyclic ->
    true
  | _ -> false

let all_shards_admissible t =
  Array.for_all (fun v -> is_admissible v.result) t.per_shard

let admissible t = is_admissible t.stitched

let link_edges order =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] order

let constraint_edges (st : Shard_recorder.t) =
  List.concat_map link_edges
    (Array.to_list st.Shard_recorder.chains @ [ st.Shard_recorder.sync_order ])

let stitched_relation (st : Shard_recorder.t) ~flavour =
  let h = st.Shard_recorder.history in
  let rel = Relation.create (History.n_mops h) in
  Relation.add_edges rel (History.base_edges h flavour);
  Relation.add_edges rel (constraint_edges st);
  rel

(** One shard's Theorem-7 check: the flavour's base relation over the
    shard's own (local) history plus the shard's broadcast order. *)
let check_shard recorder ~flavour ~kind shard =
  let history, _stamps, sync_order = Recorder.to_history_full recorder in
  let result =
    Check_constrained.check_chain history ~flavour
      ~extra:(link_edges sync_order) kind
  in
  { shard; mops = History.n_mops history - 1; result }

let check_stitched ?(kind = Constraints.WW) (st : Shard_recorder.t) ~flavour =
  Check_constrained.check_chain st.Shard_recorder.history ~flavour
    ~extra:(constraint_edges st) kind

let check_shards ?(kind = Constraints.WW) recorders ~flavour =
  Array.mapi (fun s recorder -> check_shard recorder ~flavour ~kind s) recorders

let check ?(oracle = true) ?(kind = Constraints.WW) placement recorders ~flavour
    =
  let per_shard = check_shards ~kind recorders ~flavour in
  let st = Shard_recorder.stitch placement recorders in
  let stitched = check_stitched ~kind st ~flavour in
  let batch =
    if oracle then
      Some
        (Check_constrained.check_relation st.Shard_recorder.history
           (stitched_relation st ~flavour)
           kind)
    else None
  in
  let t = { per_shard; stitched; batch; agree = false; composes = false } in
  {
    t with
    agree = (match batch with None -> true | Some b -> same_verdict stitched b);
    composes = all_shards_admissible t = is_admissible stitched;
  }

let pp ppf t =
  Array.iter
    (fun v ->
      Fmt.pf ppf "shard %d (%d mops): %a@." v.shard v.mops
        Check_constrained.pp_result v.result)
    t.per_shard;
  Fmt.pf ppf "stitched: %a@." Check_constrained.pp_result t.stitched;
  Fmt.pf ppf "batch cross-check: %s@."
    (match t.batch with
    | None -> "skipped"
    | Some _ -> if t.agree then "agrees" else "DISAGREES — checker bug");
  Fmt.pf ppf "composition: %s"
    (if t.composes then "per-shard verdicts compose"
     else "anomaly — shards admissible, stitched history is not")
