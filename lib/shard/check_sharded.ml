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
  composes : bool;
}

let shards_admissible =
  Array.for_all (fun v -> Check_constrained.admissible v.result)

let admissible t = Check_constrained.admissible t.stitched

(* The stitched history's synchronization orders: every per-shard
   chain and the merged global update order. *)
let sync (st : Shard_recorder.t) =
  st.Shard_recorder.sync_order :: Array.to_list st.Shard_recorder.chains

let stitched_relation (st : Shard_recorder.t) ~flavour =
  let h = st.Shard_recorder.history in
  let rel = Relation.create (History.n_mops h) in
  Relation.add_edges rel (History.base_edges h flavour);
  Relation.add_edges rel (Check_constrained.sync_edges (sync st));
  rel

let check_stitched ?(kind = Constraints.WW) (st : Shard_recorder.t) ~flavour =
  Check_constrained.check_chain st.Shard_recorder.history ~flavour
    ~sync:(sync st) kind

let check_shards ?(kind = Constraints.WW) recorders ~flavour =
  Array.mapi
    (fun shard recorder ->
      let history, _, sync_order = Recorder.to_history_full recorder in
      {
        shard;
        mops = History.n_mops history - 1;
        result = Runner.check_history ~kind history ~sync_order ~flavour;
      })
    recorders

let of_verdicts per_shard stitched =
  {
    per_shard;
    stitched;
    composes =
      shards_admissible per_shard = Check_constrained.admissible stitched;
  }

let check ?(kind = Constraints.WW) placement recorders ~flavour =
  let per_shard = check_shards ~kind recorders ~flavour in
  of_verdicts per_shard
    (check_stitched ~kind (Shard_recorder.stitch placement recorders) ~flavour)

let pp ppf t =
  Array.iter
    (fun v ->
      Fmt.pf ppf "shard %d (%d mops): %a@." v.shard v.mops
        Check_constrained.pp_result v.result)
    t.per_shard;
  Fmt.pf ppf "stitched: %a@." Check_constrained.pp_result t.stitched;
  Fmt.pf ppf "composition: %s"
    (if t.composes then "per-shard verdicts compose"
     else "anomaly — shards admissible, stitched history is not")
