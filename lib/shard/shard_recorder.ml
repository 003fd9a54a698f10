(** Stitching per-shard recorded histories into one global history
    (see the interface). *)

open Mmc_core
open Mmc_store

type t = {
  history : History.t;
  stamps : (Types.mop_id, Version_vector.stamped) Hashtbl.t;
  chains : Types.mop_id list array;
  sync_order : Types.mop_id list;
  shard_of_mop : (Types.mop_id, int) Hashtbl.t;
}

(** Remap one shard-local record to the global object space.  Version
    namespaces stay disjoint across shards ([ns * n_shards + shard]):
    objects are already globally unique after remapping, but replica
    namespaces of unsynchronized stores must not collide between
    shards. *)
let remap placement shard (r : Recorder.record) =
  let n_shards = Placement.n_shards placement in
  let n_objects = Placement.n_objects placement in
  let glob l = Placement.to_global placement shard l in
  let ns' ns = (ns * n_shards) + shard in
  let scatter (v : Version_vector.t) =
    let out = Array.make n_objects 0 in
    Array.iteri (fun l ver -> out.(glob l) <- ver) v;
    out
  in
  {
    r with
    Recorder.ops =
      List.map
        (fun op ->
          let x = glob (Op.obj op) in
          let v = Op.value op in
          if Op.is_read op then Op.read x v else Op.write x v)
        r.Recorder.ops;
    reads = List.map (fun (x, ver, ns) -> (glob x, ver, ns' ns)) r.Recorder.reads;
    writes = List.map (fun (x, ver, ns) -> (glob x, ver, ns' ns)) r.Recorder.writes;
    start_ts = scatter r.Recorder.start_ts;
    finish_ts = scatter r.Recorder.finish_ts;
    (* Shard-local broadcast positions collide across shards; the
       chains below carry them instead. *)
    sync = None;
  }

let stitch placement recorders =
  let n_shards = Placement.n_shards placement in
  if Array.length recorders <> n_shards then
    invalid_arg "Shard_recorder.stitch: one recorder per shard required";
  (* Gather (shard, local sync position, remapped record), then number
     globally with the recorder's own convention: stable sort by
     (invocation, response). *)
  let tagged =
    Array.to_list recorders
    |> List.mapi (fun s rec_ ->
           List.map
             (fun (r : Recorder.record) ->
               (s, r.Recorder.sync, remap placement s r))
             (Recorder.records rec_))
    |> List.concat
  in
  let tagged =
    List.stable_sort
      (fun (_, _, (a : Recorder.record)) (_, _, (b : Recorder.record)) ->
        compare (a.Recorder.inv, a.Recorder.resp) (b.Recorder.inv, b.Recorder.resp))
      tagged
  in
  let records = List.map (fun (_, _, r) -> r) tagged in
  let merged =
    Recorder.of_records ~n_objects:(Placement.n_objects placement) records
  in
  let history, stamps, _ = Recorder.to_history_full merged in
  let shard_of_mop = Hashtbl.create (List.length records) in
  List.iteri (fun i (s, _, _) -> Hashtbl.add shard_of_mop (i + 1) s) tagged;
  (* Per-shard chains: ids of shard [s]'s synchronized updates in
     broadcast-position order. *)
  let chains =
    Array.init n_shards (fun s ->
        List.mapi (fun i (s', sync, _) -> (s', sync, i + 1)) tagged
        |> List.filter_map (fun (s', sync, id) ->
               match sync with
               | Some p when s' = s -> Some (p, id)
               | _ -> None)
        |> List.sort compare |> List.map snd)
  in
  (* Merged global update order: a deterministic linear extension of
     process order, reads-from and every per-shard chain, over
     adjacency lists (O(n + e) words, not a dense n×n matrix). *)
  let n = History.n_mops history in
  let edges = ref (History.base_edges history History.Msc) in
  Array.iter
    (fun chain ->
      let rec link = function
        | a :: (b :: _ as rest) ->
          edges := (a, b) :: !edges;
          link rest
        | [ _ ] | [] -> ()
      in
      link chain)
    chains;
  let synchronized = Array.make n false in
  Array.iter (List.iter (fun id -> synchronized.(id) <- true)) chains;
  (* Anti-dependency edges: a reader of version [k] of an object
     precedes the writer of [k + 1] in every legal total order — and
     so does the reader's latest synchronized program-order
     predecessor when the reader itself is unsynchronized (a query).
     Folding these implied edges into the linearization keeps its
     arbitrary tie-breaks from pinching a stale local read between a
     remote update and the reader's own process order: without them
     the sort may place the overwriting update before an unrelated
     update that process order puts before the reader, and the
     stitched verdict would blame a legal history.  A cycle through
     these edges means no legal total order exists at all — a genuine
     composition anomaly, surfaced as one below. *)
  let writer_of = Hashtbl.create (List.length records) in
  List.iteri
    (fun i (r : Recorder.record) ->
      List.iter
        (fun (x, ver, ns) -> Hashtbl.replace writer_of (x, ver, ns) (i + 1))
        r.Recorder.writes)
    records;
  let last_sync = Hashtbl.create 8 in
  List.iteri
    (fun i (r : Recorder.record) ->
      let id = i + 1 in
      let anchor =
        if synchronized.(id) then Some id
        else Hashtbl.find_opt last_sync r.Recorder.proc
      in
      (match anchor with
      | None -> ()
      | Some u ->
        List.iter
          (fun (x, ver, ns) ->
            match Hashtbl.find_opt writer_of (x, ver + 1, ns) with
            | Some w when w <> id && w <> u -> edges := (u, w) :: !edges
            | _ -> ())
          r.Recorder.reads);
      if synchronized.(id) then Hashtbl.replace last_sync r.Recorder.proc id)
    records;
  let sync_order =
    match Digraph.topo_sort (Digraph.of_edges n !edges) with
    | None -> []
    | Some order ->
      Array.to_list order |> List.filter (fun id -> synchronized.(id))
  in
  { history; stamps; chains; sync_order; shard_of_mop }
