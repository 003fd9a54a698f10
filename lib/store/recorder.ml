(** Execution recorder: turns protocol runs into checkable histories.

    Each completed m-operation is recorded with its operation list,
    invocation/response times, the {e versions} it read and wrote, and
    its start/finish timestamps (the protocol's version vectors).
    Versions identify writers exactly — (namespace, object, version) is
    written by at most one m-operation — so the reads-from relation of
    the produced history is the true one, not a value-based guess.

    The namespace disambiguates version counters that are not globally
    agreed: the replicated protocols use a single namespace (atomic
    broadcast makes versions global), while the unsynchronized baseline
    uses one namespace per replica. *)

open Mmc_core

type record = {
  proc : Types.proc_id;
  inv : Types.time;
  resp : Types.time;
  ops : Op.t list;
  reads : (Types.obj_id * int * int) list;
      (** external reads: (object, version, namespace) *)
  writes : (Types.obj_id * int * int) list;
      (** final writes: (object, new version, namespace) *)
  start_ts : Version_vector.t;
  finish_ts : Version_vector.t;
  sync : int option;
      (** position in the synchronization (atomic broadcast) total
          order, when the protocol has one — None for queries and for
          stores without a global update order *)
}

let make ~proc ~inv ~resp ~start_ts ~finish_ts ?sync (a : Apply.applied) =
  {
    proc;
    inv;
    resp;
    ops = a.Apply.ops;
    reads = a.Apply.reads;
    writes = a.Apply.writes;
    start_ts;
    finish_ts;
    sync;
  }

type t = {
  n_objects : int;
  mutable records : record list;  (** reversed *)
  mutable count : int;
}

let create ~n_objects = { n_objects; records = []; count = 0 }

let add t r =
  t.records <- r :: t.records;
  t.count <- t.count + 1

let count t = t.count

let records t = List.rev t.records

(* Hand the accumulated records over (in add order) and forget them:
   a streaming consumer (the soak driver, `mmc generate --stream`)
   drains periodically so resident record state stays bounded by the
   drain interval, not the run length.  [count] keeps the cumulative
   total; a drained recorder can no longer build the full history. *)
let drain t =
  let rs = List.rev t.records in
  t.records <- [];
  rs

let of_records ~n_objects records =
  { n_objects; records = List.rev records; count = List.length records }

(* Rewrite every synchronization position through [f] — the seg
   store's finalize re-numbers the broadcast order to slot in tail
   entries at their frontiers.  [f] must be strictly monotone so the
   recorded order is preserved. *)
let remap_sync t f =
  t.records <-
    List.map
      (fun r ->
        match r.sync with
        | None -> r
        | Some p -> { r with sync = Some (f p) })
      t.records

exception Inconsistent_versions of string

let n_objects t = t.n_objects

(* Writers by (namespace, object, version), hashed and compared as
   ints. *)
module Writers = Hashtbl.Make (struct
  type t = int * Types.obj_id * int

  let equal ((a, b, c) : t) (d, e, f) = a = d && b = e && c = f
  let hash ((ns, x, v) : t) = ((((ns * 65599) + x) * 65599) + v) land max_int
end)

(* Number the records in stable (invocation, response) order, map each
   (namespace, object, version) to its writer's number and rank the
   synchronized records by (position, number); then hand each record
   to [f] in order, its reads named by writer number (0, the
   initializer, for version 0) through [read reader obj writer]. *)
let iter_numbered t ~read f =
  let records = Array.of_list (List.rev t.records) in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare a.inv b.inv in
      if c <> 0 then c else Int.compare a.resp b.resp)
    records;
  let n = Array.length records in
  let writer_of = Writers.create (4 * n) in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (x, ver, ns) ->
          let key = (ns, x, ver) in
          if Writers.mem writer_of key then
            raise
              (Inconsistent_versions
                 (Fmt.str "two writers of version %d of x%d (ns %d)" ver x ns));
          Writers.add writer_of key (i + 1))
        r.writes)
    records;
  let pos = Array.make n (-1) and synced = ref [] in
  for i = n - 1 downto 0 do
    match records.(i).sync with
    | Some p ->
      pos.(i) <- p;
      synced := i :: !synced
    | None -> ()
  done;
  (* Stable: of two records at one position, the lower number first. *)
  let synced = Array.of_list !synced in
  Array.stable_sort (fun i j -> Int.compare pos.(i) pos.(j)) synced;
  let rank = Array.make n (-1) in
  Array.iteri (fun k i -> rank.(i) <- k) synced;
  Array.iteri
    (fun i r ->
      let id = i + 1 in
      let resolve (x, ver, ns) =
        if ver = 0 then read id x Types.init_mop
        else
          match Writers.find_opt writer_of (ns, x, ver) with
          | Some w -> read id x w
          | None ->
            raise
              (Inconsistent_versions
                 (Fmt.str
                    "m-operation %d read version %d of x%d (ns %d) with no \
                     recorded writer"
                    id ver x ns))
      in
      let reads = List.map resolve r.reads in
      f id r reads (if rank.(i) < 0 then None else Some rank.(i)))
    records

(** Build the history, the per-m-operation timestamp table for the
    P 5.x validators, and the synchronization order (m-operation ids of
    synchronized updates, in broadcast order) when the protocol
    recorded one.  M-operations are numbered in invocation order; reads
    of version 0 resolve to the initializer. *)
let to_history_full t =
  let mops = ref [] and rf = ref [] and synced = ref [] in
  let stamps : (Types.mop_id, Version_vector.stamped) Hashtbl.t =
    Hashtbl.create (List.length t.records)
  in
  iter_numbered t
    ~read:(fun reader obj writer -> { History.reader; obj; writer })
    (fun id r reads sync ->
      mops :=
        Mop.make ~id ~proc:r.proc ~ops:r.ops ~inv:r.inv ~resp:r.resp :: !mops;
      rf := List.rev_append reads !rf;
      Hashtbl.replace stamps id
        { Version_vector.start_ts = r.start_ts; finish_ts = r.finish_ts };
      Option.iter (fun k -> synced := (k, id) :: !synced) sync);
  let history =
    History.create ~n_objects:t.n_objects (List.rev !mops) ~rf:(List.rev !rf)
  in
  let order = Array.make (List.length !synced) 0 in
  List.iter (fun (k, id) -> order.(k) <- id) !synced;
  (history, stamps, Array.to_list order)

let to_history t =
  let history, stamps, _ = to_history_full t in
  (history, stamps)
