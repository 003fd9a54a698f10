(** The coordination-avoidance store ([seg]): confluent m-operations
    execute locally with zero messages; sequenced m-operations
    escalate to the atomic broadcast behind a barrier that flushes
    locally-applied operations into the global order first.

    {2 Protocol}

    The object space is partitioned among the replicas by an
    {!Mmc_fastpath.Ownership} map; {!Mmc_fastpath.Classify} marks an
    m-operation {e confluent} when its conservative touch set is homed
    at the issuing replica.  Each replica keeps two copies of the
    objects:

    - the {e prefix} — the state produced by delivered (globally
      ordered) operations only; identical at every replica because it
      is driven exclusively by the total delivery order;
    - the {e live} copy — the prefix plus the replica's own buffered
      fast operations (applied locally, not yet in the global order).

    A {e fast} (confluent) operation executes on the live copy and
    responds immediately: no broadcast, no sequencer round-trip.  Its
    record is buffered; its synchronization position is assigned when
    a later barrier carries it into the delivery order.

    A {e sequenced} operation at origin [p] escalates:

    + [p] sends [Flush_req] to the home replica of every non-owned
      object the operation may write; each such owner replies
      [Flush_ack] with its entire buffer of undelivered fast
      operations and {e seals} — new fast updates queue until the
      matching barrier delivers (otherwise a fast update could read
      state the sequenced operation is about to overwrite while being
      ordered after it);
    + [p] atomically broadcasts a {e barrier}: the flushed entries
      (acked buffers plus [p]'s own buffer) and the operation itself;
    + on delivery, every replica applies the carried entries to its
      prefix in canonical (origin, sequence) order — a per-origin
      watermark makes re-carried entries idempotent — assigning each
      one the next global position, then executes the sequenced
      operation {e on the prefix} (every replica computes the same
      result; the origin records and responds), and finally releases
      any seal keyed by this barrier.

    Owners of objects the sequenced operation merely {e reads} are not
    flushed: the operation reads the prefix, which never contains
    unflushed fast writes, so those buffered operations are simply
    ordered after it.  Escalated queries broadcast (to pin their
    snapshot) but flush nobody.

    A query whose touch set is owned reads the live copy (its own
    writes are visible — process order demands it).  A query touching
    non-owned objects is fast only while the replica's buffer is
    empty — then the live copy {e is} the prefix and the snapshot is
    exactly an [msc] local query; otherwise mixing own-fresh and
    remote-stale values can produce a genuinely non-m-SC read, so it
    escalates as a non-writing sequenced operation.

    Soundness is re-checked, never assumed: the recorded history goes
    through the Theorem-7 oracle like every other store's.  When the
    classifier is untrusted ({!Mmc_fastpath.Classify.trusted}), fast
    writes are recorded under per-replica version namespaces so that
    an unsound classification surfaces as a FAIL verdict rather than a
    recorder crash — the pinned wrong-classifier test depends on
    this. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast
open Mmc_fastpath

type stats = {
  mutable fast : int;  (** confluent updates applied locally *)
  mutable fast_queries : int;  (** queries answered locally *)
  mutable escalated : int;  (** sequenced operations broadcast *)
  mutable flushes : int;  (** [Flush_req] messages sent *)
  mutable carried : int;  (** flush entries shipped inside barriers *)
  mutable sealed_waits : int;  (** fast updates queued behind a seal *)
}

(** Introspection and end-of-run hook: [finalize] assigns
    synchronization positions to never-flushed tail entries and hands
    their records to the recorder (the runner calls it after
    quiescence, before building the history); [oldest_pending] is the
    earliest invocation time still buffered anywhere — streaming
    consumers must not consider the trace complete past it. *)
type handle = {
  stats : stats;
  oldest_pending : unit -> int option;
  finalize : unit -> unit;
}

(* A buffered fast operation: the record it will contribute (sync
   still unassigned) plus its final writes with values, so other
   replicas can apply it when a barrier carries it over. *)
type entry = {
  e_origin : int;
  e_seq : int;
  e_rec : Recorder.record;
      (** its [resp] is the execution instant — fast operations
          respond immediately — which is also the op's hybrid-clock
          key in the [Frontier] finalize *)
  e_writes : (Types.obj_id * Value.t * int * int) list;
      (** (object, final value, version, namespace) *)
}

type op_payload = {
  p_origin : int;
  p_mprog : Prog.mprog;
  p_inv : Types.time;
  p_query : bool;
  p_k : Value.t -> unit;
}

type barrier = {
  b_origin : int;
  b_id : int;  (** origin-local barrier id; [(b_origin, b_id)] keys seals *)
  b_carried : entry list;  (** sorted by (origin, sequence) *)
  b_op : op_payload;
}

type ctl =
  | Flush_req of { fr_origin : int; fr_id : int }
  | Flush_ack of { fa_src : int; fa_id : int; fa_entries : entry list }

(* Waiting state of an escalation's flush round. *)
type pending = {
  mutable waiting : int list;
  mutable acked : entry list;
  pend_op : op_payload;
}

(* Each recorded write with the value its ops wrote last. *)
let final_writes (applied : Apply.applied) =
  List.map
    (fun (x, ver, ns) ->
      (x, Option.get (Op.last_write applied.Apply.ops x), ver, ns))
    applied.Apply.writes

(* How [finalize] turns buffered/carried fast operations into
   synchronization positions.  [Dense] records carried entries at
   delivery and appends never-flushed tails after every broadcast
   position — sound for a single store (nothing of the same process
   with a position can follow a tail op, and tails of different
   origins are object-disjoint), and keeps positions stable while a
   streaming consumer reads them.  [Frontier] withholds every fast
   record until finalize and re-keys the whole order by a hybrid
   clock (see the finalize branch); the sharded store needs this
   because a process interleaves shards — with any delivery-time
   placement, a shard's chain can order a fast op after a sequenced
   op that {e follows} one of its program-order successors on another
   shard, and the stitched relation (per-shard chains plus process
   order) goes cyclic. *)
type tail_order = Dense | Frontier

let create ?fault ?reliable ?batch ?(mode = Classify.Sound) ?(tail = Dense)
    ?ownership ?fsink engine ~n ~n_objects ~latency ~rng ~abcast_impl ~recorder
    : Store.t =
  let ownership =
    match ownership with
    | Some o -> o
    | None -> Ownership.modulo ~n_owners:n
  in
  let trusted = Classify.trusted mode in
  (* Replica state: prefix (delivered-only; identical everywhere) and
     live (prefix + own buffered fast ops), each with value, version
     and namespace arrays. *)
  let prefix_x = Array.init n (fun _ -> Array.make n_objects Value.initial) in
  let prefix_ts = Array.init n (fun _ -> Array.make n_objects 0) in
  let prefix_ns = Array.init n (fun _ -> Array.make n_objects 0) in
  let live_x = Array.init n (fun _ -> Array.make n_objects Value.initial) in
  let live_ts = Array.init n (fun _ -> Array.make n_objects 0) in
  let live_ns = Array.init n (fun _ -> Array.make n_objects 0) in
  let buffer : entry Queue.t array = Array.init n (fun _ -> Queue.create ()) in
  let next_seq = Array.make n 0 in
  (* watermark.(v).(o): next sequence number of origin [o] that replica
     [v] has not yet applied to its prefix — carried entries below it
     are duplicates from overlapping flushes. *)
  let watermark = Array.init n (fun _ -> Array.make n 0) in
  (* Global position counter of the synchronization order; advanced in
     lockstep at every replica by the (identical) delivery sequence. *)
  let next_pos = Array.make n 0 in
  let seals : (int * int) list ref array = Array.init n (fun _ -> ref []) in
  let queued : (Prog.mprog * Types.time * (Value.t -> unit)) Queue.t array =
    Array.init n (fun _ -> Queue.create ())
  in
  let pendings : (int, pending) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 8)
  in
  let bar_counter = Array.make n 0 in
  (* Hybrid-clock bookkeeping for the [Frontier] finalize: the first
     engine instant at which {e any} replica consumed each global
     position, the positions held by sequenced (broadcast) updates,
     and fast entries already retired into the prefix — their records
     are withheld from the recorder until [finalize] re-keys the whole
     order. *)
  let first_seen : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let seq_positions : int list ref = ref [] in
  let retired : entry list ref = ref [] in
  let note_pos pos =
    if not (Hashtbl.mem first_seen pos) then
      Hashtbl.add first_seen pos (Engine.now engine)
  in
  let stats =
    {
      fast = 0;
      fast_queries = 0;
      escalated = 0;
      flushes = 0;
      carried = 0;
      sealed_waits = 0;
    }
  in
  let ctl : ctl Transport.t =
    Transport.create ?fault ?config:reliable engine ~n ~latency
      ~rng:(Rng.split rng)
  in
  let abcast = ref None in
  let the_abcast () = Option.get !abcast in
  (* The namespace fast writes are recorded under: the shared namespace
     0 when the classifier is trusted (ownership makes version chains
     collision-free), a per-replica one otherwise so unsound
     interleavings surface as Theorem-7 verdicts, not recorder
     crashes. *)
  let fast_ns p = if trusted then 0 else p + 1 in
  let buffer_entries p = List.of_seq (Queue.to_seq buffer.(p)) in
  let broadcast_barrier p id carried op =
    let carried =
      List.sort
        (fun a b -> compare (a.e_origin, a.e_seq) (b.e_origin, b.e_seq))
        carried
    in
    stats.carried <- stats.carried + List.length carried;
    Abcast.broadcast (the_abcast ()) ~src:p
      { b_origin = p; b_id = id; b_carried = carried; b_op = op }
  in
  (* Apply one carried entry to replica [node]'s prefix (and live copy
     at non-origins), assign it the next global position, and at its
     origin retire it from the buffer and hand its record — now
     synchronized — to the recorder.  Version counters merge by [max]:
     under a trusted classifier the carried version always extends the
     chain exactly, and under an untrusted one monotonicity keeps the
     recorder's version map single-writer per namespace. *)
  let apply_entry node e =
    let wm = watermark.(node).(e.e_origin) in
    assert (e.e_seq <= wm);
    if e.e_seq = wm then begin
      watermark.(node).(e.e_origin) <- wm + 1;
      List.iter
        (fun (x, v, ver, ns) ->
          prefix_x.(node).(x) <- v;
          if ver > prefix_ts.(node).(x) then prefix_ts.(node).(x) <- ver;
          prefix_ns.(node).(x) <- ns;
          if node <> e.e_origin then begin
            live_x.(node).(x) <- v;
            if ver > live_ts.(node).(x) then live_ts.(node).(x) <- ver;
            live_ns.(node).(x) <- ns
          end)
        e.e_writes;
      let pos = next_pos.(node) in
      next_pos.(node) <- pos + 1;
      note_pos pos;
      if node = e.e_origin then begin
        (match Queue.peek_opt buffer.(node) with
        | Some head when head.e_seq = e.e_seq -> ignore (Queue.pop buffer.(node))
        | _ -> assert false);
        match tail with
        | Dense -> Recorder.add recorder { e.e_rec with Recorder.sync = Some pos }
        | Frontier ->
          (* The final position comes from the hybrid-clock re-keying
             at [finalize]; until then the record stays out of the
             recorder. *)
          retired := e :: !retired
      end
    end
  in
  let rec deliver ~node ~origin:_ (b : barrier) =
    List.iter (apply_entry node) b.b_carried;
    let op = b.b_op in
    let start_ts = Array.copy prefix_ts.(node) in
    let applied, op_pos =
      if op.p_query then
        ( Apply.query_ns prefix_x.(node) prefix_ts.(node) prefix_ns.(node)
            op.p_mprog.Prog.prog,
          None )
      else begin
        let applied =
          Apply.update_ns prefix_x.(node) prefix_ts.(node) prefix_ns.(node)
            ~writer_ns:0 op.p_mprog.Prog.prog
        in
        (* Copy the new prefix values of written objects into the live
           copy; owners of written objects were flushed and sealed, so
           no buffered fast write is overtaken. *)
        List.iter
          (fun (x, ver, _) ->
            live_x.(node).(x) <- prefix_x.(node).(x);
            if ver > live_ts.(node).(x) then live_ts.(node).(x) <- ver;
            live_ns.(node).(x) <- 0)
          applied.Apply.writes;
        let pos = next_pos.(node) in
        next_pos.(node) <- pos + 1;
        note_pos pos;
        (applied, Some pos)
      end
    in
    if node = op.p_origin then begin
      (match op_pos with
      | Some p -> seq_positions := p :: !seq_positions
      | None -> ());
      Recorder.add recorder
        {
          Recorder.proc = op.p_origin;
          inv = op.p_inv;
          resp = Engine.now engine;
          ops = applied.Apply.ops;
          reads = applied.Apply.reads;
          writes = applied.Apply.writes;
          start_ts;
          finish_ts = Array.copy prefix_ts.(node);
          sync = (if op.p_query then None else op_pos);
        };
      op.p_k applied.Apply.result
    end;
    let key = (b.b_origin, b.b_id) in
    if List.mem key !(seals.(node)) then begin
      seals.(node) := List.filter (fun k -> k <> key) !(seals.(node));
      if !(seals.(node)) = [] then begin
        (* Unsealed: replay deferred invocations in arrival order. *)
        let q = queued.(node) in
        let rec drain () =
          match Queue.take_opt q with
          | None -> ()
          | Some (m, inv, k) ->
            invoke_at ~proc:node ~inv m ~k;
            (* A replayed op can re-seal the replica; the rest of the
               queue then stays for the next release. *)
            if !(seals.(node)) = [] then drain ()
        in
        drain ()
      end
    end
  and escalate ~proc ~inv ~query (m : Prog.mprog) ~k =
    stats.escalated <- stats.escalated + 1;
    let id = bar_counter.(proc) in
    bar_counter.(proc) <- id + 1;
    let op = { p_origin = proc; p_mprog = m; p_inv = inv; p_query = query; p_k = k } in
    (* Flush the owners of every object the update may TOUCH, not just
       write: a sequenced reader of an owned object must see the
       owner's buffered fast writes, or the synchronization order
       would place it after writes it provably did not read. *)
    let remote_owners =
      if query then []
      else
        List.sort_uniq Int.compare
          (List.filter_map
             (fun x ->
               let o = Ownership.owner ownership x in
               if o = proc then None else Some o)
             m.Prog.may_touch)
    in
    if remote_owners = [] then
      broadcast_barrier proc id (buffer_entries proc) op
    else begin
      Hashtbl.replace pendings.(proc) id
        { waiting = remote_owners; acked = []; pend_op = op };
      List.iter
        (fun w ->
          stats.flushes <- stats.flushes + 1;
          Transport.send ctl ~src:proc ~dst:w
            (Flush_req { fr_origin = proc; fr_id = id }))
        remote_owners
    end
  and invoke_at ~proc ~inv (m : Prog.mprog) ~k =
    if Prog.is_query m then begin
      if
        Ownership.owns ownership ~proc m.Prog.may_touch
        || Queue.is_empty buffer.(proc)
      then begin
        (* Owned snapshot, or the live copy is exactly the prefix: an
           msc-style local query either way. *)
        stats.fast_queries <- stats.fast_queries + 1;
        let start_ts = Array.copy live_ts.(proc) in
        let applied =
          Apply.query_ns live_x.(proc) live_ts.(proc) live_ns.(proc)
            m.Prog.prog
        in
        Recorder.add recorder
          {
            Recorder.proc;
            inv;
            resp = Engine.now engine;
            ops = applied.Apply.ops;
            reads = applied.Apply.reads;
            writes = [];
            start_ts;
            finish_ts = Array.copy live_ts.(proc);
            sync = None;
          };
        k applied.Apply.result
      end
      else escalate ~proc ~inv ~query:true m ~k
    end
    else
      match
        Classify.classify mode ownership ~proc ~label:m.Prog.label
          ~may_touch:m.Prog.may_touch
      with
      | Classify.Sequenced -> escalate ~proc ~inv ~query:false m ~k
      | Classify.Confluent ->
        if !(seals.(proc)) <> [] then begin
          (* A flush we acked is in flight: applying now would order
             this op's effects before a barrier that did not carry
             them.  Defer until the seal releases. *)
          stats.sealed_waits <- stats.sealed_waits + 1;
          Queue.add (m, inv, k) queued.(proc)
        end
        else begin
          stats.fast <- stats.fast + 1;
          let start_ts = Array.copy live_ts.(proc) in
          let applied =
            Apply.update_ns live_x.(proc) live_ts.(proc) live_ns.(proc)
              ~writer_ns:(fast_ns proc) m.Prog.prog
          in
          let now = Engine.now engine in
          let rec_ =
            {
              Recorder.proc;
              inv;
              resp = now;
              ops = applied.Apply.ops;
              reads = applied.Apply.reads;
              writes = applied.Apply.writes;
              start_ts;
              finish_ts = Array.copy live_ts.(proc);
              sync = None;  (* assigned when a barrier carries it *)
            }
          in
          let seq = next_seq.(proc) in
          next_seq.(proc) <- seq + 1;
          Queue.add
            {
              e_origin = proc;
              e_seq = seq;
              e_rec = rec_;
              e_writes = final_writes applied;
            }
            buffer.(proc);
          k applied.Apply.result
        end
  in
  for v = 0 to n - 1 do
    Transport.set_handler ctl v (fun _src msg ->
        match msg with
        | Flush_req { fr_origin; fr_id } ->
          (* Seal even when the buffer is empty: fast updates applied
             between this ack and the barrier's delivery would read
             pre-barrier state yet be ordered after it. *)
          seals.(v) := (fr_origin, fr_id) :: !(seals.(v));
          Transport.send ctl ~src:v ~dst:fr_origin
            (Flush_ack { fa_src = v; fa_id = fr_id; fa_entries = buffer_entries v })
        | Flush_ack { fa_src; fa_id; fa_entries } -> (
          match Hashtbl.find_opt pendings.(v) fa_id with
          | None -> ()
          | Some p ->
            p.waiting <- List.filter (fun w -> w <> fa_src) p.waiting;
            p.acked <- p.acked @ fa_entries;
            if p.waiting = [] then begin
              Hashtbl.remove pendings.(v) fa_id;
              broadcast_barrier v fa_id (buffer_entries v @ p.acked) p.pend_op
            end))
  done;
  abcast :=
    Some
      ((Select.factory abcast_impl) ?fault ?reliable ?batch engine ~n ~latency
         ~rng:(Rng.split rng) ~deliver);
  let invoke ~proc (m : Prog.mprog) ~k =
    invoke_at ~proc ~inv:(Engine.now engine) m ~k
  in
  let oldest_pending () =
    let best = ref None in
    Array.iter
      (fun q ->
        Queue.iter
          (fun e ->
            match !best with
            | Some b when b <= e.e_rec.Recorder.inv -> ()
            | _ -> best := Some e.e_rec.Recorder.inv)
          q)
      buffer;
    !best
  in
  let finalized = ref false in
  let finalize () =
    if not !finalized then begin
      finalized := true;
      (* Tail entries never flushed by quiescence get synchronization
         positions now.  They were never observed remotely and (in
         trusted mode) are object-disjoint across origins, and every
         broadcast op conflicting with one precedes its frontier — the
         flush protocol guarantees it: a conflicting barrier either
         carried the entry (then it is not a tail) or was applied at
         the origin before the entry executed. *)
      match tail with
      | Dense ->
        (* Append after every broadcast position, origins in index
           order.  Sound stand-alone; see [tail_order]. *)
        let pos = ref (Array.fold_left max 0 next_pos) in
        for p = 0 to n - 1 do
          Queue.iter
            (fun e ->
              Recorder.add recorder { e.e_rec with Recorder.sync = Some !pos };
              incr pos)
            buffer.(p)
        done
      | Frontier ->
        (* Re-key the whole synchronization order by a hybrid clock:
           a sequenced update orders at the running maximum of
           first-delivery instants up to its position, a fast
           operation at its execution instant (its [resp]).  In-order
           delivery bounds every earlier first-delivery by any later
           op's origin-delivery instant, so the sequenced clock is
           monotone in position yet never ahead of real time at any
           replica that read the op; the flush/seal protocol in turn
           bounds fast operations against every conflicting barrier.
           Every edge of process order, reads-from and write-version
           order then strictly advances the clock (sequenced before
           fast on ties), so per-shard chains re-keyed this way
           compose acyclically across shards — which no fixed slotting
           of fast ops into delivery positions achieves: a sequenced
           op can be stamped before a fast op executes yet reach the
           fast op's origin only after. *)
        let n_real = Array.fold_left max 0 next_pos in
        let s = Array.make (max n_real 1) 0 in
        let rm = ref 0 in
        for p = 0 to n_real - 1 do
          (match Hashtbl.find_opt first_seen p with
          | Some t -> if t > !rm then rm := t
          | None -> ());
          s.(p) <- !rm
        done;
        let fast = ref !retired in
        for p = 0 to n - 1 do
          Queue.iter (fun e -> fast := e :: !fast) buffer.(p)
        done;
        let keyed =
          List.map (fun p -> ((s.(p), 0, p, 0), `Seq p)) !seq_positions
          @ List.map
              (fun e ->
                ((e.e_rec.Recorder.resp, 1, e.e_origin, e.e_seq), `Fast e))
              !fast
        in
        let keyed = List.sort (fun (a, _) (b, _) -> compare a b) keyed in
        let remap = Array.make (max n_real 1) 0 in
        List.iteri
          (fun i (_, slot) ->
            match slot with `Seq p -> remap.(p) <- i | `Fast _ -> ())
          keyed;
        (* Remap the recorded broadcast positions first (the key order
           preserves their relative order, so the map is monotone),
           then add the fast records with their final positions. *)
        Recorder.remap_sync recorder (fun p -> remap.(p));
        List.iteri
          (fun i (_, slot) ->
            match slot with
            | `Seq _ -> ()
            | `Fast e ->
              Recorder.add recorder { e.e_rec with Recorder.sync = Some i })
          keyed
    end
  in
  (match fsink with
  | Some f -> f { stats; oldest_pending; finalize }
  | None -> ());
  {
    Store.name = "seg";
    invoke;
    messages_sent =
      (fun () ->
        Abcast.messages_sent (the_abcast ()) + Transport.messages_sent ctl);
  }
