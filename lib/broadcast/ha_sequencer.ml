(** Sequencer atomic broadcast with suspicion-driven failover
    (implementation notes; model in the interface).

    Failure detection: a {!Mmc_sim.Detector} runs heartbeats on the
    same fault-injected wire as the protocol.  Nothing here reads the
    fault plan — re-election is triggered purely by suspicion edges,
    so nodes act on (possibly wrong) local opinions exactly as a real
    deployment would.  A false suspicion costs an epoch change, never
    safety: the falsely suspected sequencer's later messages carry a
    stale epoch and are fenced.

    Epoch ownership: epoch [e] belongs to node [e mod n] (rotating
    coordinator).  A node elects only when it is the smallest id it
    does not suspect, and it elects the smallest owned epoch above its
    current one — so racing candidates claim distinct epochs, the
    lowest-id candidate claims the lowest, and adoption is
    highest-epoch-wins.  A candidate adopting a higher epoch abandons
    its own sync.

    Takeover sync is quorum-gated: the candidate freezes, polls peers
    for their durable position sets, and forms the epoch only once
    itself plus ackers reach a majority.  Timer retries are capped, but
    an unsatisfied election stays open and is revived by unsuspicion
    edges (a healed partition re-adds peers), so liveness needs only a
    majority to eventually become mutually unsuspected.  [base] is one
    past the highest position any sync member holds; positions below
    [base] held by nobody in the quorum are fenced as holes.

    The close of epoch [e] carries [prev] — the highest epoch the
    candidate knows actually {e formed} (stamped something or closed),
    not merely the number it happened to hold: elections race through
    epochs that never form, and a close anchored to an unformed number
    would leave stale messages from the last formed epoch without a
    covering close forever.  The close covers every epoch in [[prev,
    e)]: a stale [Ordered] from epoch [s] is resolved against the
    earliest learned close with [prev <= s < e] (accepted iff below
    that close's base and not already seen).  A close also {e reconciles}: stamps from older
    epochs at/above [base] are withdrawn with [Retract] (the new epoch
    renumbers them), and a fenced hole overriding an older stamp
    retracts it before delivering the hole.  Symmetrically, a
    current-epoch [Ordered] that overtakes its own [New_epoch]
    supersedes an older stamp in place.

    Quorum intersection makes the store's stable mode safe: a position
    acknowledged by a majority has its durable [seen] entry on at
    least one member of any takeover sync quorum, hence it is always
    inside [merged], below [base], and never fenced or renumbered.

    Durability: the ordering metadata — seen positions with their
    (epoch, origin, oseq) stamp, learned closes, the decided horizon
    and decided-oseq sets — survives wipe-crashes (the sequenced log
    is the upstream of the store's WAL).  Client pending tables and
    sequencer request buffers are volatile but self-healing: origins
    resubmit unacked requests and the takeover sync rebuilds the
    per-origin stamped sets.

    Release: a quorum-stable store calls {!Rbcast.release} for every
    position it applies, in order.  A released position is decided
    (a majority acknowledged its stamping, so no close can fence or
    renumber it), and the node folds it into its decided [horizon]
    (every position below was released here) and the origin's
    [decided] oseq set, then drops the position's [seen] entry and,
    for its own oseq, the [restamp] payload.  Ordering state is
    therefore O(in-flight): [seen] holds the unreleased tail, plus
    stale stamps the applied one contradicts — those stay until the
    close that supersedes them withdraws them, because a withdrawal
    is what hands an own oseq back for resubmission.  A release above
    the horizon (the store installed a peer snapshot and skipped
    positions) is ignored: the node keeps its state unpruned from
    there, as it would without releases.

    A takeover sync answer carries the horizon, the decided sets and
    the [seen] tail at or above the horizon.  The candidate takes
    [base] at least the highest horizon [H] of its quorum, fences
    holes only in [[H, base)], and rebuilds [stamped] from the union
    of the decided sets plus the merged tail at or above [H].  Below
    [H] the tails are not trusted: the member with horizon [H]
    released every position below it, so the sets hold each decided
    oseq there, while a tail entry below [H] may be a stale stamp
    whose authoritative counterpart was pruned. *)

open Mmc_sim

type 'p msg =
  | Request of { origin : int; oseq : int; payload : 'p }
  | Ordered of { epoch : int; items : (int * int * int * 'p) list }
      (** stamped [(pos, origin, oseq, payload)] items sharing the
          stamping epoch — one wire message per flushed batch *)
  | Sync_req of { epoch : int }
  | Sync_ack of {
      epoch : int;
      node : int;
      horizon : int;  (** every position below is decided *)
      decided : (int * int list) array;
          (** per origin: the decided oseqs as (low watermark, sparse
              members above it) *)
      held : (int * int * int * int) list;
          (** the [seen] tail at or above [horizon]: (pos, stamp
              epoch, origin, oseq); holes [(e, -1, -1)] *)
      high : int;
    }
  | New_epoch of { epoch : int; prev : int; base : int; holes : int list }

(** A learned epoch close: epoch [e]'s sequencer renumbers from
    [base], fenced [holes], and covers stale epochs in [[prev, e)] —
    [prev] being the last epoch the candidate knew had formed. *)
type close = { base : int; holes : int list; prev : int }

(* The int-keyed tables are [Int_table]s except [seen], [pending] and
   [awaiting]: those are iterated onto the wire (a [Sync_ack]'s [held]
   list, resubmitted requests, the [Sync_req] fan-out) in the bucket
   order of [Hashtbl], so moving them would reorder messages. *)
type 'p node_state = {
  (* --- durable ordering metadata --- *)
  seen : (int, int * int * int) Hashtbl.t;
      (** pos -> (stamp epoch, origin, oseq); holes [(e, -1, -1)].
          Positions at or above the horizon, plus stale stamps below it
          awaiting withdrawal; every other position below the horizon
          counts as seen with its decided stamp, unless [unseen] *)
  mutable horizon : int;  (** every position below was released here *)
  unseen : unit Int_table.t;
      (** released positions no stamp was seen for here (catch-up
          applied them first) *)
  decided : Watermark.t array;  (** per origin: oseqs released here *)
  mutable released_epoch : int;
      (** highest stamp epoch among the [seen] entries releases dropped *)
  closes : close Int_table.t;
  mutable epoch : int;
  mutable limbo : (int * int * int * int * 'p) list;
      (** stale [(epoch, pos, origin, oseq, payload)] awaiting a close *)
  (* --- client side (volatile) --- *)
  mutable next_oseq : int;
  pending : (int, 'p) Hashtbl.t;  (** oseq -> payload, not yet ordered *)
  restamp : 'p Int_table.t;
      (** own oseqs stamped and not yet released, kept so a later
          retraction of that stamp can put the payload back into
          [pending] *)
  mutable resubmit_scheduled : bool;
  mutable resubmit_attempts : int;
  (* --- sequencer side (volatile) --- *)
  requests : 'p Int_table.t array;  (** per-origin oseq -> payload *)
  mutable stamped : Watermark.t array;
      (** per-origin stamped oseqs; the low watermark is the origin's
          stamping cursor *)
  mutable serving : bool;
  mutable next_pos : int;
  (* --- outgoing stamp batch (sequencer side, volatile) --- *)
  mutable obatch : (int * int * int * 'p) list;  (** newest first *)
  mutable obatch_len : int;
  mutable obatch_epoch : int;  (** stamping epoch of the queued items *)
  mutable oflush_scheduled : bool;
  (* --- candidate sync state (volatile) --- *)
  mutable syncing : bool;
  mutable sync_prev : int;  (** epoch held when this election started *)
  awaiting : (int, unit) Hashtbl.t;  (** peers polled, yet to Sync_ack *)
  acked : unit Int_table.t;  (** peers whose ack was merged *)
  merged : (int * int * int) Int_table.t;
  mutable sync_high : int;
  mutable sync_horizon : int;  (** highest horizon among the merged *)
  mutable sync_decided : Watermark.t array;
      (** per origin: union of the merged decided sets *)
  mutable sync_attempts : int;
  mutable retry_scheduled : bool;
}

let resubmit_after = 30
let resubmit_every = 80
let max_resubmit = 50
let sync_retry_every = 80
let max_sync_attempts = 50
let fit_wait_every = 40

let create ?duplicate ?fault ?reliable ?(batch = Batch.unbatched) ?detector
    ?(fit = fun _ -> true) engine ~n ~latency ~rng ~deliver : 'p Rbcast.t =
  let net =
    Transport.create ?duplicate ?fault ?config:reliable engine ~n ~latency ~rng
  in
  let det =
    Detector.create ?config:detector ?fault engine ~n ~latency
      ~rng:(Rng.split rng)
  in
  let sigma epoch = epoch mod n in
  (* Event tracing for protocol debugging, gated on [HA_DEBUG]
     (formatting is skipped entirely when the variable is unset). *)
  let ha_debug = Sys.getenv_opt "HA_DEBUG" <> None in
  let dbg fmt =
    if ha_debug then
      Fmt.kstr (fun s -> Fmt.epr "[ha %d] %s@." (Engine.now engine) s) fmt
    else Format.ifprintf Format.err_formatter fmt
  in
  ignore dbg;
  let quorum = (n / 2) + 1 in
  let epochs = ref 0
  and syncs = ref 0
  and holes_total = ref 0
  and fenced_total = ref 0
  and resubmits = ref 0
  and retracted_total = ref 0
  and sync_entries = ref 0 in
  let states =
    Array.init n (fun node ->
        {
          seen = Hashtbl.create 64;
          horizon = 0;
          unseen = Int_table.create 8;
          decided = Array.init n (fun _ -> Watermark.create ());
          released_epoch = 0;
          closes = Int_table.create 4;
          epoch = 0;
          limbo = [];
          next_oseq = 0;
          pending = Hashtbl.create 8;
          restamp = Int_table.create 8;
          resubmit_scheduled = false;
          resubmit_attempts = 0;
          requests = Array.init n (fun _ -> Int_table.create 8);
          stamped = Array.init n (fun _ -> Watermark.create ());
          serving = node = 0;
          next_pos = 0;
          obatch = [];
          obatch_len = 0;
          obatch_epoch = 0;
          oflush_scheduled = false;
          syncing = false;
          sync_prev = 0;
          awaiting = Hashtbl.create 8;
          acked = Int_table.create 8;
          merged = Int_table.create 64;
          sync_high = 0;
          sync_horizon = 0;
          sync_decided = [||];
          sync_attempts = 0;
          retry_scheduled = false;
        })
  in
  (* Client retry: after an epoch change (or give-up silence), re-send
     every unordered request to the current sequencer, with backoff. *)
  let rec schedule_resubmit node ~delay =
    let st = states.(node) in
    if not st.resubmit_scheduled then begin
      st.resubmit_scheduled <- true;
      Engine.schedule engine ~delay (fun () ->
          st.resubmit_scheduled <- false;
          if Hashtbl.length st.pending > 0 && st.resubmit_attempts >= max_resubmit
          then dbg "node %d resubmit GIVE-UP (%d pending)" node (Hashtbl.length st.pending);
          if
            Hashtbl.length st.pending > 0
            && st.resubmit_attempts < max_resubmit
          then begin
            st.resubmit_attempts <- st.resubmit_attempts + 1;
            let dst = sigma st.epoch in
            Hashtbl.iter
              (fun oseq payload ->
                incr resubmits;
                Transport.send net ~src:node ~dst
                  (Request { origin = node; oseq; payload }))
              st.pending;
            schedule_resubmit node ~delay:resubmit_every
          end)
    end
  in
  (* Has [pos] been seen here?  Below the horizon a position counts as
     seen, with its decided stamp, unless it is listed [unseen]. *)
  let has_seen st pos =
    Hashtbl.mem st.seen pos
    || (pos < st.horizon && not (Int_table.mem st.unseen pos))
  in
  (* Withdraw [pos]'s stamp at [node].  When the stamp carried one of
     this node's own invocations and no other position still does, the
     payload goes back into [pending] for resubmission — a fenced
     stamp must not lose the operation (the client's continuation is
     still waiting on it). *)
  let withdraw node ~pos ~origin ~oseq =
    let st = states.(node) in
    dbg "node %d withdraws pos %d (%d,%d)" node pos origin oseq;
    Hashtbl.remove st.seen pos;
    if pos < st.horizon then Int_table.replace st.unseen pos ();
    (* A withdrawal landing while this node's own takeover sync is
       open must also fence the [merged] snapshot (taken from [seen]
       at election start): otherwise [finish_sync] rebuilds [stamped]
       from an entry whose stamp was just retracted, and the origin's
       resubmissions bounce off "already stamped" forever while no
       position carries the payload. *)
    (if st.syncing then
       match Int_table.find_opt st.merged pos with
       | Some (_, o0, q0) when o0 = origin && q0 = oseq ->
         Int_table.remove st.merged pos
       | _ -> ());
    incr retracted_total;
    deliver ~node ~origin:(-1) ~pos Rbcast.Retract;
    if origin = node && not (Hashtbl.mem st.pending oseq) then begin
      let live =
        Watermark.mem st.decided.(node) oseq
        || Hashtbl.fold
             (fun _ (_, o, q) acc -> acc || (o = origin && q = oseq))
             st.seen false
      in
      if not live then
        match Int_table.find_opt st.restamp oseq with
        | Some payload ->
          Hashtbl.replace st.pending oseq payload;
          st.resubmit_attempts <- 0;
          schedule_resubmit node ~delay:resubmit_after
        | None -> ()
    end
  in
  (* Record [pos]'s stamping and deliver it.  A newer-epoch stamp
     supersedes an older payload stamp in place: its [New_epoch] (which
     would have retracted the old stamp first) can be overtaken on the
     reordering wire by the restamped [Ordered].  A stamp that arrives
     after the store already applied the position (catch-up overtook
     it) and names a decided oseq is delivered but not kept: there is
     nothing left to fence or withdraw. *)
  let accept node ~epoch ~pos ~origin ~oseq payload =
    let st = states.(node) in
    (match Hashtbl.find_opt st.seen pos with
    | Some (e0, o0, q0) when e0 < epoch && o0 >= 0 ->
      withdraw node ~pos ~origin:o0 ~oseq:q0
    | _ -> ());
    if not (has_seen st pos) then begin
      let settled = pos < st.horizon && Watermark.mem st.decided.(origin) oseq in
      if settled then begin
        Int_table.remove st.unseen pos;
        st.released_epoch <- max st.released_epoch epoch
      end
      else Hashtbl.replace st.seen pos (epoch, origin, oseq);
      if origin = node then begin
        if not settled then Int_table.replace st.restamp oseq payload;
        Hashtbl.remove st.pending oseq;
        st.resubmit_attempts <- 0
      end;
      deliver ~node ~origin ~pos (Rbcast.Payload payload)
    end
  in
  (* The store applied [pos] with stamping [(origin, oseq)] (see the
     header).  Only the position at the horizon folds in; a [seen]
     entry that disagrees with the applied stamping stays for the close
     that supersedes it to withdraw. *)
  let release ~node ~pos ~origin ~oseq =
    let st = states.(node) in
    if pos = st.horizon then begin
      (match Hashtbl.find_opt st.seen pos with
      | Some (e, o, q) when o = origin && q = oseq ->
        Hashtbl.remove st.seen pos;
        st.released_epoch <- max st.released_epoch e
      | Some _ -> ()
      | None -> Int_table.replace st.unseen pos ());
      st.horizon <- pos + 1;
      if origin >= 0 then begin
        Watermark.add st.decided.(origin) oseq;
        if origin = node then Int_table.remove st.restamp oseq
      end
    end
  in
  (* The close governing stale epoch [e]: the earliest learned close
     whose covered range [(prev, epoch)] contains [e]. *)
  let covering_close st e =
    Int_table.fold
      (fun ce (c : close) best ->
        if c.prev <= e && e < ce then
          match best with Some (be, _) when be <= ce -> best | _ -> Some (ce, c)
        else best)
      st.closes None
  in
  (* Resolve an Ordered message stamped in a since-closed epoch: valid
     iff it fits below the covering close's base and the position is
     not already seen (fenced holes live in [seen]). *)
  let resolve_stale node ~epoch ~pos ~origin ~oseq payload =
    let st = states.(node) in
    match covering_close st epoch with
    | None -> st.limbo <- (epoch, pos, origin, oseq, payload) :: st.limbo
    | Some (_, c) ->
      if pos < c.base && not (has_seen st pos) then
        accept node ~epoch ~pos ~origin ~oseq payload
      else incr fenced_total
  in
  let learn_close node ~epoch ~prev ~base ~holes =
    let st = states.(node) in
    if not (Int_table.mem st.closes epoch) then begin
      Int_table.replace st.closes epoch { base; holes; prev };
      (* Below the horizon a fenced hole needs no entry: it counts as
         seen once it is no longer [unseen]. *)
      let fence h =
        if h < st.horizon then Int_table.remove st.unseen h
        else Hashtbl.replace st.seen h (epoch, -1, -1);
        deliver ~node ~origin:(-1) ~pos:h Rbcast.Hole
      in
      List.iter
        (fun h ->
          match Hashtbl.find_opt st.seen h with
          | Some (e0, o0, q0) when e0 < epoch && o0 >= 0 ->
            (* an orphaned stamp the quorum never saw: withdraw it,
               then fence the position *)
            withdraw node ~pos:h ~origin:o0 ~oseq:q0;
            fence h
          | Some _ -> ()
          | None -> if not (has_seen st h) then fence h)
        holes;
      (* The new epoch renumbers from [base]: older-epoch stamps at or
         above it are dead — withdraw them; their payloads come back
         restamped (the origins resubmit anything unstamped). *)
      let orphans =
        Hashtbl.fold
          (fun pos (e0, o0, q0) acc ->
            if pos >= base && e0 < epoch && o0 >= 0 then (pos, o0, q0) :: acc
            else acc)
          st.seen []
      in
      List.iter
        (fun (pos, o0, q0) -> withdraw node ~pos ~origin:o0 ~oseq:q0)
        (List.sort compare orphans);
      let limbo = st.limbo in
      st.limbo <- [];
      List.iter
        (fun (e, pos, origin, oseq, payload) ->
          resolve_stale node ~epoch:e ~pos ~origin ~oseq payload)
        limbo
    end
  in
  let node_up node =
    match fault with
    | None -> true
    | Some f -> Fault.node_up f ~now:(Engine.now engine) ~node
  in
  (* Flush the outgoing stamp batch as one [Ordered] wire message.
     The message carries the epoch the items were stamped under
     ([obatch_epoch], not the possibly-since-advanced [st.epoch]):
     queued stamps survive an epoch change on the wire exactly as
     eagerly-sent ones would, to be fenced or accepted by the close
     protocol like any other in-flight message.

     A flush timer firing while the node is down must NOT transmit:
     the queue is volatile state the crash destroyed.  Handing it to
     the reliable channel here would resurrect it after the restart —
     retransmissions would push wiped-epoch stamps into the new
     world, the owner's [seen] would claim positions whose payload no
     quorum member holds, and the next takeover sync would merge them
     as non-holes every replica then waits on forever.  Discarding
     matches the unbatched wire, where the same stamps would have
     been dropped at send time ([Crashed_src]); the origins resubmit
     against the next epoch. *)
  let flush_batch node =
    let st = states.(node) in
    if st.obatch_len > 0 then
      if not (node_up node) then begin
        dbg "node %d DISCARDS %d queued items epoch %d (down)" node
          st.obatch_len st.obatch_epoch;
        st.obatch <- [];
        st.obatch_len <- 0
      end
      else begin
        dbg "node %d flush %d items epoch %d" node st.obatch_len st.obatch_epoch;
        let items = List.rev st.obatch in
        let epoch = st.obatch_epoch in
        st.obatch <- [];
        st.obatch_len <- 0;
        Transport.send_all net ~src:node (Ordered { epoch; items })
      end
  in
  let schedule_oflush node =
    let st = states.(node) in
    if not st.oflush_scheduled then begin
      st.oflush_scheduled <- true;
      let fire () =
        st.oflush_scheduled <- false;
        flush_batch node
      in
      if batch.Batch.flush_every <= 0 then Engine.schedule_now engine fire
      else Engine.schedule engine ~delay:batch.Batch.flush_every fire
    end
  in
  let enqueue_stamp node ~pos ~origin ~oseq payload =
    let st = states.(node) in
    (* A stale queue from a previous epoch should have been flushed at
       the transition; flush defensively rather than mix epochs. *)
    if st.obatch_len > 0 && st.obatch_epoch <> st.epoch then flush_batch node;
    if st.obatch_len = 0 then st.obatch_epoch <- st.epoch;
    st.obatch <- (pos, origin, oseq, payload) :: st.obatch;
    st.obatch_len <- st.obatch_len + 1;
    if st.obatch_len >= batch.Batch.size then flush_batch node
    else schedule_oflush node
  in
  (* Sequencer: stamp origin's requests in oseq order from the stamping
     cursor (the low watermark of [stamped]), which skips oseqs already
     stamped (learned from the takeover sync). *)
  let rec stamp_loop node origin =
    let st = states.(node) in
    if st.serving then
      let stamped = st.stamped.(origin) in
      let c = Watermark.low stamped in
      match Int_table.find_opt st.requests.(origin) c with
      | None -> ()
      | Some payload ->
        Int_table.remove st.requests.(origin) c;
        Watermark.add stamped c;
        for q = c + 1 to Watermark.low stamped - 1 do
          Int_table.remove st.requests.(origin) q
        done;
        let pos = st.next_pos in
        st.next_pos <- pos + 1;
        enqueue_stamp node ~pos ~origin ~oseq:c payload;
        stamp_loop node origin
  in
  (* Form the epoch from the quorum's answers.  Positions below the
     highest horizon [h] are decided: never fenced, never renumbered,
     and their oseqs come from the decided sets, not from tail entries
     that may be stale there. *)
  let finish_sync node =
    let st = states.(node) in
    st.syncing <- false;
    let h = st.sync_horizon in
    let base = max st.sync_high h in
    let holes = ref [] in
    for pos = base - 1 downto h do
      if not (Int_table.mem st.merged pos) then holes := pos :: !holes
    done;
    let holes = !holes in
    holes_total := !holes_total + List.length holes;
    let stamped = st.sync_decided in
    Int_table.fold
      (fun pos (_e, origin, oseq) () ->
        if pos >= h && origin >= 0 then Watermark.add stamped.(origin) oseq)
      st.merged ();
    st.stamped <- stamped;
    st.sync_decided <- [||];
    Int_table.reset st.merged;
    st.next_pos <- base;
    dbg "node %d forms epoch %d base %d holes %d" node st.epoch base
      (List.length holes);
    st.serving <- true;
    incr syncs;
    incr epochs;
    learn_close node ~epoch:st.epoch ~prev:st.sync_prev ~base ~holes;
    Transport.send_all net ~src:node
      (New_epoch { epoch = st.epoch; prev = st.sync_prev; base; holes });
    for o = 0 to n - 1 do
      stamp_loop node o
    done
  in
  (* Timer retries are capped, but the election itself never gives up:
     unsuspicion edges re-add peers and re-poll, so a sync stalled by
     a partition resumes when the partition heals. *)
  let rec maybe_finish node =
    let st = states.(node) in
    if st.syncing && Hashtbl.length st.awaiting = 0 then
      if 1 + Int_table.length st.acked >= quorum then finish_sync node
      else schedule_sync_retry node
  and schedule_sync_retry node =
    let st = states.(node) in
    if
      st.syncing && (not st.retry_scheduled)
      && st.sync_attempts < max_sync_attempts
    then begin
      st.retry_scheduled <- true;
      st.sync_attempts <- st.sync_attempts + 1;
      Engine.schedule engine ~delay:sync_retry_every (fun () ->
          st.retry_scheduled <- false;
          if st.syncing then begin
            for peer = 0 to n - 1 do
              if
                peer <> node
                && (not (Int_table.mem st.acked peer))
                && not (Detector.suspects det ~observer:node ~subject:peer)
              then begin
                Hashtbl.replace st.awaiting peer ();
                Transport.send net ~src:node ~dst:peer
                  (Sync_req { epoch = st.epoch })
              end
            done;
            maybe_finish node
          end)
    end
  in
  let start_sync node =
    let st = states.(node) in
    (* Queued stamps must not die with the epoch: push them onto the
       wire (under their stamping epoch) before the takeover begins —
       the pinned batch regression test exercises exactly this. *)
    flush_batch node;
    st.serving <- false;
    Hashtbl.reset st.awaiting;
    Int_table.reset st.acked;
    Int_table.reset st.merged;
    Hashtbl.iter
      (fun pos stamp ->
        if pos >= st.horizon then Int_table.replace st.merged pos stamp)
      st.seen;
    st.sync_high <-
      Hashtbl.fold (fun pos _ hi -> max hi (pos + 1)) st.seen st.horizon;
    st.sync_horizon <- st.horizon;
    st.sync_decided <- Array.map Watermark.copy st.decided;
    for peer = 0 to n - 1 do
      if peer <> node && not (Detector.suspects det ~observer:node ~subject:peer)
      then Hashtbl.replace st.awaiting peer ()
    done;
    Hashtbl.iter
      (fun peer () ->
        Transport.send net ~src:node ~dst:peer (Sync_req { epoch = st.epoch }))
      st.awaiting;
    maybe_finish node
  in
  (* The highest epoch this node knows actually formed: it stamped a
     position or closed.  Epoch numbers themselves are no evidence —
     elections race through epochs that never form — and a close must
     anchor its coverage at a formed epoch or stale messages from the
     last formed one are left uncovered forever. *)
  let last_formed st =
    let f =
      Int_table.fold (fun e _ acc -> Int.max acc e) st.closes st.released_epoch
    in
    Hashtbl.fold (fun _ (e, _, _) acc -> max acc e) st.seen f
  in
  (* A candidate vetoed by [fit] (the store holds off replicas with
     quarantined log positions) polls again on a daemon timer until it
     is repaired — or until the conditions it re-checks have moved on
     (a higher epoch adopted, suspicion changed). *)
  let fit_wait = Array.make n false in
  let await_fit node retry =
    if not fit_wait.(node) then begin
      fit_wait.(node) <- true;
      Engine.schedule ~daemon:true engine ~delay:fit_wait_every (fun () ->
          fit_wait.(node) <- false;
          retry node)
    end
  in
  (* Elect when this node is the smallest id it does not suspect and
     the current epoch belongs to someone else: claim the smallest
     owned epoch above the current one.  Racing candidates therefore
     claim distinct epochs and the lowest-id candidate the lowest. *)
  let rec try_elect node =
    let st = states.(node) in
    if
      (not st.syncing)
      && Detector.candidate det ~observer:node = node
      && sigma st.epoch <> node
    then begin
      if not (fit node) then begin
        dbg "node %d elect deferred: unfit (quarantined)" node;
        await_fit node try_elect
      end
      else begin
        let rec next e = if sigma e = node then e else next (e + 1) in
        let e = next (st.epoch + 1) in
        st.sync_prev <- last_formed st;
        dbg "node %d elects epoch %d" node e;
        st.epoch <- e;
        st.syncing <- true;
        st.sync_attempts <- 0;
        start_sync node
      end
    end
  in
  (* Rejoin after a crash while still holding the epoch: deposed in
     absentia or not, the node must re-form through a fresh quorum sync
     before serving again.  If its recovered log came back quarantined
     it is unfit to sequence — wait for repair (peers depose it through
     higher epochs in the meantime, at which point [try_elect] takes
     over the retrying). *)
  let rec rejoin_elect node =
    let st = states.(node) in
    if sigma st.epoch = node && not st.syncing then begin
      if not (fit node) then begin
        dbg "node %d rejoin deferred: unfit (quarantined)" node;
        await_fit node rejoin_elect
      end
      else begin
        let rec next e = if sigma e = node then e else next (e + 1) in
        let e = next (st.epoch + 1) in
        st.sync_prev <- last_formed st;
        st.epoch <- e;
        st.syncing <- true;
        st.sync_attempts <- 0;
        start_sync node
      end
    end
  in
  (* Move to a higher epoch learned from the wire: stop serving (and
     abandon any own election it outbids), then reconsider leadership
     — a restarted low id reclaims the sequencer role from here. *)
  let adopt node epoch =
    let st = states.(node) in
    dbg "node %d adopt epoch %d (was %d, pending %d)" node epoch st.epoch
      (Hashtbl.length st.pending);
    flush_batch node;
    st.epoch <- epoch;
    st.serving <- false;
    st.syncing <- false;
    if Hashtbl.length st.pending > 0 then begin
      st.resubmit_attempts <- 0;
      schedule_resubmit node ~delay:resubmit_after
    end;
    try_elect node
  in
  Detector.on_change det (fun ~observer ~subject ~suspected ->
      let st = states.(observer) in
      if suspected then begin
        if st.syncing && Hashtbl.mem st.awaiting subject then begin
          Hashtbl.remove st.awaiting subject;
          maybe_finish observer
        end;
        try_elect observer
      end
      else begin
        if
          st.syncing
          && (not (Int_table.mem st.acked subject))
          && not (Hashtbl.mem st.awaiting subject)
        then begin
          Hashtbl.replace st.awaiting subject ();
          Transport.send net ~src:observer ~dst:subject
            (Sync_req { epoch = st.epoch })
        end;
        try_elect observer
      end);
  (* Crash edges, straight from the fault plan (the injector below the
     transport makes the down window itself; here we model what the
     crash does to this layer's volatile state).  Going down destroys
     the queued stamp batch — stamps that never reached the wire die
     with the process.  Coming back, a node that still believes it
     owns the current epoch must not resume serving: it may have been
     deposed in absentia, and stamping on its stale state would mint
     positions no quorum member holds — ghosts the next takeover sync
     would merge as non-holes that every replica then awaits forever.
     It rejoins by claiming its next owned epoch through a fresh
     quorum sync ([merged] rebuilt from live peers, not its own
     possibly-superseded [seen]); non-owners just resubmit and relearn
     the epoch from the wire. *)
  (match fault with
  | None -> ()
  | Some f ->
    List.iter
      (fun (c : Fault.crash) ->
        Engine.at engine ~time:c.at (fun () ->
            let st = states.(c.node) in
            st.obatch <- [];
            st.obatch_len <- 0);
        Engine.at engine ~time:c.back (fun () ->
            let st = states.(c.node) in
            if sigma st.epoch = c.node then begin
              dbg "node %d rejoins after crash (held epoch %d)" c.node
                st.epoch;
              st.serving <- false;
              st.syncing <- false;
              rejoin_elect c.node
            end;
            if Hashtbl.length st.pending > 0 then begin
              st.resubmit_attempts <- 0;
              schedule_resubmit c.node ~delay:resubmit_after
            end))
      (Fault.plan f).Fault.crashes);
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun src msg ->
        let st = states.(node) in
        match msg with
        | Request { origin; oseq; payload } ->
          (* Stale routing (sequencer changed while in flight) is
             dropped; the origin resubmits against the new epoch.  A
             syncing candidate buffers and stamps after takeover. *)
          if sigma st.epoch = node then
            if not (Watermark.mem st.stamped.(origin) oseq) then begin
              Int_table.replace st.requests.(origin) oseq payload;
              if st.serving then stamp_loop node origin
            end
            else dbg "node %d skips stamped request (%d,%d)" node origin oseq
        | Ordered { epoch; items } ->
          if epoch > st.epoch then adopt node epoch;
          List.iter
            (fun (pos, origin, oseq, payload) ->
              if epoch >= st.epoch then
                accept node ~epoch ~pos ~origin ~oseq payload
              else resolve_stale node ~epoch ~pos ~origin ~oseq payload)
            items
        | Sync_req { epoch } ->
          if epoch > st.epoch then adopt node epoch;
          if epoch = st.epoch then begin
            let held =
              Hashtbl.fold
                (fun pos (e, origin, oseq) acc ->
                  if pos >= st.horizon then (pos, e, origin, oseq) :: acc
                  else acc)
                st.seen []
            in
            let high =
              Hashtbl.fold (fun pos _ hi -> max hi (pos + 1)) st.seen st.horizon
            in
            let decided =
              Array.map (fun w -> (Watermark.low w, Watermark.above w)) st.decided
            in
            sync_entries := !sync_entries + List.length held;
            Transport.send net ~src:node ~dst:src
              (Sync_ack { epoch; node; horizon = st.horizon; decided; held; high })
          end
        | Sync_ack { epoch; node = peer; horizon; decided; held; high } ->
          if epoch = st.epoch && st.syncing && Hashtbl.mem st.awaiting peer
          then begin
            Hashtbl.remove st.awaiting peer;
            Int_table.replace st.acked peer ();
            List.iter
              (fun (pos, e, origin, oseq) ->
                match Int_table.find_opt st.merged pos with
                | Some (e0, _, _) when e0 >= e -> ()
                | _ -> Int_table.replace st.merged pos (e, origin, oseq))
              held;
            st.sync_high <- max st.sync_high high;
            st.sync_horizon <- max st.sync_horizon horizon;
            Array.iteri
              (fun o (low, above) ->
                let w = st.sync_decided.(o) in
                Watermark.add_below w low;
                List.iter (Watermark.add w) above)
              decided;
            maybe_finish node
          end
        | New_epoch { epoch; prev; base; holes } ->
          if epoch > st.epoch then adopt node epoch;
          learn_close node ~epoch ~prev ~base ~holes)
  done;
  {
    Rbcast.name = "ha-sequencer";
    broadcast =
      (fun ~src payload ->
        let st = states.(src) in
        let oseq = st.next_oseq in
        st.next_oseq <- oseq + 1;
        Hashtbl.replace st.pending oseq payload;
        dbg "node %d bcast oseq %d -> seq %d (epoch %d)" src oseq
          (sigma st.epoch) st.epoch;
        Transport.send net ~src ~dst:(sigma st.epoch)
          (Request { origin = src; oseq; payload });
        schedule_resubmit src ~delay:(resubmit_after + resubmit_every));
    release;
    messages_sent = (fun () -> Transport.messages_sent net);
    stats =
      (fun () ->
        {
          Rbcast.epochs = !epochs;
          syncs = !syncs;
          holes = !holes_total;
          fenced = !fenced_total;
          resubmits = !resubmits;
          retracted = !retracted_total;
          sync_entries = !sync_entries;
        });
    detector_stats = (fun () -> Some (Detector.stats det));
  }

let factory : 'p Rbcast.factory = create
