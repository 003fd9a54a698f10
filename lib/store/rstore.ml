(** Recoverable m-sequential-consistency store (Figure 4 protocol plus
    crash recovery).

    The msc protocol with per-replica durable state: every delivered
    update is logged to a {!Mmc_recovery.Rlog} (WAL + periodic
    checkpoint) before the event ends, keyed by its global broadcast
    position from the recoverable broadcast ({!Mmc_broadcast.Rbcast}).
    A wipe-crash destroys a replica's volatile state — object copies,
    version vector, delivery cursor, reorder buffer and stability
    bookkeeping; on restart the replica reloads its latest checkpoint,
    replays the WAL suffix, and runs anti-entropy catch-up
    ({!Mmc_recovery.Catchup}) against its peers for the positions
    delivered while it was down.  A durable per-replica responded set
    makes responses exactly-once across replay, and client-library
    state (continuations, request numbers) lives outside the replica,
    so a recovered origin still answers the invocations it lost.

    Delivery is {e quorum-stable} by default: a position delivered by
    the broadcast is buffered and acknowledged to all replicas on a
    stability wire, and applied to object state only once a majority
    (self included) has acknowledged its exact stamping
    [(pos, origin, oseq)].  By quorum intersection a majority-acked
    stamping is present in every sequencer takeover sync, so it is
    never fenced or renumbered — the DESIGN.md §12 optimistic-delivery
    anomaly becomes impossible rather than merely detected.  Positions
    ingested from a peer's WAL (catch-up) or replayed from our own are
    already applied somewhere, hence stable by construction and marked
    [forced].  [Optimistic] mode applies on delivery, skipping acks —
    kept for comparison; under wipe-crashes across epoch changes it
    can diverge (a retraction may arrive after the stamp was applied),
    which the convergence oracle detects.

    Queries stay communication-free: they read the local prefix state,
    which is always a legal m-s.c. snapshot, so a freshly replayed
    replica can serve them before catch-up completes.  Clients whose
    replica is down retry until it is back and replayed. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast
open Mmc_recovery

type mode = Optimistic | Stable

let pp_mode ppf = function
  | Optimistic -> Fmt.string ppf "optimistic"
  | Stable -> Fmt.string ppf "stable"

let mode_of_string = function
  | "optimistic" -> Some Optimistic
  | "stable" -> Some Stable
  | _ -> None

type payload = {
  origin : int;
  oseq : int;  (** per-origin invocation number (responded-set key) *)
  mprog : Prog.mprog;
  inv : Types.time;
}

type snap = { sxs : Value.t array; stss : int array }

(* One exact stamping of a position, with the replicas that have
   acknowledged it as a bitset over replica ids. *)
type stamping = { st_origin : int; st_oseq : int; st_acks : int array }

let ack_bits = Sys.int_size

let has_ack s v = s.st_acks.(v / ack_bits) land (1 lsl (v mod ack_bits)) <> 0

let add_ack s v =
  let i = v / ack_bits in
  s.st_acks.(i) <- s.st_acks.(i) lor (1 lsl (v mod ack_bits))

let n_acks s =
  let rec pop n w = if w = 0 then n else pop (n + 1) (w land (w - 1)) in
  Array.fold_left pop 0 s.st_acks

type handle = {
  mode : mode;
  cursors : unit -> int array;
  converged : unit -> bool;
  log_stats : unit -> Rlog.stats array;
  broadcast_stats : unit -> Rbcast.stats;
  detector_stats : unit -> Detector.stats option;
  pulls : unit -> int;
  pushes : unit -> int;
  entries_pushed : unit -> int;
  snapshots_pushed : unit -> int;
  recoveries : unit -> int;
  stability_acks : unit -> int;
}

let retry_every = 15
let poll_budget = 200

let create ?fault ?reliable ?batch ?detector ?(mode = Stable)
    ?(policy = Rlog.default_policy) ?sink engine ~n ~n_objects ~latency ~rng
    ~abcast_impl ~recorder : Store.t =
  Rlog.validate_policy policy;
  let plan = match fault with Some f -> Fault.plan f | None -> Fault.none in
  let up node now = Fault.up_in_plan plan ~now ~node in
  let quorum = (n / 2) + 1 in
  (* Volatile replica state — destroyed by a wipe-crash. *)
  let xs = Array.init n (fun _ -> Array.make n_objects Value.initial) in
  let tss = Array.init n (fun _ -> Array.make n_objects 0) in
  let cursors = Array.make n 0 in
  let pending : (int, int * payload option) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 16)
  in
  (* Stability bookkeeping (volatile): per position, each exact
     stamping seen for it with its acknowledgers; [forced] positions
     are stable by provenance (peer WAL or own replay — applied
     somewhere already). *)
  let stampings : (int, stamping list) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 16)
  in
  let stampings_of node pos =
    Option.value (Hashtbl.find_opt stampings.(node) pos) ~default:[]
  in
  let is ~origin ~oseq s = s.st_origin = origin && s.st_oseq = oseq in
  (* [pos]'s stamping (origin, oseq) at [node], added unacked if new. *)
  let stamping node ~pos ~origin ~oseq =
    let l = stampings_of node pos in
    match List.find_opt (is ~origin ~oseq) l with
    | Some s -> s
    | None ->
      let s =
        { st_origin = origin; st_oseq = oseq;
          st_acks = Array.make (((n - 1) / ack_bits) + 1) 0 }
      in
      Hashtbl.replace stampings.(node) pos (s :: l);
      s
  in
  let forced : (int, unit) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 16)
  in
  let ready = Array.make n true in
  (* Durable replica state. *)
  let rlogs : (snap, payload) Rlog.t array =
    Array.init n (fun _ -> Rlog.create policy)
  in
  let responded = Array.init n (fun _ -> Watermark.create ()) in
  (* Client-library state (outside the replica, survives wipes). *)
  let ks : (int * int, Value.t -> unit) Hashtbl.t = Hashtbl.create 16 in
  let oseqs = Array.make n 0 in
  let recoveries = ref 0 in
  (* Stable mode tells the broadcast about every position it applies
     ([Rbcast.release]) so it can drop that position's ordering state;
     wired up once the broadcast exists. *)
  let release = ref (fun ~node:_ ~pos:_ ~origin:_ ~oseq:_ -> ()) in
  let snapshot_of node =
    { sxs = Array.copy xs.(node); stss = Array.copy tss.(node) }
  in
  let purge_stability node pos =
    Hashtbl.remove forced.(node) pos;
    Hashtbl.remove stampings.(node) pos
  in
  let apply_one node ~replay ~pos ~origin (p : payload option) =
    (match p with
    | None -> () (* epoch-fence hole: advance past it *)
    | Some lp ->
      let start_ts = Array.copy tss.(node) in
      let applied = Apply.update xs.(node) tss.(node) ~ns:0 lp.mprog.Prog.prog in
      if origin = node && not (Watermark.mem responded.(node) lp.oseq) then begin
        Watermark.add responded.(node) lp.oseq;
        Recorder.add recorder
          {
            Recorder.proc = node;
            inv = lp.inv;
            resp = Engine.now engine;
            ops = applied.Apply.ops;
            reads = applied.Apply.reads;
            writes = applied.Apply.writes;
            start_ts;
            finish_ts = Array.copy tss.(node);
            sync = Some pos;
          };
        match Hashtbl.find_opt ks (node, lp.oseq) with
        | Some k ->
          Hashtbl.remove ks (node, lp.oseq);
          k applied.Apply.result
        | None -> ()
      end);
    cursors.(node) <- pos + 1;
    !release ~node ~pos ~origin
      ~oseq:(match p with Some lp -> lp.oseq | None -> -1);
    purge_stability node pos;
    if not replay then
      Rlog.log rlogs.(node)
        { Wal.pos; origin; payload = p }
        ~snapshot:(fun () -> snapshot_of node)
  in
  (* Is the position at the head of [node]'s sequence safe to apply?
     Holes are quorum-backed upstream (a formed epoch declared them);
     payloads need a majority ack of their exact stamping unless their
     provenance already proves stability. *)
  let stable_head node pos p =
    mode = Optimistic
    ||
    match p with
    | None -> true
    | Some lp ->
      Hashtbl.mem forced.(node) pos
      || List.exists
           (fun s -> is ~origin:lp.origin ~oseq:lp.oseq s && n_acks s >= quorum)
           (stampings_of node pos)
  in
  let rec drain node =
    match Hashtbl.find_opt pending.(node) cursors.(node) with
    | None -> ()
    | Some (origin, p) ->
      let pos = cursors.(node) in
      if stable_head node pos p then begin
        Hashtbl.remove pending.(node) pos;
        apply_one node ~replay:false ~pos ~origin p;
        drain node
      end
  in
  (* The stability wire: reliable fan-out of [(pos, origin, oseq)]
     acknowledgements, sharing the engine/latency/fault stack with the
     broadcast's transport. *)
  let stab_net : (int * int * int) Transport.t =
    Transport.create ?fault ?config:reliable engine ~n ~latency
      ~rng:(Rng.split rng)
  in
  (* Handlers are registered below, once the gap-polling machinery
     they fall back on exists. *)
  (* First local delivery of a stamping: record our own ack and tell
     everyone else. *)
  let announce node ~pos (lp : payload) =
    let s = stamping node ~pos ~origin:lp.origin ~oseq:lp.oseq in
    if not (has_ack s node) then begin
      add_ack s node;
      for dst = 0 to n - 1 do
        if dst <> node then
          Transport.send stab_net ~src:node ~dst (pos, lp.origin, lp.oseq)
      done
    end
  in
  (* Anti-entropy: the catch-up transport shares the engine, latency
     model and fault injector with the broadcast's transport. *)
  let targets = Array.make n 0 in
  let recovering = Array.make n false in
  let catchup = ref None in
  let ingest ?(proven = false) node ~pos ~origin p =
    if pos >= cursors.(node) then begin
      if proven then Hashtbl.replace forced.(node) pos ();
      Hashtbl.replace pending.(node) pos (origin, p);
      (match (p, mode) with
      | Some lp, Stable when not proven -> announce node ~pos lp
      | _ -> ());
      drain node
    end
  in
  let retract node ~pos =
    if pos >= cursors.(node) then begin
      Hashtbl.remove pending.(node) pos;
      Hashtbl.remove forced.(node) pos
    end
  in
  let serve ~node ~from =
    let rl = rlogs.(node) in
    if Rlog.serves_from rl ~from then (cursors.(node), None, Rlog.serve rl ~from)
    else
      let snap = Checkpoint.load (Rlog.checkpoint rl) in
      let from' = match snap with Some (p, _) -> p | None -> 0 in
      (cursors.(node), snap, Rlog.serve rl ~from:from')
  in
  let learn ~node ~from ~peer_cursor ~snap entries =
    targets.(node) <- max targets.(node) peer_cursor;
    (match snap with
    | Some (cpos, s) when cpos > cursors.(node) && cursors.(node) <= from ->
      (* Full state transfer: our retained log no longer reaches back
         to our cursor at any peer.  Install the snapshot and make it
         our own recovery point — unless the cursor moved past the
         position we asked from while the answer was in flight: the
         snapshot would then skip positions this replica may have to
         answer for (its own unresponded updates), so ingest the
         entries and let the next poll ask again. *)
      xs.(node) <- Array.copy s.sxs;
      tss.(node) <- Array.copy s.stss;
      cursors.(node) <- cpos;
      let ck = Rlog.checkpoint rlogs.(node) in
      let covered =
        match Checkpoint.load ck with Some (p, _) -> p | None -> -1
      in
      if cpos > covered then Checkpoint.save ck ~pos:cpos (snapshot_of node);
      Hashtbl.iter
        (fun pos _ -> if pos < cpos then Hashtbl.remove pending.(node) pos)
        (Hashtbl.copy pending.(node))
    | _ -> ());
    List.iter
      (fun (e : payload Wal.entry) ->
        (* a peer's WAL entry was applied there, hence quorum-stable *)
        ingest ~proven:true node ~pos:e.Wal.pos ~origin:e.Wal.origin
          e.Wal.payload)
      entries;
    drain node
  in
  (* Gap polling: while a replica has buffered positions above a hole
     in its sequence (or is catching up to a peer's cursor), pull from
     peers every [policy.gap_poll] ticks.  Bounded so the simulation
     quiesces even if a gap is unservable. *)
  let poll_armed = Array.make n false in
  let poll_attempts = Array.make n 0 in
  let poll_cursor = Array.make n (-1) in
  let rec arm_poll node =
    if not poll_armed.(node) then begin
      poll_armed.(node) <- true;
      Engine.schedule engine ~delay:policy.Rlog.gap_poll (fun () ->
          poll_armed.(node) <- false;
          if cursors.(node) > poll_cursor.(node) then poll_attempts.(node) <- 0
          else poll_attempts.(node) <- poll_attempts.(node) + 1;
          poll_cursor.(node) <- cursors.(node);
          let behind =
            Hashtbl.length pending.(node) > 0
            || cursors.(node) < targets.(node)
          in
          if behind && poll_attempts.(node) < poll_budget then begin
            (match !catchup with
            | Some c -> Catchup.pull c ~node ~from:cursors.(node)
            | None -> ());
            arm_poll node
          end
          else if not behind then recovering.(node) <- false)
    end
  in
  let ingest ?proven node ~pos ~origin p =
    ingest ?proven node ~pos ~origin p;
    if Hashtbl.length pending.(node) > 0 then arm_poll node
  in
  for node = 0 to n - 1 do
    Transport.set_handler stab_net node (fun src (pos, origin, oseq) ->
        if pos >= cursors.(node) then begin
          add_ack (stamping node ~pos ~origin ~oseq) src;
          if pos = cursors.(node) then drain node;
          (* A peer acknowledged a position we do not hold: the
             broadcast's delivery to us may be gone for good (lost in
             an epoch no close we will ever learn covers) — treat the
             ack as proof the position exists and fall back to
             anti-entropy.  The poll is a no-op if the delivery makes
             it here first. *)
          if pos >= cursors.(node) && not (Hashtbl.mem pending.(node) pos)
          then begin
            targets.(node) <- max targets.(node) (pos + 1);
            arm_poll node
          end
        end)
  done;
  let rbcast =
    (Select.recoverable abcast_impl) ?fault ?reliable ?batch ?detector
      ~fit:(fun node -> not (Rlog.quarantined rlogs.(node)))
      engine ~n ~latency
      ~rng:(Rng.split rng)
      ~deliver:(fun ~node ~origin ~pos d ->
        match d with
        | Rbcast.Payload p -> ingest node ~pos ~origin (Some p)
        | Rbcast.Hole -> ingest node ~pos ~origin None
        | Rbcast.Retract -> retract node ~pos)
  in
  if mode = Stable then release := Rbcast.release rbcast;
  catchup :=
    Some
      (Catchup.create ?fault ?config:reliable engine ~n ~latency
         ~rng:(Rng.split rng) ~serve
         ~serve_one:(fun ~node ~pos -> Rlog.entry_at rlogs.(node) ~pos)
         ~patch:(fun ~node entries ->
           List.iter
             (fun (e : payload Wal.entry) ->
               ignore (Rlog.patch rlogs.(node) e);
               if e.Wal.pos >= cursors.(node) then
                 ingest ~proven:true node ~pos:e.Wal.pos ~origin:e.Wal.origin
                   e.Wal.payload)
             entries)
         ~learn:(fun ~node ~from ~peer_cursor ~snap es ->
           learn ~node ~from ~peer_cursor ~snap es;
           if Hashtbl.length pending.(node) > 0 || cursors.(node) < targets.(node)
           then arm_poll node));
  (* Storage faults, straight from the plan.  The rng split is taken
     after every other split so pre-storage seeds keep their streams.
     Daemon events: a fault instant past the natural end of the run
     must not extend it. *)
  let storage_rng = Rng.split rng in
  List.iter
    (fun (f : Fault.storage_fault) ->
      Engine.at ~daemon:true engine ~time:f.Fault.at (fun () ->
          ignore (Rlog.inject_tear rlogs.(f.Fault.node) ~rng:storage_rng)))
    plan.Fault.tears;
  List.iter
    (fun (f : Fault.storage_fault) ->
      Engine.at ~daemon:true engine ~time:f.Fault.at (fun () ->
          ignore (Rlog.inject_rot rlogs.(f.Fault.node) ~rng:storage_rng)))
    plan.Fault.rots;
  List.iter
    (fun (f : Fault.storage_fault) ->
      Engine.at ~daemon:true engine ~time:f.Fault.at (fun () ->
          ignore (Rlog.inject_stale rlogs.(f.Fault.node) ~rng:storage_rng)))
    plan.Fault.stales;
  (* Background scrubber: every [scrub_every] ticks each live replica
     re-verifies its retained frames and asks peers to repair what rot
     damaged.  Daemon — scrubbing never keeps the run alive. *)
  if policy.Rlog.scrub_every > 0 && policy.Rlog.crc then
    for node = 0 to n - 1 do
      let rec arm_scrub () =
        Engine.schedule ~daemon:true engine ~delay:policy.Rlog.scrub_every
          (fun () ->
            if up node (Engine.now engine) && ready.(node) then begin
              let damaged = Rlog.scrub rlogs.(node) in
              match !catchup with
              | Some cu -> Catchup.repair cu ~node ~positions:damaged
              | None -> ()
            end;
            arm_scrub ())
      in
      arm_scrub ()
    done;
  (* Wipe-crash and restart events, straight from the fault plan (the
     injector below the transports makes the down window itself; here
     we destroy and rebuild the replica state at its edges). *)
  List.iter
    (fun (c : Fault.crash) ->
      Engine.at engine ~time:c.at (fun () ->
          ready.(c.node) <- false;
          xs.(c.node) <- Array.make n_objects Value.initial;
          tss.(c.node) <- Array.make n_objects 0;
          cursors.(c.node) <- 0;
          Hashtbl.reset pending.(c.node);
          Hashtbl.reset stampings.(c.node);
          Hashtbl.reset forced.(c.node);
          (* The durable indexes are volatile too; the devices
             survive. *)
          Rlog.crash rlogs.(c.node));
      Engine.at engine ~time:c.back (fun () ->
          let r = Rlog.recover_full rlogs.(c.node) in
          (match r.Rlog.rsnap with
          | Some (cpos, s) ->
            xs.(c.node) <- Array.copy s.sxs;
            tss.(c.node) <- Array.copy s.stss;
            cursors.(c.node) <- cpos
          | None -> ());
          List.iter
            (fun (e : payload Wal.entry) ->
              if e.Wal.pos = cursors.(c.node) then
                apply_one c.node ~replay:true ~pos:e.Wal.pos ~origin:e.Wal.origin
                  e.Wal.payload)
            r.Rlog.rreplay;
          ready.(c.node) <- true;
          recovering.(c.node) <- true;
          incr recoveries;
          (match fault with Some f -> Fault.note_restart f | None -> ());
          (* Durable survivors beyond a quarantined gap are stable by
             provenance: buffer them so they apply the moment catch-up
             refills the gap. *)
          List.iter
            (fun (e : payload Wal.entry) ->
              ingest ~proven:true c.node ~pos:e.Wal.pos ~origin:e.Wal.origin
                e.Wal.payload)
            r.Rlog.rorphans;
          (match !catchup with
          | Some cu ->
            Catchup.pull cu ~node:c.node ~from:cursors.(c.node);
            (* Quarantined retained positions: ask peers for verified
               copies right away rather than waiting for a scrub
               pass. *)
            Catchup.repair cu ~node:c.node
              ~positions:
                (List.concat_map
                   (fun (lo, hi) -> List.init (hi - lo) (fun i -> lo + i))
                   (Wal.quarantine (Rlog.wal rlogs.(c.node))))
          | None -> ());
          poll_attempts.(c.node) <- 0;
          arm_poll c.node))
    (Fault.wipes plan);
  let rec invoke ~proc (m : Prog.mprog) ~k =
    let now = Engine.now engine in
    if not (up proc now && ready.(proc)) then
      (* The replica is down or still replaying: the client library
         retries until it can reach it. *)
      Engine.schedule engine ~delay:retry_every (fun () -> invoke ~proc m ~k)
    else if Prog.is_query m then begin
      let ts = tss.(proc) in
      let applied = Apply.query xs.(proc) ts ~ns:0 m.Prog.prog in
      Recorder.add recorder
        {
          Recorder.proc;
          inv = now;
          resp = now;
          ops = applied.Apply.ops;
          reads = applied.Apply.reads;
          writes = [];
          start_ts = Array.copy ts;
          finish_ts = Array.copy ts;
          sync = None;
        };
      k applied.Apply.result
    end
    else begin
      let oseq = oseqs.(proc) in
      oseqs.(proc) <- oseq + 1;
      Hashtbl.replace ks (proc, oseq) k;
      Rbcast.broadcast rbcast ~src:proc
        { origin = proc; oseq; mprog = m; inv = now }
    end
  in
  (match sink with
  | None -> ()
  | Some f ->
    f
      {
        mode;
        cursors = (fun () -> Array.copy cursors);
        converged =
          (fun () ->
            Array.for_all (fun c -> c = cursors.(0)) cursors
            && Array.for_all (fun x -> x = xs.(0)) xs
            && Array.for_all (fun t -> t = tss.(0)) tss);
        log_stats = (fun () -> Array.map Rlog.stats rlogs);
        broadcast_stats = (fun () -> Rbcast.stats rbcast);
        detector_stats = (fun () -> Rbcast.detector_stats rbcast);
        pulls = (fun () -> Catchup.pulls (Option.get !catchup));
        pushes = (fun () -> Catchup.pushes (Option.get !catchup));
        entries_pushed =
          (fun () -> Catchup.entries_pushed (Option.get !catchup));
        snapshots_pushed =
          (fun () -> Catchup.snapshots_pushed (Option.get !catchup));
        recoveries = (fun () -> !recoveries);
        stability_acks = (fun () -> Transport.messages_sent stab_net);
      });
  {
    Store.name = "rmsc";
    invoke;
    messages_sent =
      (fun () ->
        Rbcast.messages_sent rbcast
        + Catchup.messages_sent (Option.get !catchup)
        + Transport.messages_sent stab_net);
  }
