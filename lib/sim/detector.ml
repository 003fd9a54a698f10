(** Timeout-driven suspicion over fire-and-forget heartbeats.  See the
    interface for the protocol; the implementation notes below cover
    the simulation mechanics.

    Wire: beats and doubts ride the same fault-injected network as
    protocol messages ({!Fault.judge} at send, {!Latency} delay,
    destination liveness re-checked at delivery) but are never
    retransmitted — a retransmitted heartbeat would defeat its purpose
    as a liveness signal.  All detector events are daemon events: the
    heartbeat loop runs forever in principle, and must not keep
    {!Engine.run} from reaching quiescence once real work drains.

    Restart bookkeeping: a node's own crash/restart instants are taken
    from the fault plan — a process knows it rebooted.  On restart the
    node bumps its incarnation (so peers' suspicions of it become
    refutable) and resets its own evidence clocks (so it does not
    instantly suspect everyone for the silence of its own downtime).
    These are the only plan-derived events; everything a node believes
    about peers comes from messages. *)

type config = { heartbeat_every : int; suspect_after : int }

let default_config = { heartbeat_every = 25; suspect_after = 100 }

let validate_config c =
  if c.heartbeat_every < 1 then
    invalid_arg "Detector: heartbeat_every must be >= 1";
  if c.suspect_after < 1 then invalid_arg "Detector: suspect_after must be >= 1";
  (* A peer that is suspected before its next beat can arrive is
     suspected forever, and the failover it triggers never ends. *)
  if c.suspect_after <= c.heartbeat_every then
    invalid_arg "Detector: suspect_after must exceed heartbeat_every"

let pp_config ppf c =
  Format.fprintf ppf "beat=%d suspect=%d" c.heartbeat_every c.suspect_after

type stats = {
  beats_sent : int;
  beats_delivered : int;
  suspicions : int;
  false_suspicions : int;
  refutations : int;
  doubts : int;
}

type t = {
  engine : Engine.t;
  fault : Fault.t option;
  latency : Latency.t;
  rng : Rng.t;
  n : int;
  config : config;
  incarnation : int array;  (** each node's own incarnation *)
  known : int array array;  (** [known.(i).(j)]: highest incarnation [i] saw of [j] *)
  last : int array array;  (** [last.(i).(j)]: last evidence of [j] at [i] *)
  suspected : bool array array;
  mutable listeners : (observer:int -> subject:int -> suspected:bool -> unit) list;
  mutable beats_sent : int;
  mutable beats_delivered : int;
  mutable suspicions : int;
  mutable false_suspicions : int;
  mutable refutations : int;
  mutable doubts : int;
}

let config t = t.config
let suspects t ~observer ~subject = t.suspected.(observer).(subject)
let incarnation t ~node = t.incarnation.(node)
let on_change t f = t.listeners <- f :: t.listeners

let candidate t ~observer =
  let rec go j =
    if j = observer || not t.suspected.(observer).(j) then j else go (j + 1)
  in
  go 0

let stats t =
  {
    beats_sent = t.beats_sent;
    beats_delivered = t.beats_delivered;
    suspicions = t.suspicions;
    false_suspicions = t.false_suspicions;
    refutations = t.refutations;
    doubts = t.doubts;
  }

let up t node =
  match t.fault with
  | None -> true
  | Some f -> Fault.node_up f ~now:(Engine.now t.engine) ~node

let fire t ~observer ~subject ~suspected =
  List.iter (fun f -> f ~observer ~subject ~suspected) (List.rev t.listeners)

(* Fire-and-forget: judged at send, liveness re-checked at delivery,
   no retransmission, daemon-scheduled. *)
let send_unreliable t ~src ~dst k =
  let deliver extra =
    let delay = Latency.sample t.latency t.rng + extra in
    Engine.schedule ~daemon:true t.engine ~delay (fun () ->
        if up t dst then k ())
  in
  match t.fault with
  | None -> deliver 0
  | Some f -> (
    match Fault.judge f ~now:(Engine.now t.engine) ~src ~dst with
    | Fault.Deliver extra -> deliver extra
    | Fault.Drop _ -> ())

(* A doubt tells [node] some observer suspects its incarnation [inc];
   bumping past it makes the next beats refute the suspicion. *)
let receive_doubt t ~node ~inc =
  if inc = t.incarnation.(node) then t.incarnation.(node) <- inc + 1

let receive_beat t ~observer ~subject ~inc =
  t.beats_delivered <- t.beats_delivered + 1;
  let now = Engine.now t.engine in
  if inc > t.known.(observer).(subject) then begin
    t.known.(observer).(subject) <- inc;
    t.last.(observer).(subject) <- now;
    if t.suspected.(observer).(subject) then begin
      t.suspected.(observer).(subject) <- false;
      t.refutations <- t.refutations + 1;
      fire t ~observer ~subject ~suspected:false
    end
  end
  else if inc = t.known.(observer).(subject) then begin
    t.last.(observer).(subject) <- now;
    if t.suspected.(observer).(subject) then begin
      (* Same incarnation never un-suspects (monotonicity); instead
         tell the sender it is doubted so it can refute by bumping. *)
      t.doubts <- t.doubts + 1;
      send_unreliable t ~src:observer ~dst:subject (fun () ->
          receive_doubt t ~node:subject ~inc)
    end
  end

let suspect t ~observer ~subject =
  t.suspected.(observer).(subject) <- true;
  t.suspicions <- t.suspicions + 1;
  if up t subject then t.false_suspicions <- t.false_suspicions + 1;
  fire t ~observer ~subject ~suspected:true

let rec tick t () =
  let now = Engine.now t.engine in
  for i = 0 to t.n - 1 do
    if up t i then
      for j = 0 to t.n - 1 do
        if j <> i && (not t.suspected.(i).(j))
           && now - t.last.(i).(j) > t.config.suspect_after
        then suspect t ~observer:i ~subject:j
      done
  done;
  for i = 0 to t.n - 1 do
    if up t i then
      for j = 0 to t.n - 1 do
        if j <> i then begin
          t.beats_sent <- t.beats_sent + 1;
          let inc = t.incarnation.(i) in
          send_unreliable t ~src:i ~dst:j (fun () ->
              receive_beat t ~observer:j ~subject:i ~inc)
        end
      done
  done;
  Engine.schedule ~daemon:true t.engine ~delay:t.config.heartbeat_every (tick t)

(* A restart is self-knowledge: bump the incarnation (peers' standing
   suspicions become refutable by the next beats) and restart the
   node's own evidence clocks so its own downtime does not read as
   everyone else's silence. *)
let restart t node =
  t.incarnation.(node) <- t.incarnation.(node) + 1;
  let now = Engine.now t.engine in
  for j = 0 to t.n - 1 do
    if j <> node then begin
      t.last.(node).(j) <- now;
      if t.suspected.(node).(j) then begin
        t.suspected.(node).(j) <- false;
        fire t ~observer:node ~subject:j ~suspected:false
      end
    end
  done

let create ?(config = default_config) ?fault engine ~n ~latency ~rng =
  validate_config config;
  let t =
    {
      engine;
      fault;
      latency;
      rng;
      n;
      config;
      incarnation = Array.make n 0;
      known = Array.make_matrix n n 0;
      last = Array.make_matrix n n 0;
      suspected = Array.make_matrix n n false;
      listeners = [];
      beats_sent = 0;
      beats_delivered = 0;
      suspicions = 0;
      false_suspicions = 0;
      refutations = 0;
      doubts = 0;
    }
  in
  (match fault with
  | None -> ()
  | Some f ->
    List.iter
      (fun (c : Fault.crash) ->
        Engine.at ~daemon:true engine ~time:c.back (fun () -> restart t c.node))
      (Fault.plan f).crashes);
  Engine.schedule ~daemon:true engine ~delay:config.heartbeat_every (tick t);
  t
