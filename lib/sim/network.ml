(** Point-to-point message network.

    By default reliable (no loss), asynchronous (per-message sampled
    delay, hence reordering), delivering by invoking a handler
    registered per destination node.  Handlers run as atomic engine
    events.

    With a {!Fault} injector attached the network becomes a lossy raw
    wire: sends may be dropped (random loss, partitions, crashed
    sender), delayed further (latency spikes), and in-flight messages
    to a node that is down at delivery time are lost.  {!Reliable}
    restores the reliable-channel abstraction on top.

    The handler table is populated after creation ([set_handler])
    because protocol nodes need the network in scope to send replies. *)

type 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  latency : Latency.t;
  duplicate : float;  (** probability a message is delivered twice *)
  fault : Fault.t option;
  handlers : (int -> 'msg -> unit) array;  (** per destination node *)
  mutable sent : int;
  mutable delivered : int;
  mutable total_delay : int;
}

let create ?(duplicate = 0.0) ?fault engine ~n ~latency ~rng =
  (* The negated form also rejects NaN. *)
  if not (duplicate >= 0.0 && duplicate <= 1.0) then
    invalid_arg
      (Fmt.str "Network.create: duplicate must be in [0,1], got %g" duplicate);
  {
    engine;
    rng;
    latency;
    duplicate;
    fault;
    handlers = Array.make n (fun _ _ -> failwith "Network: no handler");
    sent = 0;
    delivered = 0;
    total_delay = 0;
  }

let n_nodes t = Array.length t.handlers

(** Register the message handler of node [node]; the handler receives
    the source node and the message. *)
let set_handler t node handler = t.handlers.(node) <- handler

(* One transmission attempt that survived the fault judgement: sample
   its delay and schedule its delivery — the one closure a send
   allocates. *)
let schedule_delivery t ~src ~dst msg ~extra =
  let delay = Latency.sample t.latency t.rng + extra in
  t.total_delay <- t.total_delay + delay;
  Engine.schedule t.engine ~delay (fun () ->
      (* A destination that is down when the message arrives loses
         it — messages in flight to a crashed node are not queued. *)
      match t.fault with
      | Some f when not (Fault.node_up f ~now:(Engine.now t.engine) ~node:dst)
        ->
        Fault.note_drop f Fault.Crashed_dst
      | _ ->
        t.delivered <- t.delivered + 1;
        t.handlers.(dst) src msg)

let attempt t ~src ~dst msg =
  match t.fault with
  | None -> schedule_delivery t ~src ~dst msg ~extra:0
  | Some f -> (
    match Fault.judge f ~now:(Engine.now t.engine) ~src ~dst with
    | Fault.Drop _ -> ()
    | Fault.Deliver extra -> schedule_delivery t ~src ~dst msg ~extra)

(** Send [msg] from [src] to [dst]; it will be delivered after a
    sampled delay.  Self-sends are allowed and also pay a delay (the
    paper's query protocol sends the "query" to all processes,
    including the issuer). *)
let send t ~src ~dst msg =
  if dst < 0 || dst >= n_nodes t then
    invalid_arg (Fmt.str "Network.send: bad destination %d" dst);
  t.sent <- t.sent + 1;
  attempt t ~src ~dst msg;
  (* At-least-once channels: occasionally deliver a duplicate with an
     independent delay (and an independent fault judgement). *)
  if t.duplicate > 0.0 && Rng.bernoulli t.rng ~p:t.duplicate then
    attempt t ~src ~dst msg

(** Broadcast to every node (including [src]). *)
let send_all t ~src msg =
  for dst = 0 to n_nodes t - 1 do
    send t ~src ~dst msg
  done

let messages_sent t = t.sent

let messages_delivered t = t.delivered

let mean_delay t =
  if t.sent = 0 then 0.0 else float_of_int t.total_delay /. float_of_int t.sent
