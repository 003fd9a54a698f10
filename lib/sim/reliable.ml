(** Ack/sequence-number/retransmission layer restoring reliable
    exactly-once (unordered) channels over a faulty {!Network}; see the
    interface for the protocol. *)

type config = { rto : int; backoff : int; max_rto : int; max_retries : int }

let default_config = { rto = 40; backoff = 2; max_rto = 640; max_retries = 40 }

type 'msg packet =
  | Data of { seq : int; sent_at : int; payload : 'msg }
  | Ack of { seq : int }

type 'msg outstanding = { payload : 'msg; sent_at : int; mutable tries : int }

type 'msg t = {
  engine : Engine.t;
  net : 'msg packet Network.t;
  fault : Fault.t;
  config : config;
  next_seq : int array array;  (** next seq to assign, [src].(dst) *)
  unacked : 'msg outstanding Int_table.t array array;
      (** in-flight messages, [src].(dst) : seq -> entry *)
  delivered_seqs : Watermark.t array array;  (** [dst].(src) *)
  handlers : (int -> 'msg -> unit) array;
  mutable accepted : int;
  mutable delivered : int;
}

let n_nodes t = Array.length t.handlers

let set_handler t node handler = t.handlers.(node) <- handler

(* Transmit (or retransmit) [o], in flight as [seq], and arm the
   timeout: if the entry is still unacked when the timer fires,
   retransmit with doubled timeout (capped), until the retry budget
   runs out.  An acked entry leaves the table, so a pending timer finds
   nothing and goes quiet. *)
let rec transmit t ~src ~dst seq o ~rto =
  let table = t.unacked.(src).(dst) in
  Network.send t.net ~src ~dst
    (Data { seq; sent_at = o.sent_at; payload = o.payload });
  Engine.schedule t.engine ~delay:rto (fun () ->
      if Int_table.mem table seq then begin
        if o.tries >= t.config.max_retries then begin
          Int_table.remove table seq;
          Fault.note_abandoned t.fault
        end
        else begin
          o.tries <- o.tries + 1;
          Fault.note_retransmission t.fault;
          transmit t ~src ~dst seq o
            ~rto:(Int.min t.config.max_rto (rto * t.config.backoff))
        end
      end)

let create ?duplicate ?(config = default_config) ~fault engine ~n ~latency ~rng
    =
  if config.rto < 1 || config.backoff < 1 || config.max_rto < config.rto
     || config.max_retries < 0
  then invalid_arg "Reliable.create: malformed config";
  let t =
    {
      engine;
      net = Network.create ?duplicate ~fault engine ~n ~latency ~rng;
      fault;
      config;
      next_seq = Array.init n (fun _ -> Array.make n 0);
      unacked =
        Array.init n (fun _ -> Array.init n (fun _ -> Int_table.create 8));
      delivered_seqs =
        Array.init n (fun _ -> Array.init n (fun _ -> Watermark.create ()));
      handlers = Array.make n (fun _ _ -> failwith "Reliable: no handler");
      accepted = 0;
      delivered = 0;
    }
  in
  for node = 0 to n - 1 do
    Network.set_handler t.net node (fun src pkt ->
        match pkt with
        | Data { seq; sent_at; payload } ->
          (* Always ack — the previous ack for a retransmitted seq may
             itself have been lost. *)
          Network.send t.net ~src:node ~dst:src (Ack { seq });
          Fault.note_ack t.fault;
          let seqs = t.delivered_seqs.(node).(src) in
          if Watermark.mem seqs seq then Fault.note_duplicate t.fault
          else begin
            Watermark.add seqs seq;
            t.delivered <- t.delivered + 1;
            Fault.note_delivery t.fault ~sent:sent_at
              ~delivered:(Engine.now t.engine);
            t.handlers.(node) src payload
          end
        | Ack { seq } ->
          (* [node] is the original sender of [seq] towards [src]. *)
          Int_table.remove t.unacked.(node).(src) seq)
  done;
  t

let send t ~src ~dst msg =
  let seq = t.next_seq.(src).(dst) in
  t.next_seq.(src).(dst) <- seq + 1;
  t.accepted <- t.accepted + 1;
  let o = { payload = msg; sent_at = Engine.now t.engine; tries = 0 } in
  Int_table.replace t.unacked.(src).(dst) seq o;
  transmit t ~src ~dst seq o ~rto:t.config.rto

let send_all t ~src msg =
  for dst = 0 to n_nodes t - 1 do
    send t ~src ~dst msg
  done

let messages_sent t = Network.messages_sent t.net

let fault t = t.fault

let config t = t.config

let accepted t = t.accepted

let delivered t = t.delivered
