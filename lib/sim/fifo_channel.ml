(** FIFO channel layer over a reordering transport.

    Tags each message with a per-(src,dst) sequence number and buffers
    out-of-order arrivals, releasing them in send order.  The Lamport
    atomic-broadcast implementation requires FIFO channels for its
    stability rule.  Runs over either transport stack: the plain
    network, or — under a fault plan — the reliable ack/retransmit
    layer. *)

type 'msg tagged = { fifo_seq : int; payload : 'msg }

type 'msg t = {
  net : 'msg tagged Transport.t;
  send_seq : int array array;  (** next seq to use, [src].(dst) *)
  recv_seq : int array array;  (** next seq expected, [dst].(src) *)
  pending : 'msg Int_table.t array array;
      (** buffered out-of-order messages, [dst].(src) : seq -> msg *)
  handlers : (int -> 'msg -> unit) array;
}

let create ?duplicate ?fault ?config engine ~n ~latency ~rng =
  let net = Transport.create ?duplicate ?fault ?config engine ~n ~latency ~rng in
  let t =
    {
      net;
      send_seq = Array.init n (fun _ -> Array.make n 0);
      recv_seq = Array.init n (fun _ -> Array.make n 0);
      pending =
        Array.init n (fun _ -> Array.init n (fun _ -> Int_table.create 8));
      handlers = Array.make n (fun _ _ -> failwith "Fifo_channel: no handler");
    }
  in
  for dst = 0 to n - 1 do
    Transport.set_handler net dst (fun src tagged ->
        let buf = t.pending.(dst).(src) in
        (* Duplicate suppression: sequence numbers already released are
           dropped; re-buffering a pending duplicate is idempotent. *)
        if tagged.fifo_seq >= t.recv_seq.(dst).(src) then
          Int_table.replace buf tagged.fifo_seq tagged.payload;
        let rec drain () =
          let next = t.recv_seq.(dst).(src) in
          match Int_table.find_opt buf next with
          | None -> ()
          | Some msg ->
            Int_table.remove buf next;
            t.recv_seq.(dst).(src) <- next + 1;
            t.handlers.(dst) src msg;
            drain ()
        in
        drain ())
  done;
  t

let n_nodes t = Array.length t.handlers

let set_handler t node handler = t.handlers.(node) <- handler

let send t ~src ~dst msg =
  let seq = t.send_seq.(src).(dst) in
  t.send_seq.(src).(dst) <- seq + 1;
  Transport.send t.net ~src ~dst { fifo_seq = seq; payload = msg }

let send_all t ~src msg =
  for dst = 0 to n_nodes t - 1 do
    send t ~src ~dst msg
  done

let messages_sent t = Transport.messages_sent t.net
