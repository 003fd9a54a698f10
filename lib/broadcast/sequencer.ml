(** Fixed-sequencer atomic broadcast.

    Node 0 doubles as the sequencer: a sender forwards its payload to
    the sequencer, which stamps it with the next global sequence number
    and fans it out to every node; receivers buffer out-of-order
    sequence numbers and deliver in sequence.  2 message hops end to
    end; n+1 transport messages per broadcast unbatched.

    Batching ({!Batch}): sequence numbers are assigned the moment a
    request reaches the stamping cursor — batching never reorders —
    but the stamped [(origin, payload)] items are queued and one
    [Ordered] wire message carries up to [Batch.size] of them, flushed
    early when a partial batch ages past [Batch.flush_every].  One
    fan-out (n messages flat, n-1 down a tree) is thus amortized over
    the whole batch: per-broadcast cost drops from n+1 towards
    1 + n/size.

    Tree dissemination ([Batch.fanout >= 1]): the sequencer sends each
    batch to its children in the complete [fanout]-ary tree rooted at
    itself and every receiver forwards to its own children before
    delivering, so the root's egress is [fanout] messages per batch
    instead of n.  Forwarding happens on every receipt; the tree is
    acyclic, so at-least-once links re-forward finitely and the
    per-seq delivery cursor suppresses the duplicates.  Loss on a tree
    edge is masked by the reliable ack/retransmit transport exactly as
    for the flat fan-out.

    Duplicate tolerance: requests carry a per-origin sequence number so
    the sequencer stamps each broadcast once; receivers drop ordered
    messages below their delivery cursor. *)

open Mmc_sim

type 'p msg =
  | To_sequencer of { origin : int; origin_seq : int; payload : 'p }
  | Ordered of { base : int; items : (int * 'p) list }
      (** item [i] is [(origin, payload)] for global sequence
          [base + i] *)

let sequencer_node = 0

let create ?duplicate ?fault ?reliable ?(batch = Batch.unbatched) engine ~n
    ~latency ~rng ~deliver : 'p Abcast.t =
  let net =
    Transport.create ?duplicate ?fault ?config:reliable engine ~n ~latency ~rng
  in
  let fanout = batch.Batch.fanout in
  let next_seq = ref 0 in
  (* Sequencer-side per-origin cursor and reorder buffer: requests are
     stamped in origin_seq order, duplicates (below the cursor) are
     dropped.  This also makes the sequencer FIFO per sender. *)
  let stamped = Array.make n 0 in
  let requests : 'p Int_table.t array =
    Array.init n (fun _ -> Int_table.create 8)
  in
  (* Sender-side request numbering. *)
  let origin_seqs = Array.make n 0 in
  (* Per-node delivery cursor and out-of-order buffer. *)
  let expected = Array.make n 0 in
  let buffered : (int * 'p) Int_table.t array =
    Array.init n (fun _ -> Int_table.create 16)
  in
  (* Outgoing batch (sequencer side): stamped items awaiting the next
     flush, newest first, with the global sequence of the oldest. *)
  let queue = ref [] in
  let queue_len = ref 0 in
  let queue_base = ref 0 in
  let flush_scheduled = ref false in
  let receive node ~base items =
    if fanout > 0 then
      List.iter
        (fun child ->
          Transport.send net ~src:node ~dst:child (Ordered { base; items }))
        (Batch.children ~fanout ~n ~root:sequencer_node ~node);
    List.iteri
      (fun i (origin, payload) ->
        let seq = base + i in
        if seq >= expected.(node) then
          Int_table.replace buffered.(node) seq (origin, payload))
      items;
    let rec drain () =
      match Int_table.find_opt buffered.(node) expected.(node) with
      | None -> ()
      | Some (origin, payload) ->
        Int_table.remove buffered.(node) expected.(node);
        expected.(node) <- expected.(node) + 1;
        deliver ~node ~origin payload;
        drain ()
    in
    drain ()
  in
  let flush () =
    if !queue_len > 0 then begin
      let items = List.rev !queue in
      let base = !queue_base in
      queue := [];
      queue_len := 0;
      if fanout > 0 then
        (* The root delivers its own copy locally and pays only
           [fanout] egress messages. *)
        receive sequencer_node ~base items
      else Transport.send_all net ~src:sequencer_node (Ordered { base; items })
    end
  in
  let schedule_flush () =
    if not !flush_scheduled then begin
      flush_scheduled := true;
      let fire () =
        flush_scheduled := false;
        flush ()
      in
      if batch.Batch.flush_every <= 0 then Engine.schedule_now engine fire
      else Engine.schedule engine ~delay:batch.Batch.flush_every fire
    end
  in
  let enqueue origin payload =
    let seq = !next_seq in
    incr next_seq;
    if !queue_len = 0 then queue_base := seq;
    queue := (origin, payload) :: !queue;
    incr queue_len;
    if !queue_len >= batch.Batch.size then flush () else schedule_flush ()
  in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun _src msg ->
        match msg with
        | To_sequencer { origin; origin_seq; payload } ->
          assert (node = sequencer_node);
          if origin_seq >= stamped.(origin) then
            Int_table.replace requests.(origin) origin_seq payload;
          let rec stamp () =
            match Int_table.find_opt requests.(origin) stamped.(origin) with
            | None -> ()
            | Some payload ->
              Int_table.remove requests.(origin) stamped.(origin);
              stamped.(origin) <- stamped.(origin) + 1;
              enqueue origin payload;
              stamp ()
          in
          stamp ()
        | Ordered { base; items } -> receive node ~base items)
  done;
  {
    Abcast.name = "sequencer";
    broadcast =
      (fun ~src payload ->
        let origin_seq = origin_seqs.(src) in
        origin_seqs.(src) <- origin_seq + 1;
        Transport.send net ~src ~dst:sequencer_node
          (To_sequencer { origin = src; origin_seq; payload }));
    messages_sent = (fun () -> Transport.messages_sent net);
  }
