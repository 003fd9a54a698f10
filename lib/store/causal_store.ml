(** Causally consistent replicated store (Raynal et al.'s weaker
    condition, for comparison with the paper's protocols).

    No atomic broadcast: an update is applied locally at its origin
    immediately and flooded to the other replicas, which delay applying
    it until all causally preceding updates have been applied (vector
    clocks, per-origin FIFO counting).  Queries read the local copy.
    Concurrent updates may be applied in different orders at different
    replicas: executions are causally consistent but in general not
    m-sequentially consistent.

    Version accounting: each write of object [x] by origin [j] gets
    namespace [j + 1] and version = number of [j]'s updates writing [x]
    so far.  Causal delivery is per-origin FIFO, so these counters
    agree at every replica and identify writers globally even though
    replicas disagree on the interleaving. *)

open Mmc_core
open Mmc_sim

type update_msg = {
  origin : int;
  vc : int array;  (** origin's vector clock after the update *)
  mprog : Prog.mprog;
}

type node_state = {
  x : Value.t array;
  vc : int array;  (** vc.(j) = number of j's updates applied here *)
  mutable pending : update_msg list;
  (* version and namespace of the current value of each object, for
     the recorder. *)
  ver : int array;
  ns : int array;
  (* per-origin per-object write counters (deterministic across
     replicas thanks to per-origin FIFO application). *)
  write_counts : int array array;
}

let create ?fault engine ~n ~n_objects ~latency ~rng ~recorder : Store.t =
  let net = Transport.create ?fault engine ~n ~latency ~rng:(Rng.split rng) in
  let states =
    Array.init n (fun _ ->
        {
          x = Array.make n_objects Value.initial;
          vc = Array.make n 0;
          pending = [];
          ver = Array.make n_objects 0;
          ns = Array.make n_objects 0;
          write_counts = Array.init n (fun _ -> Array.make n_objects 0);
        })
  in
  let apply node (u : update_msg) =
    let st = states.(node) in
    let counts = st.write_counts.(u.origin) in
    let applied =
      Apply.run ~ns_of:st.ns
        ~version:(fun o ->
          counts.(o) <- counts.(o) + 1;
          counts.(o))
        ~query:false st.x st.ver ~ns:(u.origin + 1) u.mprog.Prog.prog
    in
    st.vc.(u.origin) <- st.vc.(u.origin) + 1;
    applied
  in
  (* Causal deliverability of a remote update at [node]. *)
  let deliverable node (u : update_msg) =
    let st = states.(node) in
    let ok = ref (u.vc.(u.origin) = st.vc.(u.origin) + 1) in
    Array.iteri
      (fun j v -> if j <> u.origin && v > st.vc.(j) then ok := false)
      u.vc;
    !ok
  in
  let rec drain node =
    let st = states.(node) in
    match List.find_opt (deliverable node) st.pending with
    | None -> ()
    | Some u ->
      st.pending <- List.filter (fun p -> p != u) st.pending;
      ignore (apply node u);
      drain node
  in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun _src (u : update_msg) ->
        states.(node).pending <- states.(node).pending @ [ u ];
        drain node)
  done;
  let zero_ts () = Array.make n_objects 0 in
  let invoke ~proc (m : Prog.mprog) ~k =
    let now = Engine.now engine in
    if Prog.is_query m then begin
      let st = states.(proc) in
      let applied = Apply.query_ns st.x st.ver st.ns m.Prog.prog in
      Recorder.add recorder
        (Recorder.make ~proc ~inv:now ~resp:now ~start_ts:(zero_ts ())
           ~finish_ts:(zero_ts ()) applied);
      k applied.Apply.result
    end
    else begin
      (* Apply locally, respond, flood to the other replicas. *)
      let st = states.(proc) in
      let vc = Array.copy st.vc in
      vc.(proc) <- vc.(proc) + 1;
      let u = { origin = proc; vc; mprog = m } in
      let applied = apply proc u in
      Recorder.add recorder
        (Recorder.make ~proc ~inv:now ~resp:now ~start_ts:(zero_ts ())
           ~finish_ts:(zero_ts ()) applied);
      for dst = 0 to n - 1 do
        if dst <> proc then Transport.send net ~src:proc ~dst u
      done;
      k applied.Apply.result
    end
  in
  {
    Store.name = "causal";
    invoke;
    messages_sent = (fun () -> Transport.messages_sent net);
  }
