(** The Attiya–Welch-style clock-based linearizable store — the
    algorithm the paper's protocol improves on (Section 1: their
    "implementation for linearizability assumes that clocks are
    perfectly synchronized and there is an upper bound on the delay of
    the message").

    An update issued at time [t] is sent to every replica and applied
    at time [t + delta + 1] — the first instant strictly after the
    delay bound, [delta] = 15 ticks — by the synchronized clock (the
    simulator's virtual time {e is} a perfectly synchronized clock);
    the issuer responds when it applies.  Queries read the local copy
    immediately.  When every message really arrives within [delta], all replicas
    apply every update at the same instant in the same (time, origin,
    sequence) order and executions are m-linearizable.

    When the delay bound is violated — a message arrives after
    [t + delta] — the late replica applies the update on arrival, its
    state diverges, and linearizability (and even m-SC) can break:
    exactly the failure mode the paper's Figure 6 protocol avoids by
    assuming nothing about delays.

    Version accounting mirrors {!Causal_store}: writes are tagged with
    the origin and the origin's update sequence number, which are
    carried in the message and therefore agree at every replica even
    when application orders diverge.  The same limitation applies:
    update procedures' write sets and values must be data-independent
    (straight-line blind writes, e.g. [Mmc_workload.Generator.mixed]). *)

open Mmc_core
open Mmc_sim

type update_msg = {
  origin : int;
  origin_seq : int;  (** per-origin update counter *)
  issued : Types.time;
  mprog : Prog.mprog;
}

(* The version and namespace of each object's value: a write of
   origin [j]'s [s]-th update is version [s + 1] in namespace [j + 1]. *)
type node_state = { x : Value.t array; ver : int array; ns : int array }

let delta = 15

let create ?fault engine ~n ~n_objects ~latency ~rng ~recorder : Store.t =
  let net = Transport.create ?fault engine ~n ~latency ~rng:(Rng.split rng) in
  let states =
    Array.init n (fun _ ->
        {
          x = Array.make n_objects Value.initial;
          ver = Array.make n_objects 0;
          ns = Array.make n_objects 0;
        })
  in
  let origin_seqs = Array.make n 0 in
  let zero_ts () = Array.make n_objects 0 in
  (* Apply [u] to [node]'s copy; record only at the origin. *)
  let apply node (u : update_msg) =
    let st = states.(node) in
    let applied =
      Apply.run ~ns_of:st.ns
        ~version:(fun _ -> u.origin_seq + 1)
        ~query:false st.x st.ver ~ns:(u.origin + 1) u.mprog.Prog.prog
    in
    if node = u.origin then
      Recorder.add recorder
        (Recorder.make ~proc:u.origin ~inv:u.issued ~resp:(Engine.now engine)
           ~start_ts:(zero_ts ()) ~finish_ts:(zero_ts ()) applied);
    applied.Apply.result
  in
  (* Per-node pending queue: updates are applied at max(issued + delta,
     arrival), in (due time, origin, origin_seq) order — the
     deterministic tie-break that keeps replicas agreeing when all
     messages are on time.  Late messages apply on arrival, alone:
     that is the divergence. *)
  let pending : update_msg list array = Array.make n [] in
  let conts : (int * int, Value.t -> unit) Hashtbl.t = Hashtbl.create 16 in
  (* Applied at the first instant strictly after the delay bound, so a
     message arriving at exactly [issued + delta] (legal: the bound is
     inclusive) is still in the pending set when the apply fires. *)
  let due u = u.issued + delta + 1 in
  let flush node =
    let now = Engine.now engine in
    let ready, later = List.partition (fun u -> due u <= now) pending.(node) in
    pending.(node) <- later;
    List.stable_sort
      (fun a b -> compare (due a, a.origin, a.origin_seq) (due b, b.origin, b.origin_seq))
      ready
    |> List.iter (fun u ->
           let result = apply node u in
           if node = u.origin then begin
             let key = (u.origin, u.origin_seq) in
             let k = Hashtbl.find conts key in
             Hashtbl.remove conts key;
             k result
           end)
  in
  let enqueue node (u : update_msg) =
    pending.(node) <- u :: pending.(node);
    let now = Engine.now engine in
    if now >= due u then flush node
    else Engine.schedule engine ~delay:(due u - now) (fun () -> flush node)
  in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun _src (u : update_msg) -> enqueue node u)
  done;
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
      let u =
        { origin = proc; origin_seq = origin_seqs.(proc); issued = now; mprog = m }
      in
      origin_seqs.(proc) <- origin_seqs.(proc) + 1;
      Hashtbl.replace conts (proc, u.origin_seq) k;
      (* Remote replicas via the network; the origin enqueues directly —
         its own clock fires exactly at [now + delta]. *)
      for dst = 0 to n - 1 do
        if dst <> proc then Transport.send net ~src:proc ~dst u
      done;
      enqueue proc u
    end
  in
  {
    Store.name = "aw";
    invoke;
    messages_sent = (fun () -> Transport.messages_sent net);
  }
