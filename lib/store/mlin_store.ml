(** The m-linearizability protocol (paper, Figure 6).

    Updates are handled exactly as in the m-SC protocol (A1/A2): the
    replicas and the update path are {!Msc_store.replicas}.  To keep
    queries from reading stale values, a query sends a "query" message
    to every process (A3); each process replies with its copy of the
    shared objects and its timestamp (A4); the issuer keeps the
    freshest reply — replica timestamps are totally ordered because
    every replica's state is a prefix of the atomic broadcast sequence
    — (A5), and once all [n] replies arrived it executes the query
    against that copy and responds (A6).

    No clock synchronization or message-delay bound is assumed: this is
    the paper's improvement over the Attiya–Welch linearizability
    algorithm. *)

open Mmc_core
open Mmc_sim

type query_msg =
  | Query of { qid : int; origin : int }
  | Reply of { qid : int; x : Value.t array; ts : int array }

type pending_query = {
  mutable othx : Value.t array;
  mutable othts : int array;
  mutable replies : int;
  q_mprog : Prog.mprog;
  q_inv : Types.time;
  q_k : Value.t -> unit;
}

let create ?fault ?reliable ?batch engine ~n ~n_objects ~latency ~rng
    ~abcast_impl ~recorder : Store.t =
  (* The broadcast draws its stream first, then the query network. *)
  let r =
    Msc_store.replicas ?fault ?reliable ?batch engine ~n ~n_objects ~latency
      ~rng ~abcast_impl ~recorder
  in
  let qnet = Transport.create ?fault engine ~n ~latency ~rng:(Rng.split rng) in
  let pending : pending_query Int_table.t = Int_table.create 16 in
  let next_qid = ref 0 in
  for node = 0 to n - 1 do
    Transport.set_handler qnet node (fun _src msg ->
        match msg with
        | Query { qid; origin } ->
          (* (A4): reply with a snapshot of the local copy. *)
          Transport.send qnet ~src:node ~dst:origin
            (Reply
               {
                 qid;
                 x = Array.copy r.Msc_store.xs.(node);
                 ts = Array.copy r.Msc_store.tss.(node);
               })
        | Reply { qid; x; ts } ->
          let st = Option.get (Int_table.find_opt pending qid) in
          (* (A5): keep the freshest reply. *)
          if Version_vector.lt st.othts ts then begin
            st.othx <- x;
            st.othts <- ts
          end;
          st.replies <- st.replies + 1;
          if st.replies = n then begin
            (* (A6): all replies received — execute and respond. *)
            Int_table.remove pending qid;
            let applied =
              Apply.query st.othx st.othts ~ns:0 st.q_mprog.Prog.prog
            in
            let ts = Array.copy st.othts in
            Recorder.add recorder
              (Recorder.make ~proc:node ~inv:st.q_inv ~resp:(Engine.now engine)
                 ~start_ts:ts ~finish_ts:ts applied);
            st.q_k applied.Apply.result
          end)
  done;
  let invoke ~proc (m : Prog.mprog) ~k =
    if Prog.is_query m then begin
      (* (A3): ask every process for its copy. *)
      let qid = !next_qid in
      incr next_qid;
      Int_table.replace pending qid
        {
          othx = Array.make n_objects Value.initial;
          othts = Array.make n_objects 0;
          replies = 0;
          q_mprog = m;
          q_inv = Engine.now engine;
          q_k = k;
        };
      Transport.send_all qnet ~src:proc (Query { qid; origin = proc })
    end
    else r.Msc_store.update ~proc m ~k
  in
  {
    Store.name = "mlin";
    invoke;
    messages_sent =
      (fun () -> r.Msc_store.messages_sent () + Transport.messages_sent qnet);
  }
