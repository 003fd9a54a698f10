(** The m-sequential-consistency protocol (paper, Figure 4).

    Every replica keeps a full copy of the shared objects and a version
    vector [ts].  An update m-operation is atomically broadcast (A1)
    and applied by every replica in delivery order (A2); the issuing
    replica generates the response when it applies the operation
    itself.  A query m-operation executes immediately against the local
    copy (A3) — queries are free of communication, the defining
    performance property of this protocol. *)

open Mmc_core
open Mmc_sim
open Mmc_broadcast

type payload = {
  origin : int;
  mprog : Prog.mprog;
  inv : Types.time;
  k : Value.t -> unit;
}

type replicas = {
  xs : Value.t array array;
  tss : int array array;
  update : proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit;
  messages_sent : unit -> int;
}

let replicas ?fault ?reliable ?batch engine ~n ~n_objects ~latency ~rng
    ~abcast_impl ~recorder =
  let xs = Array.init n (fun _ -> Array.make n_objects Value.initial) in
  let tss = Array.init n (fun _ -> Array.make n_objects 0) in
  (* Per-node delivery counters: identical across nodes (total order),
     so the origin's value is the update's global broadcast position. *)
  let delivered = Array.make n 0 in
  (* (A2): every replica applies; the origin records and responds. *)
  let deliver ~node ~origin:_ p =
    let position = delivered.(node) in
    delivered.(node) <- position + 1;
    let ts = tss.(node) in
    if node <> p.origin then
      Apply.update_untraced xs.(node) ts p.mprog.Prog.prog
    else begin
      let start_ts = Array.copy ts in
      let applied = Apply.update xs.(node) ts ~ns:0 p.mprog.Prog.prog in
      Recorder.add recorder
        (Recorder.make ~proc:node ~inv:p.inv ~resp:(Engine.now engine)
           ~start_ts ~finish_ts:(Array.copy ts) ~sync:position applied);
      p.k applied.Apply.result
    end
  in
  let abcast =
    (Select.factory abcast_impl) ?fault ?reliable ?batch engine ~n ~latency
      ~rng:(Rng.split rng) ~deliver
  in
  (* (A1): atomically broadcast the update. *)
  let update ~proc (m : Prog.mprog) ~k =
    Abcast.broadcast abcast ~src:proc
      { origin = proc; mprog = m; inv = Engine.now engine; k }
  in
  { xs; tss; update; messages_sent = (fun () -> Abcast.messages_sent abcast) }

let create ?fault ?reliable ?batch engine ~n ~n_objects ~latency ~rng
    ~abcast_impl ~recorder : Store.t =
  let r =
    replicas ?fault ?reliable ?batch engine ~n ~n_objects ~latency ~rng
      ~abcast_impl ~recorder
  in
  let invoke ~proc (m : Prog.mprog) ~k =
    if Prog.is_query m then begin
      (* (A3): apply to the local copy, respond immediately. *)
      let now = Engine.now engine in
      let applied = Apply.query r.xs.(proc) r.tss.(proc) ~ns:0 m.Prog.prog in
      (* A query moves no version: one copy is both stamps. *)
      let ts = Array.copy r.tss.(proc) in
      Recorder.add recorder
        (Recorder.make ~proc ~inv:now ~resp:now ~start_ts:ts ~finish_ts:ts
           applied);
      k applied.Apply.result
    end
    else r.update ~proc m ~k
  in
  { Store.name = "msc"; invoke; messages_sent = r.messages_sent }
