(** Distributed strict two-phase locking over sharded owner copies —
    the classical database-style alternative the paper's transaction
    connection suggests (and an instance of OO-style synchronization:
    conflicting m-operations are ordered per object by its lock).

    Object [x] lives at node [x mod n], which is also its lock manager.
    An m-operation locks its conservative touch set in ascending object
    order (no deadlock), then executes — reads and writes are RPCs to
    the owner nodes — and finally responds and releases all locks
    (strict 2PL: locks held until completion, so executions are
    strictly serializable, hence m-linearizable).

    Costs, by construction: ~2 message rounds per locked object
    (sequential — ascending order), plus 2 per read and 2 per write,
    plus releases.  Contention shows up as lock-queue waiting, unlike
    the broadcast protocols where it shows up as total-order delay. *)

open Mmc_core
open Mmc_sim

type msg =
  | Lock_req of { obj : Types.obj_id; reqid : int; client : int }
  | Lock_grant of { obj : Types.obj_id; reqid : int }
  | Unlock of { obj : Types.obj_id }
  | Read_req of { obj : Types.obj_id; reqid : int; client : int }
  | Read_resp of { reqid : int; value : Value.t; version : int }
  | Write_req of {
      obj : Types.obj_id;
      value : Value.t;
      reqid : int;
      client : int;
    }
  | Write_ack of { reqid : int; version : int }

type pending = {
  mprog : Prog.mprog;
  inv : Types.time;
  k : Value.t -> unit;
  proc : int;
  mutable to_lock : Types.obj_id list;  (** still to acquire, ascending *)
  mutable cont : [ `Idle | `Read of Value.t -> Prog.t | `Write of Prog.t ];
  mutable prog : Prog.t;
  mutable ops : Op.t list;  (** reversed *)
  mutable reads : (Types.obj_id * int * int) list;  (** reversed *)
  mutable writes : (Types.obj_id * int) list;  (** latest version per obj *)
  mutable written : Types.obj_id list;
}

type manager_obj = {
  mutable value : Value.t;
  mutable version : int;
  mutable locked : bool;
  mutable queue : (int * int) list;  (** (reqid, client), FIFO *)
}

let create ?fault engine ~n ~n_objects ~latency ~rng ~recorder : Store.t =
  let net = Transport.create ?fault engine ~n ~latency ~rng:(Rng.split rng) in
  let owner obj = obj mod n in
  (* Manager-side state, per node, for the objects it owns. *)
  let objects_of : manager_obj array =
    Array.init n_objects (fun _ ->
        { value = Value.initial; version = 0; locked = false; queue = [] })
  in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 32 in
  let next_reqid = ref 0 in
  (* Drive an m-operation's program forward from the client side,
     issuing RPCs for reads and writes. *)
  let step reqid (p : pending) =
    match p.prog with
    | Prog.Done result ->
      (* Respond, then release all locks (strict 2PL). *)
      Hashtbl.remove pending reqid;
      List.iter
        (fun obj -> Transport.send net ~src:p.proc ~dst:(owner obj) (Unlock { obj }))
        p.mprog.Prog.may_touch;
      Recorder.add recorder
        (Recorder.make ~proc:p.proc ~inv:p.inv ~resp:(Engine.now engine)
           ~start_ts:(Array.make n_objects 0)
           ~finish_ts:(Array.make n_objects 0)
           {
             Apply.result;
             ops = List.rev p.ops;
             reads = List.rev p.reads;
             writes = List.map (fun (o, v) -> (o, v, 0)) p.writes;
           });
      p.k result
    | Prog.Read (obj, k) ->
      if not (List.mem obj p.mprog.Prog.may_touch) then
        invalid_arg
          (Fmt.str "Lock_store: read of x%d outside declared touch set" obj);
      p.cont <- `Read k;
      Transport.send net ~src:p.proc ~dst:(owner obj)
        (Read_req { obj; reqid; client = p.proc })
    | Prog.Write (obj, value, rest) ->
      if not (List.mem obj p.mprog.Prog.may_write) then
        invalid_arg
          (Fmt.str "Lock_store: write of x%d outside declared write set" obj);
      p.cont <- `Write rest;
      Transport.send net ~src:p.proc ~dst:(owner obj)
        (Write_req { obj; value; reqid; client = p.proc })
  in
  let acquire_next reqid (p : pending) =
    match p.to_lock with
    | obj :: _ ->
      Transport.send net ~src:p.proc ~dst:(owner obj)
        (Lock_req { obj; reqid; client = p.proc })
    | [] -> step reqid p
  in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun _src msg ->
        match msg with
        | Lock_req { obj; reqid; client } ->
          let o = objects_of.(obj) in
          if o.locked then o.queue <- o.queue @ [ (reqid, client) ]
          else begin
            o.locked <- true;
            Transport.send net ~src:node ~dst:client (Lock_grant { obj; reqid })
          end
        | Unlock { obj } -> (
          let o = objects_of.(obj) in
          match o.queue with
          | [] -> o.locked <- false
          | (reqid, client) :: rest ->
            o.queue <- rest;
            Transport.send net ~src:node ~dst:client (Lock_grant { obj; reqid }))
        | Read_req { obj; reqid; client } ->
          let o = objects_of.(obj) in
          Transport.send net ~src:node ~dst:client
            (Read_resp { reqid; value = o.value; version = o.version })
        | Write_req { obj; value; reqid; client } ->
          let o = objects_of.(obj) in
          o.value <- value;
          o.version <- o.version + 1;
          Transport.send net ~src:node ~dst:client
            (Write_ack { reqid; version = o.version })
        | Lock_grant { obj; reqid } ->
          let p = Hashtbl.find pending reqid in
          (match p.to_lock with
          | o :: rest when o = obj -> p.to_lock <- rest
          | _ -> assert false);
          acquire_next reqid p
        | Read_resp { reqid; value; version } -> (
          let p = Hashtbl.find pending reqid in
          match p.cont with
          | `Read k ->
            let obj =
              match p.prog with Prog.Read (o, _) -> o | _ -> assert false
            in
            p.cont <- `Idle;
            p.ops <- Op.read obj value :: p.ops;
            if (not (List.mem obj p.written))
               && not (List.exists (fun (o, _, _) -> o = obj) p.reads)
            then p.reads <- (obj, version, 0) :: p.reads;
            p.prog <- k value;
            step reqid p
          | `Idle | `Write _ -> assert false)
        | Write_ack { reqid; version } -> (
          let p = Hashtbl.find pending reqid in
          match p.cont with
          | `Write rest ->
            let obj, value =
              match p.prog with
              | Prog.Write (o, v, _) -> (o, v)
              | _ -> assert false
            in
            p.cont <- `Idle;
            p.ops <- Op.write obj value :: p.ops;
            p.writes <- (obj, version) :: List.remove_assoc obj p.writes;
            if not (List.mem obj p.written) then p.written <- obj :: p.written;
            p.prog <- rest;
            step reqid p
          | `Idle | `Read _ -> assert false))
  done;
  let invoke ~proc (m : Prog.mprog) ~k =
    let reqid = !next_reqid in
    incr next_reqid;
    let p =
      {
        mprog = m;
        inv = Engine.now engine;
        k;
        proc;
        to_lock = m.Prog.may_touch;
        cont = `Idle;
        prog = m.Prog.prog;
        ops = [];
        reads = [];
        writes = [];
        written = [];
      }
    in
    Hashtbl.replace pending reqid p;
    acquire_next reqid p
  in
  {
    Store.name = "lock";
    invoke;
    messages_sent = (fun () -> Transport.messages_sent net);
  }
