(** Centralized baseline: one server executes every m-operation
    serially.

    The classical alternative to the paper's replicated protocols:
    trivially m-linearizable (the server is the sequential witness and
    every execution happens between invocation and response), but every
    operation — query or update — pays a round trip to the server, and
    the server is a throughput bottleneck. *)

open Mmc_core
open Mmc_sim

type msg =
  | Exec of { origin : int; mprog : Prog.mprog; inv : Types.time; reqid : int }
  | Result of {
      reqid : int;
      applied : Apply.applied;
      start_ts : Version_vector.t;
      finish_ts : Version_vector.t;
      inv : Types.time;
      position : int;  (** serial execution position at the server *)
    }

let server_node = 0

let create ?fault engine ~n ~n_objects ~latency ~rng ~recorder : Store.t =
  let x = Array.make n_objects Value.initial in
  let ts = Array.make n_objects 0 in
  let net = Transport.create ?fault engine ~n ~latency ~rng:(Rng.split rng) in
  let conts : (int, Value.t -> unit) Hashtbl.t = Hashtbl.create 16 in
  let next_reqid = ref 0 in
  let exec_count = ref 0 in
  for node = 0 to n - 1 do
    Transport.set_handler net node (fun _src msg ->
        match msg with
        | Exec { origin; mprog; inv; reqid } ->
          assert (node = server_node);
          let start_ts = Array.copy ts in
          let position = !exec_count in
          incr exec_count;
          let applied = Apply.update x ts ~ns:0 mprog.Prog.prog in
          Transport.send net ~src:node ~dst:origin
            (Result
               {
                 reqid;
                 applied;
                 start_ts;
                 finish_ts = Array.copy ts;
                 inv;
                 position;
               })
        | Result { reqid; applied; start_ts; finish_ts; inv; position } ->
          let k = Hashtbl.find conts reqid in
          Hashtbl.remove conts reqid;
          Recorder.add recorder
            (Recorder.make ~proc:node ~inv ~resp:(Engine.now engine) ~start_ts
               ~finish_ts
               ?sync:(if applied.Apply.writes = [] then None else Some position)
               applied);
          k applied.Apply.result)
  done;
  let invoke ~proc (m : Prog.mprog) ~k =
    let reqid = !next_reqid in
    incr next_reqid;
    Hashtbl.replace conts reqid k;
    Transport.send net ~src:proc ~dst:server_node
      (Exec { origin = proc; mprog = m; inv = Engine.now engine; reqid })
  in
  {
    Store.name = "central";
    invoke;
    messages_sent = (fun () -> Transport.messages_sent net);
  }
