(** Unsynchronized baseline: every replica applies every m-operation to
    its own copy only, with no communication.

    Executions are generally {e not} m-sequentially consistent — two
    replicas' writes are never reconciled.  This store exists so the
    experiments can demonstrate that the checkers actually discriminate
    (the protocol stores always pass; this one must fail whenever
    replicas race on shared objects). *)

open Mmc_core
open Mmc_sim

let create engine ~n ~n_objects ~recorder : Store.t =
  let xs = Array.init n (fun _ -> Array.make n_objects Value.initial) in
  let tss = Array.init n (fun _ -> Array.make n_objects 0) in
  let invoke ~proc (m : Prog.mprog) ~k =
    let now = Engine.now engine in
    let ts = tss.(proc) in
    let start_ts = Array.copy ts in
    (* Versions are namespaced per replica: replicas' counters are
       unrelated. *)
    let applied = Apply.update xs.(proc) ts ~ns:(proc + 1) m.Prog.prog in
    Recorder.add recorder
      (Recorder.make ~proc ~inv:now ~resp:now ~start_ts
         ~finish_ts:(Array.copy ts) applied);
    k applied.Apply.result
  in
  { Store.name = "local"; invoke; messages_sent = (fun () -> 0) }
