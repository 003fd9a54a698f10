(** Multi-object operation experiments (P5): DCAS under contention —
    the paper's motivating operation — through the replicated stores. *)

open Mmc_core
open Mmc_store
open Mmc_sim
open Mmc_broadcast

(* Contended counter-style DCAS: each client repeatedly reads the pair,
   then attempts a DCAS from the values it saw to incremented values.
   Under m-linearizability the pair stays synchronized (x1 = x0 at
   quiescence if all DCAS increment both by 1). *)
let run_dcas ~kind ~n_procs ~attempts ~seed =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Recorder.create ~n_objects:2 in
  let latency = Latency.Uniform (5, 15) in
  let store =
    match kind with
    | Store.Mlin ->
      Mlin_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng
        ~abcast_impl:Abcast.Sequencer_impl ~recorder
    | Store.Central ->
      Central_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng ~recorder
    | Store.Msc ->
      Msc_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng
        ~abcast_impl:Abcast.Sequencer_impl ~recorder
    | Store.Local -> Local_store.create engine ~n:n_procs ~n_objects:2 ~recorder
    | Store.Causal ->
      Causal_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng ~recorder
    | Store.Lock ->
      Lock_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng ~recorder
    | Store.Aw ->
      Aw_store.create engine ~n:n_procs ~n_objects:2 ~latency ~rng ~recorder
    | Store.Rmsc | Store.Seg ->
      invalid_arg "exp_objects: not ablated here"
  in
  let successes = ref 0 in
  let ops = ref 0 in
  let lat = Stats.create () in
  let rec client proc remaining () =
    if remaining > 0 then begin
      let t0 = Engine.now engine in
      (* Optimistic read-then-DCAS. *)
      Store.invoke store ~proc (Mmc_objects.Massign.snapshot [ 0; 1 ])
        ~k:(fun snap ->
          match snap with
          | Value.List [ v0; v1 ] ->
            Engine.schedule engine ~delay:1 (fun () ->
                Store.invoke store ~proc
                  (Mmc_objects.Dcas.dcas 0 1 ~old1:v0 ~old2:v1
                     ~new1:(Value.Int (Value.to_int v0 + 1))
                     ~new2:(Value.Int (Value.to_int v1 + 1)))
                  ~k:(fun r ->
                    incr ops;
                    Stats.add lat (Engine.now engine - t0);
                    if Value.equal r (Value.Bool true) then incr successes;
                    Engine.schedule engine ~delay:2
                      (client proc (remaining - 1))))
          | _ -> failwith "bad snapshot")
    end
  in
  for p = 0 to n_procs - 1 do
    Engine.schedule engine ~delay:(1 + p) (client p attempts)
  done;
  Engine.run engine;
  let h, _ = Recorder.to_history recorder in
  (!successes, !ops, Stats.summarize lat, h)

let p5 ?(procs = [ 1; 2; 4; 8 ]) ?(attempts = 10) () =
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun kind ->
            let succ, ops, lat, _ = run_dcas ~kind ~n_procs:n ~attempts ~seed:5 in
            [
              Table.i n;
              Fmt.str "%a" Store.pp_kind kind;
              Table.i ops;
              Table.i succ;
              Table.f2 (float_of_int succ /. float_of_int (max 1 ops));
              Table.f1 lat.Stats.mean;
            ])
          [ Store.Mlin; Store.Central ])
      procs
  in
  {
    Table.id = "P5";
    title = "DCAS under contention: optimistic read-then-DCAS loop";
    header =
      [ "procs"; "store"; "attempts"; "successes"; "success rate"; "mean lat" ];
    rows;
    notes =
      [
        "success rate falls with contention: snapshots go stale between \
         read and DCAS";
        "both stores keep the operation atomic; they differ in cost, not \
         semantics";
      ];
  }
