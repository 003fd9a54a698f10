(** Open-loop soak harness (see soak.mli).

    The moving parts, in event order:

    - an exponential {e arrival} process enqueues work independent of
      service latency;
    - a {e dispatcher} hands queued arrivals to idle clients of a fixed
      pool (one tick after a client's previous response, keeping
      process subhistories sequential);
    - every response {e pumps}: drains the recorder, holds records in a
      reordering buffer until the watermark — the earliest invocation
      any in-flight or future m-operation can still have — passes
      them, then feeds them to the windowed checker in (inv, resp)
      order;
    - a daemon {e sampler} snapshots latency quantiles and checker
      metrics at a fixed virtual-time cadence. *)

open Mmc_core
open Mmc_sim
open Mmc_store

let flavour_of_kind = function
  | Store.Mlin -> History.Mlin
  | _ -> History.Msc

type config = {
  runner : Runner.config;
  rate : int;
  max_ops : int;
  max_time : int option;
  window : int;
  settle : int;
  sample_every : int;
  corrupt : int option;
  verify_full : bool;
}

let default_config =
  {
    runner = { Runner.default_config with n_objects = 16 };
    rate = 8;
    max_ops = 10_000;
    max_time = None;
    window = Window_check.default_window;
    settle = Window_check.default_settle;
    sample_every = 0;
    corrupt = None;
    verify_full = false;
  }

type sample = {
  s_now : int;
  s_completed : int;
  s_queue : int;
  s_interval : Stats.quantiles;
  s_wc : Window_check.metrics;
}

type result = {
  verdict : Window_check.verdict;
  wc : Window_check.metrics;
  arrived : int;
  completed : int;
  duration : int;
  messages : int;
  events : int;
  latency : Stats.quantiles;
  query_latency : Stats.quantiles;
  update_latency : Stats.quantiles;
  max_queue : int;
  samples : int;
  full_verdict : string option;
  agreement : bool option;
}

(* Rewrite one read-modify-write record to have observed a version two
   behind what it really read: reading [v - 2] while the writer of
   [v - 1] synchronizes before the record is exactly a Theorem-7
   illegal triple, so the checker must FAIL.  (Reading [v - 1] would
   not do: that is merely the previous version, legal under m-SC.)
   [vals] maps (object, version) to the value written, so the read's
   observed value can be patched consistently. *)
let corrupt_record vals (r : Recorder.record) =
  let writes_obj x =
    List.exists (fun (y, _, _) -> y = x) r.Recorder.writes
  in
  let value_of x v =
    if v = 0 then Some Value.initial else Hashtbl.find_opt vals (x, v)
  in
  let rec pick = function
    | [] -> None
    | (x, v, ns) :: rest ->
      if v >= 2 && writes_obj x then
        match value_of x (v - 2) with
        | Some value -> Some (x, v - 2, ns, value)
        | None -> pick rest
      else pick rest
  in
  match pick r.Recorder.reads with
  | None -> None
  | Some (x, v', ns, value) ->
    let replaced = ref false in
    let ops =
      List.map
        (fun op ->
          match op with
          | Op.Read (y, _) when y = x && not !replaced ->
            replaced := true;
            Op.read x value
          | op -> op)
        r.Recorder.ops
    in
    let reads =
      List.map
        (fun (y, v, n) -> if y = x then (y, v', ns) else (y, v, n))
        r.Recorder.reads
    in
    Some { r with Recorder.ops; reads }

let run ?(on_sample = fun (_ : sample) -> ()) ~seed ~workload cfg =
  let rcfg = cfg.runner in
  if cfg.rate < 1 then
    invalid_arg "Soak.run: rate (mean inter-arrival) must be >= 1";
  if cfg.max_ops <= 0 && cfg.max_time = None then
    invalid_arg "Soak.run: unbounded soak (no max_ops, no max_time)";
  (match rcfg.Runner.kind with
  | Store.Msc | Store.Mlin | Store.Rmsc | Store.Seg -> ()
  | k ->
    invalid_arg
      (Fmt.str "Soak.run: store kind %a has no synchronization order"
         Store.pp_kind k));
  let n_procs = rcfg.Runner.n_procs in
  let n_objects = rcfg.Runner.n_objects in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Recorder.create ~n_objects in
  let store_rng = Rng.split rng in
  let client_rngs = Array.init n_procs (fun _ -> Rng.split rng) in
  let arrival_rng = Rng.split rng in
  Fault.validate ~n:n_procs rcfg.Runner.fault;
  let fault =
    if Fault.is_none rcfg.Runner.fault then None
    else Some (Fault.create rcfg.Runner.fault ~rng:(Rng.split rng))
  in
  let fhandle = ref None in
  let store =
    Runner.make_store ?fault
      ~fsink:(fun h -> fhandle := Some h)
      rcfg engine ~rng:store_rng ~recorder
  in
  let wc =
    Window_check.create ~window:cfg.window ~settle:cfg.settle
      ~flavour:(flavour_of_kind rcfg.Runner.kind)
      ~n_objects ()
  in
  (* Clients. *)
  let queue : int Queue.t = Queue.create () in
  let idle : int Queue.t = Queue.create () in
  for p = 0 to n_procs - 1 do
    Queue.add p idle
  done;
  let steps = Array.make n_procs 0 in
  let in_flight = Array.make n_procs max_int in
  let arrived = ref 0 in
  let completed = ref 0 in
  let max_queue = ref 0 in
  let lat_all = Stats.create () in
  let lat_q = Stats.create () in
  let lat_u = Stats.create () in
  let interval = ref (Stats.create ()) in
  let n_samples = ref 0 in
  (* Reordering buffer and corruption bookkeeping. *)
  let buffer : Recorder.record list ref = ref [] in
  let kept : Recorder.record list ref = ref [] in
  let vals : (int * int, Value.t) Hashtbl.t = Hashtbl.create 256 in
  let n_fed = ref 0 in
  let corrupted = ref false in
  (* The Seg store records a fast operation only when a later barrier
     carries it into the global order, so the reorder watermark must
     also wait for its oldest still-buffered record. *)
  let watermark () =
    let wm = Array.fold_left min (Engine.now engine) in_flight in
    match !fhandle with
    | None -> wm
    | Some h -> (
      match h.Seg_store.oldest_pending () with
      | None -> wm
      | Some t -> min wm t)
  in
  let cmp_rec (a : Recorder.record) (b : Recorder.record) =
    compare
      (a.Recorder.inv, a.Recorder.resp, a.Recorder.proc)
      (b.Recorder.inv, b.Recorder.resp, b.Recorder.proc)
  in
  let feed_one (r : Recorder.record) =
    let r =
      match cfg.corrupt with
      | Some n when (not !corrupted) && !n_fed >= n -> (
        match corrupt_record vals r with
        | Some r' ->
          corrupted := true;
          r'
        | None -> r)
      | _ -> r
    in
    (* Only [corrupt] reads the (object, version) -> value table. *)
    if cfg.corrupt <> None then begin
      let last = Hashtbl.create 4 in
      List.iter
        (fun op ->
          match op with
          | Op.Write (x, value) -> Hashtbl.replace last x value
          | Op.Read _ -> ())
        r.Recorder.ops;
      List.iter
        (fun (x, v, _) ->
          match Hashtbl.find_opt last x with
          | Some value -> Hashtbl.replace vals (x, v) value
          | None -> ())
        r.Recorder.writes
    end;
    incr n_fed;
    if cfg.verify_full then kept := r :: !kept;
    Window_check.feed wc (Window_check.entry_of_record r)
  in
  let pump ~final () =
    buffer := List.rev_append (Recorder.drain recorder) !buffer;
    let wm = watermark () in
    let ready, rest =
      List.partition
        (fun (r : Recorder.record) -> final || r.Recorder.inv < wm)
        !buffer
    in
    buffer := rest;
    if ready <> [] then List.iter feed_one (List.sort cmp_rec ready)
  in
  let stopping () =
    (cfg.max_ops > 0 && !arrived >= cfg.max_ops)
    || (match cfg.max_time with
       | Some t -> Engine.now engine >= t
       | None -> false)
    || (match Window_check.verdict wc with
       | Window_check.Pass -> false
       | _ -> true)
  in
  let rec dispatch () =
    if not (Queue.is_empty queue || Queue.is_empty idle) then begin
      let t_arr = Queue.pop queue in
      let proc = Queue.pop idle in
      let m = workload client_rngs.(proc) ~proc ~step:steps.(proc) in
      steps.(proc) <- steps.(proc) + 1;
      in_flight.(proc) <- Engine.now engine;
      let is_query = Prog.is_query m in
      Store.invoke store ~proc m ~k:(fun _result ->
          incr completed;
          let lat = Engine.now engine - t_arr in
          Stats.add lat_all lat;
          Stats.add (if is_query then lat_q else lat_u) lat;
          if cfg.sample_every > 0 then Stats.add !interval lat;
          in_flight.(proc) <- max_int;
          pump ~final:false ();
          (* The one-tick gap keeps this client's subhistory
             sequential (resp strictly before its next inv). *)
          Engine.schedule engine ~delay:1 (fun () ->
              Queue.add proc idle;
              dispatch ()));
      dispatch ()
    end
  in
  let iat () = Rng.exponential_int arrival_rng ~mean:cfg.rate in
  let rec arrive () =
    if not (stopping ()) then begin
      incr arrived;
      Queue.add (Engine.now engine) queue;
      if Queue.length queue > !max_queue then max_queue := Queue.length queue;
      dispatch ();
      if not (stopping ()) then Engine.schedule engine ~delay:(iat ()) arrive
    end
  in
  Engine.schedule engine ~delay:(iat ()) arrive;
  if cfg.sample_every > 0 then begin
    let rec sample () =
      incr n_samples;
      on_sample
        {
          s_now = Engine.now engine;
          s_completed = !completed;
          s_queue = Queue.length queue;
          s_interval = Stats.percentiles !interval;
          s_wc = Window_check.metrics wc;
        };
      interval := Stats.create ();
      Engine.schedule ~daemon:true engine ~delay:cfg.sample_every sample
    in
    Engine.schedule ~daemon:true engine ~delay:cfg.sample_every sample
  end;
  Engine.run engine;
  Option.iter (fun (h : Seg_store.handle) -> h.Seg_store.finalize ()) !fhandle;
  pump ~final:true ();
  let verdict = Window_check.finish wc in
  let full_verdict, agreement =
    if not cfg.verify_full then (None, None)
    else
      match
        let rec2 = Recorder.of_records ~n_objects (List.rev !kept) in
        let h, _, sync_order = Recorder.to_history_full rec2 in
        Runner.check_history h ~sync_order
          ~flavour:(flavour_of_kind rcfg.Runner.kind)
      with
      | exception History.Ill_formed msg ->
        (Some (Fmt.str "ill-formed: %s" msg), None)
      | exception Recorder.Inconsistent_versions msg ->
        (Some (Fmt.str "inconsistent versions: %s" msg), None)
      | res ->
        let adm =
          match res with Check_constrained.Admissible _ -> true | _ -> false
        in
        let agree =
          match verdict with
          | Window_check.Pass -> Some adm
          | Window_check.Fail _ -> Some (not adm)
          | Window_check.Inconclusive _ -> None
        in
        let word =
          if adm then "admissible"
          else Fmt.str "%a" Check_constrained.pp_result res
        in
        (Some word, agree)
  in
  {
    verdict;
    wc = Window_check.metrics wc;
    arrived = !arrived;
    completed = !completed;
    duration = Engine.now engine;
    messages = Store.messages_sent store;
    events = Engine.executed engine;
    latency = Stats.percentiles lat_all;
    query_latency = Stats.percentiles lat_q;
    update_latency = Stats.percentiles lat_u;
    max_queue = !max_queue;
    samples = !n_samples;
    full_verdict;
    agreement;
  }

let verify_sharded ?arena ~window ~settle ~flavour
    (res : Mmc_shard.Shard_runner.result) =
  let arena =
    match arena with Some a -> a | None -> Relation.Arena.create ()
  in
  let recorders = res.Mmc_shard.Shard_runner.recorders in
  let metrics = ref [] in
  let verdicts =
    Array.map
      (fun r ->
        let h, _, sync_order = Recorder.to_history_full r in
        let wc =
          Window_check.create ~arena ~window ~settle ~flavour
            ~n_objects:(History.n_objects h) ()
        in
        Window_check.feed_history wc h ~sync_order;
        let v = Window_check.finish wc in
        metrics := Window_check.metrics wc :: !metrics;
        v)
      recorders
  in
  (verdicts, List.rev !metrics)
