(* One soak-benchmark run per process; run.py drives it.

     soakbench.exe setup   WORKLOAD SEED [OPS]  exit at the first generated m-operation
     soakbench.exe run     WORKLOAD SEED [OPS]  untraced: the library's own entry points
     soakbench.exe traced  WORKLOAD SEED [OPS]  mirror of those entry points with
                                                per-layer spans, plus checker kernels
     soakbench.exe control SEED                 msc-mixed with one injected stale
                                                read; the verdict must be FAIL

   Each mode prints one JSON object on one line.  [OPS] overrides the
   workload's m-operation count (reduced-size tests). *)

open Mmc_core
open Mmc_sim
open Mmc_store
module Soak = Mmc_stream.Soak
module Wc = Mmc_stream.Window_check
module Placement = Mmc_shard.Placement
module Shard_runner = Mmc_shard.Shard_runner
module Shard_store = Mmc_shard.Shard_store
module Generator = Mmc_workload.Generator
module Spec = Mmc_workload.Spec

let now = Unix.gettimeofday

(* --- JSON output ------------------------------------------------------- *)

type json = I of int | F of float | S of string | B of bool | L of json list

let rec json_str = function
  | I i -> string_of_int i
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | L l -> "[" ^ String.concat "," (List.map json_str l) ^ "]"

let emit fields =
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_str v)) fields)
    ^ "}")

(* --- workloads --------------------------------------------------------- *)

type gen = Rng.t -> proc:int -> step:int -> Prog.mprog

type shape =
  | Open of Soak.config  (** open loop through [Soak.run] *)
  | Sharded of Runner.config * Placement.t
      (** closed loop through [Shard_runner.run], verified per shard *)

type workload = { shape : shape; gen : gen }

let runner_of = function Open c -> c.Soak.runner | Sharded (c, _) -> c
let flavour w = Soak.flavour_of_kind (runner_of w.shape).Runner.kind

let open_loop ?(skew = 0.0) ?(fault = Fault.none) ?detector ~kind ~procs
    ~objects ~rate ~read_ratio ops =
  let spec = { Spec.default with n_objects = objects; read_ratio; skew } in
  let runner =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = objects;
      kind;
      fault;
      detector;
    }
  in
  {
    shape = Open { Soak.default_config with runner; rate; max_ops = ops };
    gen = Generator.mixed spec;
  }

let seg_sharded ops =
  let procs = 8 and objects = 32 in
  let placement = Placement.hash ~n_shards:4 ~n_objects:objects in
  let cfg =
    {
      Runner.default_config with
      n_procs = procs;
      n_objects = objects;
      kind = Store.Seg;
      ops_per_proc = max 1 (ops / procs);
    }
  in
  {
    shape = Sharded (cfg, placement);
    gen =
      Generator.sharded_counter_commute ~commute_ratio:0.9 ~n_procs:procs
        placement
        { Spec.default with n_objects = objects };
  }

(* name, default m-operation count, constructor *)
let workloads =
  [
    ( "msc-mixed",
      60_000,
      fun ops ->
        open_loop ~kind:Store.Msc ~procs:4 ~objects:16 ~rate:8 ~read_ratio:0.5
          ops );
    ( "mlin-hot",
      25_000,
      fun ops ->
        open_loop ~skew:0.99 ~kind:Store.Mlin ~procs:4 ~objects:16 ~rate:8
          ~read_ratio:0.2 ops );
    ( "rmsc-lossy",
      20_000,
      (* Suspect a replica only after 16 missed beats: with the default
         4, 5% loss causes occasional false takeovers (see NOTES.md). *)
      fun ops ->
        open_loop
          ~fault:{ Fault.none with drop = 0.05 }
          ~detector:{ Detector.heartbeat_every = 25; suspect_after = 400 }
          ~kind:Store.Rmsc ~procs:5 ~objects:24 ~rate:6 ~read_ratio:0.5 ops );
    ("seg-sharded", 12_000, seg_sharded);
  ]

let workload name ops =
  match List.find_opt (fun (n, _, _) -> n = name) workloads with
  | Some (_, default_ops, make) -> make (Option.value ops ~default:default_ops)
  | None -> invalid_arg ("unknown workload " ^ name)

let verdict_word = function
  | Wc.Pass -> "PASS"
  | Wc.Fail _ -> "FAIL"
  | Wc.Inconclusive _ -> "INCONCLUSIVE"

(* What the traced mirror must reproduce of the untraced run. *)
type outcome = {
  verdicts : string list;  (** one per checker (one per shard) *)
  arrived : int;
  completed : int;
  lat_n : int;
  p50 : float;
  p99 : float;
  epochs : int;
}

let outcome_fields o =
  [
    ("verdicts", L (List.map (fun v -> S v) o.verdicts));
    ("arrived", I o.arrived);
    ("completed", I o.completed);
    ("lat_n", I o.lat_n);
    ("p50", F o.p50);
    ("p99", F o.p99);
    ("epochs", I o.epochs);
  ]

let gc_fields () =
  let s = Gc.quick_stat () in
  [
    ("top_heap_words", I s.Gc.top_heap_words);
    ("minor_words", F s.Gc.minor_words);
    ("major_words", F s.Gc.major_words);
    ("major_collections", I s.Gc.major_collections);
  ]

(* Wrap the generator to note when the first m-operation is generated
   (the end of set-up) and how many were generated. *)
let t_first = ref 0.0
let n_gen = ref 0
let setup_only = ref false

let instrument (gen : gen) : gen =
 fun rng ~proc ~step ->
  if !n_gen = 0 then begin
    t_first := now ();
    if !setup_only then begin
      emit [ ("t_first", F !t_first) ];
      exit 0
    end
  end;
  incr n_gen;
  gen rng ~proc ~step

let sum_checks ms = List.fold_left (fun a (m : Wc.metrics) -> a + m.Wc.checks) 0 ms

(* --- untraced: the library's entry points ------------------------------ *)

let untraced ~seed w =
  let gen = instrument w.gen in
  let t0 = now () in
  let o =
    match w.shape with
    | Open cfg ->
      let r = Soak.run ~seed ~workload:gen cfg in
      {
        verdicts = [ verdict_word r.Soak.verdict ];
        arrived = r.Soak.arrived;
        completed = r.Soak.completed;
        lat_n = r.Soak.latency.Stats.q_count;
        p50 = r.Soak.latency.Stats.q50;
        p99 = r.Soak.latency.Stats.q99;
        epochs = r.Soak.wc.Wc.checks;
      }
    | Sharded (cfg, placement) ->
      let res = Shard_runner.run ~seed ~placement cfg ~workload:gen in
      let verdicts, ms =
        Soak.verify_sharded ~window:Wc.default_window
          ~settle:Wc.default_settle ~flavour:(flavour w) res
      in
      let u = res.Shard_runner.update_latency in
      {
        verdicts = Array.to_list (Array.map verdict_word verdicts);
        arrived = !n_gen;
        completed = res.Shard_runner.completed;
        lat_n = u.Stats.count;
        p50 = float_of_int u.Stats.p50;
        p99 = float_of_int u.Stats.p99;
        epochs = sum_checks ms;
      }
  in
  let t_end = now () in
  emit
    ([ ("t0", F t0); ("t_first", F !t_first); ("t_end", F t_end) ]
    @ outcome_fields o @ gc_fields ())

(* --- traced: spans around each layer's calls --------------------------- *)

(* Self-time accounting.  Each span charges the time since the last
   boundary to the layer on top of the stack, so a layer's self time
   excludes the spans nested inside it and the layers sum to wall. *)
module Span = struct
  let names =
    [|
      "harness"; "soak"; "workload"; "store"; "sim"; "recorder"; "reorder";
      "entry"; "feed"; "finish"; "stitch"; "history";
    |]

  let l_harness = 0
  let l_soak = 1
  let l_workload = 2
  let l_store = 3
  let l_sim = 4
  let l_recorder = 5
  let l_reorder = 6
  let l_entry = 7
  let l_feed = 8
  let l_finish = 9
  let l_stitch = 10
  let l_history = 11
  let self = Array.make (Array.length names) 0.0
  let stack = Array.make 256 l_harness
  let depth = ref 0
  let last = ref 0.0

  let start () =
    depth := 0;
    last := now ();
    !last

  let charge () =
    let t = now () in
    let top = stack.(!depth) in
    self.(top) <- self.(top) +. (t -. !last);
    last := t;
    t

  let enter l =
    let t = charge () in
    incr depth;
    stack.(!depth) <- l;
    t

  let leave () =
    let t = charge () in
    decr depth;
    t

  let span l f =
    ignore (enter l);
    let v = f () in
    ignore (leave ());
    v
end

(* Epoch-check feeds: durations of the [Window_check.feed] calls that
   ran at least one epoch check. *)
let epoch_times = ref []

let timed_feed wc checks e =
  ignore (Span.enter Span.l_entry);
  let e = e () in
  let ta = Span.enter Span.l_feed in
  Wc.feed wc e;
  let tb = Span.leave () in
  ignore (Span.leave ());
  let c = Span.span Span.l_harness (fun () -> (Wc.metrics wc).Wc.checks) in
  if c > !checks then begin
    epoch_times := (tb -. ta) :: !epoch_times;
    checks := c
  end

type traced = {
  out : outcome;
  wc_metrics : Wc.metrics list;
  events : int;
  messages : int;
  fault : Fault.t option;
  rstore : Rstore.handle option list;
  seg : Seg_store.handle option list;
  router : Mmc_shard.Router.stats option;
  t_run : float;  (** end of the simulated run (sharded: before verify) *)
}

(* Mirror of [Soak.run] (no sampler, no corruption, no full check):
   same RNG split order, same dispatch, pump and feed order. *)
let traced_open ~seed (cfg : Soak.config) gen =
  let open Span in
  let rcfg = cfg.Soak.runner in
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
  let rhandle = ref None and fhandle = ref None in
  let store =
    Runner.make_store ?fault
      ~sink:(fun h -> rhandle := Some h)
      ~fsink:(fun h -> fhandle := Some h)
      rcfg engine ~rng:store_rng ~recorder
  in
  let wc =
    Wc.create ~window:cfg.Soak.window ~settle:cfg.Soak.settle
      ~flavour:(Soak.flavour_of_kind rcfg.Runner.kind)
      ~n_objects ()
  in
  let queue : int Queue.t = Queue.create () in
  let idle : int Queue.t = Queue.create () in
  for p = 0 to n_procs - 1 do
    Queue.add p idle
  done;
  let steps = Array.make n_procs 0 in
  let in_flight = Array.make n_procs max_int in
  let arrived = ref 0 and completed = ref 0 and max_queue = ref 0 in
  let lat_all = Stats.create () in
  let lat_q = Stats.create () in
  let lat_u = Stats.create () in
  let interval = Stats.create () in
  let buffer : Recorder.record list ref = ref [] in
  let vals : (int * int, Value.t) Hashtbl.t = Hashtbl.create 256 in
  let checks = ref 0 in
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
    (* [Soak.run] keeps this (object, version) -> value table on every
       run, though only [corrupt] reads it. *)
    (let last = Hashtbl.create 4 in
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
       r.Recorder.writes);
    timed_feed wc checks (fun () -> Wc.entry_of_record r)
  in
  let pump ~final () =
    let drained = span l_recorder (fun () -> Recorder.drain recorder) in
    let ready =
      span l_reorder (fun () ->
          buffer := List.rev_append drained !buffer;
          let wm = watermark () in
          let ready, rest =
            List.partition
              (fun (r : Recorder.record) -> final || r.Recorder.inv < wm)
              !buffer
          in
          buffer := rest;
          if ready <> [] then List.sort cmp_rec ready else [])
    in
    List.iter feed_one ready
  in
  let stopping () =
    (cfg.Soak.max_ops > 0 && !arrived >= cfg.Soak.max_ops)
    || (match cfg.Soak.max_time with
       | Some t -> Engine.now engine >= t
       | None -> false)
    || match Wc.verdict wc with Wc.Pass -> false | _ -> true
  in
  let rec dispatch () =
    if not (Queue.is_empty queue || Queue.is_empty idle) then begin
      let t_arr = Queue.pop queue in
      let proc = Queue.pop idle in
      let m =
        span l_workload (fun () -> gen client_rngs.(proc) ~proc ~step:steps.(proc))
      in
      steps.(proc) <- steps.(proc) + 1;
      in_flight.(proc) <- Engine.now engine;
      let is_query = Prog.is_query m in
      span l_store (fun () ->
          Store.invoke store ~proc m ~k:(fun _result ->
              span l_soak (fun () ->
                  incr completed;
                  let lat = Engine.now engine - t_arr in
                  Stats.add lat_all lat;
                  Stats.add (if is_query then lat_q else lat_u) lat;
                  Stats.add interval lat;
                  in_flight.(proc) <- max_int;
                  pump ~final:false ();
                  Engine.schedule engine ~delay:1 (fun () ->
                      span l_soak (fun () ->
                          Queue.add proc idle;
                          dispatch ())))));
      dispatch ()
    end
  in
  let iat () = Rng.exponential_int arrival_rng ~mean:cfg.Soak.rate in
  let rec arrive () =
    span l_soak (fun () ->
        if not (stopping ()) then begin
          incr arrived;
          Queue.add (Engine.now engine) queue;
          if Queue.length queue > !max_queue then
            max_queue := Queue.length queue;
          dispatch ();
          if not (stopping ()) then
            Engine.schedule engine ~delay:(iat ()) arrive
        end)
  in
  Engine.schedule engine ~delay:(iat ()) arrive;
  span l_sim (fun () -> Engine.run engine);
  span l_store (fun () ->
      Option.iter (fun (h : Seg_store.handle) -> h.Seg_store.finalize ()) !fhandle);
  pump ~final:true ();
  let verdict = span l_finish (fun () -> Wc.finish wc) in
  let t_run = now () in
  let q = Stats.percentiles lat_all in
  let m = Wc.metrics wc in
  {
    out =
      {
        verdicts = [ verdict_word verdict ];
        arrived = !arrived;
        completed = !completed;
        lat_n = q.Stats.q_count;
        p50 = q.Stats.q50;
        p99 = q.Stats.q99;
        epochs = m.Wc.checks;
      };
    wc_metrics = [ m ];
    events = Engine.executed engine;
    messages = Store.messages_sent store;
    fault;
    rstore = [ !rhandle ];
    seg = [ !fhandle ];
    router = None;
    t_run;
  }

(* Mirror of [Shard_runner.run] followed by [Soak.verify_sharded] (with
   [Window_check.feed_history] unrolled, so each feed is timed). *)
let traced_sharded ~seed (cfg : Runner.config) placement gen ~flavour =
  let open Span in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let store_rng = Rng.split rng in
  let query_stats = Stats.create () in
  let update_stats = Stats.create () in
  let completed = ref 0 in
  let client_rngs = Array.init cfg.Runner.n_procs (fun _ -> Rng.split rng) in
  Fault.validate ~n:cfg.Runner.n_procs cfg.Runner.fault;
  let fault =
    if Fault.is_none cfg.Runner.fault then None
    else Some (Fault.create cfg.Runner.fault ~rng:(Rng.split rng))
  in
  let sharded = Shard_store.create ?fault cfg engine ~placement ~rng:store_rng in
  let store = Shard_store.store sharded in
  let rec step proc i () =
    span l_soak (fun () ->
        if i < cfg.Runner.ops_per_proc then begin
          let m = span l_workload (fun () -> gen client_rngs.(proc) ~proc ~step:i) in
          let t0 = Engine.now engine in
          let is_query = Prog.is_query m in
          span l_store (fun () ->
              Store.invoke store ~proc m ~k:(fun _result ->
                  span l_soak (fun () ->
                      incr completed;
                      let lat = Engine.now engine - t0 in
                      Stats.add (if is_query then query_stats else update_stats) lat;
                      let think =
                        Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
                          ~hi:cfg.Runner.think_hi
                      in
                      Engine.schedule engine ~delay:think (step proc (i + 1)))))
        end)
  in
  for proc = 0 to cfg.Runner.n_procs - 1 do
    let start =
      Rng.int_range client_rngs.(proc) ~lo:cfg.Runner.think_lo
        ~hi:cfg.Runner.think_hi
    in
    Engine.schedule engine ~delay:start (step proc 0)
  done;
  span l_sim (fun () -> Engine.run engine);
  let fastpath = Shard_store.fastpath sharded in
  span l_store (fun () ->
      Array.iter
        (Option.iter (fun (h : Seg_store.handle) -> h.Seg_store.finalize ()))
        fastpath);
  let recorders = Shard_store.recorders sharded in
  ignore (span l_stitch (fun () -> Mmc_shard.Shard_recorder.stitch placement recorders));
  let router = Mmc_shard.Router.stats (Shard_store.router sharded) in
  let t_run = now () in
  let arena = Relation.Arena.create () in
  let verify r =
    let h, _, sync_order = span l_history (fun () -> Recorder.to_history_full r) in
    let wc =
      Wc.create ~arena ~window:Wc.default_window ~settle:Wc.default_settle
        ~flavour ~n_objects:(History.n_objects h) ()
    in
    let checks = ref 0 in
    let pos = Hashtbl.create 64 in
    List.iteri (fun i id -> Hashtbl.replace pos id i) sync_order;
    List.iter
      (fun (m : Mop.t) ->
        timed_feed wc checks (fun () ->
            let sync = Hashtbl.find_opt pos m.Mop.id in
            let reads =
              List.map
                (fun (e : History.rf_edge) -> (e.History.obj, Wc.Gid e.History.writer))
                (History.rf_of_reader h m.Mop.id)
            in
            let writes =
              List.map
                (fun (x, value) ->
                  let v = match sync with Some p -> p + 1 | None -> 0 in
                  (x, v, value))
                (Mop.final_writes m)
            in
            {
              Wc.proc = m.Mop.proc;
              inv = m.Mop.inv;
              resp = m.Mop.resp;
              ops = m.Mop.ops;
              reads;
              writes;
              sync;
            }))
      (History.real_mops h);
    let v = span l_finish (fun () -> Wc.finish wc) in
    (v, Wc.metrics wc)
  in
  let results = Array.to_list (Array.map verify recorders) in
  let u = Stats.summarize update_stats in
  let ms = List.map snd results in
  {
    out =
      {
        verdicts = List.map (fun (v, _) -> verdict_word v) results;
        arrived = !n_gen;
        completed = !completed;
        lat_n = u.Stats.count;
        p50 = float_of_int u.Stats.p50;
        p99 = float_of_int u.Stats.p99;
        epochs = sum_checks ms;
      };
    wc_metrics = ms;
    events = Engine.executed engine;
    messages = Store.messages_sent store;
    fault;
    rstore = Array.to_list (Shard_store.recovery sharded);
    seg = Array.to_list fastpath;
    router = Some router;
    t_run;
  }

(* --- checker kernels at window size ------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A window-sized trace of the workload's own store and generator. *)
let window_trace ~seed w =
  let window = Wc.default_window in
  match w.shape with
  | Open cfg ->
    let rcfg = cfg.Soak.runner in
    let n = rcfg.Runner.n_procs in
    let r =
      Runner.run ~seed
        { rcfg with ops_per_proc = (window + n - 1) / n }
        ~workload:w.gen
    in
    (r.Runner.history, r.Runner.sync_order)
  | Sharded (cfg, placement) ->
    (* Enough ops that shard 0 alone holds about a window. *)
    let ops = window * Placement.n_shards placement in
    let res =
      Shard_runner.run ~seed ~placement
        { cfg with ops_per_proc = (ops + cfg.Runner.n_procs - 1) / cfg.Runner.n_procs }
        ~workload:w.gen
    in
    let h, _, sync_order = Recorder.to_history_full res.Shard_runner.recorders.(0) in
    (h, sync_order)

let kernels ~seed w =
  let flavour = flavour w in
  let h, sync_order = window_trace ~seed w in
  let closure () =
    let inc = Check_constrained.Incremental.create (History.n_mops h) in
    Check_constrained.Incremental.add_edges inc (History.base_edges h flavour);
    let rec link = function
      | a :: (b :: _ as rest) ->
        Check_constrained.Incremental.add_edge inc a b;
        link rest
      | [ _ ] | [] -> ()
    in
    link sync_order;
    inc
  in
  let time f =
    let t = now () in
    let v = f () in
    (now () -. t, v)
  in
  let reps = 15 in
  let cl = ref [] and tr = ref [] and lg = ref [] and ck = ref [] in
  let ok = ref true and n_triples = ref 0 in
  for _ = 1 to reps do
    let t_cl, inc = time closure in
    let t_tr, triples = time (fun () -> Legality.interfering_triples h) in
    let t_lg, legal =
      time (fun () ->
          Legality.is_legal ~triples h (Check_constrained.Incremental.relation inc))
    in
    let t_ck, res =
      time (fun () -> Check_constrained.Incremental.check inc h Constraints.WW)
    in
    (match res with
    | Check_constrained.Admissible _ -> ()
    | _ -> ok := false);
    if not legal then ok := false;
    n_triples := List.length triples;
    cl := t_cl :: !cl;
    tr := t_tr :: !tr;
    lg := t_lg :: !lg;
    ck := t_ck :: !ck
  done;
  let us l = median l *. 1e6 in
  [
    ("k_ok", B !ok);
    ("k_mops", I (History.n_mops h));
    ("k_closure_us", F (us !cl));
    ("k_triples_us", F (us !tr));
    ("k_legality_us", F (us !lg));
    ("k_witness_us", F (us !ck -. us !tr -. us !lg));
    ("k_triples", I !n_triples);
  ]

let traced ~seed w =
  let gen = instrument w.gen in
  let t0 = Span.start () in
  let r =
    Span.span Span.l_soak (fun () ->
        match w.shape with
        | Open cfg -> traced_open ~seed cfg gen
        | Sharded (cfg, placement) ->
          traced_sharded ~seed cfg placement gen ~flavour:(flavour w))
  in
  let t_end = Span.charge () in
  let sum_w f = List.fold_left (fun a m -> a + f m) 0 r.wc_metrics in
  let max_w f = List.fold_left (fun a m -> max a (f m)) 0 r.wc_metrics in
  let handles l = List.filter_map Fun.id l in
  let rs = handles r.rstore and segs = handles r.seg in
  let sum_h l f = List.fold_left (fun a h -> a + f h) 0 l in
  let logs f =
    sum_h rs (fun (h : Rstore.handle) ->
        Array.fold_left (fun a s -> a + f s) 0 (h.Rstore.log_stats ()))
  in
  let bcast f = sum_h rs (fun (h : Rstore.handle) -> f (h.Rstore.broadcast_stats ())) in
  let seg f = sum_h segs (fun (h : Seg_store.handle) -> f h.Seg_store.stats) in
  let fault_counts =
    match r.fault with
    | None -> (0, 0)
    | Some f -> ((Fault.counts f).Fault.retransmissions, Fault.dropped f)
  in
  let cross, single =
    match r.router with
    | None -> (0, 0)
    | Some s -> (s.Mmc_shard.Router.cross_shard, s.Mmc_shard.Router.single_shard)
  in
  emit
    ([
       ("t0", F t0);
       ("t_first", F !t_first);
       ("t_run", F r.t_run);
       ("t_end", F t_end);
       ("n_gen", I !n_gen);
       ("sharded", B (r.router <> None));
       ("self", L (Array.to_list (Array.map (fun s -> F s) Span.self)));
       ("self_names", L (Array.to_list (Array.map (fun s -> S s) Span.names)));
       ("epoch_feed_ms", F (median !epoch_times *. 1e3));
       ("epoch_feeds", I (List.length !epoch_times));
       ("events", I r.events);
       ("messages", I r.messages);
       ("retransmissions", I (fst fault_counts));
       ("drops", I (snd fault_counts));
       ("resubmits", I (bcast (fun s -> s.Mmc_broadcast.Rbcast.resubmits)));
       ("bcast_epochs", I (bcast (fun s -> s.Mmc_broadcast.Rbcast.epochs)));
       ("appends", I (logs (fun s -> s.Mmc_recovery.Rlog.appends)));
       ("checkpoints", I (logs (fun s -> s.Mmc_recovery.Rlog.checkpoints)));
       ("stability_acks", I (sum_h rs (fun h -> h.Rstore.stability_acks ())));
       ("fed", I (sum_w (fun m -> m.Wc.fed)));
       ("max_live", I (max_w (fun m -> m.Wc.max_live)));
       ("max_resident_words", I (sum_w (fun m -> m.Wc.max_resident_words)));
       (* Every shard checker shares one arena: take the last reading. *)
       ( "arena_hits",
         I (List.fold_left (fun _ m -> m.Wc.arena_hits) 0 r.wc_metrics) );
       ( "arena_misses",
         I (List.fold_left (fun _ m -> m.Wc.arena_misses) 0 r.wc_metrics) );
       ("cross_shard", I cross);
       ("single_shard", I single);
       ("fast_local", I (seg (fun s -> s.Seg_store.fast + s.Seg_store.fast_queries)));
       ("escalated", I (seg (fun s -> s.Seg_store.escalated)));
       ("flushes", I (seg (fun s -> s.Seg_store.flushes)));
     ]
    @ outcome_fields r.out @ kernels ~seed w)

(* --- negative control -------------------------------------------------- *)

let control ~seed =
  let w = workload "msc-mixed" (Some 5_000) in
  match w.shape with
  | Open cfg ->
    let r =
      Soak.run ~seed ~workload:w.gen { cfg with Soak.corrupt = Some 1_000 }
    in
    emit [ ("verdict", S (verdict_word r.Soak.verdict)) ]
  | Sharded _ -> assert false

let () =
  let usage () =
    prerr_endline
      "usage: soakbench.exe (setup|run|traced) WORKLOAD SEED [OPS] | control SEED";
    exit 2
  in
  match Array.to_list Sys.argv |> List.tl with
  | [ "control"; seed ] -> control ~seed:(int_of_string seed)
  | mode :: name :: seed :: rest -> (
    let ops =
      match rest with [] -> None | [ n ] -> Some (int_of_string n) | _ -> usage ()
    in
    let w = workload name ops and seed = int_of_string seed in
    match mode with
    | "setup" ->
      setup_only := true;
      untraced ~seed w
    | "run" -> untraced ~seed w
    | "traced" -> traced ~seed w
    | _ -> usage ())
  | _ -> usage ()
