(** Fault injection below the transport: message loss, latency spikes,
    timed partitions and node crash/recovery windows, driven by a
    deterministic PRNG stream; see the interface for semantics. *)

type partition = { from_ : int; until : int; island : int list }

type crash = { node : int; at : int; back : int; wipe : bool }

let crash ?(wipe = false) ~node ~at ~back () = { node; at; back; wipe }

type storage_fault = { node : int; at : int }

type plan = {
  drop : float;
  link_drop : ((int * int) * float) list;
  spike_prob : float;
  spike_delay : int;
  partitions : partition list;
  crashes : crash list;
  tears : storage_fault list;
  rots : storage_fault list;
  stales : storage_fault list;
}

let none =
  {
    drop = 0.0;
    link_drop = [];
    spike_prob = 0.0;
    spike_delay = 0;
    partitions = [];
    crashes = [];
    tears = [];
    rots = [];
    stales = [];
  }

let is_none p = p = none

let check_prob what p =
  (* The negated form also rejects NaN. *)
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Fmt.str "Fault.validate: %s must be in [0,1], got %g" what p)

let check_node ?n what id =
  if id < 0 then invalid_arg (Fmt.str "Fault.validate: negative %s node" what);
  match n with
  | Some n when id >= n ->
    invalid_arg (Fmt.str "Fault.validate: %s node %d out of range [0,%d)" what id n)
  | _ -> ()

let validate ?n plan =
  check_prob "drop" plan.drop;
  List.iter
    (fun ((src, dst), p) ->
      check_node ?n "link" src;
      check_node ?n "link" dst;
      check_prob (Fmt.str "link_drop(%d,%d)" src dst) p)
    plan.link_drop;
  check_prob "spike_prob" plan.spike_prob;
  if plan.spike_delay < 0 then
    invalid_arg "Fault.validate: spike_delay must be non-negative";
  List.iter
    (fun w ->
      if w.from_ < 0 || w.until <= w.from_ then
        invalid_arg "Fault.validate: partition window must satisfy 0 <= from < until";
      if w.island = [] then invalid_arg "Fault.validate: empty partition island";
      List.iter (check_node ?n "partition") w.island)
    plan.partitions;
  List.iter
    (fun (c : crash) ->
      if c.at < 0 || c.back <= c.at then
        invalid_arg "Fault.validate: crash window must satisfy 0 <= at < back";
      check_node ?n "crash" c.node)
    plan.crashes;
  List.iter
    (fun (what, fs) ->
      List.iter
        (fun (f : storage_fault) ->
          if f.at < 0 then
            invalid_arg (Fmt.str "Fault.validate: negative %s instant" what);
          check_node ?n what f.node)
        fs)
    [ ("tear", plan.tears); ("rot", plan.rots); ("stale", plan.stales) ]

let pp_storage_faults what ppf fs =
  if fs <> [] then
    Fmt.pf ppf " %s=%a" what
      Fmt.(
        list ~sep:comma (fun ppf (f : storage_fault) ->
            pf ppf "%d@%d" f.node f.at))
      fs

let pp_plan ppf p =
  Fmt.pf ppf "drop=%g spikes=%g/+%d partitions=%a crashes=%a%a%a%a" p.drop
    p.spike_prob p.spike_delay
    Fmt.(list ~sep:comma (fun ppf w ->
        pf ppf "[%d,%d)x{%a}" w.from_ w.until (list ~sep:semi int) w.island))
    p.partitions
    Fmt.(
      list ~sep:comma (fun ppf (c : crash) ->
          pf ppf "%d:[%d,%d)%s" c.node c.at c.back (if c.wipe then "!" else "")))
    p.crashes (pp_storage_faults "tears") p.tears (pp_storage_faults "rots")
    p.rots
    (pp_storage_faults "stales")
    p.stales

let wipes p = List.filter (fun (c : crash) -> c.wipe) p.crashes

(* {2 The textual plan grammar} *)

(* Repeated in every parse error. *)
let spec_usage =
  "fields are drop=P, spike=P:DELAY, part=FROM:UNTIL:N1+N2+.., \
   crash=NODE:AT:BACK, wipe=NODE:AT:BACK, tear=NODE:AT, rot=NODE:AT, \
   stale=NODE:AT (comma-separated; part/crash/wipe and the storage faults \
   repeatable)"

(* Every parse error names the offending token and repeats the field
   grammar: plans are typed by hand, so a bare [int_of_string]
   exception is not an acceptable diagnostic.  Repeatable fields are
   consed on, so a list comes out in reverse field order. *)
let parse_field plan field =
  (* [field] is the whole comma-separated chunk the bad token sits in;
     quoting both pins the error to its context. *)
  let bad what token =
    failwith
      (Fmt.str "in fault field %S: expected %s, got %S — %s" field what token
         spec_usage)
  in
  let int_in what token =
    match int_of_string_opt token with
    | Some i -> i
    | None -> bad (what ^ " (an integer)") token
  in
  let float_in what token =
    match float_of_string_opt token with
    | Some f -> f
    | None -> bad (what ^ " (a number)") token
  in
  match String.index_opt field '=' with
  | None ->
    failwith (Fmt.str "bad fault field %S (missing '=') — %s" field spec_usage)
  | Some i -> (
    let key = String.sub field 0 i in
    let v = String.sub field (i + 1) (String.length field - i - 1) in
    let storage node at =
      { node = int_in "a node id" node; at = int_in "a fault time" at }
    in
    match (key, String.split_on_char ':' v) with
    | "drop", [ p ] -> { plan with drop = float_in "a probability" p }
    | "spike", [ p; d ] ->
      {
        plan with
        spike_prob = float_in "a probability" p;
        spike_delay = int_in "a spike delay" d;
      }
    | "part", [ from_; until; island ] ->
      let island =
        String.split_on_char '+' island
        |> List.map (int_in "an island node id")
      in
      let w =
        {
          from_ = int_in "a start time" from_;
          until = int_in "an end time" until;
          island;
        }
      in
      { plan with partitions = w :: plan.partitions }
    | ("crash" | "wipe"), [ node; at; back ] ->
      let c =
        {
          node = int_in "a node id" node;
          at = int_in "a crash time" at;
          back = int_in "a restart time" back;
          wipe = key = "wipe";
        }
      in
      { plan with crashes = c :: plan.crashes }
    | "tear", [ node; at ] ->
      { plan with tears = storage node at :: plan.tears }
    | "rot", [ node; at ] -> { plan with rots = storage node at :: plan.rots }
    | "stale", [ node; at ] ->
      { plan with stales = storage node at :: plan.stales }
    | ( ("drop" | "spike" | "part" | "crash" | "wipe" | "tear" | "rot" | "stale"),
        _ ) ->
      failwith
        (Fmt.str
           "bad fault field %S: wrong number of ':'-separated values for %S \
            — %s"
           field key spec_usage)
    | _ ->
      failwith
        (Fmt.str "unknown fault key %S in field %S — %s" key field spec_usage))

let of_spec s =
  try
    let plan =
      match String.trim s with
      | "" -> none
      | s -> List.fold_left parse_field none (String.split_on_char ',' s)
    in
    validate plan;
    Ok plan
  with Failure msg | Invalid_argument msg -> Error msg

(* The shortest decimal that reads back as exactly [f]. *)
let exact_float f =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits >= 17 || float_of_string s = f then s else go (digits + 1)
  in
  go 15

let to_spec p =
  if p.link_drop <> [] then
    invalid_arg "Fault.to_spec: per-link loss has no spec syntax";
  (* Lists print last-first: the parser conses each field on. *)
  let each f l = List.rev_map f l in
  let storage key (f : storage_fault) = Fmt.str "%s=%d:%d" key f.node f.at in
  List.concat
    [
      (if p.drop <> 0.0 then [ "drop=" ^ exact_float p.drop ] else []);
      (if p.spike_prob <> 0.0 || p.spike_delay <> 0 then
         [ Fmt.str "spike=%s:%d" (exact_float p.spike_prob) p.spike_delay ]
       else []);
      each
        (fun w ->
          Fmt.str "part=%d:%d:%s" w.from_ w.until
            (String.concat "+" (List.map string_of_int w.island)))
        p.partitions;
      each
        (fun (c : crash) ->
          Fmt.str "%s=%d:%d:%d"
            (if c.wipe then "wipe" else "crash")
            c.node c.at c.back)
        p.crashes;
      each (storage "tear") p.tears;
      each (storage "rot") p.rots;
      each (storage "stale") p.stales;
    ]
  |> String.concat ","

(* Deterministic random plan for chaos runs.  Every window closes well
   before the ~1200-tick horizon the drivers use, so connectivity (and
   hence convergence) is always eventually restored; crash nodes are
   distinct so a single replica is never wiped twice in one plan. *)
let fuzz ~rng ~n =
  let drop = if Rng.bernoulli rng ~p:0.7 then Rng.float rng *. 0.25 else 0.0 in
  let spike_prob, spike_delay =
    if Rng.bernoulli rng ~p:0.4 then
      (0.05 +. (Rng.float rng *. 0.1), Rng.int_range rng ~lo:20 ~hi:80)
    else (0.0, 0)
  in
  let partitions =
    if n >= 2 && Rng.bernoulli rng ~p:0.4 then begin
      let from_ = Rng.int_range rng ~lo:50 ~hi:400 in
      let until = from_ + Rng.int_range rng ~lo:100 ~hi:400 in
      let size = Rng.int_range rng ~lo:1 ~hi:(n - 1) in
      let nodes = Array.init n (fun i -> i) in
      Rng.shuffle rng nodes;
      let island = List.sort compare (Array.to_list (Array.sub nodes 0 size)) in
      [ { from_; until; island } ]
    end
    else []
  in
  let crashes =
    let k = min n (Rng.int_range rng ~lo:0 ~hi:2) in
    let nodes = Array.init n (fun i -> i) in
    Rng.shuffle rng nodes;
    List.init k (fun i ->
        let at = Rng.int_range rng ~lo:60 ~hi:700 in
        let back = at + Rng.int_range rng ~lo:120 ~hi:500 in
        let wipe = Rng.bernoulli rng ~p:0.7 in
        { node = nodes.(i); at; back; wipe })
  in
  (* Storage faults are drawn after all network draws, so a given seed
     produces the same network plan it did before storage faults
     existed.  Tears ride wipe-crash instants (a torn write needs a
     crash to tear it); rots and stale-checkpoint losses strike any
     node, any time before the heal horizon. *)
  let tears =
    List.filter_map
      (fun c ->
        if c.wipe && Rng.bernoulli rng ~p:0.5 then
          Some { node = c.node; at = c.at }
        else None)
      crashes
  in
  let rots =
    if Rng.bernoulli rng ~p:0.4 then
      List.init
        (Rng.int_range rng ~lo:1 ~hi:2)
        (fun _ ->
          { node = Rng.int rng ~bound:n; at = Rng.int_range rng ~lo:80 ~hi:700 })
    else []
  in
  let stales =
    if Rng.bernoulli rng ~p:0.2 then
      [ { node = Rng.int rng ~bound:n; at = Rng.int_range rng ~lo:100 ~hi:600 } ]
    else []
  in
  {
    drop;
    link_drop = [];
    spike_prob;
    spike_delay;
    partitions;
    crashes;
    tears;
    rots;
    stales;
  }

let up_in_plan p ~now ~node =
  not (List.exists (fun (c : crash) -> c.node = node && c.at <= now && now < c.back) p.crashes)

let crash_instants p =
  List.concat_map (fun (c : crash) -> [ c.at; c.back ]) p.crashes
  |> List.sort_uniq compare

type reason = Loss | Partitioned | Crashed_src | Crashed_dst

type verdict = Deliver of int | Drop of reason

type counts = {
  loss : int;
  partitioned : int;
  crashed : int;
  spikes : int;
  retransmissions : int;
  acks : int;
  abandoned : int;
  duplicates : int;
  restarts : int;
}

type t = {
  plan : plan;
  rng : Rng.t;
  mutable c : counts;
  delays : Stats.t;
  heals : int list;  (** partition heal and crash recovery instants *)
  mutable recovery : int;
}

let create plan ~rng =
  validate plan;
  {
    plan;
    rng;
    c =
      {
        loss = 0;
        partitioned = 0;
        crashed = 0;
        spikes = 0;
        retransmissions = 0;
        acks = 0;
        abandoned = 0;
        duplicates = 0;
        restarts = 0;
      };
    delays = Stats.create ();
    heals =
      List.map (fun w -> w.until) plan.partitions
      @ List.map (fun (c : crash) -> c.back) plan.crashes;
    recovery = 0;
  }

let plan t = t.plan

let node_up t ~now ~node =
  not
    (List.exists
       (fun (c : crash) -> c.node = node && c.at <= now && now < c.back)
       t.plan.crashes)

let severed t ~now ~src ~dst =
  src <> dst
  && List.exists
       (fun w ->
         w.from_ <= now && now < w.until
         && List.mem src w.island <> List.mem dst w.island)
       t.plan.partitions

let drop_prob t ~src ~dst =
  match List.assoc_opt (src, dst) t.plan.link_drop with
  | Some p -> p
  | None -> t.plan.drop

let note_drop t reason =
  t.c <-
    (match reason with
    | Loss -> { t.c with loss = t.c.loss + 1 }
    | Partitioned -> { t.c with partitioned = t.c.partitioned + 1 }
    | Crashed_src | Crashed_dst -> { t.c with crashed = t.c.crashed + 1 })

let judge t ~now ~src ~dst =
  let verdict =
    if not (node_up t ~now ~node:src) then Drop Crashed_src
    else if severed t ~now ~src ~dst then Drop Partitioned
    else begin
      let p = drop_prob t ~src ~dst in
      if p > 0.0 && Rng.bernoulli t.rng ~p then Drop Loss
      else if
        t.plan.spike_prob > 0.0 && Rng.bernoulli t.rng ~p:t.plan.spike_prob
      then begin
        t.c <- { t.c with spikes = t.c.spikes + 1 };
        Deliver t.plan.spike_delay
      end
      else Deliver 0
    end
  in
  (match verdict with Drop r -> note_drop t r | Deliver _ -> ());
  verdict

let note_retransmission t =
  t.c <- { t.c with retransmissions = t.c.retransmissions + 1 }

let note_ack t = t.c <- { t.c with acks = t.c.acks + 1 }

let note_abandoned t = t.c <- { t.c with abandoned = t.c.abandoned + 1 }

let note_duplicate t = t.c <- { t.c with duplicates = t.c.duplicates + 1 }

let note_restart t = t.c <- { t.c with restarts = t.c.restarts + 1 }

let note_delivery t ~sent ~delivered =
  Stats.add t.delays (delivered - sent);
  List.iter
    (fun heal ->
      if sent < heal && delivered >= heal then
        t.recovery <- max t.recovery (delivered - heal))
    t.heals

let counts t = t.c

let dropped t = t.c.loss + t.c.partitioned + t.c.crashed

let delivery_delay t = Stats.summarize t.delays

let recovery_time t = t.recovery
