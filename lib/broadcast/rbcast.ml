(** Recoverable atomic broadcast: position-tagged total-order delivery
    (see the interface). *)

type stats = {
  epochs : int;
  syncs : int;
  holes : int;
  fenced : int;
  resubmits : int;
  retracted : int;
  sync_entries : int;
}

let zero_stats =
  {
    epochs = 0;
    syncs = 0;
    holes = 0;
    fenced = 0;
    resubmits = 0;
    retracted = 0;
    sync_entries = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "epochs %d, syncs %d, holes %d, fenced %d, resubmits %d, retracted %d, \
     sync entries %d"
    s.epochs s.syncs s.holes s.fenced s.resubmits s.retracted s.sync_entries

type 'p delivery = Payload of 'p | Hole | Retract

type 'p t = {
  name : string;
  broadcast : src:int -> 'p -> unit;
  release : node:int -> pos:int -> origin:int -> oseq:int -> unit;
  messages_sent : unit -> int;
  stats : unit -> stats;
  detector_stats : unit -> Mmc_sim.Detector.stats option;
}

let broadcast t ~src payload = t.broadcast ~src payload
let release t ~node ~pos ~origin ~oseq = t.release ~node ~pos ~origin ~oseq
let messages_sent t = t.messages_sent ()
let name t = t.name
let stats t = t.stats ()
let detector_stats t = t.detector_stats ()

type 'p factory =
  ?duplicate:float ->
  ?fault:Mmc_sim.Fault.t ->
  ?reliable:Mmc_sim.Reliable.config ->
  ?batch:Batch.t ->
  ?detector:Mmc_sim.Detector.config ->
  ?fit:(int -> bool) ->
  Mmc_sim.Engine.t ->
  n:int ->
  latency:Mmc_sim.Latency.t ->
  rng:Mmc_sim.Rng.t ->
  deliver:(node:int -> origin:int -> pos:int -> 'p delivery -> unit) ->
  'p t

(* Adapt a plain atomic broadcast: its per-node delivery order is the
   total order, so the delivery count at each node IS the global
   position.  The numbering must survive wipe-crashes along with the
   underlying implementation's ordering state (a persistent-logical-
   clock discipline); only the store's object state is volatile.
   Positions are final on delivery — no holes, no retractions, no
   failure detector, and nothing kept to release. *)
let of_abcast (f : 'p Abcast.factory) : 'p factory =
 fun ?duplicate ?fault ?reliable ?batch ?detector:_ ?fit:_ engine ~n ~latency
     ~rng ~deliver ->
  let counts = Array.make n 0 in
  let ab =
    f ?duplicate ?fault ?reliable ?batch engine ~n ~latency ~rng
      ~deliver:(fun ~node ~origin payload ->
        let pos = counts.(node) in
        counts.(node) <- pos + 1;
        deliver ~node ~origin ~pos (Payload payload))
  in
  {
    name = Abcast.name ab ^ "+pos";
    broadcast = (fun ~src payload -> Abcast.broadcast ab ~src payload);
    release = (fun ~node:_ ~pos:_ ~origin:_ ~oseq:_ -> ());
    messages_sent = (fun () -> Abcast.messages_sent ab);
    stats = (fun () -> zero_stats);
    detector_stats = (fun () -> None);
  }
