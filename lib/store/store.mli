(** Client-facing interface of a replicated multi-object store.

    Processes are sequential: a client must not invoke again before its
    previous continuation fired (histories stay well-formed). *)

open Mmc_core

type t = {
  name : string;
  invoke : proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit;
  messages_sent : unit -> int;
}

val invoke : t -> proc:int -> Prog.mprog -> k:(Value.t -> unit) -> unit
val messages_sent : t -> int
val name : t -> string

type kind =
  | Msc  (** Figure 4: m-sequential consistency *)
  | Mlin  (** Figure 6: m-linearizability *)
  | Central  (** centralized serial server (baseline) *)
  | Local  (** unsynchronized local copies (inconsistent baseline) *)
  | Causal  (** causal propagation (Raynal et al., weaker baseline) *)
  | Lock  (** distributed strict two-phase locking over sharded owners *)
  | Aw  (** Attiya–Welch clock-based linearizability (needs delay bound) *)
  | Rmsc  (** recoverable msc: WAL + checkpoints + catch-up (Rstore) *)
  | Seg
      (** coordination-avoidance fast path: confluent m-operations
          apply locally, sequenced ones escalate to the broadcast
          behind a flush barrier (Seg_store) *)

val pp_kind : Format.formatter -> kind -> unit
val kind_of_string : string -> kind option

(** The condition a store's traces are checked against: m-sequential
    consistency for Figure 4 and the stores built on it ([Msc],
    [Rmsc], [Seg]) and for the [Local] baseline it is expected to
    fail; m-linearizability for Figure 6 and the other baselines.
    This is the one store→condition table; every driver and checker
    caller takes its flavour from here. *)
val flavour : kind -> History.flavour

(** Whether a store's update records carry synchronization positions:
    the broadcast stores' and [Central]'s serial order.  Theorem 7's
    WW constraint orders updates by these positions, so the
    [Runner.check_trace] and [Shard_runner.check] verdict of any other
    store's trace is a constraint violation, whatever the run did. *)
val records_sync : kind -> bool
