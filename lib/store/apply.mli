(** Shared program-application logic: execute a program against a
    replica's object copy and version vector, collecting what the
    recorder needs; written objects' versions bump once each after the
    program finishes (action (A2)'s [ts[x]++]).  {!run} is the one
    execution every store shares; the rest are its common instances. *)

open Mmc_core

type applied = {
  result : Value.t;
  ops : Op.t list;
  reads : (Types.obj_id * int * int) list;
      (** external reads: (object, version read, namespace) *)
  writes : (Types.obj_id * int * int) list;
      (** final writes: (object, new version, namespace) *)
}

exception Query_wrote of Types.obj_id

(** [run ?ns_of ?version ~query x ts ~ns prog] runs [prog] against the
    copy [x], whose object [o] holds version [ts.(o)] in namespace
    [ns_of.(o)] ([ns] for every object without [ns_of]).

    A read of [o] is external, and reported with that version and
    namespace, unless [prog] read or wrote [o] before.  A write stores
    its value in [x]; with [query] it raises {!Query_wrote} instead
    (the caller declared an empty write set).  Once [prog] finishes,
    each object it wrote takes version [version o] (default
    [ts.(o) + 1]) in namespace [ns], in [ts] and [ns_of]. *)
val run :
  ?ns_of:int array ->
  ?version:(Types.obj_id -> int) ->
  query:bool ->
  Value.t array ->
  int array ->
  ns:int ->
  Prog.t ->
  applied

(** Apply an update (or any) program, mutating the copy and the
    version vector. *)
val update : Value.t array -> int array -> ns:int -> Prog.t -> applied

(** [update] for a replica that does not record the update: the copy
    and the version vector end as {!update} leaves them (one bump per
    written object), but nothing is traced and the result is dropped. *)
val update_untraced : Value.t array -> int array -> Prog.t -> unit

(** Namespace-tracking update for stores whose replica state mixes
    version namespaces (the [seg] store): [ns_of.(o)] holds the
    namespace of object [o]'s current version — reads report it,
    writes re-home the object under [writer_ns]. *)
val update_ns :
  Value.t array -> int array -> int array -> writer_ns:int -> Prog.t -> applied

(** Apply a query program to a snapshot; raises {!Query_wrote} if it
    writes. *)
val query : Value.t array -> int array -> ns:int -> Prog.t -> applied

(** Namespace-tracking query (see {!update_ns}). *)
val query_ns : Value.t array -> int array -> int array -> Prog.t -> applied
