(** Shared program-application logic for the protocol stores (see the
    interface): one run of a program against a replica's copy, version
    vector and namespaces. *)

open Mmc_core

type applied = {
  result : Value.t;
  ops : Op.t list;
  reads : (Types.obj_id * int * int) list;  (** (object, version, ns) *)
  writes : (Types.obj_id * int * int) list;  (** (object, new version, ns) *)
}

exception Query_wrote of Types.obj_id

(* What a run has seen so far, newest first.  One mutable record and
   the top-level helpers below, rather than refs and per-read closures,
   keep what a run allocates to its ops, reads and writes: every store
   runs every m-operation through here. *)
type trace = {
  mutable ops : Op.t list;
  mutable reads : (Types.obj_id * int * int) list;
  mutable written : Types.obj_id list;  (** first writes *)
}

(* [List.mem] at type int: the stdlib's compares polymorphically. *)
let rec mem (o : Types.obj_id) = function
  | [] -> false
  | o' :: rest -> o' = o || mem o rest

let rec read_before (o : Types.obj_id) = function
  | [] -> false
  | (o', _, _) :: rest -> o' = o || read_before o rest

(* Give each written object its new version and namespace [ns]: the
   newest first write first, so the list comes out oldest first —
   action (A2)'s [ts[x]++], once per object. *)
let rec establish ts ns_of ns version acc = function
  | [] -> acc
  | o :: rest ->
    let v = match version with None -> ts.(o) + 1 | Some f -> f o in
    ts.(o) <- v;
    (match ns_of with Some a -> a.(o) <- ns | None -> ());
    establish ts ns_of ns version ((o, v, ns) :: acc) rest

let run ?ns_of ?version ~query x ts ~ns prog =
  let t = { ops = []; reads = []; written = [] } in
  let read o =
    let v = x.(o) in
    t.ops <- Op.read o v :: t.ops;
    if not (mem o t.written || read_before o t.reads) then
      t.reads <-
        (o, ts.(o), match ns_of with Some a -> a.(o) | None -> ns) :: t.reads;
    v
  in
  let write o v =
    if query then raise (Query_wrote o);
    t.ops <- Op.write o v :: t.ops;
    x.(o) <- v;
    if not (mem o t.written) then t.written <- o :: t.written
  in
  let result = Prog.run prog ~read ~write in
  {
    result;
    ops = List.rev t.ops;
    reads = List.rev t.reads;
    writes = establish ts ns_of ns version [] t.written;
  }

let update x ts ~ns prog = run ~query:false x ts ~ns prog

(* [update]'s untraced instance: the same writes to the copy and the
   same once-per-object version bumps [establish] makes, with no ops,
   reads or writes lists. *)
let update_untraced x ts prog =
  let written = ref [] in
  let write o v =
    x.(o) <- v;
    if not (mem o !written) then written := o :: !written
  in
  ignore (Prog.run prog ~read:(Array.get x) ~write);
  List.iter (fun o -> ts.(o) <- ts.(o) + 1) !written

let update_ns x ts ns_of ~writer_ns prog =
  run ~ns_of ~query:false x ts ~ns:writer_ns prog

let query x ts ~ns prog = run ~query:true x ts ~ns prog
let query_ns x ts ns_of prog = run ~ns_of ~query:true x ts ~ns:0 prog
