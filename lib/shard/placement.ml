(** Object-space partitioning (see the interface).

    Local ids are assigned in ascending global-id order within each
    shard, so translating a sorted global object list shard-by-shard
    yields sorted local lists — the stores' [may_write]/[may_touch]
    invariants survive translation for free. *)

type t = {
  n_shards : int;
  n_objects : int;
  shard : int array;  (** global object id -> shard *)
  local : int array;  (** global object id -> local id on its shard *)
  globals : int array array;  (** shard -> local id -> global object id *)
}

let build ~n_shards ~n_objects shard =
  let counts = Array.make n_shards 0 in
  let local = Array.make n_objects 0 in
  Array.iteri
    (fun x s ->
      local.(x) <- counts.(s);
      counts.(s) <- counts.(s) + 1)
    shard;
  let globals = Array.init n_shards (fun s -> Array.make counts.(s) 0) in
  Array.iteri (fun x s -> globals.(s).(local.(x)) <- x) shard;
  { n_shards; n_objects; shard; local; globals }

(* Fibonacci (multiplicative) hashing: spreads consecutive ids without
   a per-object table; the classic 2^32 / golden-ratio constant. *)
let fib_hash x = (x + 1) * 0x9E3779B1 land max_int

let hash ~n_shards ~n_objects =
  if n_shards < 1 then invalid_arg "Placement.hash: n_shards must be >= 1";
  build ~n_shards ~n_objects
    (Array.init n_objects (fun x -> fib_hash x mod n_shards))

let round_robin ~n_shards ~n_objects =
  if n_shards < 1 then
    invalid_arg "Placement.round_robin: n_shards must be >= 1";
  build ~n_shards ~n_objects (Array.init n_objects (fun x -> x mod n_shards))

let explicit ~n_shards assign =
  if n_shards < 1 then invalid_arg "Placement.explicit: n_shards must be >= 1";
  Array.iteri
    (fun x s ->
      if s < 0 || s >= n_shards then
        invalid_arg
          (Fmt.str "Placement.explicit: object %d assigned to shard %d outside \
                    [0,%d)"
             x s n_shards))
    assign;
  build ~n_shards ~n_objects:(Array.length assign) (Array.copy assign)

let n_shards t = t.n_shards
let n_objects t = t.n_objects

let shard_of_obj t x =
  if x < 0 || x >= t.n_objects then
    invalid_arg (Fmt.str "Placement.shard_of_obj: object %d out of range" x);
  t.shard.(x)

let to_local t x =
  if x < 0 || x >= t.n_objects then
    invalid_arg (Fmt.str "Placement.to_local: object %d out of range" x);
  t.local.(x)

let to_global t s l = t.globals.(s).(l)
let size t s = Array.length t.globals.(s)
let objects_of t s = Array.to_list t.globals.(s)

let shards_of t objs =
  List.map (shard_of_obj t) objs |> List.sort_uniq Int.compare

let pp ppf t =
  Fmt.pf ppf "@[<h>%d objects over %d shards:%a@]" t.n_objects t.n_shards
    (Fmt.iter ~sep:Fmt.nop Array.iter (fun ppf g ->
         Fmt.pf ppf " [%a]" Fmt.(array ~sep:comma int) g))
    t.globals
