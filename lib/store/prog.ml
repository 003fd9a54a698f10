(** m-operation programs.

    The paper models an m-operation as a "deterministic procedure" of
    read and write operations on shared objects: later operations may
    depend on values read earlier (so the objects actually written can
    depend on the execution).  We represent this as a free-monad-style
    program.

    The system cannot in general know the write set beforehand; the
    protocols take the paper's conservative approach and classify an
    m-operation as an update iff it {e may} write ([may_write] is a
    superset of the objects possibly written). *)

open Mmc_core

type t =
  | Done of Value.t  (** finish, returning a result *)
  | Read of Types.obj_id * (Value.t -> t)
  | Write of Types.obj_id * Value.t * t

(** A program together with its conservative write set, its
    conservative touch set (everything it may read or write — what a
    locking implementation must lock), and a label for diagnostics. *)
type mprog = {
  prog : t;
  may_write : Types.obj_id list;
  may_touch : Types.obj_id list;  (** superset of may_write *)
  label : string;
}

let mprog ?(label = "") ?may_touch ~may_write prog =
  let may_write = List.sort_uniq Int.compare may_write in
  let may_touch =
    match may_touch with
    | None -> may_write
    | Some t -> List.sort_uniq Int.compare (t @ may_write)
  in
  { prog; may_write; may_touch; label }

(** A query in the protocol sense: cannot write at all. *)
let is_query m = m.may_write = []

(** {1 Combinators} *)

let return v = Done v

let read x k = Read (x, k)

let write x v p = Write (x, v, p)

(** Sequence of blind writes. *)
let write_all pairs =
  List.fold_right (fun (x, v) p -> Write (x, v, p)) pairs (Done Value.Unit)

(** Read several objects and pass the values, in order, to [k]. *)
let read_all xs k =
  let rec go acc = function
    | [] -> k (List.rev acc)
    | x :: rest -> Read (x, fun v -> go (v :: acc) rest)
  in
  go [] xs

(** Run a program against [read]/[write] effect handlers, returning the
    result.  Handlers are total; the store layers provide them. *)
let rec run p ~read:rd ~write:wr =
  match p with
  | Done v -> v
  | Read (x, k) -> run (k (rd x)) ~read:rd ~write:wr
  | Write (x, v, rest) ->
    wr x v;
    run rest ~read:rd ~write:wr

(** Run against a plain value array (pure helper for tests and the
    workload generator's oracle). *)
let run_on_array p (arr : Value.t array) =
  run p ~read:(fun x -> arr.(x)) ~write:(fun x v -> arr.(x) <- v)

(** Static upper bound on the objects a program can touch (walks all
    branches is impossible — continuations are opaque — so this only
    covers the spine reachable without reads; used by tests). *)
let rec static_writes = function
  | Done _ -> []
  | Read _ -> []
  | Write (x, _, rest) -> x :: static_writes rest
