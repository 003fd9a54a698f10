(** Execution histories.

    A history is a set of m-operations together with an irreflexive
    transitive relation containing at least the process orders and the
    reads-from relation (paper, Section 2.2).  We store the
    m-operations (slot 0 is always the imaginary initializing
    m-operation) and the reads-from relation explicitly, at the
    granularity of (reader, object, writer) triples; coarser relations
    are derived on demand. *)

type rf_edge = {
  reader : Types.mop_id;
  obj : Types.obj_id;
  writer : Types.mop_id;
}
[@@deriving eq]

let pp_rf_edge ppf e =
  Fmt.pf ppf "#%d --x%d--> #%d" e.writer e.obj e.reader

type t = {
  n_objects : int;
  mops : Mop.t array;  (** index = id; slot 0 is the initializer *)
  rf : rf_edge list;
  rf_by_reader : rf_edge list array;
      (** index = reader id; each reader's edges in [rf] order *)
}

exception Ill_formed of string

let ill_formed fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

(** [create ~n_objects mops ~rf] builds a history from the real
    m-operations [mops] (the initializer is added automatically; real
    m-operations must carry ids [1 .. length mops] matching their list
    position) and reads-from triples [rf].

    Raises {!Ill_formed} if identifiers are wrong, an operation touches
    an object outside [0 .. n_objects-1], a process subhistory is not
    sequential, or [rf] is inconsistent with the operations (missing or
    duplicated edge for an external read, value mismatch, writer not
    writing the object). *)
let create ~n_objects mops ~rf =
  let arr = Array.of_list (Mop.initializer_ ~n_objects :: mops) in
  Array.iteri
    (fun i (m : Mop.t) ->
      if m.Mop.id <> i then
        ill_formed "m-operation at position %d has id %d" i m.Mop.id;
      List.iter
        (fun op ->
          let x = Op.obj op in
          if x < 0 || x >= n_objects then
            ill_formed "m-operation #%d touches object x%d outside range" i x)
        m.Mop.ops)
    arr;
  (* Reads-from indexed by reader once, so the coverage check below is
     linear in |rf| rather than one scan of [rf] per external read. *)
  let rf_by_reader = Array.make (Array.length arr) [] in
  List.iter
    (fun e ->
      if e.reader >= 0 && e.reader < Array.length arr then
        rf_by_reader.(e.reader) <- e :: rf_by_reader.(e.reader))
    (List.rev rf);
  let h = { n_objects; mops = arr; rf; rf_by_reader } in
  (* Process subhistories must be sequential: same-process intervals
     may not overlap. *)
  let by_proc = Hashtbl.create 8 in
  Array.iter
    (fun (m : Mop.t) ->
      if m.Mop.id <> Types.init_mop then
        Hashtbl.replace by_proc m.Mop.proc
          (m :: (Option.value ~default:[] (Hashtbl.find_opt by_proc m.Mop.proc))))
    arr;
  Hashtbl.iter
    (fun proc ms ->
      let ms =
        List.sort (fun (a : Mop.t) (b : Mop.t) -> compare a.Mop.inv b.Mop.inv) ms
      in
      let rec check = function
        | a :: (b :: _ as rest) ->
          if not (Mop.rt_precedes a b) then
            ill_formed
              "process P%d subhistory not sequential: #%d [%d,%d] overlaps \
               #%d [%d,%d]"
              proc a.Mop.id a.Mop.inv a.Mop.resp b.Mop.id b.Mop.inv b.Mop.resp;
          check rest
        | [ _ ] | [] -> ()
      in
      check ms)
    by_proc;
  (* Reads-from must cover each external read exactly once, with
     matching values. *)
  Array.iter
    (fun (m : Mop.t) ->
      if m.Mop.id <> Types.init_mop then
        List.iter
          (fun (x, v) ->
            match List.filter (fun e -> e.obj = x) rf_by_reader.(m.Mop.id) with
            | [] ->
              ill_formed "no reads-from edge for read of x%d by #%d" x m.Mop.id
            | [ e ] -> (
              if e.writer = e.reader then
                ill_formed "#%d reads-from itself on x%d" m.Mop.id x;
              if e.writer < 0 || e.writer >= Array.length arr then
                ill_formed "reads-from writer #%d out of range" e.writer;
              match Mop.final_write_value arr.(e.writer) x with
              | None ->
                ill_formed "#%d has no (final) write to x%d but #%d reads from it"
                  e.writer x m.Mop.id
              | Some w ->
                if not (Value.equal w v) then
                  ill_formed
                    "#%d reads %s from x%d but writer #%d wrote %s"
                    m.Mop.id (Value.show v) x e.writer (Value.show w))
            | _ :: _ :: _ ->
              ill_formed "duplicate reads-from edges for read of x%d by #%d" x
                m.Mop.id)
          (Mop.external_reads m))
    arr;
  List.iter
    (fun e ->
      if e.reader <= 0 || e.reader >= Array.length arr then
        ill_formed "reads-from reader #%d out of range" e.reader)
    rf;
  h

let n_objects t = t.n_objects

(** Number of m-operations including the initializer. *)
let n_mops t = Array.length t.mops

let mop t id =
  if id < 0 || id >= Array.length t.mops then
    invalid_arg (Fmt.str "History.mop: id %d out of range" id);
  t.mops.(id)

(** All m-operations including the initializer, by id. *)
let mops t = t.mops

(** Real m-operations (excluding the initializer). *)
let real_mops t = Array.to_list t.mops |> List.tl

let rf t = t.rf

(** Reads-from triples of a given reader, in [rf] order ([[]] for an
    id outside the history). *)
let rf_of_reader t id =
  if id < 0 || id >= Array.length t.rf_by_reader then []
  else t.rf_by_reader.(id)

(** [rfobjects t a b] — objects that [a] reads from [b] (D 4.3's
    [rfobjects(H, a, b)]). *)
let rfobjects t a b =
  List.filter_map
    (fun e -> if e.writer = b then Some e.obj else None)
    (rf_of_reader t a)
  |> List.sort_uniq compare

let procs t =
  real_mops t
  |> List.map (fun (m : Mop.t) -> m.Mop.proc)
  |> List.sort_uniq compare

(** Process-order edges: consecutive pairs per process plus the
    initializer before every real m-operation (transitive closure is
    taken by consumers). *)
let proc_order_edges t =
  let edges = ref [] in
  List.iter
    (fun p ->
      let ms =
        real_mops t
        |> List.filter (fun (m : Mop.t) -> m.Mop.proc = p)
        |> List.sort (fun (a : Mop.t) (b : Mop.t) -> compare a.Mop.inv b.Mop.inv)
      in
      let rec link = function
        | a :: (b :: _ as rest) ->
          edges := (a.Mop.id, b.Mop.id) :: !edges;
          link rest
        | [ _ ] | [] -> ()
      in
      link ms)
    (procs t);
  List.iter
    (fun (m : Mop.t) -> edges := (Types.init_mop, m.Mop.id) :: !edges)
    (real_mops t);
  !edges

(** Reads-from edges at m-operation granularity (deduplicated). *)
let rf_mop_edges t =
  List.map (fun e -> (e.writer, e.reader)) t.rf |> List.sort_uniq compare

(** Real-time order [~t]: all pairs with resp(a) < inv(b). *)
let rt_edges t =
  let ms = Array.to_list t.mops in
  List.concat_map
    (fun (a : Mop.t) ->
      List.filter_map
        (fun (b : Mop.t) ->
          if a.Mop.id <> b.Mop.id && Mop.rt_precedes a b then
            Some (a.Mop.id, b.Mop.id)
          else None)
        ms)
    ms

(** Object order [~X]: real-time pairs sharing an object. *)
let obj_edges t =
  let ms = Array.to_list t.mops in
  List.concat_map
    (fun (a : Mop.t) ->
      List.filter_map
        (fun (b : Mop.t) ->
          if a.Mop.id <> b.Mop.id && Mop.obj_precedes a b then
            Some (a.Mop.id, b.Mop.id)
          else None)
        ms)
    ms

(** Which extra ordering, beyond process order and reads-from, the
    relation [~H] of a history carries — this is what distinguishes the
    consistency conditions (Section 2.3). *)
type flavour =
  | Msc  (** m-sequential consistency: process order + reads-from *)
  | Mnorm  (** m-normality: + object order *)
  | Mlin  (** m-linearizability: + real-time order *)

let pp_flavour ppf = function
  | Msc -> Fmt.string ppf "m-sequential-consistency"
  | Mnorm -> Fmt.string ppf "m-normality"
  | Mlin -> Fmt.string ppf "m-linearizability"

(** Edges of the base relation [~H] of the given flavour, as a stream:
    initializer-first, process order, reads-from, then the flavour's
    extra order.  This is what {!base_relation} materializes; callers
    maintaining a closure incrementally (e.g. over a growing trace)
    consume the stream edge by edge instead. *)
let base_edges t flavour =
  let init =
    List.init (n_mops t - 1) (fun j -> (Types.init_mop, j + 1))
  in
  let extra =
    match flavour with
    | Msc -> []
    | Mnorm -> obj_edges t
    | Mlin -> rt_edges t
  in
  init @ proc_order_edges t @ rf_mop_edges t @ extra

(** Base relation [~H] of the given flavour (not transitively closed). *)
let base_relation t flavour =
  let r = Relation.create (n_mops t) in
  Relation.add_edges r (base_edges t flavour);
  r

(** Infer the reads-from relation from values: possible only when each
    external read's value identifies a unique (final) writer.  Returns
    [Error msg] when a read is ambiguous or unreadable. *)
let infer_rf ~n_objects mops =
  let all = Mop.initializer_ ~n_objects :: mops in
  let edges = ref [] in
  let err = ref None in
  List.iter
    (fun (m : Mop.t) ->
      if m.Mop.id <> Types.init_mop && !err = None then
        List.iter
          (fun (x, v) ->
            if !err = None then
              let writers =
                List.filter
                  (fun (w : Mop.t) ->
                    w.Mop.id <> m.Mop.id
                    &&
                    match Mop.final_write_value w x with
                    | Some wv -> Value.equal wv v
                    | None -> false)
                  all
              in
              match writers with
              | [ w ] ->
                edges := { reader = m.Mop.id; obj = x; writer = w.Mop.id } :: !edges
              | [] ->
                err :=
                  Some
                    (Fmt.str "no writer for read %a of #%d" Op.pp
                       (Op.read x v) m.Mop.id)
              | _ :: _ :: _ ->
                err :=
                  Some
                    (Fmt.str "ambiguous writers for read %a of #%d" Op.pp
                       (Op.read x v) m.Mop.id))
          (Mop.external_reads m))
    all;
  match !err with Some msg -> Error msg | None -> Ok (List.rev !edges)

(** Build a history inferring reads-from from (unique) values. *)
let of_mops ~n_objects mops =
  match infer_rf ~n_objects mops with
  | Error msg -> raise (Ill_formed ("cannot infer reads-from: " ^ msg))
  | Ok rf -> create ~n_objects mops ~rf

(** Restrict a history to a subset of m-operation identifiers
    (initializer always kept).  Real m-operations are renumbered
    densely preserving id order; returns the restricted history and
    the old-id -> new-id mapping.  Reads-from edges whose writer was
    dropped are rewired to the initializer only if the value matches
    the initial value; otherwise the edge's reader must have been
    dropped too or the restriction is ill-formed (raises
    {!Ill_formed}). *)
let restrict t keep =
  let keep = List.sort_uniq compare (List.filter (fun i -> i > 0) keep) in
  let mapping = Hashtbl.create 16 in
  Hashtbl.add mapping Types.init_mop Types.init_mop;
  List.iteri (fun i old -> Hashtbl.add mapping old (i + 1)) keep;
  let mops =
    List.mapi
      (fun i old ->
        let m = t.mops.(old) in
        Mop.make ~id:(i + 1) ~proc:m.Mop.proc ~ops:m.Mop.ops ~inv:m.Mop.inv
          ~resp:m.Mop.resp)
      keep
  in
  let rf =
    List.filter_map
      (fun e ->
        match Hashtbl.find_opt mapping e.reader with
        | None -> None
        | Some reader -> (
          match Hashtbl.find_opt mapping e.writer with
          | Some writer -> Some { reader; obj = e.obj; writer }
          | None ->
            ill_formed
              "restriction drops writer #%d still read by kept #%d on x%d"
              e.writer e.reader e.obj))
      t.rf
  in
  (create ~n_objects:t.n_objects mops ~rf, mapping)

let pp ppf t =
  Fmt.pf ppf "@[<v>history (%d objects, %d m-operations)@,%a@,reads-from: %a@]"
    t.n_objects
    (n_mops t - 1)
    (Fmt.list ~sep:Fmt.cut Mop.pp)
    (real_mops t)
    (Fmt.list ~sep:Fmt.comma pp_rf_edge)
    t.rf
