(** Dense binary relations over m-operation identifiers.

    Histories relate m-operations through irreflexive transitive
    relations (process order, reads-from, real-time order, the [~rw]
    extension...).  The checkers need closure, acyclicity tests and
    topological sorts over these relations; identifiers are dense small
    integers, so a bit matrix is the natural representation.

    The matrix is word-packed: each row is [ws = ceil (n / 63)] native
    ints carrying 63 adjacency bits apiece, so [union], [subset] and the
    Warshall inner loop are word-parallel (~n/63 operations per row
    instead of n), and row iteration ([successors], [iter_edges],
    [topo_sort]) skips empty words without allocating. *)

(* Bits per word: the full width of a native int.  Bit 62 lands in the
   sign bit, which is harmless — [land]/[lor]/[lsr] operate on the raw
   two's-complement representation. *)
let bpw = 63

type t = {
  n : int;
  ws : int;  (** words per row *)
  bits : int array;  (** row-major, [n * ws] words *)
}

let create n =
  if n < 0 then invalid_arg "Relation.create: negative size";
  let ws = (n + bpw - 1) / bpw in
  { n; ws; bits = Array.make (n * ws) 0 }

let size t = t.n

let copy t = { t with bits = Array.copy t.bits }

let check_idx t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg (Fmt.str "Relation: index (%d,%d) out of [0,%d)" i j t.n)

(* No bounds check: for hot loops whose indices are loop-controlled. *)
let unsafe_mem t i j =
  (Array.unsafe_get t.bits ((i * t.ws) + (j / bpw)) lsr (j mod bpw)) land 1 = 1

let mem t i j =
  check_idx t i j;
  unsafe_mem t i j

let add t i j =
  check_idx t i j;
  let k = (i * t.ws) + (j / bpw) in
  Array.unsafe_set t.bits k (Array.unsafe_get t.bits k lor (1 lsl (j mod bpw)))

let remove t i j =
  check_idx t i j;
  let k = (i * t.ws) + (j / bpw) in
  Array.unsafe_set t.bits k
    (Array.unsafe_get t.bits k land lnot (1 lsl (j mod bpw)))

let add_edges t edges = List.iter (fun (i, j) -> add t i j) edges

let of_edges n edges =
  let t = create n in
  add_edges t edges;
  t

(* [union]/[subset] stream the whole word array once; 4-way unrolling
   keeps four independent loads in flight per iteration instead of one
   load-op-store chain. *)
let union a b =
  if a.n <> b.n then invalid_arg "Relation.union: size mismatch";
  let t = copy a in
  let len = Array.length b.bits in
  let x = t.bits and y = b.bits in
  let k = ref 0 in
  while !k + 4 <= len do
    let k0 = !k in
    Array.unsafe_set x k0 (Array.unsafe_get x k0 lor Array.unsafe_get y k0);
    Array.unsafe_set x (k0 + 1)
      (Array.unsafe_get x (k0 + 1) lor Array.unsafe_get y (k0 + 1));
    Array.unsafe_set x (k0 + 2)
      (Array.unsafe_get x (k0 + 2) lor Array.unsafe_get y (k0 + 2));
    Array.unsafe_set x (k0 + 3)
      (Array.unsafe_get x (k0 + 3) lor Array.unsafe_get y (k0 + 3));
    k := k0 + 4
  done;
  while !k < len do
    Array.unsafe_set x !k (Array.unsafe_get x !k lor Array.unsafe_get y !k);
    incr k
  done;
  t

let subset a b =
  if a.n <> b.n then invalid_arg "Relation.subset: size mismatch";
  let len = Array.length a.bits in
  let x = a.bits and y = b.bits in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k + 4 <= len do
    let k0 = !k in
    let d0 = Array.unsafe_get x k0 land lnot (Array.unsafe_get y k0) in
    let d1 =
      Array.unsafe_get x (k0 + 1) land lnot (Array.unsafe_get y (k0 + 1))
    in
    let d2 =
      Array.unsafe_get x (k0 + 2) land lnot (Array.unsafe_get y (k0 + 2))
    in
    let d3 =
      Array.unsafe_get x (k0 + 3) land lnot (Array.unsafe_get y (k0 + 3))
    in
    if d0 lor d1 lor d2 lor d3 <> 0 then ok := false;
    k := k0 + 4
  done;
  while !ok && !k < len do
    if Array.unsafe_get x !k land lnot (Array.unsafe_get y !k) <> 0 then
      ok := false;
    incr k
  done;
  !ok

let equal a b =
  if a.n <> b.n then invalid_arg "Relation.equal: size mismatch";
  a.bits = b.bits

(* Call [f] on every set bit of row [i]; allocation-free, skips empty
   words, exits each word at its highest set bit. *)
let iter_row t i f =
  let row = i * t.ws in
  for w = 0 to t.ws - 1 do
    let word = ref (Array.unsafe_get t.bits (row + w)) in
    if !word <> 0 then begin
      let j = ref (w * bpw) in
      while !word <> 0 do
        if !word land 1 = 1 then f !j;
        incr j;
        word := !word lsr 1
      done
    end
  done

let iter_successors t i f =
  if i < 0 || i >= t.n then
    invalid_arg (Fmt.str "Relation: row %d out of [0,%d)" i t.n);
  iter_row t i f

let iter_predecessors t j f =
  if j < 0 || j >= t.n then
    invalid_arg (Fmt.str "Relation: column %d out of [0,%d)" j t.n);
  let w = j / bpw and b = j mod bpw in
  for i = 0 to t.n - 1 do
    if (Array.unsafe_get t.bits ((i * t.ws) + w) lsr b) land 1 = 1 then f i
  done

let iter_edges t f =
  for i = 0 to t.n - 1 do
    iter_row t i (fun j -> f i j)
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun i j -> acc := (i, j) :: !acc);
  List.rev !acc

let cardinal t =
  let c = ref 0 in
  for k = 0 to Array.length t.bits - 1 do
    let w = ref (Array.unsafe_get t.bits k) in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr c
    done
  done;
  !c

let successors t i =
  let acc = ref [] in
  iter_successors t i (fun j -> acc := j :: !acc);
  List.rev !acc

let predecessors t j =
  let acc = ref [] in
  iter_predecessors t j (fun i -> acc := i :: !acc);
  List.rev !acc

(** Reusable word-array scratch for the sparse checkers' per-call
    tables ({!Check_constrained.check_chain}, {!Digraph}, the windowed
    checker): those tables die when the call returns, so an arena keeps
    free lists of word arrays keyed by length — [scratch] pops instead
    of allocating, [release] pushes back.  Single-domain only. *)
module Arena = struct
  type arena = {
    free : (int, int array Stack.t) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable scratch_words : int;
    mutable held : int;  (* words handed out and not yet released *)
    mutable peak : int;  (* high-water mark of [held] *)
  }

  let create () =
    {
      free = Hashtbl.create 8;
      hits = 0;
      misses = 0;
      scratch_words = 0;
      held = 0;
      peak = 0;
    }

  let hits a = a.hits
  let misses a = a.misses
  let scratch_words a = a.scratch_words

  let acquire a len =
    a.held <- a.held + len;
    if a.held > a.peak then a.peak <- a.held;
    match Hashtbl.find_opt a.free len with
    | Some s when not (Stack.is_empty s) ->
      a.hits <- a.hits + 1;
      Stack.pop s
    | _ ->
      a.misses <- a.misses + 1;
      Array.make len 0

  let peak_during a f =
    let base = a.held in
    a.peak <- base;
    let r = f () in
    (r, a.peak - base)

  let release a words =
    let len = Array.length words in
    a.held <- a.held - len;
    let s =
      match Hashtbl.find_opt a.free len with
      | Some s -> s
      | None ->
        let s = Stack.create () in
        Hashtbl.replace a.free len s;
        s
    in
    Stack.push words s

  (* Scratch sizes are rounded up to one of eight steps per octave, so
     arrays whose size jitters from call to call (one epoch's node or
     edge count) still meet on a shared free list, at most 25% larger
     than asked for. *)
  let bucket len =
    let step = ref 1 in
    while !step * 8 < len do
      step := !step * 2
    done;
    (len + !step - 1) / !step * !step

  let scratch a len =
    let words = acquire a (bucket len) in
    a.scratch_words <- a.scratch_words + Array.length words;
    words
end

(* In-place Warshall transitive closure; the inner loop is a word-wise
   row OR, so the whole closure costs O(n^2 . n/63) word operations.
   Wide matrices (rows over 16 words, i.e. n > ~1000) are processed in
   16-word column tiles so the pivot row's tile stays cache-hot across
   the whole row sweep; the absorption bit is fixed within a pivot, so
   tiling reorders only the word writes, never the result. *)
let seq_closure_tile = 16

let transitive_closure_inplace t =
  let n = t.n and ws = t.ws in
  let bits = t.bits in
  if ws <= seq_closure_tile then
    for k = 0 to n - 1 do
      let row_k = k * ws in
      let kw = k / bpw and kb = k mod bpw in
      for i = 0 to n - 1 do
        if
          i <> k
          && (Array.unsafe_get bits ((i * ws) + kw) lsr kb) land 1 = 1
        then begin
          let row_i = i * ws in
          for w = 0 to ws - 1 do
            Array.unsafe_set bits (row_i + w)
              (Array.unsafe_get bits (row_i + w)
              lor Array.unsafe_get bits (row_k + w))
          done
        end
      done
    done
  else
    for k = 0 to n - 1 do
      let row_k = k * ws in
      let kw = k / bpw and kb = k mod bpw in
      let w0 = ref 0 in
      while !w0 < ws do
        let w1 = min ws (!w0 + seq_closure_tile) in
        for i = 0 to n - 1 do
          if
            i <> k
            && (Array.unsafe_get bits ((i * ws) + kw) lsr kb) land 1 = 1
          then begin
            let row_i = i * ws in
            for w = !w0 to w1 - 1 do
              Array.unsafe_set bits (row_i + w)
                (Array.unsafe_get bits (row_i + w)
                lor Array.unsafe_get bits (row_k + w))
            done
          end
        done;
        w0 := w1
      done
    done

let transitive_closure t =
  let c = copy t in
  transitive_closure_inplace c;
  c

(** [add_edge_closed t i j] — [t] must be transitively closed; adds the
    edge [(i, j)] and restores closure in O(n . n/63) word operations
    (closure of closed [R] plus one edge only adds pairs
    [(p, s)] with [p ∈ {i} ∪ preds i] and [s ∈ {j} ∪ succs j]).
    Lets checkers verify a growing trace without re-closing from
    scratch.  A cycle created by the new edge shows up as reflexive
    entries, exactly as with [transitive_closure]. *)
let add_edge_closed t i j =
  check_idx t i j;
  if not (unsafe_mem t i j) then begin
    let ws = t.ws in
    let bits = t.bits in
    let row_i = i * ws and row_j = j * ws in
    (* row_i |= {j} ∪ row_j *)
    for w = 0 to ws - 1 do
      Array.unsafe_set bits (row_i + w)
        (Array.unsafe_get bits (row_i + w) lor Array.unsafe_get bits (row_j + w))
    done;
    add t i j;
    (* Every predecessor of [i] absorbs the updated row_i. *)
    let iw = i / bpw and ib = i mod bpw in
    for p = 0 to t.n - 1 do
      if
        p <> i
        && (Array.unsafe_get bits ((p * ws) + iw) lsr ib) land 1 = 1
      then begin
        let row_p = p * ws in
        for w = 0 to ws - 1 do
          Array.unsafe_set bits (row_p + w)
            (Array.unsafe_get bits (row_p + w)
            lor Array.unsafe_get bits (row_i + w))
        done
      end
    done
  end

let is_irreflexive t =
  let ok = ref true in
  for i = 0 to t.n - 1 do
    if unsafe_mem t i i then ok := false
  done;
  !ok

(** [closure_with t edges] — fresh transitive closure of [t ∪ edges],
    where [t] is already transitively closed.  Edges already implied
    cost O(1); up to n genuinely new edges are absorbed incrementally
    ({!add_edge_closed}, O(n^2/63) each); beyond that one batch
    Warshall pass is cheaper. *)
let closure_with t edges =
  let r = copy t in
  if List.length edges <= t.n then
    List.iter (fun (i, j) -> add_edge_closed r i j) edges
  else begin
    add_edges r edges;
    transitive_closure_inplace r
  end;
  r

(* (row offset, word, bit) of each id, bounds-checked once, for the
   pair-scan primitives below. *)
let locate t ids =
  let k = Array.length ids in
  let off = Array.make k 0 and w = Array.make k 0 and b = Array.make k 0 in
  for i = 0 to k - 1 do
    let id = ids.(i) in
    if id < 0 || id >= t.n then
      invalid_arg (Fmt.str "Relation: id %d out of [0,%d)" id t.n);
    off.(i) <- id * t.ws;
    w.(i) <- id / bpw;
    b.(i) <- id mod bpw
  done;
  (off, w, b)

(** [total_on t ids] — are every two distinct members of [ids] ordered
    one way or the other?  The WW/WO-constraint kernel: scans pairs
    with precomputed word/bit positions and exits at the first
    unordered pair. *)
let total_on t ids =
  let k = Array.length ids in
  let off, w, b = locate t ids in
  let bits = t.bits in
  try
    for a = 0 to k - 1 do
      for c = a + 1 to k - 1 do
        if
          ids.(a) <> ids.(c)
          && (Array.unsafe_get bits (off.(a) + w.(c)) lsr b.(c)) land 1 = 0
          && (Array.unsafe_get bits (off.(c) + w.(a)) lsr b.(a)) land 1 = 0
        then raise Exit
      done
    done;
    true
  with Exit -> false

(** [total_between t xs ys] — is every pair of one member of [xs] and
    one distinct member of [ys] ordered?  (The OO-constraint kernel:
    [xs] the writers of an object, [ys] its accessors.) *)
let total_between t xs ys =
  let kx = Array.length xs and ky = Array.length ys in
  let offx, wx, bx = locate t xs in
  let offy, wy, by = locate t ys in
  let bits = t.bits in
  try
    for a = 0 to kx - 1 do
      for c = 0 to ky - 1 do
        if
          xs.(a) <> ys.(c)
          && (Array.unsafe_get bits (offx.(a) + wy.(c)) lsr by.(c)) land 1 = 0
          && (Array.unsafe_get bits (offy.(c) + wx.(a)) lsr bx.(a)) land 1 = 0
        then raise Exit
      done
    done;
    true
  with Exit -> false

let row_popcount t i =
  let row = i * t.ws in
  let c = ref 0 in
  for w = 0 to t.ws - 1 do
    let x = ref (Array.unsafe_get t.bits (row + w)) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done
  done;
  !c

(** [topo_sort_closed t] — linear extension of a {e transitively
    closed} relation, read off row cardinalities: in a closed DAG,
    [a -> b] implies [succs b ⊊ succs a], so sorting by descending
    successor count (ties by smallest id, deterministic) is a
    topological order in O(n^2/63 + n log n) — no Kahn frontier.
    [None] iff a reflexive entry betrays a cycle.  The closure
    precondition is not checked. *)
let topo_sort_closed t =
  if not (is_irreflexive t) then None
  else begin
    let n = t.n in
    let count = Array.init n (row_popcount t) in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        if count.(a) <> count.(b) then compare count.(b) count.(a)
        else compare a b)
      order;
    Some order
  end

(** A relation is a valid strict (irreflexive transitive) order iff its
    transitive closure is irreflexive, i.e. the relation is acyclic. *)
let is_acyclic t = is_irreflexive (transitive_closure t)

(** Kahn topological sort.  Returns [None] when the relation is
    cyclic.  Ties are broken by smallest identifier so the result is
    deterministic. *)
let topo_sort t =
  let n = t.n in
  let indeg = Array.make n 0 in
  iter_edges t (fun _ j -> indeg.(j) <- indeg.(j) + 1);
  (* Simple list-based frontier keeping ids sorted. *)
  let frontier = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then frontier := i :: !frontier
  done;
  let out = ref [] in
  let count = ref 0 in
  let rec loop () =
    match !frontier with
    | [] -> ()
    | i :: rest ->
      frontier := rest;
      out := i :: !out;
      incr count;
      let freed = ref [] in
      iter_row t i (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then freed := j :: !freed);
      frontier := List.merge compare (List.rev !freed) !frontier;
      loop ()
  in
  loop ();
  if !count = n then Some (Array.of_list (List.rev !out)) else None

(** Is [order] (a permutation of [0..n-1]) a linear extension of [t]? *)
let respects t order =
  let n = t.n in
  if Array.length order <> n then false
  else begin
    let pos = Array.make n (-1) in
    Array.iteri (fun k i -> pos.(i) <- k) order;
    if Array.exists (fun p -> p < 0) pos then false
    else begin
      let ok = ref true in
      iter_edges t (fun i j -> if pos.(i) >= pos.(j) then ok := false);
      !ok
    end
  end

(** Total order relation induced by a permutation. *)
let of_total_order order =
  let n = Array.length order in
  let t = create n in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      add t order.(a) order.(b)
    done
  done;
  t

let pp ppf t =
  Fmt.pf ppf "@[<h>{%a}@]"
    (Fmt.list ~sep:Fmt.comma (fun ppf (i, j) -> Fmt.pf ppf "%d->%d" i j))
    (edges t)

(** Word-packed bitsets over [0 .. n-1]: the row representation of the
    matrix exposed on its own, for callers that track sets of
    m-operations (e.g. the placed set in {!Admissible}'s memo keys). *)
module Bitset = struct
  type t = { n : int; words : int array }

  let create n =
    if n < 0 then invalid_arg "Relation.Bitset.create: negative size";
    { n; words = Array.make ((n + bpw - 1) / bpw) 0 }

  let length t = t.n

  let check t i =
    if i < 0 || i >= t.n then
      invalid_arg (Fmt.str "Relation.Bitset: index %d out of [0,%d)" i t.n)

  let mem t i =
    check t i;
    (Array.unsafe_get t.words (i / bpw) lsr (i mod bpw)) land 1 = 1

  let set t i =
    check t i;
    let k = i / bpw in
    Array.unsafe_set t.words k
      (Array.unsafe_get t.words k lor (1 lsl (i mod bpw)))

  let clear t i =
    check t i;
    let k = i / bpw in
    Array.unsafe_set t.words k
      (Array.unsafe_get t.words k land lnot (1 lsl (i mod bpw)))

  (* Append the raw words (8 bytes each, little-endian) to [buf]:
     a compact hashable key, n/63 words instead of n bytes. *)
  let add_to_buffer t buf =
    Array.iter
      (fun w ->
        for b = 0 to 7 do
          Buffer.add_char buf (Char.unsafe_chr ((w lsr (b * 8)) land 0xff))
        done)
      t.words
end
