(** Sparse directed graphs over [0 .. n-1] in compressed-row form.

    A dense {!Relation} costs n^2/63 words whatever the edge count.
    The chain-decomposed Theorem-7 checker and the shard stitcher only
    need successor lists and a topological order, so they build one of
    these from an edge list in O(n + e) words instead. *)

type t = {
  n : int;
  off : int array;
      (** successors of [i] are [dst.(off.(i)) .. dst.(off.(i+1) - 1)] *)
  dst : int array;
}

(* With an arena, tables come from its scratch free lists and may be
   longer than asked for: lengths are carried explicitly. *)
let alloc arena len =
  match arena with
  | None -> Array.make len 0
  | Some a -> Relation.Arena.scratch a len

let free arena words =
  match arena with None -> () | Some a -> Relation.Arena.release a words

(* Two passes over the edge stream: count each row, then fill rows
   backwards from their ends — which leaves [off.(i)] at row [i]'s
   start. *)
let of_iter ?arena n iter =
  let off = alloc arena (n + 1) in
  Array.fill off 0 (n + 1) 0;
  let e = ref 0 in
  iter (fun i j ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg (Fmt.str "Digraph: edge (%d,%d) out of [0,%d)" i j n);
      off.(i) <- off.(i) + 1;
      incr e);
  for i = 1 to n - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  off.(n) <- !e;
  let dst = alloc arena !e in
  iter (fun i j ->
      off.(i) <- off.(i) - 1;
      dst.(off.(i)) <- j);
  { n; off; dst }

let of_edges ?arena n edges =
  of_iter ?arena n (fun f -> List.iter (fun (i, j) -> f i j) edges)

let release ?arena g =
  free arena g.off;
  free arena g.dst

(* Binary min-heap over the first [!size] slots of [h]. *)
let heap_push h size v =
  let i = ref !size in
  incr size;
  while !i > 0 && h.((!i - 1) / 2) > v do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- v

let heap_pop h size =
  let top = h.(0) in
  decr size;
  let v = h.(!size) in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= !size then fin := true
    else begin
      let c = if l + 1 < !size && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < v then begin
        h.(!i) <- h.(c);
        i := c
      end
      else fin := true
    end
  done;
  if !size > 0 then h.(!i) <- v;
  top

(** Kahn topological sort taking the smallest ready id first — the
    same tie-break as {!Relation.topo_sort}, so the two agree on the
    same edges.  [None] iff the graph is cyclic.  The order is a fresh
    array; only the working tables come from [~arena]. *)
let topo_sort ?arena g =
  let n = g.n in
  let indeg = alloc arena n in
  Array.fill indeg 0 n 0;
  for k = 0 to g.off.(n) - 1 do
    let j = g.dst.(k) in
    indeg.(j) <- indeg.(j) + 1
  done;
  let heap = alloc arena n and size = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then heap_push heap size i
  done;
  let order = Array.make n 0 and count = ref 0 in
  while !size > 0 do
    let i = heap_pop heap size in
    order.(!count) <- i;
    incr count;
    for k = g.off.(i) to g.off.(i + 1) - 1 do
      let j = g.dst.(k) in
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then heap_push heap size j
    done
  done;
  free arena indeg;
  free arena heap;
  if !count = n then Some order else None
