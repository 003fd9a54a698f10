(** Array-based binary min-heap, the event-queue substrate.

    Elements are ordered by a user-supplied comparison; the engine uses
    (time, sequence-number) keys so dequeue order is deterministic. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  compare : 'a -> 'a -> int;
  dummy : 'a;
}

let create ~compare ~dummy = { data = Array.make 16 dummy; size = 0; compare; dummy }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.compare t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.compare t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- t.dummy;
    if t.size > 0 then sift_down t 0;
    Some top
  end

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0)
