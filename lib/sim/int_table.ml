(** Hash tables keyed by ints, hashed by identity (see the interface).

    Separate chaining over a power-of-two bucket array, as in
    [Hashtbl], but with the key compared and hashed inline: no call
    through a functor argument, no polymorphic hash or compare.  Every
    loop is a top-level function, so no lookup allocates a closure. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable buckets : 'a bucket array;
  initial : int;  (** bucket count at creation, restored by {!reset} *)
}

let create n =
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  let s = pow2 8 in
  { size = 0; buckets = Array.make s Empty; initial = s }

let length t = t.size

let reset t =
  t.size <- 0;
  t.buckets <- Array.make t.initial Empty

(* The bucket of [key]: its low bits, the array length being a power
   of two. *)
let[@inline] slot t key = key land (Array.length t.buckets - 1)

let rec find_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_in key c.next

let find_opt t key = find_in key (Array.unsafe_get t.buckets (slot t key))

let rec mem_in key = function
  | Empty -> false
  | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key (Array.unsafe_get t.buckets (slot t key))

(* Move every cell of one old bucket into [nb]. *)
let rec rehash nb = function
  | Empty -> ()
  | Cons c as cell ->
    let next = c.next in
    let i = c.key land (Array.length nb - 1) in
    c.next <- nb.(i);
    nb.(i) <- cell;
    rehash nb next

let rec replace_in key data = function
  | Empty -> false
  | Cons c ->
    if c.key = key then begin
      c.data <- data;
      true
    end
    else replace_in key data c.next

let replace t key data =
  let i = slot t key in
  let b = Array.unsafe_get t.buckets i in
  if not (replace_in key data b) then begin
    Array.unsafe_set t.buckets i (Cons { key; data; next = b });
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then begin
      let nb = Array.make (2 * Array.length t.buckets) Empty in
      Array.iter (rehash nb) t.buckets;
      t.buckets <- nb
    end
  end

(* Unlink [key] from the cells after [p]. *)
let rec remove_after t key (p : 'a bucket) =
  match p with
  | Empty -> ()
  | Cons p -> (
    match p.next with
    | Empty -> ()
    | Cons c as next ->
      if c.key = key then begin
        p.next <- c.next;
        t.size <- t.size - 1
      end
      else remove_after t key next)

let remove t key =
  let i = slot t key in
  match Array.unsafe_get t.buckets i with
  | Empty -> ()
  | Cons c as b ->
    if c.key = key then begin
      Array.unsafe_set t.buckets i c.next;
      t.size <- t.size - 1
    end
    else remove_after t key b

let fold f t acc =
  let rec go acc = function
    | Empty -> acc
    | Cons c -> go (f c.key c.data acc) c.next
  in
  Array.fold_left go acc t.buckets

(* The cells of [b] that [f] keeps, with their new data, in order. *)
let rec filter_bucket t f = function
  | Empty -> Empty
  | Cons c -> (
    match f c.key c.data with
    | None ->
      t.size <- t.size - 1;
      filter_bucket t f c.next
    | Some data -> Cons { key = c.key; data; next = filter_bucket t f c.next })

let filter_map_inplace f t =
  Array.iteri (fun i b -> t.buckets.(i) <- filter_bucket t f b) t.buckets

let copy t =
  let rec dup = function
    | Empty -> Empty
    | Cons c -> Cons { key = c.key; data = c.data; next = dup c.next }
  in
  { t with buckets = Array.map dup t.buckets }
