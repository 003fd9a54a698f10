(** Measurement accumulators for simulation experiments (see the
    interface). *)

type summary = {
  count : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

let empty_summary =
  { count = 0; mean = 0.0; min = 0; max = 0; p50 = 0; p95 = 0; p99 = 0 }

type quantiles = { q_count : int; q50 : float; q99 : float; q999 : float }

let empty_quantiles = { q_count = 0; q50 = 0.0; q99 = 0.0; q999 = 0.0 }

let pp_quantiles ppf q =
  Fmt.pf ppf "n=%d p50=%.1f p99=%.1f p999=%.1f" q.q_count q.q50 q.q99 q.q999

(* Samples below [exact_limit] are counted one slot per value; at or
   above it, each power of two [2^e] is split into [1 lsl sub_bits]
   equal buckets, so a bucket is at most [2^-sub_bits] of its values
   wide. *)
let exact_bits = 16
let exact_limit = 1 lsl exact_bits
let sub_bits = 9
let high_buckets = (Sys.int_size - exact_bits) lsl sub_bits

type t = {
  mutable low : int array;  (** [low.(v)]: samples equal to [v] *)
  mutable high : int array;  (** log buckets, see [bucket] *)
  mutable n : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () =
  { low = [||]; high = [||]; n = 0; sum = 0; min = max_int; max = 0 }

let count t = t.n

(* Index of the highest set bit of [v > 0]. *)
let msb v =
  let rec go v e = if v <= 1 then e else go (v lsr 1) (e + 1) in
  go v 0

(* Bucket of [v >= exact_limit]: its octave above [exact_bits], then
   the [sub_bits] bits below the leading one. *)
let bucket v =
  let e = msb v in
  ((e - exact_bits) lsl sub_bits)
  lor ((v lsr (e - sub_bits)) land ((1 lsl sub_bits) - 1))

(* The midpoint of bucket [b]: within half a bucket width, so within
   [2^-(sub_bits+1)] relative, of every sample in it. *)
let bucket_mid b =
  let e = (b lsr sub_bits) + exact_bits in
  let lead = (1 lsl sub_bits) lor (b land ((1 lsl sub_bits) - 1)) in
  (lead lsl (e - sub_bits)) + (1 lsl (e - sub_bits - 1))

(* Grow [a] by doubling until index [i] fits, up to [cap] slots. *)
let grown a i ~cap =
  let len = ref (max 64 (Array.length a)) in
  while !len <= i do
    len := 2 * !len
  done;
  let b = Array.make (min cap !len) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let add t v =
  if v < 0 then invalid_arg "Stats.add: negative sample";
  if v < exact_limit then begin
    if v >= Array.length t.low then t.low <- grown t.low v ~cap:exact_limit;
    t.low.(v) <- t.low.(v) + 1
  end
  else begin
    let b = bucket v in
    if b >= Array.length t.high then t.high <- grown t.high b ~cap:high_buckets;
    t.high.(b) <- t.high.(b) + 1
  end;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

(* The [r]-th smallest sample (0-based, [r < t.n]): exact below
   [exact_limit], a bucket midpoint clamped to [[min, max]] above. *)
let nth t r =
  let rec scan a i r =
    let c = a.(i) in
    if r < c then i else scan a (i + 1) (r - c)
  in
  let below = Array.fold_left ( + ) 0 t.low in
  if r < below then scan t.low 0 r
  else Int.max t.min (Int.min t.max (bucket_mid (scan t.high 0 (r - below))))

(* Nearest rank: the sample at rank [ceil (p * n)] (1-based). *)
let nearest_rank t p =
  let idx = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
  nth t (max 0 (min (t.n - 1) idx))

(* Linear interpolation at rank [p * (n - 1)]. *)
let interpolate t p =
  let n = t.n in
  if n = 0 then 0.0
  else if n = 1 then float_of_int (nth t 0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let lo = max 0 (min (n - 2) lo) in
    let frac = rank -. float_of_int lo in
    ((1.0 -. frac) *. float_of_int (nth t lo))
    +. (frac *. float_of_int (nth t (lo + 1)))
  end

let summarize t =
  if t.n = 0 then empty_summary
  else
    {
      count = t.n;
      mean = float_of_int t.sum /. float_of_int t.n;
      min = t.min;
      max = t.max;
      p50 = nearest_rank t 0.50;
      p95 = nearest_rank t 0.95;
      p99 = nearest_rank t 0.99;
    }

let percentiles t =
  {
    q_count = t.n;
    q50 = interpolate t 0.50;
    q99 = interpolate t 0.99;
    q999 = interpolate t 0.999;
  }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.1f min=%d p50=%d p95=%d p99=%d max=%d" s.count
    s.mean s.min s.p50 s.p95 s.p99 s.max
