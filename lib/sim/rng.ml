(** Deterministic splittable pseudo-random number generator.

    SplitMix64: every simulation component owns its own stream so that
    adding instrumentation or reordering draws in one component never
    perturbs another — runs are reproducible per seed. *)

(* The 64-bit state, unboxed in eight bytes: a draw allocates nothing
   and writes no pointer. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Derive an independent stream. *)
let split t = of_state (next_int64 t)

(** Uniform integer in [0, bound). *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** Uniform integer in [lo, hi] inclusive. *)
let int_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t ~bound:(hi - lo + 1)

(** Uniform float in [0, 1). *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli draw with probability [p]. *)
let bernoulli t ~p = float t < p

(** Pick a uniform element of a non-empty list. *)
let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t ~bound:(List.length xs))

(** In-place Fisher–Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** Zipf sampler over [0, n): the uniform bound when [s = 0], else the
    cumulative weights [cum.(k) = w(0) +. ... +. w(k)] with
    [w(k) = 1/(k+1)^s], summed left to right from [0.0]. *)
type zipf = Uniform of int | Cdf of float array

let zipf_table ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if s = 0.0 then Uniform n
  else begin
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
      cum.(k) <- !acc
    done;
    Cdf cum
  end

(** One uniform draw [u] scaled by the total weight, then the least
    [k <= n-2] with [u < cum.(k)], else [n-1], by binary search — the
    rank a linear walk of the same partial sums returns.  [cum.(n-1)]
    is only the scale, never compared against. *)
let zipf_draw t = function
  | Uniform n -> int t ~bound:n
  | Cdf cum ->
    let n = Array.length cum in
    let u = float t *. cum.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if u < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

let zipf t ~n ~s = zipf_draw t (zipf_table ~n ~s)

(** Geometric-ish positive integer with mean roughly [mean] (used for
    exponential-like latency tails). *)
let exponential_int t ~mean =
  if mean <= 0 then invalid_arg "Rng.exponential_int: mean must be positive";
  let u = float t in
  let u = if u <= 0.0 then epsilon_float else u in
  Int.max 1 (int_of_float (-.log u *. float_of_int mean))
