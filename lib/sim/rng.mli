(** Deterministic splittable PRNG (SplitMix64).

    Every simulation component owns its own stream, so reordering
    draws in one component never perturbs another — runs are exactly
    reproducible per seed. *)

type t

val create : int -> t

(** Derive an independent stream. *)
val split : t -> t

val next_int64 : t -> int64

(** Uniform in [0, bound); raises on non-positive bound. *)
val int : t -> bound:int -> int

(** Uniform in [lo, hi] inclusive. *)
val int_range : t -> lo:int -> hi:int -> int

(** Uniform in [0, 1). *)
val float : t -> float

val bool : t -> bool
val bernoulli : t -> p:float -> bool

(** Uniform element of a non-empty list. *)
val choose : t -> 'a list -> 'a

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** A Zipf sampler over ranks [0, n): P(k) ∝ 1/(k+1)^s; [s = 0] is
    uniform, larger [s] makes low ranks hot. *)
type zipf

(** Build the sampler once per [(n, s)]: O(n) time and words, one
    [**] per rank.  Raises [Invalid_argument] when [n <= 0]. *)
val zipf_table : n:int -> s:float -> zipf

(** One Zipf rank: a single uniform draw from the stream ([int] when
    [s = 0], else [float]) and an O(log n) search of the table.  Draws
    are bit-identical to a linear walk of the cumulative weights
    [1/(k+1)^s], summed left to right from [0.0]: the least [k <= n-2]
    with [float t *. total < cum.(k)], else [n-1]. *)
val zipf_draw : t -> zipf -> int

(** One-shot {!zipf_draw} on a fresh {!zipf_table}: O(n) per call, for
    callers that draw once; a generator drawing per m-operation builds
    the table once instead. *)
val zipf : t -> n:int -> s:float -> int

(** Exponential-tailed positive integer with roughly the given mean. *)
val exponential_int : t -> mean:int -> int
