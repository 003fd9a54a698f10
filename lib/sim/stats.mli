(** Measurement accumulators for simulation experiments.

    A {!t} is a counting histogram of non-negative integer samples
    (latencies and delays, in ticks) whose size does not depend on how
    many samples it has seen:

    - a sample below [2^16] is counted exactly, in a dense array grown
      only up to the largest such sample, so every quantile over such
      samples is the one a sorted sample array would give;
    - a sample at or above [2^16] lands in one of [2^9] log-spaced
      buckets per power of two and is reported as its bucket's
      midpoint, within [2^-10] relative error; at most a few tens of
      thousands of buckets exist in all.

    [count], the sum (hence [mean]), [min] and [max] are always exact. *)

type summary = {
  count : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

val empty_summary : summary

(** Interpolated high percentiles (linear interpolation at rank
    [p * (n-1)]): the convention of experiment tables, bench metrics
    and the soak's latency lines. *)
type quantiles = { q_count : int; q50 : float; q99 : float; q999 : float }

val empty_quantiles : quantiles
val pp_quantiles : Format.formatter -> quantiles -> unit

type t

val create : unit -> t

(** [add t v] counts one sample; raises [Invalid_argument] when
    [v < 0]. *)
val add : t -> int -> unit

val count : t -> int

(** Nearest-rank p50/p95/p99 (the sample at 1-based rank
    [ceil (p * n)]), with exact count, mean, min and max. *)
val summarize : t -> summary

(** Interpolated p50/p99/p999 of the accumulated samples. *)
val percentiles : t -> quantiles

val pp_summary : Format.formatter -> summary -> unit
