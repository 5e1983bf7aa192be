(** Search problems over bounded integer vectors.

    The iterative-compilation baselines (§VI-A) all minimize a cost
    (runtime) over the tuning space, viewed as a vector of bounded
    integers — 4 coordinates for 2-D stencils, 5 for 3-D ones.  The
    problem owns the objective; {!Runner} wraps it with an evaluation
    budget and a best-so-far trace. *)

type t

val create : bounds:(int * int) array -> eval:(int array -> float) -> t
(** [bounds] are inclusive per-coordinate ranges ([lo <= hi], at least
    one coordinate); [eval] returns the cost to minimize (must be
    finite) and may run on several domains at once. *)

val serial : t -> t
(** The same problem, marked unsafe to evaluate from several domains:
    {!Runner.eval_batch} evaluates its batches one point at a time.
    Use it when [eval] mutates shared state, such as another runner. *)

val bounds : t -> (int * int) array
val dims : t -> int

val parallel : t -> bool
(** [false] after {!serial}. *)

val eval : t -> int array -> float
(** Clamps the point into bounds before evaluating. *)

val clamp : t -> int array -> int array
val random_point : t -> Sorl_util.Rng.t -> int array
(** Uniform per coordinate — log-uniform for coordinates whose range
    spans more than two orders of binary magnitude, so huge block-size
    ranges are explored evenly in scale. *)

val mutate_coord : t -> Sorl_util.Rng.t -> int array -> int -> unit
(** In-place perturbation of one coordinate: multiplicative log-normal
    jump for wide ranges, ±1/±2 steps for narrow ones. *)
