(** Linear ranking models.

    A model is a weight vector [w]; the score [w·φ(q,t)] is a monotone
    proxy of runtime — {e smaller score means predicted faster}.
    Sorting candidate configurations by ascending score yields the
    predicted ranking (§IV-C), and the first element is the
    configuration the autotuner selects. *)

type t

val create : Sorl_util.Vec.t -> t
(** Wrap a weight vector. *)

val dim : t -> int
val weights : t -> Sorl_util.Vec.t
(** A copy of the weight vector. *)

val score : t -> Sorl_util.Sparse.t -> float
(** [w·φ]; lower is predicted-faster. *)

val range_scorer : t -> int array -> float array -> int -> int -> float
(** [range_scorer t idx v lo hi] scores the [\[lo, hi)] range of a
    strictly-increasing index/value pair — the per-row entry point for
    flat multi-encoding blocks (one block per chunk instead of one
    scratch copy per candidate).  Bit-identical to [score t] of the
    equivalent sparse vector; allocation-free. *)

val sort_by_score : float array -> int array
(** Permutation of indices sorting the given scores ascending, ties
    broken by index (stable; [0.] and [-0.] tie).  For finite scores
    this is exactly the order of comparing (score, index) pairs; no
    order is defined when a score is NaN. *)

val best_index : float array -> int
(** [(sort_by_score scores).(0)] in one pass, without sorting: the
    lowest score, ties to the lowest index.  Raises [Invalid_argument]
    on an empty array. *)

val save : t -> string -> unit
(** Write a small versioned text format ([sorl-rank-model 1]:
    dimension, nonzero count, the nonzero weights, an [end] terminator
    — the count and terminator make truncation detectable) atomically
    ({!Sorl_util.Persist.write_atomic}): concurrent readers see either
    the previous file or the new one, never a torn write. *)

val load : string -> t
(** Raises [Failure] with a descriptive message on malformed,
    wrong-version or truncated files, and on a NaN or infinite
    weight. *)

val to_string : t -> string
val of_string : string -> t
