(** Shared pieces of the rank-SVM solvers. *)

val pair_csr : Dataset.t -> (int * int) array -> Sorl_util.Sparse.Csr.t
(** [z_p = φ(slower) − φ(faster)] for each pair, one CSR row per pair,
    packed straight from the samples' feature vectors
    ({!Sorl_util.Sparse.Csr.of_diffs}).  Within-query pairs share their
    instance features, which cancel, so these rows are very sparse
    (only tuning-dependent coordinates survive).  This is what the
    solvers' [train] fits on. *)

val pair_diffs : Dataset.t -> (int * int) array -> Sorl_util.Sparse.t array
(** The rows of {!pair_csr} as standalone vectors, bit for bit
    [Sparse.sub] of each pair's feature vectors; for callers that want
    the pairs one vector at a time. *)

val objective :
  c:float -> Sorl_util.Sparse.t array -> Sorl_util.Vec.t -> float
(** The primal objective of Eq. (3):
    [½‖w‖² + (C/m)·Σ_p max(0, 1 − w·z_p)].
    Raises [Invalid_argument] when there are no pairs. *)

val hinge_error_rate : Sorl_util.Sparse.t array -> Sorl_util.Vec.t -> float
(** Fraction of pairs ordered wrongly ([w·z ≤ 0]) — the training
    swapped-pair rate the optimization minimizes a convex bound of. *)
