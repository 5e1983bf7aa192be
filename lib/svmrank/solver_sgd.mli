(** Pegasos-style primal solver for the pairwise ranking SVM.

    Minimizes Eq. (3)'s objective
    [½‖w‖² + (C/m)·Σ max(0, 1 − w·z_p)] by stochastic subgradient
    descent over pair differences with the Pegasos step size
    [η_t = 1/(λt)], [λ = 1/C], ball projection, and optional iterate
    averaging.  This is the default solver: training time scales with
    [epochs × pairs] regardless of feature dimension thanks to sparse
    updates — the profile behind the paper's sub-second Table II
    training column. *)

type params = {
  c : float;
      (** regularization trade-off (default 100).  Our objective
          averages the hinge over pairs ([C/m·Σξ]), whereas Joachims'
          SVM-Rank sums the slacks, so the paper's [C = 0.01] maps to
          [lambda = 1/C = 0.01] here, i.e. [C = 100]; the C-sensitivity
          ablation sweeps this. *)
  epochs : int;  (** passes over the pair set (default 20) *)
  batch : int;  (** subgradient mini-batch size (default 16) *)
  average : bool;  (** average iterates (default true) *)
  max_pairs_per_query : int option;  (** pair subsampling cap (default Some 500) *)
  seed : int;  (** RNG seed for sampling (default 1) *)
}

val default_params : params

val train : ?init:float array -> ?params:params -> Dataset.t -> Model.t
(** Train on all within-query pairs of the dataset.
    Raises [Invalid_argument] when the dataset exposes no strict
    pairs.

    [?init] warm-starts the iterates at the given weight vector and
    offsets the Pegasos step index by one full run's worth of steps, so
    the 1/(λt) schedule continues where the init's training left off
    (the t = 1 shrink would otherwise zero the init).  [init = None] is
    bit-identical to the cold path and the sampling RNG stream is
    preserved either way.  Raises [Invalid_argument] when the init
    dimension does not match the feature dimension. *)

val train_on_pairs :
  ?init:float array -> ?params:params -> dim:int -> Sorl_util.Sparse.t array -> Model.t
(** Lower-level entry on precomputed pair differences. *)

val train_on_csr : ?init:float array -> params:params -> Sorl_util.Sparse.Csr.t -> Model.t
(** The solve itself, on pair differences already packed one per CSR
    row (e.g. by {!Solver_common.pair_csr}); {!train} and
    {!train_on_pairs} both end here. *)
