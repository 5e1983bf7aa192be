(** Analytic performance model.

    Substitutes for wall-clock measurement on the paper's Xeon testbed
    (see DESIGN.md §2).  Given a compiled variant, the model derives:

    - {b compute time} from the tap count, SIMD lane utilization of the
      innermost block extent, an unroll-dependent ILP efficiency curve
      (PATUS's unroll sweet spot), an instruction-footprint penalty for
      heavily unrolled dense stencils, and per-iteration loop overhead
      amortized by unrolling;
    - {b memory time} from the tile working sets: the streaming reuse
      set (the (2r+1) halo-extended tile planes live across the z loop)
      decides at which cache level taps are served, cross-tile halo
      redundancy inflates compulsory DRAM traffic, and traffic over the
      binding level's sustained bandwidth gives the time;
    - {b threading} from the chunked tile→worker assignment: workers
      run [max(compute, memory)] in overlap, scaled by the chunk-level
      load imbalance, plus per-chunk dispatch and a parallel-launch
      constant.

    The result is deterministic; optional noise is attached by
    {!Measure} from a stable hash of the configuration so every
    experiment is reproducible. *)

type breakdown = {
  compute_s : float;  (** aggregate compute-bound time *)
  memory_s : float;  (** aggregate bandwidth-bound time *)
  overhead_s : float;  (** dispatch + launch *)
  imbalance : float;  (** ≥ 1, chunk-granularity load imbalance *)
  threads : int;  (** workers actually used *)
  dram_bytes_per_point : float;
  reuse_level : [ `L1 | `L2 | `L3 | `Dram ];
      (** innermost level whose capacity holds the streaming reuse set *)
}

val analyze : Machine_desc.t -> Sorl_codegen.Variant.t -> breakdown
(** Full cost decomposition of one variant. *)

val runtime : Machine_desc.t -> Sorl_codegen.Variant.t -> float
(** Predicted seconds for one stencil sweep:
    [max(compute, memory) · imbalance + overhead]. *)

val runtime_of :
  Machine_desc.t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** {!runtime} of [Variant.compile inst t], computed from
    [Schedule.create inst t] alone: the model never reads the variant's
    compute expression, so this skips building it.  Bit-identical to
    the compiled form. *)

val gflops :
  Machine_desc.t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** Paper-convention GFlop/s ({!Sorl_stencil.Instance.total_flops} over
    {!runtime_of}). *)

val temporal_runtime :
  Machine_desc.t -> Sorl_codegen.Variant.t -> time_block:int -> float
(** Predicted {e per-step average} seconds under overlapped temporal
    blocking ({!Sorl_codegen.Temporal}): compute time inflates by the
    redundant-halo factor ({!Sorl_codegen.Temporal.compute_inflation}),
    DRAM traffic amortizes over the [time_block] steps of each chunk,
    and the streaming reuse set grows by the extended halo (possibly
    demoting the reuse level).  [time_block = 1] reduces to
    {!runtime}. *)

val ilp_efficiency : int -> float
(** The unroll efficiency curve, exposed for tests: indexed by the
    tuning [u] in 0..8, values in (0, 1], increasing to a sweet spot
    then declining. *)
