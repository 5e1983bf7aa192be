(** Experiment drivers behind every table and figure of §VI.

    The benchmark executable is a thin printer over these functions, so
    the test suite can exercise the same code paths at reduced scale.
    All drivers are deterministic given their seeds, for every
    {!Sorl_util.Pool} size: the sweeps over training sizes
    ({!train_models}), benchmarks ({!fig4}, {!fig5}) and test instances
    ({!test_set_taus}) fan out over the pool with order-preserving
    assembly, and every per-item computation derives its own random
    stream. *)

type trained = {
  size : int;  (** training-set size (samples) *)
  dataset : Sorl_svmrank.Dataset.t;
  tuner : Autotuner.t;
  generation_s : float;  (** wall time to generate the training set *)
  training_s : float;  (** wall time to fit the model *)
}

val train_models :
  ?mode:Sorl_stencil.Features.mode ->
  ?solver:Autotuner.solver ->
  ?seed:int ->
  ?instances:Sorl_stencil.Instance.t list ->
  sizes:int list ->
  Sorl_machine.Measure.t ->
  trained list
(** One trained model per requested size (§VI uses 960, 3840, 6720 and
    16000 for Fig. 4/5 and twelve sizes for Table II / Fig. 7). *)

(** {2 Table II — phase timing} *)

type table2_row = {
  t2_size : int;
  t2_generation_s : float;
  t2_training_s : float;
  t2_regression_s : float;  (** mean time to rank the 8640-configuration set *)
  t2_regression_reps : int;
      (** repetitions the ranking mean was taken over
          ({!Sorl_util.Timer.time_repeat}) *)
}

val table2 : trained list -> table2_row list
(** Regression time is measured by ranking the 3-D pre-defined set for
    a representative test instance; sub-millisecond rankings are
    repeated until the timing window fills and the repeat count is
    reported (and fed to the [experiments.rank_repeat_s] telemetry
    histogram) alongside the mean. *)

(** {2 Fig. 4 — ordinal regression vs. iterative search} *)

type fig4_row = {
  benchmark : string;
  base_runtime_s : float;  (** generational GA after the full budget *)
  search_runtime_s : (string * float) list;  (** per baseline *)
  regression_runtime_s : (int * float) list;
      (** per training size: runtime of the model's top-ranked
          configuration from the pre-defined set *)
  oracle_runtime_s : float;
      (** best configuration inside the pre-defined set — the bound the
          paper notes the regression result cannot beat *)
}

val fig4 :
  ?budget:int ->
  ?seed:int ->
  Sorl_machine.Measure.t ->
  tuners:(int * Autotuner.t) list ->
  Sorl_stencil.Instance.t list ->
  fig4_row list

val speedup : fig4_row -> string * float array
(** [(benchmark, values)] where values follow the Fig. 4 legend order:
    the four searches then the regression models, each divided {e
    into} the base runtime (base = 1.0). *)

(** {2 Fig. 5 — convergence traces and time-to-solution} *)

type fig5_row = {
  f5_benchmark : string;
  f5_curves : (string * float array) list;
      (** per search: best-so-far GFlop/s after each evaluation *)
  f5_regression_gflops : (int * float) list;  (** per training size *)
  f5_time_to_solution : (string * float) list;
      (** per method, modeled tuning seconds: searches pay the runner's
          accumulated evaluation cost ({!Sorl_search.Runner.total_cost})
          plus the synthetic per-variant compile overhead per
          evaluation; regression entries pay one compile plus one run
          of the chosen variant.  Deterministic: no wall time enters *)
  f5_rank_s : (string * float) list;
      (** per regression entry, the measured wall time of one ranking
          of the predefined set — the part of a regression's time to
          solution that depends on the host *)
}

val fig5 :
  ?budget:int ->
  ?seed:int ->
  ?compile_overhead_s:float ->
  Sorl_machine.Measure.t ->
  tuners:(int * Autotuner.t) list ->
  Sorl_stencil.Instance.t list ->
  fig5_row list
(** [compile_overhead_s] (default 45 s) models the paper's PATUS + gcc
    double compilation per evaluated variant. *)

(** {2 Fig. 6 / Fig. 7 — ranking quality} *)

val taus_on_own_training_set : trained -> float array
(** Per-instance Kendall τ of the model evaluated on the partial
    rankings it was trained from (the paper's Fig. 6 setting). *)

val tau_distribution : trained -> Sorl_util.Stats.box
(** Box-plot summary of the τ distribution — one Fig. 7 column. *)

(** {2 Generalization beyond the paper's Fig. 6 setting} *)

val test_set_taus :
  ?samples_per_instance:int ->
  ?seed:int ->
  Sorl_machine.Measure.t ->
  Autotuner.t ->
  Sorl_stencil.Instance.t list ->
  (string * float) list
(** Held-out ranking quality: for each {e unseen} instance, measure
    [samples_per_instance] (default 64) random tuning vectors — drawn
    from a per-instance generator derived from [(seed, position)] — and
    report Kendall τ between the model's scores and the measured
    runtimes.  The paper evaluates τ on the training set only; this is
    the stronger generalization check. *)

val paper_training_sizes : int list
(** Table II / Fig. 7 sizes: 960, 1920, …, 9600, 16000, 32000. *)

val fig45_training_sizes : int list
(** 960, 3840, 6720, 16000. *)
