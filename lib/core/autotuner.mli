(** The ordinal-regression autotuner — the paper's contribution, end to
    end.

    Train once on synthetic stencils (§V-B), then rank arbitrary tuning
    configurations for an unseen stencil instance without executing any
    of them (§V-C): the top-ranked configuration is the tuner's answer.
    The tuner can also act as a ranking oracle inside an iterative
    search (see {!Hybrid}). *)

type t

type solver =
  | Sgd of Sorl_svmrank.Solver_sgd.params
  | Dcd of Sorl_svmrank.Solver_dcd.params

val default_solver : solver
(** Pegasos SGD with the paper's [C = 0.01]. *)

val train :
  ?spec:Training.spec ->
  ?solver:solver ->
  Sorl_machine.Measure.t ->
  t
(** Generate the training set on [measure] and fit the ranking model. *)

val train_on :
  ?solver:solver ->
  ?init:float array ->
  mode:Sorl_stencil.Features.mode ->
  Sorl_svmrank.Dataset.t ->
  t
(** Fit on an existing dataset (whose features must use [mode]).
    [?init] warm-starts the solver from an existing weight vector (see
    {!Sorl_svmrank.Solver_dcd.train} / {!Sorl_svmrank.Solver_sgd.train})
    — the continual-retraining path fine-tunes from {!weights} of the
    serving model. *)

val of_model : mode:Sorl_stencil.Features.mode -> Sorl_svmrank.Model.t -> t

val model : t -> Sorl_svmrank.Model.t
val feature_mode : t -> Sorl_stencil.Features.mode

val weights : t -> Sorl_util.Vec.t
(** A copy of the model's weight vector — the [?init] for a
    warm-started {!train_on}. *)

val score : t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t -> float
(** Predicted-rank score; lower means predicted faster. *)

val rank :
  t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t array ->
  Sorl_stencil.Tuning.t array
(** Candidates sorted best-first by predicted rank.  No execution
    happens.  Candidates stream through the compiled per-instance
    encoder ({!Sorl_stencil.Features.compile}) into per-chunk scratch
    buffers — no allocation per candidate — chunked over the
    {!Sorl_util.Pool}; the resulting order is identical for every pool
    size and bit-identical to encode-and-{!score} per candidate. *)

val rank_order :
  t -> Sorl_stencil.Features.compiled -> Sorl_stencil.Tuning.t array -> int array
(** {!rank} as the sort's permutation, with a caller-supplied compiled
    encoder: element [i] is the index into [candidates] of the [i]-th
    best, so [Array.map (fun i -> candidates.(i))] of it is
    bit-identical to {!rank} on that instance.  The entry point for
    callers that keep rankings as indices into a fixed set (the
    server's resident rankings).  The encoder must have been compiled from
    this tuner's feature mode (checked, [Invalid_argument]) for the
    instance being ranked (not checkable — the caller's cache key must
    pin it). *)

val best :
  t -> Sorl_stencil.Instance.t -> Sorl_stencil.Tuning.t array ->
  Sorl_stencil.Tuning.t
(** Top-ranked candidate — the element [rank] would put first, found by
    partial selection ({!Sorl_svmrank.Model.top_k}) without sorting the
    other scores.  Raises [Invalid_argument] on empty input. *)

(** {2 Branch-and-bound top-k over the predefined set}

    The serving cold path needs only the first few elements of a rank
    over the paper's predefined grid.  [top_k_pruned] gets them without
    visiting most of the grid: one score lower bound per (bx, by, bz)
    subcube ({!Sorl_stencil.Features.bound_lower}), cubes visited in
    ascending bound order, whole cubes skipped once the k-th best score
    beats their bound.  Output is {e exactly} the first k elements of
    the full rank — bounds are sound lower bounds minus a float-safety
    epsilon, skipping requires a strictly larger bound (so equal-score
    index tiebreaks survive), and unpruned cubes are scored through the
    same compiled encoder and scorer as the full rank. *)

type scratch
(** Reusable working memory (encode scratch + selection heap) so a
    cold top-k allocates O(k + subcubes), not O(n).  Not thread-safe:
    one scratch per concurrent caller. *)

val scratch : unit -> scratch

type prune_stats = {
  cubes : int;  (** block subcubes in the grid *)
  cubes_pruned : int;  (** subcubes skipped by their bound *)
  scored : int;  (** candidates actually encoded and scored *)
  pruned : int;  (** candidates skipped without scoring *)
}

val top_k_pruned :
  ?scratch:scratch ->
  t ->
  Sorl_stencil.Features.compiled ->
  dims:int ->
  k:int ->
  Sorl_stencil.Tuning.t array * prune_stats
(** [top_k_pruned t enc ~dims ~k] is
    the first [k] of [rank_order t enc (Tuning.predefined_set ~dims)],
    mapped to their tunings
    (element for element), plus how much of the grid it skipped.  [k]
    is clamped to the set size; [k = 0] yields [[||]].  The encoder
    must be compiled from this tuner's mode (checked) for the instance
    being ranked (pinned by the caller's cache key, as with
    {!rank_order}).  Raises [Invalid_argument] on mode mismatch or
    negative [k]. *)

val top_k :
  ?scratch:scratch ->
  t ->
  Sorl_stencil.Instance.t ->
  k:int ->
  Sorl_stencil.Tuning.t array
(** {!top_k_pruned} with a freshly compiled encoder and the instance's
    own dimensionality; just the tunings. *)

val tune :
  t ->
  Sorl_stencil.Instance.t ->
  Sorl_stencil.Tuning.t
(** {!best} over the paper's pre-defined configuration set for the
    instance's dimensionality (1600 or 8640 configurations, §VI-A) —
    computed as {!top_k} with [k = 1], so the grid is pruned, not
    enumerated. *)

val save : t -> string -> unit
(** Persist model weights + feature mode as a version-headed text file
    ([sorl-model v1]), written atomically via temp-file + rename
    ({!Sorl_util.Persist.write_atomic}) so a concurrent {!load} never
    observes a torn file. *)

val load_result : string -> (t, string) result
(** Defensive load: missing files, wrong or absent version headers,
    unknown feature modes and truncated/corrupt payloads all come back
    as [Error] with a message naming the problem and the path — never
    as an exception from the middle of parsing.  This is the path the
    serving subsystem's hot reload uses. *)

val load : string -> t
(** {!load_result}, raising [Failure] with its message on [Error]. *)

val to_string : t -> string
(** The exact bytes {!save} writes. *)

val of_string : string -> (t, string) result
(** Parse {!to_string} output; same error contract as
    {!load_result}. *)
