(** Request coalescing for concurrent rank queries.

    Ranking is deterministic given (model generation, instance,
    candidate set), so when several connections ask to rank the same
    benchmark at the same time there is no point running the scoring
    pass once per connection: the first arrival (the {e leader}) runs
    one pass through the compiled fast path
    ({!Sorl.Autotuner.rank_order}) while the rest ({e followers})
    block on a condition variable and receive the {e same} result
    array.  Results are keyed by model generation, so a hot reload
    mid-flight can never leak a stale ranking to a request that arrived
    after the swap.

    The batcher also owns a small LRU of compiled per-instance encoders
    (compiling touches the full 7×7×7 pattern matrix; reusing the
    encoder is what makes repeated queries for the same benchmark
    cheap).  Encoders are keyed by (mode, instance), independent of the
    model generation — a reload with an unchanged feature mode keeps
    the cache warm. *)

type t

val create : ?encoder_cache:int -> unit -> t
(** [encoder_cache] (default 32) bounds the compiled-encoder LRU.
    Raises [Invalid_argument] when < 1. *)

val rank :
  t ->
  generation:int ->
  tuner:Sorl.Autotuner.t ->
  inst:Sorl_stencil.Instance.t ->
  Sorl_stencil.Tuning.t array ->
  int array * bool
(** Rank [candidates] for [inst] under the model of [generation].
    Returns the best-first permutation of [candidates]' indices —
    mapped to its tunings it is bit-identical to
    [Sorl.Autotuner.rank tuner inst candidates] — and whether this call
    was coalesced onto another in-flight computation ([true] =
    follower; the array is then physically shared with the leader's).
    Exceptions from the scoring pass are re-raised in every coalesced
    caller. *)

val rank_top :
  t ->
  ?incumbents:Sorl_stencil.Tuning.t array ->
  generation:int ->
  tuner:Sorl.Autotuner.t ->
  inst:Sorl_stencil.Instance.t ->
  k:int ->
  unit ->
  Sorl_stencil.Tuning.t array * bool
(** Top-k of the predefined-set rank for [inst] — element for element
    the first [k] of what {!rank} over [Tuning.predefined_set] returns
    — via branch-and-bound pruning ({!Sorl.Autotuner.top_k_pruned})
    with working memory drawn from a per-batcher scratch arena, so a
    cold request allocates O(k + subcubes) instead of O(n).  Coalesced
    like {!rank}, keyed by (generation, instance, k); [incumbents]
    (warm-start pruning bounds, see {!Sorl.Autotuner.top_k_pruned})
    never changes the result, so it is deliberately not part of the
    key.  Prune and arena counters land in {!stats}. *)

type stats = {
  leaders : int;  (** rank calls that ran a scoring pass *)
  followers : int;  (** rank calls satisfied by an in-flight leader *)
  encoder_hits : int;
  encoder_misses : int;
  arena_hits : int;  (** top-k scratches served from the free list *)
  arena_misses : int;  (** top-k scratches freshly allocated *)
  cubes_pruned : int;  (** block subcubes skipped by bound, summed *)
  cands_pruned : int;  (** candidates never encoded or scored, summed *)
  cands_scored : int;  (** candidates scored on the top-k path, summed *)
}

val stats : t -> stats
