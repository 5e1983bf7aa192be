(** Coalesced, pruned top-k over the predefined set, with a compiled
    encoder cache and a scratch arena.

    The server does not use this module: it answers every rank/tune
    from a resident full ranking (see {!Server}).  It is kept only for
    the repository benchmark's in-process layer replay, which times
    {!rank_top} and reads {!stats}.

    Concurrent calls for the same (model generation, instance, k) are
    coalesced: the first arrival (the {e leader}) runs one pruned
    top-k ({!Sorl.Autotuner.top_k_pruned}) while the rest
    ({e followers}) block and receive the same array.  Compiled
    per-instance encoders are kept in a small LRU keyed by (mode,
    instance). *)

type t

val create : ?encoder_cache:int -> unit -> t
(** [encoder_cache] (default 32) bounds the compiled-encoder LRU.
    Raises [Invalid_argument] when < 1. *)

val rank_top :
  t ->
  generation:int ->
  tuner:Sorl.Autotuner.t ->
  inst:Sorl_stencil.Instance.t ->
  k:int ->
  unit ->
  Sorl_stencil.Tuning.t array * bool
(** Top-k of the predefined-set rank for [inst] — element for element
    the first [k] of {!Sorl.Autotuner.rank_order} over
    [Tuning.predefined_set] — via branch-and-bound pruning
    ({!Sorl.Autotuner.top_k_pruned}) with working memory drawn from a
    per-batcher scratch arena, so a cold request allocates
    O(k + subcubes) instead of O(n).  The boolean is [true] when this
    call was a follower (the array is then physically shared with the
    leader's).  Exceptions from the scoring pass are re-raised in every
    coalesced caller.  Prune and arena counters land in {!stats}. *)

type stats = {
  leaders : int;  (** rank_top calls that ran a scoring pass *)
  followers : int;  (** rank_top calls satisfied by an in-flight leader *)
  encoder_hits : int;
  encoder_misses : int;
  arena_hits : int;  (** top-k scratches served from the free list *)
  arena_misses : int;  (** top-k scratches freshly allocated *)
  cubes_pruned : int;  (** block subcubes skipped by bound, summed *)
  cands_pruned : int;  (** candidates never encoded or scored, summed *)
  cands_scored : int;  (** candidates scored on the top-k path, summed *)
}

val stats : t -> stats
