(** Coalesced top-k over the predefined set, with a compiled encoder
    cache.

    The server does not use this module: it answers every rank/tune
    from a resident full ranking (see {!Server}).  It is kept only for
    the repository benchmark's in-process layer replay, which times
    {!rank_top}; it goes with ROADMAP item 1.

    Concurrent calls for the same (model generation, instance, k) are
    coalesced: the first arrival (the {e leader}) runs one full sort
    ({!Sorl.Autotuner.top_k_pruned}) while the rest
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
(** Top-k of the predefined-set rank for [inst]: the first [k] of
    {!Sorl.Autotuner.rank_order} over [Tuning.predefined_set].  The
    boolean is [true] when this call was a follower (the array is then
    physically shared with the leader's).  Exceptions from the scoring
    pass are re-raised in every coalesced caller. *)

type stats = {
  leaders : int;  (** rank_top calls that ran a scoring pass *)
  followers : int;  (** rank_top calls satisfied by an in-flight leader *)
  encoder_hits : int;
  encoder_misses : int;
}

val stats : t -> stats
