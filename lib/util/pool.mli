(** Dependency-free multicore execution over [Domain.spawn].

    Work is split into at most [domains] contiguous chunks; chunk 0
    runs on the calling domain and the rest each on a freshly spawned
    domain.  Results are always assembled in chunk (hence element)
    order, so for order-preserving operations ({!parallel_for},
    {!parallel_map}) the outcome is identical for every pool size —
    callers that are otherwise deterministic stay bit-identical whether
    they run serial or parallel.

    The pool size defaults to the [Sorl_POOL_DOMAINS] environment
    variable (also accepted as [SORL_POOL_DOMAINS]) and falls back to
    [Domain.recommended_domain_count ()].  At size 1 everything runs in
    the calling domain with no spawns.  Nested parallel calls from
    inside a worker run serially instead of spawning another level of
    domains, so parallel code can freely call parallel code.

    If a chunk raises, all chunks are still joined and the exception of
    the lowest-indexed failing chunk is re-raised with its original
    backtrace. *)

val default_domains : unit -> int
(** Current pool size: {!with_domains} override, else the environment
    variable, else [Domain.recommended_domain_count ()]; always >= 1. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains n f] runs [f] with the default pool size forced to
    [n] (1 = serial), restoring the previous default afterwards even on
    exceptions.  Intended for benchmarks and tests comparing serial and
    parallel runs; call it from the main domain only. *)

val serially : (unit -> 'a) -> 'a
(** [serially f] runs [f] with every pool entry point on {e this}
    domain degraded to the serial path (exactly as if [f] ran inside a
    pool worker), restoring the previous state afterwards even on
    exceptions.  Long-lived domains that are themselves one unit of a
    larger concurrency scheme — e.g. the serving subsystem's worker
    domains — wrap their bodies in it so a request never fans out into
    a second level of domains.  Results are unchanged: every pool
    operation is bit-identical at all sizes, serial included.

    The server's snapshot build is the one place a serving worker still
    fans out: it spawns at most one helper domain (none at pool size
    1) and hands out whole rankings, each built under [serially].  A
    snapshot is 17 independent rankings of 1,600 or 8,640 candidates,
    so two domains halve it, where fanning out inside each ranking's
    scoring gained nothing. *)

val parallel_chunks : ?domains:int -> int -> (int -> int -> 'r) -> 'r array
(** [parallel_chunks n f] partitions [0, n) into at most [domains]
    non-empty contiguous chunks and runs [f lo hi] (half-open) on each;
    the per-chunk results are returned in chunk order.  [f] must be
    safe to run concurrently with itself on disjoint ranges. *)

val parallel_for : ?domains:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for every [i] in [0, n), chunked over
    the pool.  Within a chunk indices run in increasing order. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]: element [i] of the result is
    [f a.(i)] regardless of pool size. *)

val parallel_map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map]. *)

val parallel_reduce :
  ?domains:int ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'a array ->
  'b
(** [parallel_reduce ~map ~combine ~init a] maps every element and
    folds the per-chunk partial results with [combine] in chunk order
    ([init] seeds the final fold).  Deterministic for a fixed pool
    size; [combine] must be associative for the result to be
    independent of the pool size (floating-point sums are only
    approximately so). *)
