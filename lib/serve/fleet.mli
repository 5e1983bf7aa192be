(** Shard-process supervisor for the serving fleet.

    {!start} spawns N child processes, each running a full {!Server} on
    its own unix socket under [dir] ([shard0.sock], [shard1.sock],
    ...), and blocks until every shard answers an [info] probe — so a
    caller can hand the addresses straight to {!Router.start} knowing
    the fleet is live.  Separate {e processes}, not domains: each shard
    gets its own GC, its own resident rankings, and a
    crash takes down one slice instead of the fleet.

    Shards are {e not} forked — OCaml 5 forbids [Unix.fork] in any
    process that has ever created a domain, which rules out every
    interesting supervisor (training runs on a domain pool before the
    fleet starts).  Instead the supervisor re-executes its own binary
    ([Sys.executable_name]) with the server parameters marshalled into
    the [SORL_FLEET_SHARD] environment variable, and the child's call
    to {!maybe_shard_main} turns it into a shard before any CLI or
    test-harness code runs.  Every executable that may host a fleet
    must therefore call {!maybe_shard_main} as its first statement.

    {!stop} is the graceful teardown: a protocol [shutdown] to every
    shard (its reactor drains in-flight requests), then [waitpid] on
    each child — escalating to [SIGKILL] for a shard that will not
    exit — so no orphan processes or stale socket files survive, which
    the CI fleet job asserts with [pkill -0]. *)

type t

val maybe_shard_main : unit -> unit
(** No-op unless [SORL_FLEET_SHARD] is set; then runs the shard server
    described by the variable and [exit]s when it shuts down (never
    returning).  Call this before anything else in any executable that
    uses {!start} — the spawned children are re-executions of that
    binary. *)

val shard_address : dir:string -> int -> Protocol.address
(** The unix-socket address shard [i] listens on under [dir]. *)

val start :
  dir:string ->
  shards:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?conn_timeout_s:float ->
  ?max_connections:int ->
  ?obs_dir:string ->
  ?obs_roll:int ->
  ?obs_fsync:bool ->
  ?ready_timeout_s:float ->
  Server.source ->
  (t, string) result
(** Spawn [shards] server processes serving [source] (a
    [Model_store]-backed source gives every shard the same versioned
    store, which the rolling reload depends on; a [Store] source is
    re-opened by path in the child, a [Model_file] by file name).
    [dir] is created if missing.  Per-shard options are passed through
    to {!Server.start}; [workers] defaults to 1 — shard-level
    parallelism comes from running more shards.  [obs_dir] (created if
    missing) gives every shard its own observation log
    ([shard0.obs], [shard1.obs], ...) — the router routes [observe] by
    benchmark, so each log carries a disjoint slice; replaying all of
    them reassembles the fleet's measurements.  [obs_roll] /
    [obs_fsync] are passed through to each shard.  Fails (and reaps any shards already
    spawned) if a shard does not answer an [info] probe within
    [ready_timeout_s] (default 10). *)

val addresses : t -> Protocol.address list
(** Shard addresses in index order — feed to {!Router.start}. *)

val pids : t -> int list

val alive : t -> bool list
(** Per-shard liveness (signal-0 probe), index order. *)

val stop : t -> unit
(** Graceful shutdown of every shard and reap of every child;
    idempotent.  Escalates to [SIGKILL] after ~5 s per shard. *)
