(** The fleet's front door: a proxy tier speaking the same [sorl1]
    line protocol as {!Server}, consistent-hashing rank/tune requests
    by [(benchmark, verb)] onto shard servers.

    The listening side is the same {!Reactor} the server uses — one
    domain owns every client connection and hands ready request
    batches to worker domains.  The downstream side reuses {!Client}:
    one persistent pipelined connection per shard, rebuilt on demand
    with {!Client.connect_result}'s bounded backoff.  Consecutive
    requests in a client's pipeline that hash to the same shard are
    forwarded as one downstream train, so pipelining survives the
    extra hop.

    Routing: [rank]/[tune]/[observe] hash their [(benchmark, verb)]
    pair on a {!Ring}, so one benchmark's traffic always lands on the
    same shard and that shard's rankings, encoder cache and
    batcher stay hot for its slice — and one shard owns a benchmark's
    observation stream, so its log sees that benchmark's records in
    arrival order.  If the owner is draining (mid-reload) or
    unreachable, the request falls through the ring order to the next
    shard — correctness does not depend on placement, only locality
    does.  Shard replies are parsed and re-encoded; both sides are
    canonical frames, so the bytes a client sees are identical to a
    direct server connection's.

    Fleet verbs are answered by the router itself:
    - [info]: fan-out; the reply carries router fields plus every
      shard's fields prefixed [s<i>.] (or [s<i>.up=false] for an
      unreachable shard).
    - [stats]: fan-out; plain server counters are summed across shards
      ([requests], [result_cache_hits], ...), each shard's counters
      are repeated under [s<i>.], and router-side counters appear
      under [router.] — [router.forwarded] counts exactly the
      rank/tune requests proxied downstream, which is what load
      generators reconcile against.
    - [reload [name]]: generation-coordinated rolling reload.  Shards
      are reloaded one at a time: mark the shard draining (new
      requests route past it), wait out its in-flight train, issue the
      reload, readmit, proceed to the next.  At most one shard is ever
      draining, so a 2+-shard fleet keeps serving throughout, and a
      shard is never serving two generations interleaved — each shard
      switches atomically ({!Server}'s snapshot swap) and the fleet
      converges shard by shard.  A failure stops the roll and reports
      which shard, leaving earlier shards on the new model.
    - [canary <model>]: fan-out under the reload lock; every shard
      loads the candidate and builds its rankings without serving
      them.  Each shard is drained for its build, as for [reload],
      though no served bytes change — a failure stops the fanout and
      names the shard (shards already carrying the canary keep it;
      re-issuing [canary] replaces it).
    - [promote]: rolling, shard by shard like [reload] — each shard is
      drained, decides its own promote against its own observation
      log's held-out slice, swaps the built candidate in, and is
      readmitted.  The drain covers only the decision and the swap,
      not a build.  A shard's rejection ([err canary-rejected]) stops
      the roll and surfaces as the router's reply, leaving earlier
      shards on the promoted generation.
    - [shutdown]: stops the router (shards are owned by their
      supervisor — {!Fleet.stop} or the operator — not by the router).
*)

type t

val start :
  ?address:Protocol.address ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?conn_timeout_s:float ->
  ?connect_retry_s:float ->
  ?max_connections:int ->
  ?replicas:int ->
  Protocol.address list ->
  (t, string) result
(** Start a router over the given shard addresses (named [s0], [s1],
    ... in order).  Defaults: listen on [unix:sorl-router.sock], 4
    worker domains, queue capacity 64, 10 s client timeout, 2 s
    per-attempt downstream connect budget ([connect_retry_s], with
    {!Client.connect_result}'s exponential backoff inside it), 512
    connections, 128 ring replicas per shard.  Shard connections are
    opened lazily on first use, so a still-starting shard delays its
    first request, not router startup.  A [workers] or
    [queue_capacity] below 1 is an [Error] before anything is bound. *)

val address : t -> Protocol.address
val requests_routed : t -> int
(** Rank/tune requests forwarded downstream (the [router.forwarded]
    stat). *)

val stop : t -> unit
val wait : t -> unit
(** Block until the router has drained and shut down, close downstream
    connections, release the listener (and unlink a unix socket
    path).  Idempotent. *)
