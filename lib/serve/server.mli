(** The ranking server: event-driven connection multiplexer, reads
    answered on the reactor, worker domains for everything else,
    resident per-generation rankings, backpressure, hot reload.

    A single reactor domain ({!Reactor}) owns every connection: it
    accepts, reads and frames the byte stream into request lines.  A
    ready batch whose every line is a [rank]/[tune] (bang forms
    included), [info] or [stats] is a read of resident state, and the
    reactor answers it itself: each line is parsed once and served by
    the same code, counters and [serve/request] span a worker uses, and
    the replies leave in one non-blocking write.  A read therefore
    costs no cross-domain wake-up.  Any batch holding another verb
    ([observe], [reload], [canary], [promote], [shutdown]) or a line
    that does not parse goes, whole, to [workers] long-lived worker
    domains through a bounded {!Sorl_util.Bqueue}; one place per batch
    keeps replies in request order.  Idle keep-alive connections cost
    one [select] slot, and requests a client pipelines (several lines
    buffered before the server reads) are answered in order with a
    single write.  Worker domains run under {!Sorl_util.Pool.serially},
    so the ranking builds of a [reload] or [canary] never fan out into
    a second level of domains, and never delay a read.

    The hot path is a slice of a resident ranking.  Under one model,
    [rank k] is the first [k] of the benchmark's full ranking of the
    paper's pre-defined configuration set and [tune] is its first
    element.  So each serving snapshot carries one full ranking per
    registered benchmark, stored as 16-bit indices into the grid, and
    the server keeps one table of pre-encoded tuning strings per grid
    shape.  A reply of any depth is the [ok rank <b> <n>] header
    followed by the first [min k n] table entries: no scoring, no
    formatting, byte-identical to {!Protocol.encode_response}.  All
    rankings of a snapshot are built ({!Sorl_stencil.Features.compile}
    and {!Sorl.Autotuner.rank_order}) before it goes live, at [start],
    [reload] and [canary], so every rank and tune
    reply — [rank!]/[tune!] included, which are answered exactly like
    the plain verbs — is a slice.  A retired generation's rankings are
    freed with its snapshot, so memory holds one ranking per benchmark
    for the live generation and, while one is loaded, the canary,
    whatever the traffic.

    The served model lives in an [Atomic.t] holding an immutable
    (tuner, name, generation) snapshot: [reload] builds the new
    snapshot off to the side — with the typed
    {!Sorl.Autotuner.load_result} / {!Model_store.load} error paths, so
    a corrupt file is an [err store] reply and the old model keeps
    serving — builds its rankings, and swaps it in one atomic store.  A
    build that raises leaves the old snapshot live and the request gets
    [err internal].  In-flight requests keep the snapshot they started
    with; replies are never torn across models, and rankings live in
    the snapshot of the model that produced them, so a stale
    generation's reply can never be served after the reload that
    retired it.

    Backpressure is explicit: when [max_connections] is reached at
    accept, or a batch needs a worker and the worker queue is full, the
    client gets one [err busy] reply per request (written without
    blocking, like every reactor reply) and the connection is closed.
    Reads never queue, so they are never shed.

    {2 Online learning}

    With [obs_log] set, the server closes the measure→train→publish→
    serve loop's serving side.  [observe] requests append to an
    append-only, checksummed {!Sorl_learn.Obs_log} (crash-safe:
    replay recovers every complete record).  [canary <model>] loads a
    store entry and builds its whole serving snapshot with the code
    [reload] uses, but does not make it live; a later [canary] replaces
    it.  Replies stay byte-identical to the stable generation, and
    every rank/tune, before its reply is written, compares the first
    [min k n] entries (1 for tune) of the stable and candidate rankings
    of its benchmark, counting into [canary_agree]/[canary_disagree]
    and their per-benchmark keys.  That compare is the only canary work
    on the reply path; with no canary loaded the cost is one atomic
    read.  [promote] replays the log, takes the deterministic held-out
    slice ({!Sorl_learn.Trainer.split} with [holdout]/[holdout_seed] —
    the same split the trainer used, so the candidate is judged on
    records it never trained on) and compares mean per-benchmark
    Kendall tau: no worse swaps the already built candidate in through
    {e exactly} the hot-reload install, stamped with the live
    generation + 1; worse rolls it back and quarantines the name until
    a new generation is published.

    Shutdown (the protocol request, or {!stop}) is graceful: the
    reactor stops accepting, queued batches drain, in-flight requests
    complete and are answered, unwritten replies go out, then the
    domains exit and {!wait} returns.

    Telemetry (when enabled): [serve.requests], [serve.errors],
    [serve.connections], [serve.busy], [serve.reloads],
    [serve.pipelined], [serve.reactor_replies] counters, a
    [serve/request] span per request and [serve.request_s] /
    [serve.queue_depth] histograms.  The [stats] request exports these
    and more; [reactor_replies] counts the requests answered on the
    reactor, so it equals [requests] for a server that only saw reads.
    The [result_cache_*] keys keep their names although no result cache
    is left, because perfbench and [bench/] read them by those names:
    [result_cache_hits] counts rank/tune replies sliced from a resident
    ranking (every one for a known benchmark), and
    [result_cache_entries] the rankings resident in the current
    generation (one per registered benchmark). *)

type t

(** Where models come from — both {!Protocol.Reload} targets. *)
type source =
  | Model_file of string
      (** a single [Autotuner.save] file; [reload] re-reads it *)
  | Store of Model_store.t * string
      (** a {!Model_store} and the name to serve first; [reload <name>]
          switches models *)

val listener :
  Protocol.address -> (Unix.file_descr * Protocol.address, string) result
(** Bind and listen on an address, returning the descriptor and the
    effective address ([Tcp (host, 0)] comes back with the kernel's
    ephemeral port; a stale unix socket file is unlinked first).
    Shared with {!Router.start}, which fronts the same protocol. *)

val start :
  ?address:Protocol.address ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?conn_timeout_s:float ->
  ?max_connections:int ->
  ?obs_log:string ->
  ?obs_roll:int ->
  ?obs_fsync:bool ->
  ?holdout:float ->
  ?holdout_seed:int ->
  source ->
  (t, string) result
(** Load the initial model, build every benchmark's ranking, bind the
    listener and spawn the reactor and worker domains.  Defaults:
    [unix:sorl.sock], [Sorl_util.Pool.default_domains ()] workers,
    worker queue capacity 64 batches (reads never queue), 10 s
    idle/write timeout, 512 connections.  [Tcp (host, 0)] binds an
    ephemeral port — read the real one back from {!address}.  Bad arguments ([workers] or
    [queue_capacity] below 1, [holdout] out of range), an unloadable
    model or a failed build return [Error] with
    no descriptor, observation-log writer or socket file left open.

    [obs_log] enables observation ingestion into the given segmented
    log directory (created — parent directories included — when
    absent; a v1 single-file log at the same path is migrated; a torn
    tail from a crash is truncated away on open).  [obs_roll]
    (default {!Sorl_learn.Obs_log.default_roll_at}; 0 disables) seals
    the active tail into an immutable segment every so many records,
    which is what lets retraining reuse per-segment encoded-feature
    caches; [obs_fsync] (default off, or [SORL_OBS_FSYNC]) fsyncs
    each seal.  Without [obs_log], [observe] and [promote] answer
    [err no-log].  [holdout]/[holdout_seed] (defaults
    {!Sorl_learn.Trainer.default_holdout} /
    {!Sorl_learn.Trainer.default_seed}) pin the promote decision's
    held-out slice and must match the trainer's split. *)

val address : t -> Protocol.address
(** The bound address (with the actual port for ephemeral TCP). *)

val generation : t -> int
(** Current model generation; 0 at start, +1 per successful reload or
    promote. *)

val requests_served : t -> int

val stop : t -> unit
(** Begin graceful shutdown (idempotent; also triggered by a protocol
    [shutdown] request).  Returns immediately — {!wait} observes the
    drain. *)

val wait : t -> unit
(** Block until the server has fully shut down, then release the
    listener (and unlink a unix socket path).  Idempotent. *)
