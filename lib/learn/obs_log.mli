(** Segmented append-only observation log — the ingestion end of the
    online learning loop.

    A log is a {e directory} of segment files ([sorl-obs v2]): sealed
    immutable segments [seg-NNNNNN.obs] plus one active tail
    [active.obs] that appends go to.  Every file starts with a
    versioned header line (written atomically via
    {!Sorl_util.Persist.write_atomic}, so even a freshly created log is
    never observable torn) followed by one checksummed record per line:

    {v o <benchmark> <bx,by,bz,u,c> <cost> <sum8> v}

    where [sum8] is the first 8 hex characters of the MD5 of the
    payload and [cost] is printed with [%.17g] so it round-trips
    exactly.  Records are framed by the trailing newline: a record is
    durable once its newline hits the disk, and replay accepts exactly
    the longest prefix of complete, checksum-valid records — a crash
    (or truncation) anywhere inside the last record silently drops only
    that record.

    {b Sealing.}  When the tail reaches the roll threshold (or {!seal}
    is called) a checksummed seal trailer [s <count> <sum8>] is
    appended, the file is renamed into the sealed sequence and a fresh
    tail is started.  Sealed segments never change again, which is what
    lets {!Enc_cache} persist their encoded features across retrains.
    Crash recovery in {!create} handles every interleaving: a torn
    record or torn seal line is truncated away; a fully sealed tail
    that missed its rename is rolled forward.

    {b Compaction.}  {!compact} merges all sealed segments into one,
    collapsing duplicate [(benchmark, tuning)] observations into an
    aggregate line [a <benchmark> <tuning> <count> <mean> <min> <sum8>]
    in first-appearance order, so the pairwise training set stops
    growing with duplicate traffic.  The replacement is atomic and the
    compacted header records the covered range, so a crash mid-cleanup
    never double-counts history.

    {b Back-compat.}  {!replay} still reads a v1 single-file log in
    place; {!create} migrates one into a v2 directory under the same
    path (dropping a torn tail exactly as a v1 reopen would). *)

type obs = {
  benchmark : string;  (** benchmark instance name, e.g. ["blur-1024x768"] *)
  tuning : Sorl_stencil.Tuning.t;
  cost : float;  (** measured runtime/cost; must be finite and > 0 *)
}

type record = {
  obs : obs;  (** [obs.cost] is the mean of the merged costs *)
  count : int;  (** observations merged into this record (1 = plain) *)
  min_cost : float;
}

type segment = {
  seg_file : string;
  seq : int;
  digest : string;  (** MD5 hex of the sealed file's bytes — the
                        {!Enc_cache} sidecar key *)
  seg_records : record list;
}

(** {2 Writing} *)

type writer

val default_roll_at : int
(** 1024 — records per segment before the tail is sealed automatically. *)

val create : ?roll_at:int -> ?fsync_on_seal:bool -> string -> (writer, string) result
(** Open the log directory at [path] for appending, creating it (and
    its parent directories) when absent.  Existing state is recovered:
    sealed segments are verified (an unsealed leftover is resealed in
    place, compaction debris is deleted), a torn active tail is
    truncated and a sealed-but-unrenamed tail is rolled forward.  A v1
    single-file log at [path] is migrated in place.  [Error] when the
    path is unreadable or carries a foreign or wrong-version header.

    [roll_at] (default {!default_roll_at}; [<= 0] disables automatic
    rolling) is the tail size at which {!append} seals.
    [fsync_on_seal] (default: the [SORL_OBS_FSYNC] environment
    variable) fsyncs the segment and its directory at each seal so
    sealed history survives power loss; it is off by default to keep
    ingestion throughput. *)

val append : writer -> obs -> unit
(** Append one record and flush it, sealing the tail first when it has
    reached the roll threshold.  Thread-safe (the writer carries its
    own mutex).  Raises [Invalid_argument] on an empty/non-token
    benchmark name or a non-finite or non-positive cost; [Sys_error]
    on I/O failure. *)

val seal : writer -> unit
(** Seal the active tail now (no-op when it is empty), making its
    records eligible for encoded-feature caching and compaction. *)

val written : writer -> int
(** Complete records on disk: those recovered at {!create} plus those
    appended since.  Lock-free: never waits for an append or a seal in
    progress. *)

val segments : writer -> int
(** Sealed segments on disk.  Lock-free, like {!written}. *)

val path : writer -> string
val close : writer -> unit

(** {2 Replay} *)

val replay : string -> (obs list * bool, string) result
(** [replay path] recovers every complete record, in append order
    (sealed segments in sequence order, then the tail); an aggregate
    yields one [obs] carrying the mean cost.  The boolean is [true]
    when every file ended cleanly and [false] when a torn or corrupt
    tail was ignored.  Reads both v2 directories and v1 single-file
    logs.  [Error] on an unreadable path or a bad header — never an
    exception. *)

val replay_segments : string -> (segment list * record list * bool, string) result
(** Structured replay of a v2 directory: sealed segments in sequence
    order (each with the content digest its encoded-feature sidecar is
    keyed by), then the active tail's records, then the clean flag.
    The incremental trainer consumes this. *)

(** {2 Compaction} *)

type compact_stats = {
  segments_before : int;
  records_before : int;
  records_after : int;
}

val compact : string -> (compact_stats, string) result
(** Merge all sealed segments into one, deduplicating repeated
    [(benchmark, tuning)] points into aggregates (count + mean + min)
    in first-appearance order.  The active tail is untouched, so this
    is safe to run beside a live writer. *)

(** {2 Wire form} *)

val tuning_to_string : Sorl_stencil.Tuning.t -> string
(** ["bx,by,bz,u,c"] — the serve protocol's tuning form. *)

val tuning_of_string : string -> Sorl_stencil.Tuning.t option
