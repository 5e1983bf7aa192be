(** Query-grouped ranking datasets (§IV-D).

    A sample is one stencil execution: its feature vector, the measured
    runtime and the query (stencil instance) it belongs to.  Executions
    are comparable only within a query — the partial rankings
    [P_1 … P_n] of Eq. (3) — so pairwise preference constraints are
    generated per query and never across queries. *)

type sample = {
  query : int;  (** instance identifier; arbitrary but consistent *)
  features : Sorl_util.Sparse.t;
  runtime : float;  (** seconds; smaller is better *)
  tag : string;  (** free-form description for reports *)
}

type t

val create : dim:int -> sample list -> t
(** Group samples by query.  Raises [Invalid_argument] when empty, when
    a feature vector has the wrong dimension, or when a runtime is not
    finite and positive. *)

val dim : t -> int
val num_samples : t -> int
val num_queries : t -> int
val samples : t -> sample array
val query_ids : t -> int array
(** Distinct query identifiers in first-appearance order. *)

val query_members : t -> int -> int array
(** Sample indices of one query id.  Raises [Not_found]. *)

val pairs :
  ?max_per_query:int ->
  ?rng:Sorl_util.Rng.t ->
  t ->
  (int * int) array
(** All within-query ordered pairs [(slower, faster)] with strictly
    different runtimes, grouped by query in first-appearance order.
    When a query exposes more than [max_per_query] pairs (default:
    unlimited) a uniform subsample is kept, drawn from a per-query
    generator derived from one [rng] draw ([rng] is required in that
    case).  Queries are built serially on the calling domain: the
    runtime comparisons are cheap and the pair arrays' allocation is
    the cost, which a pool fan-out made slower, not faster.  The result
    does not depend on the pool size. *)

val num_possible_pairs : t -> int
(** Total strict within-query pairs, before any subsampling — the
    paper's m' = |∪ P_i|. *)

val subset : t -> int -> t
(** [subset d n] keeps the first [n] samples (whole-query prefix is not
    required); used for training-size sweeps.
    Raises [Invalid_argument] when [n] is 0 or exceeds the size. *)

val split_queries : rng:Sorl_util.Rng.t -> t -> fraction:float -> t * t
(** Random query-level split (train, validation): each query's samples
    land entirely on one side.  [fraction] is the train share in
    (0, 1). *)

(** {2 Serialization}

    Line-oriented text format close to SVM-Rank's input files:
    a header line, then one sample per line as
    [qid runtime idx:val idx:val ... # tag].  Training sets can thus be
    generated once (the expensive phase) and reused across runs. *)

val to_string : t -> string
val of_string : string -> t
(** Raises [Failure] on malformed input. *)

val save : t -> string -> unit
(** Atomic (temp-file + rename, {!Sorl_util.Persist.write_atomic});
    the versioned [sorl-dataset 1] header guards {!load}. *)

val load : string -> t
(** Raises [Failure] on malformed files, [Sys_error] on IO errors. *)
