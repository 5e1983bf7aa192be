(** Feature encoding (§III).

    A stencil execution [(k, s, t)] is summarized in a sparse feature
    vector with every component normalized to [\[0, 1\]]:

    - cells 0..342: the bounded-offset 7×7×7 pattern matrix; the cell of
      offset [o] holds (number of buffers accessing [o]) / (number of
      buffers), so single-buffer kernels store the paper's binary mask;
    - buffer count (scaled by the maximum of 4);
    - data type (0 float, 1 double);
    - input size as [log2 s / log2 2048] per axis;
    - tuning parameters: [log2 b / log2 1024] per block axis, [u / 8],
      [log2 c / log2 256].

    Two modes are provided.  [Canonical] is the literal encoding of
    §III: a concatenation of instance and tuning features.  Because the
    rank model is linear and pairs are always built within one instance,
    instance features cancel in every pairwise constraint, so a
    canonical model orders tuning vectors identically for every
    instance.  [Extended] therefore appends hardware-independent
    interaction features (tile volume, working-set size, halo fraction,
    tile/grid ratios, unroll pressure, tile-count terms) that couple the
    instance and the tuning vector while remaining purely static; this
    is what lets the linear ranker specialize per stencil, and is the
    default of the experiment drivers.

    The extended block has two parts: continuous interaction terms
    (tile volume, working-set size, halo fraction, grid-coverage
    ratios, SIMD remainder, unroll pressure, tile/chunk counts) and
    {e one-hot bin} features — log2 bins of each tuning parameter and
    of the derived working-set / streaming-reuse sizes.  The bins give
    the linear model a piecewise-constant basis: block-size preference
    is not monotone (too small starves SIMD, too large spills the
    cache), which no weighting of monotone scalars can express, while
    "bx ∈ [32,128) good, working set past the L2 scale bad" is exactly
    a linear function of bins.  The canonical-vs-extended gap is
    quantified by the ablation bench. *)

type mode = Canonical | Extended

val dim : mode -> int
(** Feature-space dimension (353 canonical, 480 extended). *)

val encode : mode -> Instance.t -> Tuning.t -> Sorl_util.Sparse.t
(** Feature vector of one stencil execution; all values in [\[0,1\]]. *)

val encode_dense : mode -> Instance.t -> Tuning.t -> float array

val encoder : mode -> Instance.t -> Tuning.t -> Sorl_util.Sparse.t
(** [encoder mode inst] precomputes the instance-dependent entries and
    returns a closure encoding tuning vectors of that instance — use it
    when ranking many candidates for one instance. *)

val encoder_entries : mode -> Instance.t -> Tuning.t -> (int * float) list
(** Like {!encoder} but returns the raw (index, value) entry list the
    sparse vector is built from (possibly with duplicate indices, which
    sum).  Feed it to {!Sorl_svmrank.Model.entry_scorer} to score
    candidates without materializing a vector per candidate.  Prefer
    the {!compiled} fast path below — this list-based variant is kept
    as the reference implementation and for the throughput bench's
    before/after comparison. *)

(** {1 Compiled fast path}

    [compile] materializes the instance-dependent entries once into
    flat sorted arrays; [encode_into] then writes a full encoding into
    a caller-owned scratch buffer with {e zero} per-candidate
    allocation (the tuning-dependent entries are emitted in increasing
    index order above the instance block, so the filled prefix directly
    satisfies the sorted-unique-nonzero invariant of
    {!Sorl_util.Sparse.of_sorted}).  Entry values are computed by the
    same functions as {!encode}, so every fast-path encoding is
    bit-identical to its [encode] counterpart. *)

type compiled
(** Per-instance compiled encoder. *)

val compile : mode -> Instance.t -> compiled
val compiled_mode : compiled -> mode
val compiled_dim : compiled -> int

val max_nnz : compiled -> int
(** Upper bound on entries per encoding; the minimum scratch size for
    {!encode_into}. *)

val encode_into : compiled -> Tuning.t -> int array -> float array -> int
(** [encode_into c t idx v] writes the encoding of [t] into
    [idx.(0..n-1)]/[v.(0..n-1)] and returns [n].  The scratch arrays
    must hold at least {!max_nnz} cells; indices come out strictly
    increasing with no explicit zeros.  Allocation-free. *)

val encode_at : compiled -> Tuning.t -> int array -> float array -> int -> int
(** [encode_at c t idx v pos] writes one encoding starting at position
    [pos] and returns the end position — {!encode_into} at an offset,
    for packing many encodings into one flat block (the caller
    guarantees {!max_nnz} cells of headroom above [pos]).  Each packed
    row is scored with {!Sorl_svmrank.Model.range_scorer}. *)

val encode_compiled : compiled -> Tuning.t -> Sorl_util.Sparse.t
(** Convenience wrapper materializing one {!encode_into} result;
    bit-identical to [encode mode inst t]. *)

val encode_csr : compiled -> Tuning.t array -> Sorl_util.Sparse.Csr.t
(** [encode_csr c ts] encodes a whole candidate batch into one CSR
    block (one flat index array, one flat value array, row offsets) —
    the batch format {!Sorl_svmrank.Model.score_csr} and the solvers
    consume.  Row [i] holds exactly the entries of
    [encode mode inst ts.(i)] (bit-identical values). *)

(** {1 Score lower bounds over tuning subcubes}

    Because the rank model is linear, [w·φ(inst, t)] splits into a
    constant instance part, per-axis terms, and coupled terms whose
    derived quantities (tile volume, working set, streaming reuse,
    tile/chunk counts) are monotone in the effective block dimensions.
    A {!bounder} precomputes the constant and per-axis contribution
    tables once per (instance, weights); {!bound_lower} then bounds the
    score of {e every} candidate in a subcube of the predefined grid
    from below — exactly for the separable terms, by weight-signed
    interval endpoints for the coupled ones, minus a relative epsilon
    absorbing summation-order effects.  Soundness (bound <= each
    candidate's computed score) is what branch-and-bound ranking relies
    on; tightness only affects how much gets pruned, never the
    answer. *)

type bounder

val bounder :
  compiled ->
  w:float array ->
  bx:int array ->
  by:int array ->
  bz:int array ->
  u:int array ->
  c:int array ->
  bounder
(** [bounder enc ~w ~bx ~by ~bz ~u ~c] prepares bounds for the grid
    spanned by the given strictly-ascending axis value arrays (use
    {!Tuning.predefined_axes}) under dense weights [w] (use
    [Model.weights]; length must equal [compiled_dim enc] — checked).
    Raises [Invalid_argument] on dimension mismatch or a non-ascending
    or empty axis. *)

val bound_lower :
  bounder ->
  bx:int * int ->
  by:int * int ->
  bz:int * int ->
  u:int * int ->
  c:int * int ->
  float
(** [bound_lower b ~bx:(l, h) ...] takes inclusive {e axis-position}
    ranges (indices into the axis arrays given to {!bounder}, not
    parameter values) and returns a lower bound on the score of every
    tuning in the subcube.  O(range widths), allocation-free. *)

val names : mode -> string array
(** Human-readable name per feature index (pattern cells are named by
    their offset). *)

val tuning_feature_indices : mode -> int array
(** Indices whose value depends on the tuning vector (the only ones that
    matter inside a pairwise constraint). *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode

val schema_hash : mode -> string
(** 16-hex-character digest of the feature schema (mode, dimension and
    every feature name).  Persisted encoded-feature caches are keyed by
    it, so any change to the feature layout invalidates them instead of
    silently reinterpreting stale indices. *)
