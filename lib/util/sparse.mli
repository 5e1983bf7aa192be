(** Sparse float vectors (sorted index/value pairs).

    The stencil pattern occupies a bounded-offset 7×7×7 cube of which
    only a handful of cells are set (§III-A), so feature vectors are
    stored sparsely and densified only where a solver needs it. *)

type t
(** Immutable sparse vector: a fixed dimension plus the nonzero
    entries sorted by index. *)

val of_list : dim:int -> (int * float) list -> t
(** Build from (index, value) pairs.  Duplicate indices are summed (in
    list order, via a stable sort-and-merge — no hashing), explicit
    zeros dropped, indices must be inside [\[0, dim)]. *)

val of_sorted : dim:int -> int array -> float array -> t
(** [of_sorted ~dim idx v] builds a vector directly from parallel
    index/value arrays that are already strictly increasing in index
    with no zero values — the invariant {!of_list} establishes, checked
    here in O(nnz) without the hashing/sorting pass.  The arrays are
    copied.  Raises [Invalid_argument] if the invariant is violated. *)

val of_dense : float array -> t
(** Keep only nonzero entries. *)

val to_dense : t -> float array

val dim : t -> int

val nnz : t -> int
(** Number of stored nonzeros. *)

val get : t -> int -> float
(** [get v i] is the [i]-th coordinate (0 where not stored). *)

val nonzeros : t -> (int * float) array
(** Stored entries, sorted by index. *)

val iteri : (int -> float -> unit) -> t -> unit
(** [iteri f v] calls [f i x] for every stored nonzero in increasing
    index order, without materializing a dense copy or an entry
    array. *)

val dot : t -> t -> float
(** Sparse-sparse inner product. *)

val dot_dense : t -> float array -> float
(** Sparse-dense inner product.  The dense side must have dimension at
    least {!dim}. *)

val axpy_dense : float -> t -> float array -> unit
(** [axpy_dense a x y] performs [y <- y + a·x] with sparse [x]. *)

val sub : t -> t -> t
(** Element-wise difference (dimensions must match). *)

val scale : float -> t -> t

val norm2 : t -> float

val map_values : (float -> float) -> t -> t
(** Apply a function to each stored value (zeros produced are dropped). *)

val concat : t list -> t
(** Concatenate along the index axis; the result dimension is the sum of
    input dimensions. *)

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit

type sparse = t
(** Alias so {!Csr} can refer to single vectors. *)

(** Compressed sparse rows: a batch of sparse vectors sharing one flat
    index array, one flat value array and a row-offset table.  Each row
    obeys the {!of_sorted} invariant (strictly increasing indices, no
    explicit zeros), so the row kernels below replay the exact float
    operations of their single-vector counterparts ({!dot_dense},
    {!axpy_dense}, {!norm2}) — batch callers stay bit-identical to the
    vector-at-a-time path while touching only flat arrays, with no
    per-row allocation.  This is the storage format of the solvers'
    training pairs. *)
module Csr : sig
  type t

  val create : dim:int -> offs:int array -> idx:int array -> v:float array -> t
  (** [create ~dim ~offs ~idx ~v] wraps row [r]'s entries at
      [\[offs.(r), offs.(r+1))] of [idx]/[v].  The invariant (offsets
      spanning the arrays and nondecreasing; per-row indices strictly
      increasing inside [\[0, dim)]; no zero values) is checked in
      O(nnz).  The arrays are {e not} copied — callers must not mutate
      them afterwards. *)

  val of_rows : dim:int -> sparse array -> t
  (** Concatenate sparse vectors into one CSR batch (one copy, done
      once — e.g. at [fit] time so solver epochs run on flat arrays). *)

  val of_diffs : dim:int -> sparse array -> (int * int) array -> t
  (** [of_diffs ~dim vs pairs] has one row per pair [(a, b)]: the
      entries of [sub vs.(a) vs.(b)], bit for bit, written straight
      into the flat arrays by a count pass and a fill pass, with no
      intermediate vector per pair.  Raises [Invalid_argument] when a
      paired vector's dimension is not [dim]. *)

  val dim : t -> int
  val rows : t -> int
  val nnz : t -> int
  val row_nnz : t -> int -> int

  val row : t -> int -> sparse
  (** Copy row [r] back out as a standalone sparse vector. *)

  val dot_row : t -> int -> float array -> float
  (** [dot_row t r w] = [dot_dense (row t r) w], allocation-free. *)

  val axpy_row : float -> t -> int -> float array -> unit
  (** [axpy_row a t r y] performs [y <- y + a·row_r], allocation-free. *)

  val prefetch_row : t -> int -> unit
  (** [prefetch_row t r] reads one entry per cache line of row [r] and
      discards it, so a caller that knows the next few rows it will
      visit can have their cache misses overlap.  Changes no result. *)

  val norm2_row : t -> int -> float
  (** Squared L2 norm of row [r] = [norm2 (row t r)], allocation-free. *)
end
