(** Tuning vectors (§III-B, §V).

    Following the paper's PATUS setup, a code variant is determined by
    five parameters [t = (bx, by, bz, u, c)]: loop-blocking sizes per
    axis (2..1024), the innermost-loop unroll factor (0..8 where 0 means
    "no unrolling") and the multithreading chunk size — the number of
    consecutive tiles assigned to one thread (1..256).  For 2-D kernels
    [bz] is fixed to 1 and the effective search space has four
    dimensions. *)

type t = { bx : int; by : int; bz : int; u : int; c : int }

val block_min : int
val block_max : int
val unroll_min : int
val unroll_max : int
val chunk_min : int
val chunk_max : int

val create : bx:int -> by:int -> bz:int -> u:int -> c:int -> t
(** Raises [Invalid_argument] when outside the ranges above. *)

val is_valid : t -> bool

val clamp : t -> t
(** Clamp each component into range. *)

val default : dims:int -> t
(** A safe mid-range configuration (used as executor fallback). *)

val random : Sorl_util.Rng.t -> dims:int -> t
(** Uniform over the (log-uniform for block/chunk sizes) space; 2-D
    kernels get [bz = 1]. *)

(** {2 Generic integer-vector view}

    Search algorithms manipulate tuning vectors as bounded integer
    arrays: 5 dimensions for 3-D kernels, 4 (no [bz]) for 2-D ones. *)

val space_dims : dims:int -> int
(** 4 or 5. *)

val bounds : dims:int -> (int * int) array
(** Inclusive per-coordinate bounds of the integer-vector view. *)

val to_array : dims:int -> t -> int array
val of_array : dims:int -> int array -> t
(** Components are clamped into range; for [dims = 2], [bz] becomes 1. *)

(** {2 The paper's pre-defined configuration sets (§VI-A)}

    "Statically chosen in a way that the search space is hierarchically
    sampled, by considering all combinations consisting of power of two
    values for each tuning parameter" — 1600 configurations for 2-D
    stencils and 8640 for 3-D ones. *)

val predefined_set : dims:int -> t array
(** Exactly 1600 elements for [dims = 2], 8640 for [dims = 3]. *)

type axes = {
  ax_bx : int array;
  ax_by : int array;
  ax_bz : int array;
  ax_u : int array;
  ax_c : int array;
}
(** The per-parameter value grids whose cartesian product is
    {!predefined_set}.  Each axis is sorted strictly ascending. *)

val predefined_axes : dims:int -> axes
(** The grid axes for the given dimensionality ([ax_bz = [|1|]] when
    [dims = 2]).  [predefined_set ~dims] enumerates their product in
    row-major (bx, by, bz, u, c) order: element
    [(((ibx*nby + iby)*nbz + ibz)*nu + iu)*nc + ic] of the set is the
    tuning at those axis positions. *)

val predefined_size : dims:int -> int
(** [Array.length (predefined_set ~dims)] without materializing the
    set (1600 or 8640). *)

val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
