type mode = Canonical | Extended

let max_buffers = 4.

(* Forced inlining keeps these float helpers out of the hot encoding
   path's call graph: a non-inlined call boxes its float argument and
   result, which is most of the allocation an encode would make.  The
   divisor is hoisted to module init — [log 2.] is not constant-folded,
   and inline it would cost a second [log] call per [lg2].  Dividing by
   the identical value keeps every result bit-identical. *)
let log2_c = log 2.
let[@inline always] lg2 x = log x /. log2_c

(* [lg2i] answers from a table for small arguments: the hot encoding
   path takes logs of block sizes, unroll/chunk factors and tile
   counts, which are almost always below the table size.  Entries are
   filled with the identical expression the fallback computes, so a
   table hit is bit-identical to the direct computation. *)
let lg2i_tbl = Array.init 4096 (fun i -> log (float_of_int i) /. log2_c)

let[@inline always] lg2i x =
  if x > 0 && x < 4096 then Array.unsafe_get lg2i_tbl x
  else lg2 (float_of_int x)

(* Canonical layout (§III): pattern matrix, buffers, dtype, sizes,
   tuning parameters. *)
let pattern_base = 0
let buffers_idx = Pattern.cells (* 343 *)
let dtype_idx = buffers_idx + 1
let size_base = dtype_idx + 1 (* 3 cells *)
let tuning_base = size_base + 3 (* 5 cells: bx by bz u c *)
let canonical_dim = tuning_base + 5 (* 353 *)

(* Extended layout: hardware-independent derived features.  Continuous
   interaction terms first, then one-hot bins that give the linear
   ranker a piecewise-constant basis over each tuning parameter and
   over the cache-relevant derived quantities (block-size preference is
   not monotone, so log-scaled scalars alone cannot express it). *)
let continuous_count = 10
let block_bins = 11 (* log2(b) in 0..10 *)
let unroll_bins = 9 (* u one-hot, 0..8 *)
let chunk_bins = 9 (* log2(c) in 0..8 *)
let ws_bins = 20 (* log2(working-set bytes), 10..29 *)
let reuse_bins = 20 (* log2(streaming reuse bytes), 10..29 *)
let count_bins = 13 (* log2(tiles|chunks)/2, 0..12 *)

let continuous_base = canonical_dim
let bx_bins_base = continuous_base + continuous_count
let by_bins_base = bx_bins_base + block_bins
let bz_bins_base = by_bins_base + block_bins
let unroll_bins_base = bz_bins_base + block_bins
let chunk_bins_base = unroll_bins_base + unroll_bins
let ws_bins_base = chunk_bins_base + chunk_bins
let reuse_bins_base = ws_bins_base + ws_bins
let tiles_bins_base = reuse_bins_base + reuse_bins
let chunks_bins_base = tiles_bins_base + count_bins
let extended_dim = chunks_bins_base + count_bins

let dim = function Canonical -> canonical_dim | Extended -> extended_dim

let[@inline always] clamp01 v = if v < 0. then 0. else if v > 1. then 1. else v

(* Int-typed helpers for the encoding path.  [Stdlib.min]/[max] and an
   unannotated comparison are polymorphic: each call goes through the
   generic compare C function, and without flambda that is not
   specialized away even when the arguments are ints.  Typed at [int],
   every comparison below compiles to one machine compare. *)
let[@inline always] imin (a : int) b = if a <= b then a else b
let[@inline always] imax (a : int) b = if a >= b then a else b
let[@inline always] clamp_int (v : int) lo hi = if v < lo then lo else if v > hi then hi else v

let[@inline always] log2_bin v lo hi =
  clamp_int (int_of_float (Float.round (lg2 v)) - lo) 0 (hi - lo)

(* Integer-argument variant; equal to [log2_bin (float_of_int x) lo hi]
   because [lg2i] is bit-identical to [lg2 (float_of_int x)]. *)
let[@inline always] log2_bin_i x lo hi =
  clamp_int (int_of_float (Float.round (lg2i x)) - lo) 0 (hi - lo)

(* Static per-instance inputs of the tuning-dependent entries,
   precomputed once ([compile] hoists this out of the per-candidate
   loop; the list path rebuilds it per call) so the hot emitter below
   touches only ints, unboxed floats and the target arrays. *)
type tctx = {
  x_mode : mode;
  x_sx : int;
  x_sy : int;
  x_sz : int;
  x_nbuf : int;
  x_bytes : float;
  x_taps : int;
  x_rx : int array; (* per-buffer pattern radii *)
  x_ry : int array;
  x_rz : int array;
}

let tctx mode inst =
  let k = Instance.kernel inst in
  let s = Instance.size inst in
  let radii = Array.of_list (List.map Pattern.radius (Kernel.buffer_patterns k)) in
  {
    x_mode = mode;
    x_sx = s.Instance.sx;
    x_sy = s.Instance.sy;
    x_sz = s.Instance.sz;
    x_nbuf = Kernel.num_buffers k;
    x_bytes = float_of_int (Dtype.bytes (Kernel.dtype k));
    x_taps = Kernel.taps k;
    x_rx = Array.map (fun (r, _, _) -> r) radii;
    x_ry = Array.map (fun (_, r, _) -> r) radii;
    x_rz = Array.map (fun (_, _, r) -> r) radii;
  }

(* Instance-only entries, shared by every tuning vector of one
   instance; [encoder] precomputes them so ranking thousands of
   candidates re-derives only the tuning-dependent part. *)
let instance_entries inst =
  let k = Instance.kernel inst in
  let s = Instance.size inst in
  let nb = float_of_int (Kernel.num_buffers k) in
  let entries = ref [] in
  let push i v = if v <> 0. then entries := (i, v) :: !entries in
  (* Pattern cells: per-offset access multiplicity, normalized. *)
  let counts = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun o ->
          let c = try Hashtbl.find counts o with Not_found -> 0 in
          Hashtbl.replace counts o (c + 1))
        (Pattern.offsets p))
    (Kernel.buffer_patterns k);
  Hashtbl.iter
    (fun o c -> push (pattern_base + Pattern.cell_index o) (float_of_int c /. nb))
    counts;
  push buffers_idx (clamp01 (nb /. max_buffers));
  push dtype_idx (Dtype.to_feature (Kernel.dtype k));
  push size_base (clamp01 (lg2i s.Instance.sx /. 11.));
  push (size_base + 1) (clamp01 (lg2i s.Instance.sy /. 11.));
  push (size_base + 2) (clamp01 (lg2i s.Instance.sz /. 11.));
  !entries

(* Upper bound on tuning-dependent entries: 5 canonical scalars plus,
   in extended mode, the continuous block and one entry per one-hot
   bin group. *)
let max_tuning_entries = function
  | Canonical -> 5
  | Extended -> 5 + continuous_count + 9

(* Per-feature value functions of the entry emitter below. *)
let[@inline always] f_block_scalar b = clamp01 (lg2i b /. 10.)
let[@inline always] f_unroll_scalar u = clamp01 (float_of_int u /. 8.)
let[@inline always] f_chunk_scalar c = clamp01 (lg2i c /. 8.)
let[@inline always] f_tile_volume pts = clamp01 (lg2i pts /. 30.)
let[@inline always] f_working_set bytes = clamp01 (lg2 bytes /. 35.)

(* Halo fraction (W - T(nbuf+1))/W. *)
let[@inline always] f_halo ws_pts tile_pts nbuf =
  clamp01 (float_of_int (ws_pts - (tile_pts * (nbuf + 1))) /. float_of_int ws_pts)

let[@inline always] f_cover b s = clamp01 (float_of_int b /. float_of_int s)
let[@inline always] f_simd_remainder b = clamp01 (float_of_int (b mod 8) /. 8.)
let[@inline always] f_unroll_pressure u_eff taps = clamp01 (lg2i (u_eff * taps) /. 10.)
let[@inline always] f_count x = clamp01 (lg2i (imax 1 x) /. 24.)
let[@inline always] count_bin x = clamp_int (log2_bin_i (imax 1 x) 0 24 / 2) 0 (count_bins - 1)

(* Single source of truth for the tuning-dependent entries: every
   encoding path (entry lists, compiled fast path) writes
   through this function, so all paths produce the same floats by
   construction.  Entries land at strictly increasing indices — all
   above the instance block — with zeros skipped.  Direct array writes
   (instead of an emit callback) keep the hot path allocation-free:
   values never cross a function boundary, so no float is boxed.  The
   integer accumulations are exact, so hoisting the instance scalars
   into [tctx] cannot change any emitted value. *)
let write_tuning_entries ctx (t : Tuning.t) idx v pos =
  (* [n] is a non-escaping ref (eliminated by the compiler) and the
     zero-skip test is expanded at every site instead of going through
     a local [push] closure: a closure call would box each float value
     on its way to the store.  One-hot bins always carry 1. and skip
     the test entirely. *)
  let n = ref pos in
  let x = f_block_scalar t.Tuning.bx in
  if x <> 0. then begin idx.(!n) <- tuning_base; v.(!n) <- x; incr n end;
  let x = f_block_scalar t.Tuning.by in
  if x <> 0. then begin idx.(!n) <- tuning_base + 1; v.(!n) <- x; incr n end;
  let x = f_block_scalar t.Tuning.bz in
  if x <> 0. then begin idx.(!n) <- tuning_base + 2; v.(!n) <- x; incr n end;
  let x = f_unroll_scalar t.Tuning.u in
  if x <> 0. then begin idx.(!n) <- tuning_base + 3; v.(!n) <- x; incr n end;
  let x = f_chunk_scalar t.Tuning.c in
  if x <> 0. then begin idx.(!n) <- tuning_base + 4; v.(!n) <- x; incr n end;
  (match ctx.x_mode with
  | Canonical -> ()
  | Extended ->
    (* Derived static quantities coupling instance and tuning: tile
       volume, working-set and streaming-reuse footprints (summed over
       the buffer patterns), halo fraction, tile/chunk counts. *)
    let bx = imin t.Tuning.bx ctx.x_sx
    and by = imin t.Tuning.by ctx.x_sy
    and bz = imin t.Tuning.bz ctx.x_sz in
    let tile_pts = bx * by * bz in
    let ws_pts = ref tile_pts and reuse_pts = ref bx in
    for p = 0 to Array.length ctx.x_rx - 1 do
      let ex = imin (bx + (2 * ctx.x_rx.(p))) ctx.x_sx
      and ey = imin (by + (2 * ctx.x_ry.(p))) ctx.x_sy
      and ez = imin (bz + (2 * ctx.x_rz.(p))) ctx.x_sz in
      ws_pts := !ws_pts + (ex * ey * ez);
      reuse_pts := !reuse_pts + (ex * ey * imin ((2 * ctx.x_rz.(p)) + 1) ctx.x_sz)
    done;
    let ws_pts = !ws_pts and reuse_pts = !reuse_pts in
    let ceil_div a b = (a + b - 1) / b in
    let tiles = ceil_div ctx.x_sx bx * ceil_div ctx.x_sy by * ceil_div ctx.x_sz bz in
    let chunks = ceil_div tiles t.Tuning.c in
    let ws_bytes = float_of_int ws_pts *. ctx.x_bytes in
    let reuse_bytes = float_of_int reuse_pts *. ctx.x_bytes in
    let u_eff = imax 1 t.Tuning.u in
    (* the continuous block, in [continuous_names] order *)
    let x = f_tile_volume tile_pts in
    if x <> 0. then begin idx.(!n) <- continuous_base; v.(!n) <- x; incr n end;
    let x = f_working_set ws_bytes in
    if x <> 0. then begin idx.(!n) <- continuous_base + 1; v.(!n) <- x; incr n end;
    let x = f_halo ws_pts tile_pts ctx.x_nbuf in
    if x <> 0. then begin idx.(!n) <- continuous_base + 2; v.(!n) <- x; incr n end;
    let x = f_cover bx ctx.x_sx in
    if x <> 0. then begin idx.(!n) <- continuous_base + 3; v.(!n) <- x; incr n end;
    let x = f_cover by ctx.x_sy in
    if x <> 0. then begin idx.(!n) <- continuous_base + 4; v.(!n) <- x; incr n end;
    let x = f_cover bz ctx.x_sz in
    if x <> 0. then begin idx.(!n) <- continuous_base + 5; v.(!n) <- x; incr n end;
    let x = f_simd_remainder bx in
    if x <> 0. then begin idx.(!n) <- continuous_base + 6; v.(!n) <- x; incr n end;
    let x = f_unroll_pressure u_eff ctx.x_taps in
    if x <> 0. then begin idx.(!n) <- continuous_base + 7; v.(!n) <- x; incr n end;
    let x = f_count tiles in
    if x <> 0. then begin idx.(!n) <- continuous_base + 8; v.(!n) <- x; incr n end;
    let x = f_count chunks in
    if x <> 0. then begin idx.(!n) <- continuous_base + 9; v.(!n) <- x; incr n end;
    idx.(!n) <- bx_bins_base + log2_bin_i t.Tuning.bx 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- by_bins_base + log2_bin_i t.Tuning.by 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- bz_bins_base + log2_bin_i t.Tuning.bz 0 (block_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- unroll_bins_base + clamp_int t.Tuning.u 0 (unroll_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- chunk_bins_base + log2_bin_i t.Tuning.c 0 (chunk_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- ws_bins_base + log2_bin ws_bytes 10 (10 + ws_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- reuse_bins_base + log2_bin reuse_bytes 10 (10 + reuse_bins - 1);
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- tiles_bins_base + count_bin tiles;
    v.(!n) <- 1.;
    incr n;
    idx.(!n) <- chunks_bins_base + count_bin chunks;
    v.(!n) <- 1.;
    incr n);
  !n

let tuning_entries mode inst t =
  let ctx = tctx mode inst in
  let cap = max_tuning_entries mode in
  let idx = Array.make cap 0 and v = Array.make cap 0. in
  let n = write_tuning_entries ctx t idx v 0 in
  List.init n (fun k -> (idx.(k), v.(k)))

let encoded_counter = Sorl_util.Telemetry.counter "features.encoded"

let encoder_entries mode inst =
  let base = instance_entries inst in
  fun t ->
    Sorl_util.Telemetry.incr encoded_counter;
    base @ tuning_entries mode inst t

let encoder mode inst =
  let entries = encoder_entries mode inst in
  let d = dim mode in
  fun t -> Sorl_util.Sparse.of_list ~dim:d (entries t)

let encode mode inst t = (encoder mode inst) t

(* ---- Compiled per-instance encoder (zero-allocation fast path) ---- *)

(* The instance-dependent entries are materialized once into flat
   sorted arrays; encoding a tuning vector then blits them and appends
   the tuning-dependent entries, which [write_tuning_entries] emits in
   strictly increasing index order above them.  The result slice
   therefore satisfies the [Sparse.of_sorted] invariant directly — no
   hashing, sorting or per-candidate list in sight — and holds exactly
   the entries (same floats, same canonical order) that
   [encode mode inst t] stores. *)
type compiled = {
  c_mode : mode;
  c_dim : int;
  c_ctx : tctx;
  c_inst_idx : int array;
  c_inst_v : float array;
  c_max_nnz : int;
}

let compile mode inst =
  let base =
    List.sort (fun (a, _) (b, _) -> compare (a : int) b) (instance_entries inst)
  in
  let c_inst_idx = Array.of_list (List.map fst base) in
  let c_inst_v = Array.of_list (List.map snd base) in
  {
    c_mode = mode;
    c_dim = dim mode;
    c_ctx = tctx mode inst;
    c_inst_idx;
    c_inst_v;
    c_max_nnz = Array.length c_inst_idx + max_tuning_entries mode;
  }

let compiled_mode c = c.c_mode
let compiled_dim c = c.c_dim
let max_nnz c = c.c_max_nnz

(* Writes one encoding at position [pos] of [idx]/[v] and returns the
   end position.  The caller guarantees [max_nnz] cells of headroom. *)
let encode_at c t idx v pos =
  Sorl_util.Telemetry.incr encoded_counter;
  let base_n = Array.length c.c_inst_idx in
  Array.blit c.c_inst_idx 0 idx pos base_n;
  Array.blit c.c_inst_v 0 v pos base_n;
  write_tuning_entries c.c_ctx t idx v (pos + base_n)

let encode_into c t idx v =
  if Array.length idx < c.c_max_nnz || Array.length v < c.c_max_nnz then
    invalid_arg "Features.encode_into: scratch smaller than max_nnz";
  encode_at c t idx v 0

let encode_compiled c t =
  let idx = Array.make c.c_max_nnz 0 and v = Array.make c.c_max_nnz 0. in
  let n = encode_into c t idx v in
  Sorl_util.Sparse.of_sorted ~dim:c.c_dim (Array.sub idx 0 n) (Array.sub v 0 n)

let continuous_names =
  [|
    "x:tile_volume"; "x:working_set"; "x:halo_fraction"; "x:cover_x"; "x:cover_y";
    "x:cover_z"; "x:simd_remainder"; "x:unroll_pressure"; "x:tiles"; "x:chunks";
  |]

let names mode =
  let base =
    Array.init canonical_dim (fun i ->
        if i < buffers_idx then begin
          let dx, dy, dz = Pattern.offset_of_cell i in
          Printf.sprintf "pat(%d,%d,%d)" dx dy dz
        end
        else if i = buffers_idx then "buffers"
        else if i = dtype_idx then "dtype"
        else if i < tuning_base then [| "size_x"; "size_y"; "size_z" |].(i - size_base)
        else [| "t:bx"; "t:by"; "t:bz"; "t:unroll"; "t:chunk" |].(i - tuning_base))
  in
  match mode with
  | Canonical -> base
  | Extended ->
    let bins prefix n offset =
      Array.init n (fun i -> Printf.sprintf "%s_bin%d" prefix (i + offset))
    in
    Array.concat
      [
        base;
        continuous_names;
        bins "bx" block_bins 0;
        bins "by" block_bins 0;
        bins "bz" block_bins 0;
        bins "u" unroll_bins 0;
        bins "c" chunk_bins 0;
        bins "ws" ws_bins 10;
        bins "reuse" reuse_bins 10;
        bins "tiles" count_bins 0;
        bins "chunks" count_bins 0;
      ]

let tuning_feature_indices = function
  | Canonical -> Array.init 5 (fun i -> tuning_base + i)
  | Extended ->
    Array.append
      (Array.init 5 (fun i -> tuning_base + i))
      (Array.init (extended_dim - canonical_dim) (fun i -> canonical_dim + i))

let mode_to_string = function Canonical -> "canonical" | Extended -> "extended"

(* The schema hash pins everything a cached encoding depends on: the
   mode, the dimension and the identity of every feature index.  Any
   change to the feature layout changes the hash, so persisted encoded
   features keyed by it can never be silently reinterpreted. *)
let schema_hash mode =
  let b = Buffer.create 4096 in
  Buffer.add_string b (mode_to_string mode);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int (dim mode));
  Array.iter
    (fun n ->
      Buffer.add_char b '|';
      Buffer.add_string b n)
    (names mode);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let mode_of_string s =
  match String.lowercase_ascii s with
  | "canonical" -> Canonical
  | "extended" -> Extended
  | other -> invalid_arg ("Features.mode_of_string: " ^ other)
