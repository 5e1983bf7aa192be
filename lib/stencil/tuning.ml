type t = { bx : int; by : int; bz : int; u : int; c : int }

let block_min = 2
let block_max = 1024
let unroll_min = 0
let unroll_max = 8
let chunk_min = 1
let chunk_max = 256

let in_range v lo hi = v >= lo && v <= hi

let is_valid t =
  in_range t.bx block_min block_max
  && in_range t.by block_min block_max
  && (t.bz = 1 || in_range t.bz block_min block_max)
  && in_range t.u unroll_min unroll_max
  && in_range t.c chunk_min chunk_max

let create ~bx ~by ~bz ~u ~c =
  let t = { bx; by; bz; u; c } in
  if not (is_valid t) then invalid_arg "Tuning.create: parameter out of range";
  t

let clamp_int v lo hi = if v < lo then lo else if v > hi then hi else v

let clamp t =
  {
    bx = clamp_int t.bx block_min block_max;
    by = clamp_int t.by block_min block_max;
    bz = (if t.bz = 1 then 1 else clamp_int t.bz block_min block_max);
    u = clamp_int t.u unroll_min unroll_max;
    c = clamp_int t.c chunk_min chunk_max;
  }

let default ~dims =
  if dims = 2 then { bx = 64; by = 16; bz = 1; u = 2; c = 4 }
  else { bx = 64; by = 8; bz = 8; u = 2; c = 4 }

(* Log-uniform draw over [lo, hi]: uniform exponent, then uniform within
   the octave, so small and large block sizes are equally likely. *)
let log_uniform rng lo hi =
  let lg x = log (float_of_int x) in
  let e = Sorl_util.Rng.uniform rng *. (lg hi -. lg lo) +. lg lo in
  clamp_int (int_of_float (Float.round (exp e))) lo hi

let random rng ~dims =
  let bx = log_uniform rng block_min block_max in
  let by = log_uniform rng block_min block_max in
  let bz = if dims = 2 then 1 else log_uniform rng block_min block_max in
  let u = Sorl_util.Rng.int_in rng unroll_min unroll_max in
  let c = log_uniform rng chunk_min chunk_max in
  { bx; by; bz; u; c }

let space_dims ~dims = if dims = 2 then 4 else 5

let bounds ~dims =
  let block = (block_min, block_max) in
  let tail = [ (unroll_min, unroll_max); (chunk_min, chunk_max) ] in
  Array.of_list (if dims = 2 then block :: block :: tail else block :: block :: block :: tail)

let to_array ~dims t =
  if dims = 2 then [| t.bx; t.by; t.u; t.c |] else [| t.bx; t.by; t.bz; t.u; t.c |]

let of_array ~dims a =
  let expect = space_dims ~dims in
  if Array.length a <> expect then invalid_arg "Tuning.of_array: wrong arity";
  let t =
    if dims = 2 then { bx = a.(0); by = a.(1); bz = 1; u = a.(2); c = a.(3) }
    else { bx = a.(0); by = a.(1); bz = a.(2); u = a.(3); c = a.(4) }
  in
  clamp t

(* Power-of-two helper: [lo; lo*2; ...; hi]. *)
let pow2s lo hi =
  let rec go v acc = if v > hi then List.rev acc else go (v * 2) (v :: acc) in
  go lo []

type axes = {
  ax_bx : int array;
  ax_by : int array;
  ax_bz : int array;
  ax_u : int array;
  ax_c : int array;
}

let predefined_axes ~dims =
  if dims = 2 then begin
    (* 8 × 8 × 1 × 5 × 5 = 1600 configurations. *)
    let blocks = Array.of_list (pow2s 8 1024) in
    {
      ax_bx = blocks;
      ax_by = Array.copy blocks;
      ax_bz = [| 1 |];
      ax_u = [| 0; 2; 4; 6; 8 |];
      ax_c = [| 1; 4; 16; 64; 256 |];
    }
  end
  else begin
    (* 6 × 6 × 6 × 5 × 8 = 8640 configurations. *)
    let blocks = Array.of_list (pow2s 4 128) in
    {
      ax_bx = blocks;
      ax_by = Array.copy blocks;
      ax_bz = Array.copy blocks;
      ax_u = [| 0; 2; 4; 6; 8 |];
      ax_c = Array.of_list (pow2s 1 128);
    }
  end

let predefined_size ~dims =
  let a = predefined_axes ~dims in
  Array.length a.ax_bx * Array.length a.ax_by * Array.length a.ax_bz * Array.length a.ax_u
  * Array.length a.ax_c

(* The flat enumeration of the axes grid in row-major (bx, by, bz, u,
   c) order: element [((((ibx*nby + iby)*nbz + ibz)*nu + iu)*nc + ic]
   is the tuning at those axis positions.  The set is derived from the
   axes so the two never drift apart. *)
let predefined_set ~dims =
  let a = predefined_axes ~dims in
  let nby = Array.length a.ax_by
  and nbz = Array.length a.ax_bz
  and nu = Array.length a.ax_u
  and nc = Array.length a.ax_c in
  Array.init (predefined_size ~dims) (fun i ->
      let ic = i mod nc in
      let i = i / nc in
      let iu = i mod nu in
      let i = i / nu in
      let ibz = i mod nbz in
      let i = i / nbz in
      let iby = i mod nby in
      let ibx = i / nby in
      { bx = a.ax_bx.(ibx); by = a.ax_by.(iby); bz = a.ax_bz.(ibz); u = a.ax_u.(iu); c = a.ax_c.(ic) })

let to_string t = Printf.sprintf "(bx=%d,by=%d,bz=%d,u=%d,c=%d)" t.bx t.by t.bz t.u t.c
let equal a b = a = b
let compare = compare
let pp ppf t = Format.pp_print_string ppf (to_string t)
