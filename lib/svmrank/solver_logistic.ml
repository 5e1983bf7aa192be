type params = {
  lambda : float;
  epochs : int;
  learning_rate : float;
  max_pairs_per_query : int option;
  seed : int;
}

let default_params =
  { lambda = 1e-4; epochs = 30; learning_rate = 1.0; max_pairs_per_query = Some 500; seed = 1 }

let log1p_exp x =
  (* numerically stable log(1 + exp(x)) *)
  if x > 35. then x else if x < -35. then 0. else log1p (exp x)

let objective ~lambda zs w =
  let m = Array.length zs in
  if m = 0 then invalid_arg "Solver_logistic.objective: no pairs";
  let loss =
    Array.fold_left
      (fun acc z -> acc +. log1p_exp (-.Sorl_util.Sparse.dot_dense z w))
      0. zs
  in
  (0.5 *. lambda *. Sorl_util.Vec.norm2 w) +. (loss /. float_of_int m)

(* [Csr.dot_row]/[axpy_row] replay [Sparse.dot_dense]/[axpy_dense]
   exactly, so fitting on the CSR block is bit-identical to fitting on
   the pair vectors one at a time. *)
let train_on_csr ~params zc =
  if params.lambda < 0. then invalid_arg "Solver_logistic: lambda must be nonnegative";
  if params.epochs < 1 then invalid_arg "Solver_logistic: epochs must be >= 1";
  let dim = Sorl_util.Sparse.Csr.dim zc in
  let m = Sorl_util.Sparse.Csr.rows zc in
  if m = 0 then invalid_arg "Solver_logistic: no pairs";
  let w = Array.make dim 0. in
  let w_sum = Array.make dim 0. in
  let rng = Sorl_util.Rng.create params.seed in
  let order = Array.init m (fun i -> i) in
  let steps = ref 0 in
  for _ = 1 to params.epochs do
    Sorl_util.Rng.shuffle rng order;
    Array.iter
      (fun p ->
        incr steps;
        let eta = params.learning_rate /. (1. +. sqrt (float_of_int !steps)) in
        let s = Sorl_util.Sparse.Csr.dot_row zc p w in
        (* d/dw log(1+exp(-w.z)) = -sigmoid(-w.z) z *)
        let g = 1. /. (1. +. exp (Float.max (-35.) (Float.min 35. s))) in
        Sorl_util.Vec.scale_inplace (1. -. (eta *. params.lambda)) w;
        Sorl_util.Sparse.Csr.axpy_row (eta *. g) zc p w;
        Sorl_util.Vec.add_inplace w_sum w)
      order
  done;
  Sorl_util.Vec.scale_inplace (1. /. float_of_int !steps) w_sum;
  Model.create w_sum

let train_on_pairs ?(params = default_params) ~dim zs =
  train_on_csr ~params (Sorl_util.Sparse.Csr.of_rows ~dim zs)

let train ?(params = default_params) ds =
  let rng = Sorl_util.Rng.create (params.seed + 15485863) in
  let pairs = Dataset.pairs ?max_per_query:params.max_pairs_per_query ~rng ds in
  if Array.length pairs = 0 then invalid_arg "Solver_logistic.train: dataset exposes no pairs";
  train_on_csr ~params (Solver_common.pair_csr ds pairs)
