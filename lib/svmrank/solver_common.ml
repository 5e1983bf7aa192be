let pair_csr ds pairs =
  Sorl_util.Sparse.Csr.of_diffs ~dim:(Dataset.dim ds)
    (Array.map (fun s -> s.Dataset.features) (Dataset.samples ds))
    pairs

let pair_diffs ds pairs =
  let zc = pair_csr ds pairs in
  Array.init (Sorl_util.Sparse.Csr.rows zc) (Sorl_util.Sparse.Csr.row zc)

let objective ~c zs w =
  let m = Array.length zs in
  if m = 0 then invalid_arg "Solver_common.objective: no pairs";
  let hinge =
    Array.fold_left
      (fun acc z -> acc +. Float.max 0. (1. -. Sorl_util.Sparse.dot_dense z w))
      0. zs
  in
  (0.5 *. Sorl_util.Vec.norm2 w) +. (c /. float_of_int m *. hinge)

let hinge_error_rate zs w =
  let m = Array.length zs in
  if m = 0 then 0.
  else begin
    let bad =
      Array.fold_left
        (fun acc z -> if Sorl_util.Sparse.dot_dense z w <= 0. then acc + 1 else acc)
        0 zs
    in
    float_of_int bad /. float_of_int m
  end
