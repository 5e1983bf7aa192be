type params = {
  c : float;
  max_passes : int;
  tol : float;
  max_pairs_per_query : int option;
  seed : int;
  shrink : bool;
}

let default_params =
  {
    c = 100.;
    max_passes = 50;
    tol = 1e-4;
    max_pairs_per_query = Some 500;
    seed = 1;
    shrink = true;
  }

let pairs_counter = Sorl_util.Telemetry.counter "solver.pairs"
let passes_counter = Sorl_util.Telemetry.counter "solver.dcd.passes"
let updates_counter = Sorl_util.Telemetry.counter "solver.dcd.updates"
let shrunk_counter = Sorl_util.Telemetry.counter "solver.shrunk_pairs"

let train_on_csr ?init ~params zc =
  if params.c <= 0. then invalid_arg "Solver_dcd: C must be positive";
  if params.max_passes < 1 then invalid_arg "Solver_dcd: max_passes must be >= 1";
  let dim = Sorl_util.Sparse.Csr.dim zc in
  (match init with
  | Some w0 when Array.length w0 <> dim ->
      invalid_arg "Solver_dcd: init vector dimension does not match dim"
  | _ -> ());
  let m = Sorl_util.Sparse.Csr.rows zc in
  if m = 0 then invalid_arg "Solver_dcd: no pairs";
  Sorl_util.Telemetry.add pairs_counter m;
  Sorl_util.Telemetry.span "solver/dcd" (fun () ->
      (* Per-pair Q_ii precomputation on the CSR block: the passes
         below walk flat arrays only.  [norm2_row]/[dot_row]/[axpy_row]
         perform the same float operations in the same order as their
         sparse-vector counterparts, keeping the solution
         bit-identical. *)
      let upper = params.c /. float_of_int m in
      let alpha = Array.make m 0. in
      (* Warm start: begin the coordinate passes at [init] instead of 0
         (alphas stay 0, so the iterate is w0 + Σ α_p z_p).  When w0 is
         already near-optimal for the new pair set, most pairs start
         with margin ≥ 1 and a zero projected gradient, so the
         tolerance check converges in far fewer passes.  [init = None]
         is bit-identical to the cold path, and the RNG stream (pass
         shuffles) is untouched either way. *)
      let w = match init with None -> Array.make dim 0. | Some w0 -> Array.copy w0 in
      let qii = Array.init m (Sorl_util.Sparse.Csr.norm2_row zc) in
      (* Shrinking (Hsieh et al.): a pair at an alpha bound whose plain
         gradient violates the bound direction by more than the
         previous pass's worst projected gradient [mbar] provably stays
         at its bound near the optimum, so later passes skip it.
         Convergence on a shrunk active set is only provisional: the
         set is re-expanded with [mbar = ∞] (which disables shrinking
         for that pass) and the tolerance must hold over a full pass —
         the converged [w] satisfies exactly the stopping criterion of
         the non-shrinking solver.  With [shrink = false] the active
         set is the full pair set forever and the solver is
         bit-identical to the pre-shrinking implementation. *)
      let active = ref (Array.init m (fun i -> i)) in
      let mbar = ref infinity in
      let rng = Sorl_util.Rng.create params.seed in
      let pass = ref 0 and converged = ref false in
      while (not !converged) && !pass < params.max_passes do
        incr pass;
        Sorl_util.Telemetry.incr passes_counter;
        Sorl_util.Telemetry.span "solver/dcd/pass" (fun () ->
            let arr = !active in
            Sorl_util.Rng.shuffle rng arr;
            let worst = ref 0. in
            let updates = ref 0 in
            let shrunk = ref 0 in
            let kept = if params.shrink then Array.make (Array.length arr) true else [||] in
            Array.iteri
              (fun k p ->
                if qii.(p) > 0. then begin
                  let g = Sorl_util.Sparse.Csr.dot_row zc p w -. 1. in
                  if
                    params.shrink
                    && ((alpha.(p) <= 0. && g > !mbar)
                       || (alpha.(p) >= upper && g < -. !mbar))
                  then begin
                    kept.(k) <- false;
                    incr shrunk
                  end
                  else begin
                    (* Projected gradient at the current alpha. *)
                    let pg =
                      if alpha.(p) <= 0. then Float.min g 0.
                      else if alpha.(p) >= upper then Float.max g 0.
                      else g
                    in
                    if Float.abs pg > !worst then worst := Float.abs pg;
                    if pg <> 0. then begin
                      let a_new =
                        Float.max 0. (Float.min upper (alpha.(p) -. (g /. qii.(p))))
                      in
                      let delta = a_new -. alpha.(p) in
                      if delta <> 0. then begin
                        alpha.(p) <- a_new;
                        incr updates;
                        Sorl_util.Sparse.Csr.axpy_row delta zc p w
                      end
                    end
                  end
                end
                else if params.shrink then begin
                  (* A zero pair difference never moves w; drop it. *)
                  kept.(k) <- false;
                  incr shrunk
                end)
              arr;
            Sorl_util.Telemetry.add updates_counter !updates;
            if !worst < params.tol then begin
              if Array.length arr - !shrunk = m then converged := true
              else begin
                (* Converged on a shrunk set: verify over everything. *)
                active := Array.init m (fun i -> i);
                mbar := infinity
              end
            end
            else begin
              mbar := (if !worst > 0. then !worst else infinity);
              if !shrunk > 0 then begin
                Sorl_util.Telemetry.add shrunk_counter !shrunk;
                let next = Array.make (Array.length arr - !shrunk) 0 in
                let j = ref 0 in
                Array.iteri
                  (fun k p ->
                    if kept.(k) then begin
                      next.(!j) <- p;
                      incr j
                    end)
                  arr;
                active := next
              end
            end)
      done;
      Model.create w)

let train_on_pairs ?init ?(params = default_params) ~dim zs =
  train_on_csr ?init ~params (Sorl_util.Sparse.Csr.of_rows ~dim zs)

let train ?init ?(params = default_params) ds =
  let rng = Sorl_util.Rng.create (params.seed + 104729) in
  let pairs = Dataset.pairs ?max_per_query:params.max_pairs_per_query ~rng ds in
  if Array.length pairs = 0 then invalid_arg "Solver_dcd.train: dataset exposes no pairs";
  train_on_csr ?init ~params (Solver_common.pair_csr ds pairs)
