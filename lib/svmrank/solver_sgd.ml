type params = {
  c : float;
  epochs : int;
  batch : int;
  average : bool;
  max_pairs_per_query : int option;
  seed : int;
}

let default_params =
  { c = 100.; epochs = 20; batch = 16; average = true; max_pairs_per_query = Some 500; seed = 1 }

let check params =
  if params.c <= 0. then invalid_arg "Solver_sgd: C must be positive";
  if params.epochs < 1 then invalid_arg "Solver_sgd: epochs must be >= 1";
  if params.batch < 1 then invalid_arg "Solver_sgd: batch must be >= 1"

let pairs_counter = Sorl_util.Telemetry.counter "solver.pairs"
let steps_counter = Sorl_util.Telemetry.counter "solver.sgd.steps"

let train_on_csr ?init ~params zc =
  check params;
  let dim = Sorl_util.Sparse.Csr.dim zc in
  (match init with
  | Some w0 when Array.length w0 <> dim ->
      invalid_arg "Solver_sgd: init vector dimension does not match dim"
  | _ -> ());
  let m = Sorl_util.Sparse.Csr.rows zc in
  if m = 0 then invalid_arg "Solver_sgd: no pairs";
  Sorl_util.Telemetry.add pairs_counter m;
  Sorl_util.Telemetry.span "solver/sgd" (fun () ->
      let rng = Sorl_util.Rng.create params.seed in
      let lambda = 1. /. params.c in
      let radius = 1. /. sqrt lambda in
      let steps = max 1 (params.epochs * m / params.batch) in
      (* Warm start: begin at [init] and offset the Pegasos step index
         by a full run's worth of steps, continuing the 1/(λt) schedule
         as if w0's training had just ended.  Without the offset the
         t = 1 shrink factor (1 − η₁λ) = 0 would wipe the init before
         the first subgradient.  The per-step work (and RNG draws) is
         unchanged, so [init = None] is bit-identical to the cold path
         and the RNG stream is preserved either way. *)
      let w, t_base =
        match init with
        | None -> (Array.make dim 0., 0)
        | Some w0 -> (Array.copy w0, steps)
      in
      let w_sum = Array.make dim 0. in
      Sorl_util.Telemetry.add steps_counter steps;
      let eta t = 1. /. (lambda *. float_of_int t) in
      let last = t_base + steps in
      (* Step [t]'s shrink from the regularizer, (1 − η_t λ)·w, is
         applied at the end of step [t − 1]; the first one here. *)
      Sorl_util.Vec.scale_inplace (1. -. (eta (t_base + 1) *. lambda)) w;
      (* Each step is the mini-batch subgradient, one norm pass and one
         fused pass.  The fused pass does, element by element, what
         three dense passes did in turn: the Pegasos projection onto
         the ball of radius 1/sqrt(lambda), [w_sum += w], and the next
         step's shrink (× 1 after the last step, which leaves every
         bit in place).  Each element sees the same float operations in
         the same order, so the model is bit-identical.  The projection
         test is hoisted out of the loop, and [w]/[w_sum] both have
         length [dim], so the loop uses unsafe loads and stores.  The
         batch's rows are drawn first, in the same RNG order, and
         prefetched: random rows of the pair block miss the cache, and
         their misses then overlap instead of stalling one by one. *)
      let average = params.average in
      let zs = Array.make params.batch 0 in
      let step t =
        let per = eta t /. float_of_int params.batch in
        for k = 0 to params.batch - 1 do
          let z = Sorl_util.Rng.int rng m in
          zs.(k) <- z;
          Sorl_util.Sparse.Csr.prefetch_row zc z
        done;
        for k = 0 to params.batch - 1 do
          let z = zs.(k) in
          if Sorl_util.Sparse.Csr.dot_row zc z w < 1. then
            Sorl_util.Sparse.Csr.axpy_row per zc z w
        done;
        let n = Sorl_util.Vec.norm w in
        let shrink = if t < last then 1. -. (eta (t + 1) *. lambda) else 1. in
        if n > radius then begin
          let c = radius /. n in
          for i = 0 to dim - 1 do
            let x = c *. Array.unsafe_get w i in
            if average then Array.unsafe_set w_sum i (Array.unsafe_get w_sum i +. x);
            Array.unsafe_set w i (shrink *. x)
          done
        end
        else
          for i = 0 to dim - 1 do
            let x = Array.unsafe_get w i in
            if average then Array.unsafe_set w_sum i (Array.unsafe_get w_sum i +. x);
            Array.unsafe_set w i (shrink *. x)
          done
      in
      (* Steps run in [epochs] contiguous chunks so each epoch is one
         telemetry span; the step sequence (hence RNG stream and model)
         is identical to a single 1..steps loop. *)
      for e = 0 to params.epochs - 1 do
        let lo = 1 + (e * steps / params.epochs)
        and hi = (e + 1) * steps / params.epochs in
        if lo <= hi then
          Sorl_util.Telemetry.span "solver/sgd/epoch" (fun () ->
              for t = lo to hi do
                step (t_base + t)
              done)
      done;
      if params.average then begin
        Sorl_util.Vec.scale_inplace (1. /. float_of_int steps) w_sum;
        Model.create w_sum
      end
      else Model.create w)

let train_on_pairs ?init ?(params = default_params) ~dim zs =
  train_on_csr ?init ~params (Sorl_util.Sparse.Csr.of_rows ~dim zs)

let train ?init ?(params = default_params) ds =
  check params;
  let rng = Sorl_util.Rng.create (params.seed + 7919) in
  let pairs = Dataset.pairs ?max_per_query:params.max_pairs_per_query ~rng ds in
  if Array.length pairs = 0 then invalid_arg "Solver_sgd.train: dataset exposes no pairs";
  train_on_csr ?init ~params (Solver_common.pair_csr ds pairs)
