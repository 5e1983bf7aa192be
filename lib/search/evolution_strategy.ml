type params = { mu : int; lambda : int; tau : float }

let default_params = { mu = 8; lambda = 24; tau = 0.3 }

type individual = { x : float array; sigma : float array; cost : float }

let wide (lo, hi) = hi - lo >= 64 && lo >= 1

let encode bounds p =
  Array.mapi (fun i v -> if wide bounds.(i) then log (float_of_int v) else float_of_int v) p

let decode problem bounds x =
  Problem.clamp problem
    (Array.mapi
       (fun i v ->
         let w = if wide bounds.(i) then exp v else v in
         int_of_float (Float.round w))
       x)

let initial_sigma bounds =
  Array.map
    (fun (lo, hi) ->
      if wide (lo, hi) then 0.5 (* half an e-fold in log space *)
      else Float.max 0.5 (float_of_int (hi - lo) /. 8.))
    bounds

let run ?(seed = 0) ?(params = default_params) ?budget problem =
  if params.mu < 1 || params.lambda < 1 then
    invalid_arg "Evolution_strategy: mu and lambda must be >= 1";
  if params.tau <= 0. then invalid_arg "Evolution_strategy: tau must be positive";
  let rng = Sorl_util.Rng.create seed in
  let bounds = Problem.bounds problem in
  let n = Array.length bounds in
  Runner.run_with ?budget problem (fun r ->
      (* Draw a whole generation's (x, sigma) pairs serially, then
         price them in one parallel batch; evaluation consumes no
         randomness, so the random stream is pool-size independent. *)
      let evaluate_all cands =
        let costs =
          Runner.eval_batch r (Array.map (fun (x, _) -> decode problem bounds x) cands)
        in
        Array.mapi (fun i (x, sigma) -> { x; sigma; cost = costs.(i) }) cands
      in
      let init = Array.make params.mu ([||], [||]) in
      for i = 0 to params.mu - 1 do
        init.(i) <- (encode bounds (Problem.random_point problem rng), initial_sigma bounds)
      done;
      let pop = ref (evaluate_all init) in
      Array.sort (fun a b -> compare a.cost b.cost) !pop;
      while true do
        let cands = Array.make params.lambda ([||], [||]) in
        for k = 0 to params.lambda - 1 do
          let parent = !pop.(Sorl_util.Rng.int rng params.mu) in
          let global = exp (params.tau *. Sorl_util.Rng.gaussian rng) in
          let sigma =
            Array.map
              (fun s ->
                Float.max 1e-3
                  (s *. global *. exp (params.tau *. Sorl_util.Rng.gaussian rng)))
              parent.sigma
          in
          let x =
            Array.init n (fun i ->
                parent.x.(i) +. (sigma.(i) *. Sorl_util.Rng.gaussian rng))
          in
          cands.(k) <- (x, sigma)
        done;
        let all = Array.append !pop (evaluate_all cands) in
        Array.sort (fun a b -> compare a.cost b.cost) all;
        pop := Array.sub all 0 params.mu
      done)
