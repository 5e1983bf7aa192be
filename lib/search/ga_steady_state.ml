type params = {
  population : int;
  tournament : int;
  crossover_rate : float;
  mutation_rate : float;
}

let default_params = { population = 32; tournament = 3; crossover_rate = 0.9; mutation_rate = 0.25 }

let run ?(seed = 0) ?(params = default_params) ?budget problem =
  if params.population < 2 then invalid_arg "Ga_steady_state: population must be >= 2";
  let rng = Sorl_util.Rng.create seed in
  Runner.run_with ?budget problem (fun r ->
      let evaluate g = { Ga_common.genome = g; cost = Runner.eval r g } in
      let init = Array.init params.population (fun _ -> Problem.random_point problem rng) in
      let pop = Array.map evaluate init in
      while true do
        let a = Ga_common.tournament rng pop ~k:params.tournament in
        let child =
          if Sorl_util.Rng.uniform rng < params.crossover_rate then begin
            let b = Ga_common.tournament rng pop ~k:params.tournament in
            Ga_common.uniform_crossover rng a.Ga_common.genome b.Ga_common.genome
          end
          else Array.copy a.Ga_common.genome
        in
        Ga_common.mutate rng problem ~rate:params.mutation_rate child;
        let off = evaluate child in
        (* Replace the current worst if the offspring improves on it. *)
        let worst = ref 0 in
        Array.iteri (fun i ind -> if ind.Ga_common.cost > pop.(!worst).Ga_common.cost then worst := i) pop;
        if off.Ga_common.cost < pop.(!worst).Ga_common.cost then pop.(!worst) <- off
      done)
