type params = {
  population : int;
  tournament : int;
  crossover_rate : float;
  mutation_rate : float;
  elite : int;
}

let default_params =
  { population = 32; tournament = 3; crossover_rate = 0.9; mutation_rate = 0.25; elite = 2 }

let check p =
  if p.population < 2 then invalid_arg "Ga_generational: population must be >= 2";
  if p.tournament < 1 then invalid_arg "Ga_generational: tournament must be >= 1";
  if p.elite < 0 || p.elite >= p.population then
    invalid_arg "Ga_generational: elite must be in [0, population)";
  if p.crossover_rate < 0. || p.crossover_rate > 1. then
    invalid_arg "Ga_generational: crossover_rate outside [0,1]";
  if p.mutation_rate < 0. || p.mutation_rate > 1. then
    invalid_arg "Ga_generational: mutation_rate outside [0,1]"

(* All random draws happen while building a generation's genomes, on
   the calling domain; evaluation itself consumes no randomness.  Each
   generation can therefore be evaluated as one batch over the pool
   without perturbing the random stream. *)
let run ?(seed = 0) ?(params = default_params) ?budget problem =
  check params;
  let rng = Sorl_util.Rng.create seed in
  Runner.run_with ?budget problem (fun r ->
      let evaluate_all genomes =
        let costs = Runner.eval_batch r genomes in
        Array.mapi (fun i g -> { Ga_common.genome = g; cost = costs.(i) }) genomes
      in
      let init = Array.make params.population [||] in
      for i = 0 to params.population - 1 do
        init.(i) <- Problem.random_point problem rng
      done;
      let pop = ref (evaluate_all init) in
      Ga_common.sort_by_cost !pop;
      while true do
        let children = Array.make (params.population - params.elite) [||] in
        for i = 0 to Array.length children - 1 do
          let a = Ga_common.tournament rng !pop ~k:params.tournament in
          let child =
            if Sorl_util.Rng.uniform rng < params.crossover_rate then begin
              let b = Ga_common.tournament rng !pop ~k:params.tournament in
              Ga_common.uniform_crossover rng a.Ga_common.genome b.Ga_common.genome
            end
            else Array.copy a.Ga_common.genome
          in
          Ga_common.mutate rng problem ~rate:params.mutation_rate child;
          children.(i) <- child
        done;
        let next = Array.append (Array.sub !pop 0 params.elite) (evaluate_all children) in
        Ga_common.sort_by_cost next;
        pop := next
      done)
