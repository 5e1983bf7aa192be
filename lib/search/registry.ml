type algorithm = {
  name : string;
  descr : string;
  run : seed:int -> budget:int -> Problem.t -> Runner.outcome;
}

(* Every registered run is wrapped in a telemetry span so traces show
   which search the evaluations belong to. *)
let traced name run ~seed ~budget p =
  Sorl_util.Telemetry.span ("search/" ^ name) (fun () -> run ~seed ~budget p)

let ga =
  {
    name = "ga";
    descr = "generational genetic algorithm";
    run = traced "ga" (fun ~seed ~budget p -> Ga_generational.run ~seed ~budget p);
  }

let de =
  {
    name = "de";
    descr = "differential evolution (rand/1/bin)";
    run = traced "de" (fun ~seed ~budget p -> Differential_evolution.run ~seed ~budget p);
  }

let es =
  {
    name = "es";
    descr = "(mu+lambda) evolution strategy";
    run = traced "es" (fun ~seed ~budget p -> Evolution_strategy.run ~seed ~budget p);
  }

let sga =
  {
    name = "sga";
    descr = "steady-state genetic algorithm";
    run = traced "sga" (fun ~seed ~budget p -> Ga_steady_state.run ~seed ~budget p);
  }

let all =
  [
    ga;
    de;
    es;
    sga;
    {
      name = "random";
      descr = "uniform random sampling";
      run = traced "random" (fun ~seed ~budget p -> Random_search.run ~seed ~budget p);
    };
    {
      name = "hill";
      descr = "random-restart hill climbing";
      run = traced "hill" (fun ~seed ~budget p -> Hill_climb.run ~seed ~budget p);
    };
    {
      name = "bandit";
      descr = "UCB1 multi-armed-bandit operator selection";
      run = traced "bandit" (fun ~seed ~budget p -> Bandit.run ~seed ~budget p);
    };
    {
      name = "sa";
      descr = "simulated annealing (geometric cooling, reheats)";
      run = traced "sa" (fun ~seed ~budget p -> Simulated_annealing.run ~seed ~budget p);
    };
    {
      name = "pso";
      descr = "particle swarm optimization (global-best)";
      run = traced "pso" (fun ~seed ~budget p -> Particle_swarm.run ~seed ~budget p);
    };
  ]

let paper_baselines = [ ga; de; es; sga ]

let find name =
  match List.find_opt (fun a -> String.equal a.name name) all with
  | Some a -> a
  | None -> raise Not_found

let names () = List.map (fun a -> a.name) all
