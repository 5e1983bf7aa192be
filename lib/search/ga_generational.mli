(** Generational genetic algorithm — the paper's most stable baseline
    and the Fig. 4 speedup reference.

    Tournament selection, uniform crossover, per-coordinate mutation,
    elitism: each generation produces a full offspring population that
    replaces the parents except for the [elite] best. *)

type params = {
  population : int;  (** default 32 *)
  tournament : int;  (** tournament size (default 3) *)
  crossover_rate : float;  (** default 0.9 *)
  mutation_rate : float;  (** per-coordinate (default 0.25) *)
  elite : int;  (** survivors per generation (default 2) *)
}

val default_params : params

val run :
  ?seed:int -> ?params:params -> ?budget:int -> Problem.t -> Runner.outcome
