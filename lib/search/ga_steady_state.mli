(** Steady-state genetic algorithm (the paper's "sGA").

    One offspring per step, replacing the current worst member when it
    improves on it — higher selection pressure and faster early
    convergence than the generational GA. *)

type params = {
  population : int;  (** default 32 *)
  tournament : int;  (** default 3 *)
  crossover_rate : float;  (** default 0.9 *)
  mutation_rate : float;  (** default 0.25 *)
}

val default_params : params

val run :
  ?seed:int -> ?params:params -> ?budget:int -> Problem.t -> Runner.outcome
