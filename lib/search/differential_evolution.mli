(** Differential evolution, DE/rand/1/bin.

    The population lives in a continuous relaxation of the integer
    space (log-space for wide coordinates so difference vectors move in
    scale, not absolute units); trial vectors are rounded and clamped
    for evaluation.  Greedy one-to-one replacement. *)

type params = {
  population : int;  (** default 32 *)
  f : float;  (** differential weight (default 0.6) *)
  cr : float;  (** crossover probability (default 0.8) *)
}

val default_params : params

val run :
  ?seed:int -> ?params:params -> ?budget:int -> Problem.t -> Runner.outcome
