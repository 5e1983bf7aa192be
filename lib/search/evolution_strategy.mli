(** (μ+λ) evolution strategy with self-adaptive step sizes.

    Each individual carries a per-coordinate mutation strength that
    evolves by log-normal self-adaptation; offspring perturb in the
    continuous relaxation (log space on wide coordinates) and the best
    μ of parents+offspring survive. *)

type params = {
  mu : int;  (** parents (default 8) *)
  lambda : int;  (** offspring per generation (default 24) *)
  tau : float;  (** self-adaptation learning rate (default 0.3) *)
}

val default_params : params

val run :
  ?seed:int -> ?params:params -> ?budget:int -> Problem.t -> Runner.outcome
