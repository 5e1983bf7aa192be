(** Budgeted evaluation with best-so-far tracking.

    Every search algorithm evaluates through a runner, which enforces
    the evaluation budget (raising {!Out_of_budget} internally — the
    algorithms catch it and return) and records the best-so-far cost
    after every evaluation, the convergence trace of Fig. 5. *)

exception Out_of_budget

type t

val create : ?budget:int -> Problem.t -> t
(** [budget] defaults to 1024, the paper's per-search evaluation count.
    Must be positive. *)

val eval : t -> int array -> float
(** Evaluate and record; raises {!Out_of_budget} once the budget is
    exhausted. *)

val eval_batch : t -> int array array -> float array
(** [eval_batch t ps] evaluates the points concurrently over the
    {!Sorl_util.Pool} and then records them in submission order, so the
    best-so-far state, convergence curve and cost accounting are
    exactly those of the equivalent serial {!eval} sequence.  A problem
    marked {!Problem.serial} (one whose [eval] mutates shared state,
    such as another runner) is evaluated one point at a time instead.  If the remaining budget covers only
    a prefix, that prefix is evaluated and recorded before
    {!Out_of_budget} is raised; the budget is never exceeded. *)

val evaluations : t -> int
val budget : t -> int
val remaining : t -> int

val total_cost : t -> float
(** Sum of all evaluated costs so far — the total simulated runtime a
    search has spent, used for time-budget accounting. *)

val distinct_points : t -> int
(** Number of distinct (clamped) points among the evaluations so far.
    The gap to {!evaluations} is the search's re-evaluation waste —
    exactly the requests a measurement cache can serve for free.  Each
    duplicate also bumps the ["search.duplicate_evaluations"] telemetry
    counter.  Purely observational: duplicates still consume budget. *)

val best : t -> (int array * float) option
(** Best point found so far, if any evaluation happened. *)

val curve : t -> float array
(** [curve t].(i) = best cost after evaluation [i+1]; length
    {!evaluations}. *)

type outcome = {
  best_point : int array;
  best_cost : float;
  evaluations : int;
  distinct_points : int;  (** distinct clamped points (see {!distinct_points}) *)
  total_cost : float;  (** sum of all evaluated costs (see {!total_cost}) *)
  curve : float array;
}

val finish : t -> outcome
(** Raises [Invalid_argument] when nothing was evaluated. *)

val run_with :
  ?budget:int -> Problem.t -> (t -> unit) -> outcome
(** [run_with problem body] creates a runner, runs [body] (absorbing
    {!Out_of_budget}) and returns the outcome. *)
