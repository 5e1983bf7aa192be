(** Name-indexed access to all search algorithms, for the CLI and the
    benchmark harness. *)

type algorithm = {
  name : string;
  descr : string;
  run : seed:int -> budget:int -> Problem.t -> Runner.outcome;
}

val all : algorithm list
(** Every implemented search, default parameters. *)

val paper_baselines : algorithm list
(** The four searches of §VI-A: generational GA, differential
    evolution, evolution strategy, steady-state GA — in the paper's
    Fig. 4 legend order. *)

val find : string -> algorithm
(** Raises [Not_found]. *)

val names : unit -> string list
