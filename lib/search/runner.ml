exception Out_of_budget

type t = {
  problem : Problem.t;
  budget : int;
  mutable evals : int;
  mutable best : (int array * float) option;
  mutable cost_sum : float;
  curve : float array;
  seen : (int array, unit) Hashtbl.t;
  mutable distinct : int;
}

let create ?(budget = 1024) problem =
  if budget <= 0 then invalid_arg "Runner.create: budget must be positive";
  {
    problem;
    budget;
    evals = 0;
    best = None;
    cost_sum = 0.;
    curve = Array.make budget infinity;
    seen = Hashtbl.create 256;
    distinct = 0;
  }

let eval_counter = Sorl_util.Telemetry.counter "search.evaluations"
let dup_counter = Sorl_util.Telemetry.counter "search.duplicate_evaluations"

(* Book-keeping for one completed evaluation; always runs on the main
   domain, in evaluation order. *)
let record t p c =
  Sorl_util.Telemetry.incr eval_counter;
  let cp = Problem.clamp t.problem p in
  (* Duplicate accounting only observes the search: every request still
     counts against the budget, so trajectories are unchanged. *)
  if Hashtbl.mem t.seen cp then Sorl_util.Telemetry.incr dup_counter
  else begin
    Hashtbl.replace t.seen cp ();
    t.distinct <- t.distinct + 1
  end;
  (match t.best with
  | Some (_, bc) when bc <= c -> ()
  | _ -> t.best <- Some (cp, c));
  let bc = match t.best with Some (_, bc) -> bc | None -> c in
  t.curve.(t.evals) <- bc;
  t.evals <- t.evals + 1;
  t.cost_sum <- t.cost_sum +. c

let eval t p =
  if t.evals >= t.budget then raise Out_of_budget;
  let c = Problem.eval t.problem p in
  record t p c;
  c

let eval_batch t ps =
  let k = Array.length ps in
  let m = min k (t.budget - t.evals) in
  if m = 0 && k > 0 then raise Out_of_budget;
  let map f a = if Problem.parallel t.problem then Sorl_util.Pool.parallel_map f a else Array.map f a in
  let costs = map (Problem.eval t.problem) (Array.sub ps 0 m) in
  (* Record sequentially in submission order so best-so-far, curve and
     cost accounting are identical to [m] serial [eval] calls. *)
  Array.iteri (fun i c -> record t ps.(i) c) costs;
  if m < k then raise Out_of_budget;
  costs

let evaluations t = t.evals
let budget t = t.budget
let remaining t = t.budget - t.evals
let best t = t.best
let curve t = Array.sub t.curve 0 t.evals
let total_cost t = t.cost_sum
let distinct_points t = t.distinct

type outcome = {
  best_point : int array;
  best_cost : float;
  evaluations : int;
  distinct_points : int;
  total_cost : float;
  curve : float array;
}

let finish t =
  match t.best with
  | None -> invalid_arg "Runner.finish: no evaluations"
  | Some (p, c) ->
    {
      best_point = Array.copy p;
      best_cost = c;
      evaluations = t.evals;
      distinct_points = t.distinct;
      total_cost = t.cost_sum;
      curve = curve t;
    }

let run_with ?budget problem body =
  let t = create ?budget problem in
  (try body t with Out_of_budget -> ());
  finish t
