type t = { bounds : (int * int) array; eval_fn : int array -> float; parallel : bool }

let create ~bounds ~eval =
  if Array.length bounds = 0 then invalid_arg "Problem.create: no coordinates";
  Array.iter (fun (lo, hi) -> if lo > hi then invalid_arg "Problem.create: lo > hi") bounds;
  { bounds; eval_fn = eval; parallel = true }

let serial t = { t with parallel = false }

let bounds t = Array.copy t.bounds
let dims t = Array.length t.bounds
let parallel t = t.parallel

let clamp_coord t i v =
  let lo, hi = t.bounds.(i) in
  if v < lo then lo else if v > hi then hi else v

let clamp t p = Array.mapi (fun i v -> clamp_coord t i v) p

let eval t p =
  if Array.length p <> dims t then invalid_arg "Problem.eval: wrong arity";
  let c = t.eval_fn (clamp t p) in
  if not (Float.is_finite c) then invalid_arg "Problem.eval: objective returned non-finite cost";
  c

let wide lo hi = hi - lo >= 64 && lo >= 1

let random_coord t rng i =
  let lo, hi = t.bounds.(i) in
  if wide lo hi then begin
    (* Log-uniform over [lo, hi]. *)
    let llo = log (float_of_int lo) and lhi = log (float_of_int hi) in
    let e = (Sorl_util.Rng.uniform rng *. (lhi -. llo)) +. llo in
    clamp_coord t i (int_of_float (Float.round (exp e)))
  end
  else Sorl_util.Rng.int_in rng lo hi

let random_point t rng = Array.init (dims t) (random_coord t rng)

let mutate_coord t rng p i =
  let lo, hi = t.bounds.(i) in
  let v = p.(i) in
  let v' =
    if wide lo hi then begin
      (* Multiplicative log-normal jump, at least one unit of change. *)
      let f = exp (0.6 *. Sorl_util.Rng.gaussian rng) in
      let w = int_of_float (Float.round (float_of_int v *. f)) in
      if w = v then if Sorl_util.Rng.bool rng then v + 1 else v - 1 else w
    end
    else begin
      let step = if Sorl_util.Rng.bool rng then 1 else 2 in
      if Sorl_util.Rng.bool rng then v + step else v - step
    end
  in
  p.(i) <- clamp_coord t i v'
