type params = { population : int; f : float; cr : float }

let default_params = { population = 32; f = 0.6; cr = 0.8 }

(* Continuous relaxation: wide coordinates work in log space. *)
let wide (lo, hi) = hi - lo >= 64 && lo >= 1

let encode bounds p =
  Array.mapi (fun i v -> if wide bounds.(i) then log (float_of_int v) else float_of_int v) p

let decode problem bounds x =
  Problem.clamp problem
    (Array.mapi
       (fun i v ->
         let w = if wide bounds.(i) then exp v else v in
         int_of_float (Float.round w))
       x)

let run ?(seed = 0) ?(params = default_params) ?budget problem =
  if params.population < 4 then invalid_arg "Differential_evolution: population must be >= 4";
  if params.f <= 0. then invalid_arg "Differential_evolution: f must be positive";
  if params.cr < 0. || params.cr > 1. then invalid_arg "Differential_evolution: cr outside [0,1]";
  let rng = Sorl_util.Rng.create seed in
  let bounds = Problem.bounds problem in
  let n = Array.length bounds in
  Runner.run_with ?budget problem (fun r ->
      (* Only the initial population is batchable: the generation loop
         below updates members in place, so later donors legitimately
         see earlier replacements within the same generation. *)
      let xs = Array.make params.population [||] in
      for i = 0 to params.population - 1 do
        xs.(i) <- encode bounds (Problem.random_point problem rng)
      done;
      let costs = Runner.eval_batch r (Array.map (decode problem bounds) xs) in
      while true do
        for i = 0 to params.population - 1 do
          (* Three distinct members, all different from i. *)
          let pick () =
            let rec go () =
              let j = Sorl_util.Rng.int rng params.population in
              if j = i then go () else j
            in
            go ()
          in
          let a = pick () in
          let b = ref (pick ()) in
          while !b = a do b := pick () done;
          let c = ref (pick ()) in
          while !c = a || !c = !b do c := pick () done;
          let jrand = Sorl_util.Rng.int rng n in
          let trial =
            Array.init n (fun j ->
                if j = jrand || Sorl_util.Rng.uniform rng < params.cr then
                  xs.(a).(j) +. (params.f *. (xs.(!b).(j) -. xs.(!c).(j)))
                else xs.(i).(j))
          in
          let cost = Runner.eval r (decode problem bounds trial) in
          if cost <= costs.(i) then begin
            xs.(i) <- trial;
            costs.(i) <- cost
          end
        done
      done)
