(* Workload inputs.  Everything here is a pure function of the
   workload seed: the same seed yields the same request and
   observation sequences, whatever the timing of the run. *)

open Sorl_stencil

type read = {
  line : string;  (** the request frame, newline included *)
  benchmark : string;
  top : int;  (** 0 for tune, else the rank depth *)
  approx_ok : bool;  (** a bang verb ([rank!] / [tune!]) *)
}

let instances = Array.of_list Benchmarks.instances
let grid_size inst = Tuning.predefined_size ~dims:(Kernel.dims (Instance.kernel inst))

let make_read ~benchmark ~top ~approx_ok =
  let req =
    if top = 0 then Sorl_serve.Protocol.Tune { benchmark; approx_ok }
    else Sorl_serve.Protocol.Rank { benchmark; top; approx_ok }
  in
  { line = Sorl_serve.Protocol.encode_request req ^ "\n"; benchmark; top; approx_ok }

(* ---- serve-hot: the 68 keys the server warms ---- *)

(* Mirrors the server's warm set: tune plus rank at each warmed depth,
   for every Table III benchmark.  The run fails if a serve-hot read
   misses the result cache, so a change to the warm set shows. *)
let warm_tops = [| 0; 1; 3; 10 |]

(* Zipf(1) popularity over the benchmarks in a seeded order; the verb
   is drawn independently and uniformly from the four warmed ones, so
   reply sizes keep the same mix whichever benchmarks the seed makes
   popular. *)
let hot ~seed =
  let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed seed 1) in
  let order = Array.copy instances in
  Sorl_util.Rng.shuffle rng order;
  let reads =
    Array.map
      (fun inst ->
        Array.map
          (fun top -> make_read ~benchmark:(Instance.name inst) ~top ~approx_ok:false)
          warm_tops)
      order
  in
  let cdf =
    let w = Array.mapi (fun r _ -> 1. /. float_of_int (r + 1)) order in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let pick cdf u =
    let rec go i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
    go 0
  in
  fun () ->
    let b = pick cdf (Sorl_util.Rng.uniform rng) in
    reads.(b).(Sorl_util.Rng.int rng (Array.length warm_tops))

(* ---- serve-cold: heavy-tailed depths, far more keys than the cache ---- *)

(* Uniform benchmark; 5% tune, 3% full ranks (k = n), else rank with a
   log-uniform (density 1/k) depth in [1, n]; a quarter of reads are
   bang verbs.  17 benchmarks x thousands of depths dwarf the
   1024-entry result cache, so most reads reach the ranking stack; the
   shallow depths repeat and are served from it.

   The draws are stratified: each block of 17 x [strata] reads gives
   every benchmark one shape from each interval [i/strata,
   (i+1)/strata), and every four reads hold one bang verb, all in
   seeded order.  The distribution is unchanged, but every run carries the
   stated shares almost exactly: a cache hit costs about 50 us, a 2-D
   miss about 1 ms and a 3-D miss several, so a run of a few thousand
   iid reads would sample a different latency mix with every seed. *)
let strata = 100

let cold ~seed =
  let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed seed 2) in
  let nb = Array.length instances in
  let block = Array.make (nb * strata) (0, 0.) and next = ref (nb * strata) in
  let bang = Array.make 4 false and next_bang = ref 4 in
  fun () ->
    if !next = Array.length block then begin
      Array.iteri
        (fun i _ ->
          let u = (float_of_int (i mod strata) +. Sorl_util.Rng.uniform rng) /. float_of_int strata in
          block.(i) <- (i / strata, u))
        block;
      Sorl_util.Rng.shuffle rng block;
      next := 0
    end;
    if !next_bang = 4 then begin
      Array.iteri (fun i _ -> bang.(i) <- i = 0) bang;
      Sorl_util.Rng.shuffle rng bang;
      next_bang := 0
    end;
    let b, u = block.(!next) in
    incr next;
    let approx_ok = bang.(!next_bang) in
    incr next_bang;
    let inst = instances.(b) in
    let n = grid_size inst in
    let top =
      if u < 0.05 then 0
      else if u < 0.08 then n
      else
        let x = exp ((u -. 0.08) /. 0.92 *. log (float_of_int (n + 1))) in
        max 1 (min n (int_of_float x))
    in
    make_read ~benchmark:(Instance.name inst) ~top ~approx_ok

(* ---- observations ---- *)

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3

(* Seeded (benchmark, tuning) points from the predefined sets, costed
   by the Xeon cost model; [repeat_share] of them re-measure an earlier
   point (same cost: the model's noise is keyed by the point). *)
let repeat_share = 0.25

let observations ~seed =
  let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed seed 3) in
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed machine in
  let sets =
    Array.map
      (fun inst -> Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
      instances
  in
  let history = ref [||] and len = ref 0 in
  let remember o =
    if !len = Array.length !history then begin
      let grown = Array.make (max 1024 (2 * !len)) o in
      Array.blit !history 0 grown 0 !len;
      history := grown
    end;
    !history.(!len) <- o;
    incr len
  in
  fun () ->
    if !len > 0 && Sorl_util.Rng.uniform rng < repeat_share then
      !history.(Sorl_util.Rng.int rng !len)
    else begin
      let i = Sorl_util.Rng.int rng (Array.length instances) in
      let inst = instances.(i) in
      let tuning = sets.(i).(Sorl_util.Rng.int rng (Array.length sets.(i))) in
      let cost = Sorl_machine.Measure.runtime measure inst tuning in
      let o = { Sorl_learn.Obs_log.benchmark = Instance.name inst; tuning; cost } in
      remember o;
      o
    end

(* The evaluation set for [holdout_tau]: [per_benchmark] distinct
   points of every benchmark's predefined set, drawn from their own
   seed stream and costed like the observations.  The run drops the
   points it observed before scoring, so the set is held out. *)
let evaluation ~seed ~per_benchmark =
  let rng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed seed 4) in
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed machine in
  List.concat_map
    (fun inst ->
      let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
      Array.to_list
        (Array.map
           (fun i ->
             let tuning = set.(i) in
             {
               Sorl_learn.Obs_log.benchmark = Instance.name inst;
               tuning;
               cost = Sorl_machine.Measure.runtime measure inst tuning;
             })
           (Sorl_util.Rng.sample_without_replacement rng per_benchmark (Array.length set))))
    Benchmarks.instances
