(* Per-layer timings for the traced run.  The layers behind the socket
   are timed by replaying the recorded request and observation streams
   in-process through each layer's public functions, with the server
   already stopped so nothing else competes for the cores.  Spans
   inside the program are not used. *)

open Sorl_stencil

let now = Clock.now

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

(* Mean microseconds per call of [f] over [n] calls, median of five
   passes. *)
let per_call_us ~n f =
  if n = 0 then 0.
  else
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           f ();
           (now () -. t0) *. 1e6 /. float_of_int n))

(* ---- serving layers ---- *)

type serving = {
  parse_us : float;
  encode_us : float;
  find_us : float;
  compile_us : float;
  rank_top_us : float;
  top_k_us : float;
  scored_per_miss : float;
  pruned_ratio : float;
  unaccounted_us : float;  (** median over sampled reads of latency not covered by the layers *)
}

(* At most [cap] elements of [a], evenly strided. *)
let sample cap a =
  let n = Array.length a in
  if n <= cap then a else Array.init cap (fun i -> a.(i * n / cap))

let cache_key (r : Mix.read) =
  Sorl_serve.Result_cache.key ~generation:0
    ~verb:(if r.top = 0 then "tune" else "rank:" ^ string_of_int r.top)
    ~benchmark:r.benchmark

(* A result cache in the state the server starts in: every warm key
   present. *)
let warm_cache (g : Oracle.gen) =
  let cache = Sorl_serve.Result_cache.create () in
  Array.iter
    (fun inst ->
      Array.iter
        (fun top ->
          let r = Mix.make_read ~benchmark:(Instance.name inst) ~top ~approx_ok:false in
          Sorl_serve.Result_cache.put cache (cache_key r)
            (Oracle.ranking g r.benchmark ~k:(max 1 top)).tune)
        Mix.warm_tops)
    Mix.instances;
  cache

(* Look every key up, putting misses, as the server does. *)
let replay_cache cache keys =
  Array.iter
    (fun k ->
      match Sorl_serve.Result_cache.find cache k with
      | Some _ -> ()
      | None -> Sorl_serve.Result_cache.put cache k k)
    keys

(* Microseconds of one call of [f], repeated [reps] times to stay
   clear of the clock's resolution. *)
let one_call_us ?(reps = 4) f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) *. 1e6 /. float_of_int reps

let response_of (g : Oracle.gen) (r : Mix.read) =
  let k = max 1 r.top in
  let rk = Oracle.ranking g r.benchmark ~k in
  if r.top = 0 then
    Sorl_serve.Protocol.Tuned { benchmark = r.benchmark; tuning = rk.top.(0); approx = false }
  else
    Sorl_serve.Protocol.Ranked
      {
        benchmark = r.benchmark;
        total = Mix.grid_size (Benchmarks.instance_by_name r.benchmark);
        tunings = Array.to_list (Array.sub rk.top 0 k);
        approx = false;
      }

(* [reads] is the recorded read stream and [lats] the client-observed
   latency of each (seconds; nan when the reply was not an exact one).
   Parse and cache lookups are replayed over the whole stream; encode
   and the ranking stack are timed call by call on an evenly strided
   sample of it, which also yields the per-read share of latency the
   in-process layers do not cover. *)
let serving (g : Oracle.gen) (reads : Mix.read array) (lats : float array) =
  let mode = Sorl.Autotuner.feature_mode g.tuner in
  let n = Array.length reads in
  let lines = Array.map (fun (r : Mix.read) -> String.sub r.line 0 (String.length r.line - 1)) reads in
  let parse_us =
    per_call_us ~n (fun () ->
        Array.iter (fun l -> ignore (Sys.opaque_identity (Sorl_serve.Protocol.parse_request l))) lines)
  in
  let keys = Array.map cache_key reads in
  let find_us =
    median
      (List.init 3 (fun _ ->
           let cache = warm_cache g in
           let t0 = now () in
           replay_cache cache keys;
           (now () -. t0) *. 1e6 /. float_of_int (max 1 n)))
  in
  (* Which reads reach the ranking stack. *)
  let miss =
    let cache = warm_cache g in
    Array.map
      (fun k ->
        match Sorl_serve.Result_cache.find cache k with
        | Some _ -> false
        | None ->
          Sorl_serve.Result_cache.put cache k k;
          true)
      keys
  in
  let compile_us =
    per_call_us ~n:(Array.length Mix.instances) (fun () ->
        Array.iter
          (fun inst -> ignore (Sys.opaque_identity (Features.compile mode inst)))
          Mix.instances)
  in
  let batcher = Sorl_serve.Batcher.create () in
  let encoders = Hashtbl.create 32 in
  Array.iter
    (fun inst -> Hashtbl.replace encoders (Instance.name inst) (Features.compile mode inst))
    Mix.instances;
  let scratch = Sorl.Autotuner.scratch () in
  let scored = ref 0 and pruned = ref 0 in
  let rank_top (r : Mix.read) =
    let inst = Benchmarks.instance_by_name r.benchmark in
    one_call_us ~reps:1 (fun () ->
        Sorl_serve.Batcher.rank_top batcher ~generation:0 ~tuner:g.tuner ~inst ~k:(max 1 r.top) ())
  in
  let top_k (r : Mix.read) =
    let inst = Benchmarks.instance_by_name r.benchmark in
    one_call_us ~reps:1 (fun () ->
        let _, st =
          Sorl.Autotuner.top_k_pruned ~scratch g.tuner (Hashtbl.find encoders r.benchmark)
            ~dims:(Kernel.dims (Instance.kernel inst))
            ~k:(max 1 r.top)
        in
        scored := !scored + st.Sorl.Autotuner.scored;
        pruned := !pruned + st.Sorl.Autotuner.pruned)
  in
  let idx = sample 400 (Array.init n Fun.id) in
  let encode =
    Array.map
      (fun i ->
        let resp = response_of g reads.(i) in
        one_call_us (fun () -> Sorl_serve.Protocol.encode_response resp))
      idx
  in
  let ranked = Array.map (fun i -> if miss.(i) then rank_top reads.(i) else 0.) idx in
  let unaccounted =
    List.filter_map
      (fun j ->
        let i = idx.(j) in
        if Float.is_nan lats.(i) then None
        else Some ((lats.(i) *. 1e6) -. (parse_us +. find_us +. encode.(j) +. ranked.(j))))
      (List.init (Array.length idx) Fun.id)
  in
  (* The ranking-stack timings: the sampled misses, or the warm set
     itself when every read hits (the ranking work a fully hot server
     did at start). *)
  let ranked_reads =
    match List.filter (fun i -> miss.(i)) (Array.to_list idx) with
    | [] ->
      Array.to_list
        (Array.concat
           (Array.to_list
              (Array.map
                 (fun inst ->
                   Array.map
                     (fun top -> Mix.make_read ~benchmark:(Instance.name inst) ~top ~approx_ok:false)
                     Mix.warm_tops)
                 Mix.instances)))
    | l -> List.map (fun i -> reads.(i)) l
  in
  let rank_top_us = median (List.map rank_top ranked_reads) in
  let top_k_us = median (List.map top_k ranked_reads) in
  {
    parse_us;
    encode_us = median (Array.to_list encode);
    find_us;
    compile_us;
    rank_top_us;
    top_k_us;
    scored_per_miss = float_of_int !scored /. float_of_int (max 1 (List.length ranked_reads));
    pruned_ratio = float_of_int !pruned /. float_of_int (max 1 (!pruned + !scored));
    unaccounted_us = median unaccounted;
  }

(* ---- learning layers ---- *)

type learning = {
  append_us : float;
  retrain_s : float;  (** in-process [retrain_incremental] on the replayed log *)
  replay_s : float;
  encode_s : float;
  pairs_s : float;
  solve_s : float;
  pairs : int;
}

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Sidecars present in a log directory. *)
let sidecars dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".enc")
  |> List.map (Filename.concat dir)

(* Replay the observation stream into a fresh log at [dir] with the
   server's roll threshold, reproducing the sidecars earlier cycles
   left behind, then time the last cycle's retrain as a whole and
   layer by layer: replay, encode, pairs (with pair differences) and
   solve.  [points] are the log sizes the cycles ran at. *)
let learning ~dir ~mode ~solver_params ~init ~(stream : Sorl_learn.Obs_log.obs array) ~points =
  let last = List.fold_left max 0 points in
  let w =
    match Sorl_learn.Obs_log.create dir with Ok w -> w | Error m -> failwith ("replay log: " ^ m)
  in
  let append_s = ref 0. in
  let ok r = match r with Ok x -> x | Error m -> failwith ("replay: " ^ m) in
  for i = 0 to last - 1 do
    let t0 = now () in
    Sorl_learn.Obs_log.append w stream.(i);
    append_s := !append_s +. (now () -. t0);
    if List.mem (i + 1) points && i + 1 < last then begin
      let segs, _, _ = ok (Sorl_learn.Obs_log.replay_segments dir) in
      List.iter (fun seg -> ignore (Sorl_learn.Enc_cache.get ~mode seg)) segs
    end
  done;
  let before = sidecars dir in
  let drop_new () =
    List.iter (fun f -> if not (List.mem f before) then Sys.remove f) (sidecars dir)
  in
  let solver = Sorl.Autotuner.Dcd solver_params in
  let retrain_s =
    median
      (List.init 3 (fun _ ->
           let r, s =
             time (fun () -> Sorl_learn.Trainer.retrain_incremental ~solver ~init ~mode dir)
           in
           ignore (ok r);
           drop_new ();
           s))
  in
  (* One decomposed retrain: replay, encode (building the sidecars the
     last cycle built, then dropping them again), pairs and solve. *)
  let phases () =
    let (segs, tail, _), replay_s = time (fun () -> ok (Sorl_learn.Obs_log.replay_segments dir)) in
    let (), encode_s =
      time (fun () ->
          List.iter (fun seg -> ignore (Sys.opaque_identity (Sorl_learn.Enc_cache.get ~mode seg))) segs;
          ignore (Sys.opaque_identity (Sorl_learn.Enc_cache.encode ~mode tail)))
    in
    drop_new ();
    let records =
      List.concat_map (fun (s : Sorl_learn.Obs_log.segment) -> s.seg_records) segs @ tail
    in
    let train, _ =
      Sorl_learn.Trainer.split (List.map (fun (r : Sorl_learn.Obs_log.record) -> r.obs) records)
    in
    let ds = ok (Sorl_learn.Trainer.dataset ~mode train) in
    let zs, pairs_s =
      time (fun () ->
          let rng = Sorl_util.Rng.create (solver_params.Sorl_svmrank.Solver_dcd.seed + 104729) in
          let pairs =
            Sorl_svmrank.Dataset.pairs ?max_per_query:solver_params.max_pairs_per_query ~rng ds
          in
          Sorl_svmrank.Solver_common.pair_diffs ds pairs)
    in
    let _, solve_s =
      time (fun () ->
          Sorl_svmrank.Solver_dcd.train_on_pairs ~init ~params:solver_params
            ~dim:(Sorl_svmrank.Dataset.dim ds) zs)
    in
    (replay_s, encode_s, pairs_s, solve_s, Array.length zs)
  in
  let runs = List.init 3 (fun _ -> phases ()) in
  let med f = median (List.map f runs) in
  let _, _, _, _, pairs = List.hd runs in
  Sorl_learn.Obs_log.close w;
  {
    append_us = !append_s *. 1e6 /. float_of_int (max 1 last);
    retrain_s;
    replay_s = med (fun (r, _, _, _, _) -> r);
    encode_s = med (fun (_, e, _, _, _) -> e);
    pairs_s = med (fun (_, _, p, _, _) -> p);
    solve_s = med (fun (_, _, _, s, _) -> s);
    pairs;
  }
