open Sorl_stencil

let default_holdout = 0.2
let default_seed = 9
let default_min_observations = 20

(* A record's split side is a pure function of (seed, benchmark,
   tuning): hashing instead of index-based slicing keeps the held-out
   set stable as the log grows and puts duplicate observations of the
   same point on the same side — the validation slice never trains. *)
let holdout_key seed (o : Obs_log.obs) =
  let d =
    Digest.string
      (Printf.sprintf "sorl-holdout|%d|%s|%s" seed o.Obs_log.benchmark
         (Obs_log.tuning_to_string o.Obs_log.tuning))
  in
  (Char.code d.[0] lsl 8) lor Char.code d.[1]

let split ?(holdout = default_holdout) ?(seed = default_seed) obs =
  if not (Float.is_finite holdout) || holdout < 0. || holdout >= 1. then
    invalid_arg "Trainer.split: holdout fraction must be in [0, 1)";
  let cut = int_of_float (holdout *. 65536.) in
  List.partition (fun o -> holdout_key seed o >= cut) obs

let resolve obs =
  List.filter_map
    (fun (o : Obs_log.obs) ->
      match Benchmarks.instance_by_name o.Obs_log.benchmark with
      | inst -> Some (inst, o.Obs_log.tuning, o.Obs_log.cost)
      | exception Not_found -> None)
    obs

let dataset ~mode obs =
  match resolve obs with
  | [] -> Error "Trainer: no observation references a registered benchmark"
  | ms -> (
    match Sorl.Training.of_measurements ~mode ms with
    | ds -> Ok ds
    | exception Invalid_argument msg -> Error ("Trainer: " ^ msg))

let retrain ?solver ?init ~mode obs =
  match dataset ~mode obs with
  | Error _ as e -> e
  | Ok ds -> (
    match Sorl.Autotuner.train_on ?solver ?init ~mode ds with
    | t -> Ok t
    | exception Invalid_argument msg -> Error ("Trainer: " ^ msg))

(* ---- incremental retraining over a segmented log ---- *)

let encoded_counter = Sorl_util.Telemetry.counter "learn.records_encoded"
let reused_counter = Sorl_util.Telemetry.counter "learn.segments_reused"

type retrain_stats = {
  replayed : int;
  records_encoded : int;
  records_cached : int;
  segments_total : int;
  segments_reused : int;
}

type incremental = {
  tuner : Sorl.Autotuner.t;
  held : Obs_log.obs list;
  stats : retrain_stats;
}

(* Build the training dataset from (record, features) pairs, mirroring
   {!Sorl.Training.of_measurements} exactly: one query per benchmark in
   first-appearance order, samples in observation order within a block,
   records naming unknown benchmarks (features [None]) dropped.  With
   bit-identical features (cached or compiled-encoder-fresh, both equal
   to [Features.encode]) the dataset — and therefore the trained
   weights — match the full-replay cold path bit for bit. *)
let assemble ~mode joined =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((r : Obs_log.record), feats) ->
      match feats with
      | None -> ()
      | Some f -> (
        let name = r.Obs_log.obs.Obs_log.benchmark in
        match Hashtbl.find_opt tbl name with
        | Some block -> block := (r, f) :: !block
        | None ->
          order := name :: !order;
          Hashtbl.add tbl name (ref [ (r, f) ])))
    joined;
  if !order = [] then Error "Trainer: no observation references a registered benchmark"
  else begin
    let samples =
      List.concat
        (List.mapi
           (fun qi name ->
             let block = Hashtbl.find tbl name in
             List.rev_map
               (fun ((r : Obs_log.record), f) ->
                 {
                   Sorl_svmrank.Dataset.query = qi;
                   features = f;
                   runtime = r.Obs_log.obs.Obs_log.cost;
                   tag =
                     Printf.sprintf "%s@%s" name
                       (Tuning.to_string r.Obs_log.obs.Obs_log.tuning);
                 })
               !block)
           (List.rev !order))
    in
    match Sorl_svmrank.Dataset.create ~dim:(Features.dim mode) samples with
    | ds -> Ok ds
    | exception Invalid_argument msg -> Error ("Trainer: " ^ msg)
  end

let retrain_incremental ?solver ?init ?(holdout = default_holdout)
    ?(seed = default_seed) ~mode path =
  if not (Float.is_finite holdout) || holdout < 0. || holdout >= 1. then
    invalid_arg "Trainer.retrain_incremental: holdout fraction must be in [0, 1)";
  match Obs_log.replay_segments path with
  | Error msg -> Error msg
  | Ok (segs, tail, _clean) ->
    Sorl_util.Telemetry.span "learn/retrain" (fun () ->
        let encoded = ref 0 and cached = ref 0 and reused = ref 0 in
        let seg_rows =
          List.concat_map
            (fun (seg : Obs_log.segment) ->
              let rows, hit = Enc_cache.get ~mode seg in
              if hit then begin
                incr reused;
                cached := !cached + Array.length rows
              end
              else encoded := !encoded + Array.length rows;
              List.combine seg.Obs_log.seg_records (Array.to_list rows))
            segs
        in
        let tail_rows =
          let rows = Enc_cache.encode ~mode tail in
          encoded := !encoded + Array.length rows;
          List.combine tail (Array.to_list rows)
        in
        let joined = seg_rows @ tail_rows in
        Sorl_util.Telemetry.add encoded_counter !encoded;
        Sorl_util.Telemetry.add reused_counter !reused;
        let stats =
          {
            replayed = List.length joined;
            records_encoded = !encoded;
            records_cached = !cached;
            segments_total = List.length segs;
            segments_reused = !reused;
          }
        in
        let cut = int_of_float (holdout *. 65536.) in
        let train, held =
          List.partition
            (fun ((r : Obs_log.record), _) -> holdout_key seed r.Obs_log.obs >= cut)
            joined
        in
        let held = List.map (fun ((r : Obs_log.record), _) -> r.Obs_log.obs) held in
        match assemble ~mode train with
        | Error _ as e -> e
        | Ok ds -> (
          match Sorl.Autotuner.train_on ?solver ?init ~mode ds with
          | tuner -> Ok { tuner; held; stats }
          | exception Invalid_argument msg -> Error ("Trainer: " ^ msg)))

(* ---- held-out evaluation ---- *)

let group_by_benchmark obs =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (o : Obs_log.obs) ->
      match Hashtbl.find_opt tbl o.Obs_log.benchmark with
      | Some block -> block := o :: !block
      | None ->
        order := o.Obs_log.benchmark :: !order;
        Hashtbl.add tbl o.Obs_log.benchmark (ref [ o ]))
    obs;
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find tbl name))) !order

let per_benchmark_tau tuner obs =
  List.filter_map
    (fun (name, block) ->
      match Benchmarks.instance_by_name name with
      | exception Not_found -> None
      | inst ->
        if List.length block < 2 then None
        else begin
          let costs = Array.of_list (List.map (fun o -> o.Obs_log.cost) block) in
          (* Degenerate group: no usable ranking when the cost spread is
             within float noise of zero.  A relative epsilon (not exact
             equality) keeps near-tied costs — e.g. means that differ
             only in the last ulp after aggregation — from producing a
             tau that is pure noise. *)
          let lo = Array.fold_left Float.min costs.(0) costs in
          let hi = Array.fold_left Float.max costs.(0) costs in
          let scale = Float.max 1. (Float.max (Float.abs lo) (Float.abs hi)) in
          if hi -. lo <= 1e-9 *. scale then None
          else begin
            (* One compiled encoder per benchmark, one scratch pair per
               block: [encode_into] + [range_scorer] is bit-identical
               to [Autotuner.score], without rebuilding the instance
               entries for every record. *)
            let enc = Features.compile (Sorl.Autotuner.feature_mode tuner) inst in
            let score = Sorl_svmrank.Model.range_scorer (Sorl.Autotuner.model tuner) in
            let idx = Array.make (Features.max_nnz enc) 0 in
            let v = Array.make (Features.max_nnz enc) 0. in
            let scores =
              Array.of_list
                (List.map
                   (fun o -> score idx v 0 (Features.encode_into enc o.Obs_log.tuning idx v))
                   block)
            in
            Some (name, Sorl_util.Rank_correlation.kendall_tau scores costs)
          end
        end)
    (group_by_benchmark obs)

let holdout_tau tuner obs =
  match per_benchmark_tau tuner obs with
  | [] -> None
  | taus ->
    let sum = List.fold_left (fun acc (_, t) -> acc +. t) 0. taus in
    Some (sum /. float_of_int (List.length taus))

(* Promotion rule: the candidate must match the stable generation's
   mean held-out tau (small epsilon for float noise; tau is discrete
   so genuine regressions show up far above it). *)
let no_worse ~stable ~candidate = candidate >= stable -. 1e-9
