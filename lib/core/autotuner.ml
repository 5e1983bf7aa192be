open Sorl_stencil

type solver =
  | Sgd of Sorl_svmrank.Solver_sgd.params
  | Dcd of Sorl_svmrank.Solver_dcd.params

type t = { model : Sorl_svmrank.Model.t; mode : Features.mode }

let default_solver = Sgd Sorl_svmrank.Solver_sgd.default_params

let fit ?init solver ds =
  Sorl_util.Telemetry.span "autotuner/fit" (fun () ->
      match solver with
      | Sgd params -> Sorl_svmrank.Solver_sgd.train ?init ~params ds
      | Dcd params -> Sorl_svmrank.Solver_dcd.train ?init ~params ds)

let train_on ?(solver = default_solver) ?init ~mode ds =
  if Sorl_svmrank.Dataset.dim ds <> Features.dim mode then
    invalid_arg "Autotuner.train_on: dataset dimension does not match feature mode";
  { model = fit ?init solver ds; mode }

let train ?(spec = Training.default_spec) ?(solver = default_solver) measure =
  let ds = Training.generate ~spec measure in
  train_on ~solver ~mode:spec.Training.mode ds

let of_model ~mode model =
  if Sorl_svmrank.Model.dim model <> Features.dim mode then
    invalid_arg "Autotuner.of_model: model dimension does not match feature mode";
  { model; mode }

let model t = t.model
let feature_mode t = t.mode
let weights t = Sorl_svmrank.Model.weights t.model

let score t inst tuning =
  Sorl_svmrank.Model.score t.model (Features.encode t.mode inst tuning)

let candidates_counter = Sorl_util.Telemetry.counter "rank.candidates"
let encode_hist = Sorl_util.Telemetry.histogram "rank.encode_s"
let score_hist = Sorl_util.Telemetry.histogram "rank.score_s"

(* Streams candidates through a compiled per-instance encoder in
   parallel chunks, filling [scores]: each chunk owns one scratch
   index/value region that [Features.encode_into]/[encode_at] refills,
   and the range scorer walks filled entries against the dense weights
   — no allocation per candidate.  Both are bit-identical to
   encode-then-score, so the full sort and the argmin of [best] see
   the scores the slow serial path would produce. *)
let scores_enc t enc candidates scores =
  let n = Array.length candidates in
  Sorl_util.Telemetry.add candidates_counter n;
  ignore
    (Sorl_util.Pool.parallel_chunks n (fun lo hi ->
         let score = Sorl_svmrank.Model.range_scorer t.model in
         let m = Features.max_nnz enc in
         if Sorl_util.Telemetry.enabled () then begin
           (* Traced path: encode the whole chunk into one flat block,
              then score it, so the two phases appear as separate spans
              with per-candidate latency histograms.  The block is one
              allocation per chunk (offsets into shared idx/v arrays) —
              not the two [Array.sub] copies per candidate this path
              used to make — and each row is scored in place via the
              range scorer.  Entries and scores come from the same pure
              functions as the interleaved loop below, so the scores
              (hence the ranking) are bit-identical. *)
           let cnt = hi - lo in
           let idx = Array.make (max 1 (cnt * m)) 0 in
           let v = Array.make (max 1 (cnt * m)) 0. in
           let offs = Array.make (cnt + 1) 0 in
           Sorl_util.Telemetry.span "features/encode" (fun () ->
               for k = 0 to cnt - 1 do
                 offs.(k + 1) <-
                   Sorl_util.Telemetry.time_hist encode_hist (fun () ->
                       Features.encode_at enc candidates.(lo + k) idx v offs.(k))
               done);
           Sorl_util.Telemetry.span "model/score" (fun () ->
               for k = 0 to cnt - 1 do
                 scores.(lo + k) <-
                   Sorl_util.Telemetry.time_hist score_hist (fun () ->
                       score idx v offs.(k) offs.(k + 1))
               done)
         end
         else begin
           let idx = Array.make m 0 in
           let v = Array.make m 0. in
           for i = lo to hi - 1 do
             let e = Features.encode_into enc candidates.(i) idx v in
             scores.(i) <- score idx v 0 e
           done
         end))

let order_enc t enc candidates =
  Sorl_util.Telemetry.span "autotuner/rank" (fun () ->
      let scores = Array.make (Array.length candidates) 0. in
      scores_enc t enc candidates scores;
      Sorl_svmrank.Model.sort_by_score scores)

let rank t inst candidates =
  Array.map (fun i -> candidates.(i)) (order_enc t (Features.compile t.mode inst) candidates)

let rank_order t enc candidates =
  if Features.compiled_mode enc <> t.mode then
    invalid_arg "Autotuner.rank_order: encoder mode does not match the tuner";
  order_enc t enc candidates

let best t inst candidates =
  if Array.length candidates = 0 then invalid_arg "Autotuner.best: no candidates";
  Sorl_util.Telemetry.span "autotuner/rank" (fun () ->
      let scores = Array.make (Array.length candidates) 0. in
      scores_enc t (Features.compile t.mode inst) candidates scores;
      candidates.(Sorl_svmrank.Model.best_index scores))

let tune t inst = best t inst (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))

(* ---- top-k as a prefix of the full sort ----
   Kept for perfbench/layers.ml; goes with ROADMAP item 1. *)

type scratch = unit

let scratch () = ()

type prune_stats = { scored : int; pruned : int }

let top_k_pruned ?scratch:_ t enc ~dims ~k =
  if k < 0 then invalid_arg "Autotuner.top_k_pruned: negative k";
  let set = Tuning.predefined_set ~dims in
  let order = rank_order t enc set in
  let n = Array.length set in
  (Array.init (min k n) (fun i -> set.(order.(i))), { scored = n; pruned = 0 })

let top_k ?scratch t inst ~k =
  fst
    (top_k_pruned ?scratch t
       (Features.compile t.mode inst)
       ~dims:(Kernel.dims (Instance.kernel inst))
       ~k)

(* ---- persistence ----

   Version-headed text format, written atomically:

     sorl-model v1
     mode <canonical|extended>
     <Model.to_string payload: "sorl-rank-model 1", dim, nnz, weights, end>

   Parsing is defensive end to end: every malformed input — missing or
   wrong version, unknown mode, truncated payload — comes back as a
   typed [Error] with a message naming the problem, never as an
   exception escaping from the middle of a parse.  The serving
   subsystem's hot-reload path consumes the same [Result]s. *)

let format_header = "sorl-model v1"

let to_string t =
  Printf.sprintf "%s\nmode %s\n%s" format_header
    (Features.mode_to_string t.mode)
    (Sorl_svmrank.Model.to_string t.model)

(* First line (sans trailing [\r]) and the remainder after its [\n]. *)
let split_line s =
  match String.index_opt s '\n' with
  | None -> (String.trim s, "")
  | Some i -> (String.trim (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))

let of_string s =
  let err msg = Error ("Autotuner: " ^ msg) in
  let header, rest = split_line s in
  match String.split_on_char ' ' header with
  | [ "sorl-model"; "v1" ] -> (
    let mode_line, payload = split_line rest in
    match String.split_on_char ' ' mode_line with
    | [ "mode"; m ] -> (
      match Features.mode_of_string m with
      | exception Invalid_argument _ -> err (Printf.sprintf "unknown feature mode %S" m)
      | mode -> (
        match Sorl_svmrank.Model.of_string payload with
        | exception Failure msg -> err msg
        | model ->
          if Sorl_svmrank.Model.dim model <> Features.dim mode then
            err
              (Printf.sprintf "model dimension %d does not match %s features (%d)"
                 (Sorl_svmrank.Model.dim model) m (Features.dim mode))
          else Ok { model; mode }))
    | _ -> err "missing \"mode <canonical|extended>\" line")
  | [ "sorl-model"; v ] ->
    err (Printf.sprintf "unsupported format version %S (this build reads v1)" v)
  | _ -> err (Printf.sprintf "not a model file (expected %S header)" format_header)

let save t path = Sorl_util.Persist.write_atomic path (fun oc -> output_string oc (to_string t))

let load_result path =
  match Sorl_util.Persist.read_to_string path with
  | Error msg -> Error (Printf.sprintf "Autotuner: cannot read %s: %s" path msg)
  | Ok s -> (
    match of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "%s (in %s)" msg path))

let load path = match load_result path with Ok t -> t | Error msg -> failwith msg
