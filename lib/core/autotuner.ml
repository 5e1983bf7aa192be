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
   encode-then-score, so every consumer (full sort, top-k selection)
   sees the scores the slow serial path would produce. *)
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
      let enc = Features.compile t.mode inst in
      let scores = Array.make (Array.length candidates) 0. in
      scores_enc t enc candidates scores;
      (* Partial selection instead of a full sort: [Model.top_k] keeps
         the (score, index) order of [sort_by_score], so this is the
         element a full rank would put first. *)
      candidates.((Sorl_svmrank.Model.top_k ~k:1 scores).(0)))

(* ---- branch-and-bound top-k over the predefined grid ---- *)

type scratch = {
  mutable sc_idx : int array;
  mutable sc_v : float array;
  sc_top : Sorl_util.Topk.t;
}

let scratch () = { sc_idx = [||]; sc_v = [||]; sc_top = Sorl_util.Topk.create ~k:0 }

type prune_stats = {
  cubes : int;
  cubes_pruned : int;
  scored : int;
  pruned : int;
}

let pruned_cubes_counter = Sorl_util.Telemetry.counter "rank.pruned_subcubes"
let pruned_cands_counter = Sorl_util.Telemetry.counter "rank.pruned_candidates"
let scored_cands_counter = Sorl_util.Telemetry.counter "rank.scored_candidates"

(* Top-k over the paper's predefined set without materializing or even
   visiting most of it.  One subcube per (bx, by, bz) block triple
   (the u and c axes stay whole, so block-coupled derived features are
   bounded over exact block corners); cubes are visited in ascending
   bound order, and once the heap is full and the next bound exceeds
   the current k-th best score every remaining cube is pruned at once.
   A cube that is not pruned is scored exhaustively through the same
   compiled encoder + range scorer as the full rank, and candidates
   enter the heap under their full-set flat index, so the surviving
   top-k — order, tiebreaks and all — is exactly the first k elements
   of [rank t inst (Tuning.predefined_set ~dims)].  Bounds are sound
   by construction ({!Features.bound_lower}); a loose bound only means
   less pruning, never a different answer. *)
let top_k_pruned ?scratch:s t enc ~dims ~k =
  if Features.compiled_mode enc <> t.mode then
    invalid_arg "Autotuner.top_k_pruned: encoder mode does not match the tuner";
  if k < 0 then invalid_arg "Autotuner.top_k_pruned: negative k";
  Sorl_util.Telemetry.span "autotuner/top_k" (fun () ->
      let s = match s with Some s -> s | None -> scratch () in
      let a = Tuning.predefined_axes ~dims in
      let nby = Array.length a.Tuning.ax_by
      and nbz = Array.length a.Tuning.ax_bz
      and nu = Array.length a.Tuning.ax_u
      and nc = Array.length a.Tuning.ax_c in
      let ncubes = Array.length a.Tuning.ax_bx * nby * nbz in
      let cube_cands = nu * nc in
      let k = min k (ncubes * cube_cands) in
      if k = 0 then
        ([||], { cubes = ncubes; cubes_pruned = ncubes; scored = 0; pruned = ncubes * cube_cands })
      else begin
        let m = Features.max_nnz enc in
        if Array.length s.sc_idx < m then begin
          s.sc_idx <- Array.make m 0;
          s.sc_v <- Array.make m 0.
        end;
        Sorl_util.Topk.reset s.sc_top ~k;
        let bd =
          Features.bounder enc
            ~w:(Sorl_svmrank.Model.weights t.model)
            ~bx:a.Tuning.ax_bx ~by:a.Tuning.ax_by ~bz:a.Tuning.ax_bz ~u:a.Tuning.ax_u
            ~c:a.Tuning.ax_c
        in
        let nu1 = nu - 1 and nc1 = nc - 1 in
        let bounds =
          Array.init ncubes (fun cube ->
              let ibx = cube / (nby * nbz) in
              let r = cube mod (nby * nbz) in
              let iby = r / nbz and ibz = r mod nbz in
              Features.bound_lower bd ~bx:(ibx, ibx) ~by:(iby, iby) ~bz:(ibz, ibz)
                ~u:(0, nu1) ~c:(0, nc1))
        in
        (* Ascending bound order (ties by cube id, deterministically):
           promising cubes establish a tight k-th best score early, and
           the first prunable cube ends the scan — every cube after it
           has a bound at least as large. *)
        let order = Array.init ncubes Fun.id in
        Array.sort
          (fun x y ->
            if bounds.(x) < bounds.(y) then -1
            else if bounds.(y) < bounds.(x) then 1
            else compare (x : int) y)
          order;
        let score = Sorl_svmrank.Model.range_scorer t.model in
        let scored = ref 0 and cubes_pruned = ref 0 in
        let ci = ref 0 in
        let stop = ref false in
        while (not !stop) && !ci < ncubes do
          let cube = order.(!ci) in
          if
            Sorl_util.Topk.full s.sc_top
            && bounds.(cube) > Sorl_util.Topk.worst_score s.sc_top
          then begin
            (* Strict >: a cube whose bound ties the k-th best score
               could still hold an equal-score candidate with a smaller
               index, which the full sort would prefer. *)
            cubes_pruned := ncubes - !ci;
            stop := true
          end
          else begin
            let ibx = cube / (nby * nbz) in
            let r = cube mod (nby * nbz) in
            let iby = r / nbz and ibz = r mod nbz in
            let bxv = a.Tuning.ax_bx.(ibx)
            and byv = a.Tuning.ax_by.(iby)
            and bzv = a.Tuning.ax_bz.(ibz) in
            let base_flat = cube * cube_cands in
            for iu = 0 to nu1 do
              let uv = a.Tuning.ax_u.(iu) in
              for ic = 0 to nc1 do
                let tn =
                  { Tuning.bx = bxv; by = byv; bz = bzv; u = uv; c = a.Tuning.ax_c.(ic) }
                in
                let e = Features.encode_into enc tn s.sc_idx s.sc_v in
                Sorl_util.Topk.push s.sc_top (score s.sc_idx s.sc_v 0 e)
                  (base_flat + (iu * nc) + ic)
              done
            done;
            scored := !scored + cube_cands;
            incr ci
          end
        done;
        let flat = Sorl_util.Topk.contents s.sc_top in
        let result =
          Array.map
            (fun f ->
              let ic = f mod nc in
              let f = f / nc in
              let iu = f mod nu in
              let f = f / nu in
              let ibz = f mod nbz in
              let f = f / nbz in
              let iby = f mod nby in
              let ibx = f / nby in
              {
                Tuning.bx = a.Tuning.ax_bx.(ibx);
                by = a.Tuning.ax_by.(iby);
                bz = a.Tuning.ax_bz.(ibz);
                u = a.Tuning.ax_u.(iu);
                c = a.Tuning.ax_c.(ic);
              })
            flat
        in
        Sorl_util.Telemetry.add candidates_counter !scored;
        Sorl_util.Telemetry.add pruned_cubes_counter !cubes_pruned;
        Sorl_util.Telemetry.add pruned_cands_counter (!cubes_pruned * cube_cands);
        Sorl_util.Telemetry.add scored_cands_counter !scored;
        ( result,
          {
            cubes = ncubes;
            cubes_pruned = !cubes_pruned;
            scored = !scored;
            pruned = !cubes_pruned * cube_cands;
          } )
      end)

let top_k ?scratch t inst ~k =
  fst
    (top_k_pruned ?scratch t
       (Features.compile t.mode inst)
       ~dims:(Kernel.dims (Instance.kernel inst))
       ~k)

let tune t inst =
  match top_k t inst ~k:1 with
  | [| tn |] -> tn
  | _ -> invalid_arg "Autotuner.tune: empty predefined set"

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
