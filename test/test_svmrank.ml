(* Tests for the rank-SVM library: dataset/pair construction, both
   solvers (including recovering a planted linear utility), the model
   and the evaluation metrics. *)

open Sorl_svmrank
module Sparse = Sorl_util.Sparse

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let feq = Alcotest.float 1e-9

let sample q fs rt =
  { Dataset.query = q; features = Sparse.of_dense fs; runtime = rt; tag = "" }

(* Table I of the paper: 4 instances, 3 executions each. *)
let table1 () =
  Dataset.create ~dim:2
    [
      sample 1 [| 0.1; 0.0 |] 0.012;
      sample 1 [| 0.2; 0.0 |] 0.013;
      sample 1 [| 0.3; 0.0 |] 0.020;
      sample 2 [| 0.1; 0.1 |] 0.010;
      sample 2 [| 0.2; 0.1 |] 0.036;
      sample 2 [| 0.3; 0.1 |] 0.035;
      sample 3 [| 0.1; 0.2 |] 0.030;
      sample 3 [| 0.2; 0.2 |] 0.045;
      sample 3 [| 0.3; 0.2 |] 0.047;
      sample 4 [| 0.1; 0.3 |] 0.025;
      sample 4 [| 0.2; 0.3 |] 0.021;
      sample 4 [| 0.3; 0.3 |] 0.012;
    ]

(* ---- Dataset ---- *)

let test_dataset_grouping () =
  let ds = table1 () in
  checki "samples" 12 (Dataset.num_samples ds);
  checki "queries" 4 (Dataset.num_queries ds);
  checki "query members" 3 (Array.length (Dataset.query_members ds 2));
  Alcotest.check_raises "unknown query" Not_found (fun () ->
      ignore (Dataset.query_members ds 99))

let test_dataset_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.create: empty") (fun () ->
      ignore (Dataset.create ~dim:2 []));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Dataset.create: feature dimension mismatch") (fun () ->
      ignore (Dataset.create ~dim:3 [ sample 1 [| 1.; 2. |] 1. ]));
  Alcotest.check_raises "bad runtime"
    (Invalid_argument "Dataset.create: runtime must be finite and positive") (fun () ->
      ignore (Dataset.create ~dim:1 [ sample 1 [| 1. |] 0. ]))

let test_pairs_within_query_only () =
  let ds = table1 () in
  let ps = Dataset.pairs ds in
  (* 4 queries x 3 strict pairs each (paper's transitive-closure count). *)
  checki "m' = 12" 12 (Array.length ps);
  checki "possible pairs" 12 (Dataset.num_possible_pairs ds);
  let samples = Dataset.samples ds in
  Array.iter
    (fun (slower, faster) ->
      checki "same query" samples.(slower).Dataset.query samples.(faster).Dataset.query;
      checkb "ordered" true
        (samples.(slower).Dataset.runtime > samples.(faster).Dataset.runtime))
    ps

let test_pairs_ties_skipped () =
  let ds =
    Dataset.create ~dim:1
      [ sample 1 [| 0.1 |] 1.0; sample 1 [| 0.2 |] 1.0; sample 1 [| 0.3 |] 2.0 ]
  in
  (* tie contributes no pair: only (2,0) and (2,1). *)
  checki "ties skipped" 2 (Array.length (Dataset.pairs ds))

let test_pairs_subsampling () =
  let ds = table1 () in
  let rng = Sorl_util.Rng.create 1 in
  let ps = Dataset.pairs ~max_per_query:1 ~rng ds in
  checki "capped" 4 (Array.length ps);
  Alcotest.check_raises "rng required" (Invalid_argument "Dataset.pairs: subsampling requires ~rng")
    (fun () -> ignore (Dataset.pairs ~max_per_query:1 ds))

let test_subset () =
  let ds = table1 () in
  let s = Dataset.subset ds 6 in
  checki "size" 6 (Dataset.num_samples s);
  checki "queries" 2 (Dataset.num_queries s);
  Alcotest.check_raises "oversize" (Invalid_argument "Dataset.subset: size out of range")
    (fun () -> ignore (Dataset.subset ds 13))

let test_split_queries () =
  let ds = table1 () in
  let rng = Sorl_util.Rng.create 7 in
  let tr, va = Dataset.split_queries ~rng ds ~fraction:0.5 in
  checki "total preserved" 12 (Dataset.num_samples tr + Dataset.num_samples va);
  (* no query appears on both sides *)
  let qs d = Array.to_list (Dataset.query_ids d) in
  List.iter (fun q -> checkb "disjoint" false (List.mem q (qs va))) (qs tr)

(* The list-based pair construction [Dataset.pairs] used before pairs
   were packed into flat buffers, kept verbatim as the reference: the
   packed version must return the same pairs in the same order for
   every cap, and with it the same subsample. *)
let reference_pairs ?max_per_query ~rng ds =
  let samples = Dataset.samples ds in
  let strict idxs =
    let n = Array.length idxs in
    let out = ref [] in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then begin
          let i = idxs.(a) and j = idxs.(b) in
          if samples.(i).Dataset.runtime > samples.(j).Dataset.runtime then
            out := (i, j) :: !out
        end
      done
    done;
    !out
  in
  let base = Int64.to_int (Sorl_util.Rng.bits64 rng) land max_int in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun qi q ->
            let ps = strict (Dataset.query_members ds q) in
            match max_per_query with
            | Some cap when List.length ps > cap ->
              let qrng = Sorl_util.Rng.create (Sorl_util.Rng.derive_seed base qi) in
              let arr = Array.of_list ps in
              let keep = Sorl_util.Rng.sample_without_replacement qrng cap (Array.length arr) in
              Array.map (fun k -> arr.(k)) keep
            | _ -> Array.of_list ps)
          (Dataset.query_ids ds)))

let test_pairs_match_reference () =
  (* Seven queries of 0..80 samples; runtimes drawn from a few values
     so ties are common, and queries interleaved in the sample order. *)
  let rng = Sorl_util.Rng.create 21 in
  let sizes = [| 0; 1; 2; 9; 30; 57; 80 |] in
  let samples =
    List.concat_map
      (fun round ->
        List.filter_map
          (fun q ->
            if round >= sizes.(q) then None
            else
              let rt = 1. +. float_of_int (Sorl_util.Rng.int rng 12) in
              Some (sample q [| float_of_int round; rt |] rt))
          (List.init (Array.length sizes) Fun.id))
      (List.init 80 Fun.id)
  in
  let ds = Dataset.create ~dim:2 samples in
  let pair = Alcotest.(array (pair int int)) in
  List.iter
    (fun domains ->
      Sorl_util.Pool.with_domains domains (fun () ->
          Alcotest.check pair
            (Printf.sprintf "uncapped, %d domain(s)" domains)
            (reference_pairs ~rng:(Sorl_util.Rng.create 0) ds)
            (Dataset.pairs ds);
          List.iter
            (fun cap ->
              Alcotest.check pair
                (Printf.sprintf "cap %d, %d domain(s)" cap domains)
                (reference_pairs ~max_per_query:cap ~rng:(Sorl_util.Rng.create cap) ds)
                (Dataset.pairs ~max_per_query:cap ~rng:(Sorl_util.Rng.create cap) ds))
            [ 0; 1; 7; 50; 400; 1000; 1_000_000 ]))
    [ 1; 2 ];
  checki "possible pairs"
    (Array.length (reference_pairs ~rng:(Sorl_util.Rng.create 0) ds))
    (Dataset.num_possible_pairs ds)

(* ---- Solver_common ---- *)

let test_pair_diffs_sparse () =
  let ds = table1 () in
  let ps = Dataset.pairs ds in
  let zs = Solver_common.pair_diffs ds ps in
  Array.iter
    (fun z ->
      (* within-query diffs cancel the constant second coordinate *)
      checki "only coordinate 0 differs" 1 (Sparse.nnz z))
    zs

let test_objective_at_zero () =
  let ds = table1 () in
  let zs = Solver_common.pair_diffs ds (Dataset.pairs ds) in
  let w0 = Array.make 2 0. in
  (* F(0) = C/m * sum(1) = C. *)
  Alcotest.check feq "objective at 0" 100. (Solver_common.objective ~c:100. zs w0);
  Alcotest.check feq "all pairs violated at 0" 1. (Solver_common.hinge_error_rate zs w0)

(* ---- Solvers ---- *)

(* Planted model: utility = 3*x0 - 2*x1 (+ tiny noise-free), runtimes
   follow it exactly.  Both solvers must recover the ranking. *)
let planted_dataset ?(n_queries = 12) ?(per_query = 8) () =
  let rng = Sorl_util.Rng.create 42 in
  let samples = ref [] in
  for q = 0 to n_queries - 1 do
    let base = Sorl_util.Rng.uniform rng in
    for _ = 0 to per_query - 1 do
      let x0 = Sorl_util.Rng.uniform rng and x1 = Sorl_util.Rng.uniform rng in
      (* exp keeps runtimes positive while preserving the utility's
         ordering exactly *)
      let rt = 1e-3 *. exp (base +. (3. *. x0) -. (2. *. x1)) in
      samples := sample q [| x0; x1; base |] rt :: !samples
    done
  done;
  Dataset.create ~dim:3 !samples

let recovers_ranking train_fn =
  let ds = planted_dataset () in
  let model = train_fn ds in
  Eval.mean_tau model ds > 0.95

let test_sgd_recovers_planted () =
  checkb "sgd recovers" true (recovers_ranking (fun ds -> Solver_sgd.train ds))

let test_dcd_recovers_planted () =
  checkb "dcd recovers" true (recovers_ranking (fun ds -> Solver_dcd.train ds))

let test_dcd_reduces_objective () =
  let ds = planted_dataset () in
  let ps = Dataset.pairs ds in
  let zs = Solver_common.pair_diffs ds ps in
  let model = Solver_dcd.train_on_pairs ~dim:3 zs in
  let w = Model.weights model in
  let f0 = Solver_common.objective ~c:100. zs (Array.make 3 0.) in
  let f = Solver_common.objective ~c:100. zs w in
  checkb "objective decreased" true (f < f0)

let test_sgd_reduces_objective () =
  let ds = planted_dataset () in
  let zs = Solver_common.pair_diffs ds (Dataset.pairs ds) in
  let model = Solver_sgd.train_on_pairs ~dim:3 zs in
  let f0 = Solver_common.objective ~c:100. zs (Array.make 3 0.) in
  let f = Solver_common.objective ~c:100. zs (Model.weights model) in
  checkb "objective decreased" true (f < f0)

let test_solvers_agree_on_direction () =
  let ds = planted_dataset () in
  let m1 = Solver_sgd.train ds in
  let m2 = Solver_dcd.train ds in
  (* same sign structure on the informative coordinates *)
  let w1 = Model.weights m1 and w2 = Model.weights m2 in
  checkb "x0 positive (slower)" true (w1.(0) > 0. && w2.(0) > 0.);
  checkb "x1 negative" true (w1.(1) < 0. && w2.(1) < 0.)

let test_solver_determinism () =
  let ds = planted_dataset () in
  let w1 = Model.weights (Solver_sgd.train ds) in
  let w2 = Model.weights (Solver_sgd.train ds) in
  checkb "sgd deterministic" true (w1 = w2);
  let w3 = Model.weights (Solver_dcd.train ds) in
  let w4 = Model.weights (Solver_dcd.train ds) in
  checkb "dcd deterministic" true (w3 = w4)

let test_solver_validation () =
  let ds = planted_dataset () in
  Alcotest.check_raises "sgd bad C" (Invalid_argument "Solver_sgd: C must be positive")
    (fun () ->
      ignore
        (Solver_sgd.train ~params:{ Solver_sgd.default_params with Solver_sgd.c = 0. } ds));
  Alcotest.check_raises "dcd no pairs" (Invalid_argument "Solver_dcd: no pairs") (fun () ->
      ignore (Solver_dcd.train_on_pairs ~dim:2 [||]))

let test_untrainable_dataset_rejected () =
  (* One sample per query -> no pairs. *)
  let ds = Dataset.create ~dim:1 [ sample 1 [| 0.5 |] 1.; sample 2 [| 0.7 |] 2. ] in
  Alcotest.check_raises "sgd" (Invalid_argument "Solver_sgd.train: dataset exposes no pairs")
    (fun () -> ignore (Solver_sgd.train ds))

(* ---- Model ---- *)

let test_model_rank_stable () =
  let model = Model.create [| 1.; 0. |] in
  let c v = Sparse.of_dense v in
  let rank cands = Model.sort_by_score (Array.map (Model.score model) cands) in
  let order = rank [| c [| 3.; 0. |]; c [| 1.; 0. |]; c [| 2.; 0. |] |] in
  Alcotest.(check (array int)) "ascending score" [| 1; 2; 0 |] order;
  Alcotest.(check (array int)) "ties by index" [| 1; 0; 2 |]
    (rank [| c [| 2.; 0. |]; c [| 1.; 0. |]; c [| 2.; 0. |] |]);
  Alcotest.(check (array int)) "0. and -0. tie" [| 0; 1 |] (Model.sort_by_score [| 0.; -0. |]);
  Alcotest.(check (array int)) "empty" [||] (rank [||])

let test_model_serialization () =
  let model = Model.create [| 0.5; 0.; -1.25 |] in
  let s = Model.to_string model in
  let model' = Model.of_string s in
  checkb "weights roundtrip" true (Model.weights model = Model.weights model');
  let path = Filename.temp_file "sorl" ".model" in
  Model.save model path;
  let loaded = Model.load path in
  Sys.remove path;
  checkb "file roundtrip" true (Model.weights model = Model.weights loaded)

let test_model_of_string_errors () =
  checkb "bad magic" true
    (try
       ignore (Model.of_string "garbage\ndim 2\n");
       false
     with Failure _ -> true);
  checkb "truncated" true
    (try
       ignore (Model.of_string "sorl-rank-model 1\n");
       false
     with Failure _ -> true)

(* ---- Eval ---- *)

let test_eval_perfect_model () =
  let ds = table1 () in
  (* score = x0 replicates the runtime ordering within queries 1 and 3,
     not 2 and 4; a handcrafted perfect model scores by runtime. *)
  let samples = Dataset.samples ds in
  ignore samples;
  let model = Model.create [| 1.; 0. |] in
  let rs = Eval.per_query model ds in
  checki "4 queries" 4 (Array.length rs);
  (* query 1: runtimes increase with x0 -> tau = 1, zero regret *)
  let q1 = rs.(0) in
  Alcotest.check feq "q1 tau" 1. q1.Eval.tau;
  Alcotest.check feq "q1 regret" 0. q1.Eval.top1_regret;
  (* query 4: runtimes decrease with x0 -> tau = -1 *)
  let q4 = rs.(3) in
  Alcotest.check feq "q4 tau" (-1.) q4.Eval.tau;
  checkb "q4 regret positive" true (q4.Eval.top1_regret > 0.)

let test_eval_swapped_rate () =
  let ds = table1 () in
  let model = Model.create [| 1.; 0. |] in
  (* queries 1,3 perfect (6 pairs), query 2 has 1 swapped of 3, query 4
     all 3 swapped -> 4/12. *)
  Alcotest.check feq "swapped rate" (4. /. 12.) (Eval.swapped_pair_rate model ds)

let test_cross_validation () =
  let ds = planted_dataset ~n_queries:10 () in
  let taus = Eval.cross_validate ~folds:5 ~train:(fun d -> Solver_dcd.train d) ds in
  checki "5 folds" 5 (Array.length taus);
  Array.iter (fun t -> checkb "held-out tau high" true (t > 0.8)) taus

(* The (score, index) comparator sort [Model.sort_by_score] used
   before the merge sort, kept as the reference order. *)
let reference_sort (scores : float array) =
  let idx = Array.init (Array.length scores) Fun.id in
  Array.sort
    (fun a b ->
      if scores.(a) < scores.(b) then -1
      else if scores.(b) < scores.(a) then 1
      else compare (a : int) b)
    idx;
  idx

let test_sort_by_score_edges () =
  (* lengths around the insertion-run and merge-width boundaries *)
  List.iter
    (fun n ->
      let scores = Array.init n (fun i -> float_of_int ((i * 7919) mod 13) -. 6.) in
      Alcotest.(check (array int)) (Printf.sprintf "n = %d" n) (reference_sort scores)
        (Model.sort_by_score scores);
      let desc = Array.init n (fun i -> float_of_int (n - i)) in
      Alcotest.(check (array int)) (Printf.sprintf "descending n = %d" n)
        (reference_sort desc) (Model.sort_by_score desc))
    [ 0; 1; 2; 15; 16; 17; 31; 32; 33; 63; 64; 65; 1000; 8640 ];
  Alcotest.(check (array int)) "signed zeros keep index order" [| 2; 0; 1; 3 |]
    (Model.sort_by_score [| -0.; 0.; -1.; -0. |])

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"sort_by_score = (score, index) comparator sort"
         QCheck2.Gen.(
           array_size (int_range 0 9000)
             (frequency
                [
                  (4, oneofl [ 0.; -0.; 1.; -1.; 0.5; 2.25; -3.75 ]);
                  (1, float_range (-1e6) 1e6);
                ]))
         (fun scores -> Model.sort_by_score scores = reference_sort scores));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:50 ~name:"planted utility recovered across seeds"
         QCheck2.Gen.(int_range 0 1000)
         (fun seed ->
           let rng = Sorl_util.Rng.create seed in
           let samples = ref [] in
           for q = 0 to 5 do
             for _ = 0 to 9 do
               let x0 = Sorl_util.Rng.uniform rng and x1 = Sorl_util.Rng.uniform rng in
               samples := sample q [| x0; x1 |] (0.1 +. (2. *. x0) +. x1) :: !samples
             done
           done;
           let ds = Dataset.create ~dim:2 !samples in
           let model = Solver_dcd.train ds in
           Eval.mean_tau model ds > 0.8));
  ]

(* ---- the fit path pinned against the vector-at-a-time one ---- *)

(* The fit path as it was: one [Sparse.t] per pair from the list merge
   ([Test_vec_sparse.list_sub]), packed by [Csr.of_rows], and the
   Pegasos step as four dense passes (shrink, projection, [w_sum += w]
   in turn).  The solvers' [train], which packs pair differences
   straight into CSR and fuses the passes, must give its weights bit
   for bit. *)
let listed_pairs ds pairs =
  let samples = Dataset.samples ds in
  Array.map
    (fun (a, b) -> Test_vec_sparse.list_sub samples.(a).Dataset.features samples.(b).Dataset.features)
    pairs

let four_pass_sgd ?init (params : Solver_sgd.params) ds =
  let rng = Sorl_util.Rng.create (params.seed + 7919) in
  let pairs = Dataset.pairs ?max_per_query:params.max_pairs_per_query ~rng ds in
  let dim = Dataset.dim ds in
  let zc = Sparse.Csr.of_rows ~dim (listed_pairs ds pairs) in
  let m = Array.length pairs in
  let rng = Sorl_util.Rng.create params.seed in
  let lambda = 1. /. params.c in
  let radius = 1. /. sqrt lambda in
  let steps = max 1 (params.epochs * m / params.batch) in
  let w, t_base =
    match init with None -> (Array.make dim 0., 0) | Some w0 -> (Array.copy w0, steps)
  in
  let w_sum = Array.make dim 0. in
  let projections = ref 0 in
  for t = t_base + 1 to t_base + steps do
    let eta = 1. /. (lambda *. float_of_int t) in
    Sorl_util.Vec.scale_inplace (1. -. (eta *. lambda)) w;
    let per = eta /. float_of_int params.batch in
    for _ = 1 to params.batch do
      let z = Sorl_util.Rng.int rng m in
      if Sparse.Csr.dot_row zc z w < 1. then Sparse.Csr.axpy_row per zc z w
    done;
    let n = Sorl_util.Vec.norm w in
    if n > radius then begin
      incr projections;
      Sorl_util.Vec.scale_inplace (radius /. n) w
    end;
    if params.average then Sorl_util.Vec.add_inplace w_sum w
  done;
  if params.average then Sorl_util.Vec.scale_inplace (1. /. float_of_int steps) w_sum;
  ((if params.average then w_sum else w), !projections)

let weight_bits w = Array.map Int64.bits_of_float w

let check_bits what want got =
  Alcotest.(check (array int64)) what (weight_bits want) (weight_bits got)

(* 480 samples over 6 Table III benchmarks, extended features. *)
let fit_dataset =
  lazy
    (let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3 in
     Sorl.Training.generate
       ~spec:{ Sorl.Training.size = 480; mode = Sorl_stencil.Features.Extended; seed = 17 }
       ~instances:(List.filteri (fun i _ -> i mod 3 = 0) Sorl_stencil.Benchmarks.instances)
       (Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:4 machine))

let test_sgd_matches_four_pass () =
  let ds = Lazy.force fit_dataset in
  let warm = Model.weights (Solver_sgd.train ~params:{ Solver_sgd.default_params with epochs = 3 } ds) in
  let fired = ref false in
  List.iter
    (fun (c, average, init) ->
      let params = { Solver_sgd.default_params with c; average; epochs = 4; seed = 3 } in
      let want, projections = four_pass_sgd ?init params ds in
      if c < 1. && projections > 0 then fired := true;
      check_bits
        (Printf.sprintf "sgd c=%g average=%b init=%b" c average (init <> None))
        want
        (Model.weights (Solver_sgd.train ?init ~params ds)))
    [
      (100., true, None);
      (100., false, None);
      (100., true, Some warm);
      (100., false, Some warm);
      (0.01, true, None);
      (0.01, false, Some warm);
    ];
  checkb "the small-C fits hit the Pegasos projection" true !fired

let test_dcd_matches_listed_pairs () =
  let ds = Lazy.force fit_dataset in
  let warm = Model.weights (Solver_sgd.train ~params:{ Solver_sgd.default_params with epochs = 3 } ds) in
  List.iter
    (fun (shrink, init) ->
      let params = { Solver_dcd.default_params with shrink; seed = 5 } in
      let rng = Sorl_util.Rng.create (params.seed + 104729) in
      let pairs = Dataset.pairs ?max_per_query:params.max_pairs_per_query ~rng ds in
      check_bits
        (Printf.sprintf "dcd shrink=%b init=%b" shrink (init <> None))
        (Model.weights
           (Solver_dcd.train_on_pairs ?init ~params ~dim:(Dataset.dim ds) (listed_pairs ds pairs)))
        (Model.weights (Solver_dcd.train ?init ~params ds)))
    [ (true, None); (false, None); (true, Some warm); (false, Some warm) ]

(* The 17-benchmark, 290-points-each slice [bench/main.exe learn-kernels]
   times, costed by the machine model; DCD warm-started from an SGD
   fit of the same slice.  The digest of the weights' bits was computed
   before pair differences were packed straight into CSR. *)
let test_dcd_warm_slice_pinned () =
  let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3 in
  let rng = Sorl_util.Rng.create 11 in
  let ms =
    List.concat_map
      (fun inst ->
        let grid =
          Sorl_stencil.Tuning.predefined_set
            ~dims:(Sorl_stencil.Kernel.dims (Sorl_stencil.Instance.kernel inst))
        in
        List.init 290 (fun _ ->
            let tn = Sorl_util.Rng.choose rng grid in
            (inst, tn, Sorl_machine.Cost_model.runtime_of machine inst tn)))
      Sorl_stencil.Benchmarks.instances
  in
  let ds = Sorl.Training.of_measurements ~mode:Sorl_stencil.Features.Extended ms in
  let init = Model.weights (Solver_sgd.train ds) in
  let w = Model.weights (Solver_dcd.train ~init ds) in
  let b = Buffer.create (8 * Array.length w) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) w;
  Alcotest.(check string)
    "warm-started DCD weights digest" "2f90cc8cc7c51c2c432253b5a5e22192"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "dataset grouping" `Quick test_dataset_grouping;
    Alcotest.test_case "dataset validation" `Quick test_dataset_validation;
    Alcotest.test_case "pairs within query" `Quick test_pairs_within_query_only;
    Alcotest.test_case "pairs skip ties" `Quick test_pairs_ties_skipped;
    Alcotest.test_case "pairs subsampling" `Quick test_pairs_subsampling;
    Alcotest.test_case "pairs match list reference" `Quick test_pairs_match_reference;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "query split" `Quick test_split_queries;
    Alcotest.test_case "pair diffs sparse" `Quick test_pair_diffs_sparse;
    Alcotest.test_case "objective at zero" `Quick test_objective_at_zero;
    Alcotest.test_case "sgd recovers planted" `Quick test_sgd_recovers_planted;
    Alcotest.test_case "dcd recovers planted" `Quick test_dcd_recovers_planted;
    Alcotest.test_case "dcd reduces objective" `Quick test_dcd_reduces_objective;
    Alcotest.test_case "sgd reduces objective" `Quick test_sgd_reduces_objective;
    Alcotest.test_case "solvers agree" `Quick test_solvers_agree_on_direction;
    Alcotest.test_case "solver determinism" `Quick test_solver_determinism;
    Alcotest.test_case "solver validation" `Quick test_solver_validation;
    Alcotest.test_case "sgd = four-pass step on listed pairs" `Quick test_sgd_matches_four_pass;
    Alcotest.test_case "dcd = listed pairs" `Quick test_dcd_matches_listed_pairs;
    Alcotest.test_case "warm dcd on learn-kernels slice pinned" `Quick
      test_dcd_warm_slice_pinned;
    Alcotest.test_case "untrainable dataset" `Quick test_untrainable_dataset_rejected;
    Alcotest.test_case "model rank" `Quick test_model_rank_stable;
    Alcotest.test_case "sort_by_score edges" `Quick test_sort_by_score_edges;
    Alcotest.test_case "model serialization" `Quick test_model_serialization;
    Alcotest.test_case "model parse errors" `Quick test_model_of_string_errors;
    Alcotest.test_case "eval per query" `Quick test_eval_perfect_model;
    Alcotest.test_case "eval swapped rate" `Quick test_eval_swapped_rate;
    Alcotest.test_case "cross validation" `Quick test_cross_validation;
  ]
  @ qcheck_tests
