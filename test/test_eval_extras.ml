(* Tests for the ranking-metric extras (precision@k, NDCG@k), model
   introspection (Explain), dataset serialization and the portfolio
   meta-search. *)

open Sorl_svmrank
module Sparse = Sorl_util.Sparse

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let feq = Alcotest.float 1e-9

let sample q fs rt =
  { Dataset.query = q; features = Sparse.of_dense fs; runtime = rt; tag = "t " ^ string_of_int q }

(* one query, runtimes ordered by the first coordinate *)
let simple_ds () =
  Dataset.create ~dim:2
    [
      sample 0 [| 0.1; 0.5 |] 1.;
      sample 0 [| 0.2; 0.5 |] 2.;
      sample 0 [| 0.3; 0.5 |] 3.;
      sample 0 [| 0.4; 0.5 |] 4.;
    ]

let perfect_model = Model.create [| 1.; 0. |]
let inverted_model = Model.create [| -1.; 0. |]

(* ---- precision@k / NDCG@k ---- *)

let test_precision_perfect () =
  let ds = simple_ds () in
  Alcotest.check feq "p@1" 1. (Eval.precision_at_k perfect_model ds ~k:1);
  Alcotest.check feq "p@2" 1. (Eval.precision_at_k perfect_model ds ~k:2);
  (* k beyond the query size degrades gracefully *)
  Alcotest.check feq "p@100" 1. (Eval.precision_at_k perfect_model ds ~k:100)

let test_precision_inverted () =
  let ds = simple_ds () in
  Alcotest.check feq "p@1 inverted" 0. (Eval.precision_at_k inverted_model ds ~k:1);
  (* top-2 of the inversion are the bottom-2 of the truth *)
  Alcotest.check feq "p@2 inverted" 0. (Eval.precision_at_k inverted_model ds ~k:2);
  Alcotest.check feq "p@4 trivially 1" 1. (Eval.precision_at_k inverted_model ds ~k:4)

let test_ndcg_bounds () =
  let ds = simple_ds () in
  Alcotest.check feq "ndcg perfect" 1. (Eval.ndcg_at_k perfect_model ds ~k:4);
  let bad = Eval.ndcg_at_k inverted_model ds ~k:4 in
  checkb "ndcg inverted below 1" true (bad < 1.);
  checkb "ndcg positive" true (bad > 0.)

let test_metric_validation () =
  let ds = simple_ds () in
  Alcotest.check_raises "k >= 1" (Invalid_argument "Eval.precision_at_k: k must be >= 1")
    (fun () -> ignore (Eval.precision_at_k perfect_model ds ~k:0));
  Alcotest.check_raises "ndcg k >= 1" (Invalid_argument "Eval.ndcg_at_k: k must be >= 1")
    (fun () -> ignore (Eval.ndcg_at_k perfect_model ds ~k:0))

(* ---- Explain ---- *)

let names3 = [| "alpha"; "beta_x"; "pat(0,0,0)" |]

let test_top_weights () =
  let model = Model.create [| 0.1; -2.; 0. |] in
  let top = Explain.top_weights ~names:names3 ~k:2 model in
  checki "two nonzero weights" 2 (List.length top);
  (match top with
  | first :: _ ->
    Alcotest.check Alcotest.string "largest magnitude first" "beta_x" first.Explain.name;
    Alcotest.check feq "weight" (-2.) first.Explain.weight
  | [] -> Alcotest.fail "no weights");
  Alcotest.check_raises "names arity"
    (Invalid_argument "Explain: names arity does not match model dimension") (fun () ->
      ignore (Explain.top_weights ~names:[| "a" |] model))

let test_score_breakdown_sums () =
  let model = Model.create [| 0.5; -1.; 3. |] in
  let phi = Sparse.of_dense [| 1.; 2.; 0. |] in
  let parts = Explain.score_breakdown ~names:names3 model phi in
  let total = List.fold_left (fun acc c -> acc +. c.Explain.weight) 0. parts in
  Alcotest.check feq "breakdown sums to score" (Model.score model phi) total;
  checki "zero-weight entries dropped" 2 (List.length parts)

let test_weight_mass_groups () =
  let model = Model.create [| 1.; 1.; 2. |] in
  let groups = Explain.weight_mass_by_group ~names:names3 model in
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0. groups in
  Alcotest.check feq "shares sum to 1" 1. total;
  (match groups with
  | (g, share) :: _ ->
    Alcotest.check Alcotest.string "pattern group dominates" "pat" g;
    Alcotest.check feq "share" 0.5 share
  | [] -> Alcotest.fail "no groups")

(* ---- Dataset serialization ---- *)

let test_dataset_roundtrip () =
  let ds = simple_ds () in
  let ds' = Dataset.of_string (Dataset.to_string ds) in
  checki "samples" (Dataset.num_samples ds) (Dataset.num_samples ds');
  checki "dim" (Dataset.dim ds) (Dataset.dim ds');
  let a = Dataset.samples ds and b = Dataset.samples ds' in
  Array.iteri
    (fun i s ->
      checki "query" s.Dataset.query b.(i).Dataset.query;
      Alcotest.check feq "runtime" s.Dataset.runtime b.(i).Dataset.runtime;
      checkb "features" true (Sparse.equal s.Dataset.features b.(i).Dataset.features);
      Alcotest.check Alcotest.string "tag" s.Dataset.tag b.(i).Dataset.tag)
    a

let test_dataset_file_roundtrip () =
  let ds = simple_ds () in
  let path = Filename.temp_file "sorl" ".dataset" in
  Dataset.save ds path;
  let ds' = Dataset.load path in
  Sys.remove path;
  checki "samples" (Dataset.num_samples ds) (Dataset.num_samples ds')

let test_dataset_parse_errors () =
  checkb "bad header rejected" true
    (try
       ignore (Dataset.of_string "nonsense\n");
       false
     with Failure _ -> true);
  checkb "bad sample rejected" true
    (try
       ignore (Dataset.of_string "sorl-dataset 1 dim 2 samples 1\n0\n");
       false
     with Failure _ -> true)

(* ---- Portfolio meta-search ---- *)

let sphere =
  Sorl_search.Problem.create
    ~bounds:[| (2, 1024); (2, 1024); (0, 8) |]
    ~eval:(fun p ->
      let d0 = float_of_int (p.(0) - 300) and d1 = float_of_int (p.(1) - 300) in
      let d2 = float_of_int (p.(2) - 4) in
      (d0 *. d0) +. (d1 *. d1) +. (100. *. d2 *. d2))

let test_portfolio_respects_budget () =
  let outcome, winner = Sorl_search.Portfolio.run ~seed:3 ~budget:512 sphere in
  checki "budget honoured" 512 outcome.Sorl_search.Runner.evaluations;
  checkb "winner named" true
    (List.exists
       (fun a -> String.equal a.Sorl_search.Registry.name winner)
       Sorl_search.Registry.all)

let test_portfolio_quality () =
  let outcome, _ = Sorl_search.Portfolio.run ~seed:3 ~budget:512 sphere in
  let random = (Sorl_search.Registry.find "random").Sorl_search.Registry.run ~seed:3 ~budget:512 sphere in
  checkb "portfolio beats random" true
    (outcome.Sorl_search.Runner.best_cost <= random.Sorl_search.Runner.best_cost)

let test_portfolio_validation () =
  Alcotest.check_raises "empty list" (Invalid_argument "Portfolio.run: empty algorithm list")
    (fun () -> ignore (Sorl_search.Portfolio.run ~algorithms:[] sphere));
  Alcotest.check_raises "tiny budget"
    (Invalid_argument "Portfolio.run: budget too small for the portfolio") (fun () ->
      ignore (Sorl_search.Portfolio.run ~budget:8 sphere))

let test_portfolio_deterministic () =
  let o1, w1 = Sorl_search.Portfolio.run ~seed:5 ~budget:256 sphere in
  let o2, w2 = Sorl_search.Portfolio.run ~seed:5 ~budget:256 sphere in
  checkb "same winner" true (String.equal w1 w2);
  Alcotest.check feq "same cost" o1.Sorl_search.Runner.best_cost o2.Sorl_search.Runner.best_cost

(* Inner generational GA, DE and ES batches evaluate through the
   portfolio's global runner; at any pool size the run must spend the
   exact budget along the serial trajectory. *)
let test_portfolio_pool_sizes () =
  let run n = Sorl_util.Pool.with_domains n (fun () -> Sorl_search.Portfolio.run ~seed:3 ~budget:512 sphere) in
  let serial, serial_winner = run 1 in
  List.iter
    (fun n ->
      let o, winner = run n in
      let at what = Printf.sprintf "%s at %d domains" what n in
      checki (at "budget") 512 o.Sorl_search.Runner.evaluations;
      checkb (at "same winner") true (String.equal winner serial_winner);
      checkb (at "same curve") true (o.Sorl_search.Runner.curve = serial.Sorl_search.Runner.curve);
      checkb (at "same best point") true
        (o.Sorl_search.Runner.best_point = serial.Sorl_search.Runner.best_point))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "precision@k perfect" `Quick test_precision_perfect;
    Alcotest.test_case "precision@k inverted" `Quick test_precision_inverted;
    Alcotest.test_case "ndcg bounds" `Quick test_ndcg_bounds;
    Alcotest.test_case "metric validation" `Quick test_metric_validation;
    Alcotest.test_case "explain top weights" `Quick test_top_weights;
    Alcotest.test_case "explain breakdown" `Quick test_score_breakdown_sums;
    Alcotest.test_case "explain groups" `Quick test_weight_mass_groups;
    Alcotest.test_case "dataset roundtrip" `Quick test_dataset_roundtrip;
    Alcotest.test_case "dataset file roundtrip" `Quick test_dataset_file_roundtrip;
    Alcotest.test_case "dataset parse errors" `Quick test_dataset_parse_errors;
    Alcotest.test_case "portfolio budget" `Quick test_portfolio_respects_budget;
    Alcotest.test_case "portfolio quality" `Quick test_portfolio_quality;
    Alcotest.test_case "portfolio validation" `Quick test_portfolio_validation;
    Alcotest.test_case "portfolio determinism" `Quick test_portfolio_deterministic;
    Alcotest.test_case "portfolio pool sizes 1/2/4" `Quick test_portfolio_pool_sizes;
  ]
