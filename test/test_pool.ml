(* Tests for the Sorl_util.Pool multicore engine and the parallel ==
   serial guarantees of the library paths built on it. *)

open Sorl_stencil
module Pool = Sorl_util.Pool

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let pool_sizes = [ 1; 2; 4 ]

(* ---- Pool primitives ---- *)

let test_parallel_map_matches_serial () =
  let input = Array.init 1000 (fun i -> i) in
  let f i = (i * i) + 7 in
  let expected = Array.map f input in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "map identical at %d domains" d)
        expected
        (Pool.with_domains d (fun () -> Pool.parallel_map f input)))
    pool_sizes;
  Alcotest.(check (array int)) "explicit ?domains" expected (Pool.parallel_map ~domains:3 f input);
  Alcotest.(check (array int)) "empty input" [||] (Pool.parallel_map ~domains:4 f [||])

let test_parallel_for_covers_all_indices () =
  List.iter
    (fun d ->
      let n = 257 in
      let hits = Array.make n 0 in
      (* Disjoint chunks: each index is written exactly once. *)
      Pool.with_domains d (fun () -> Pool.parallel_for n (fun i -> hits.(i) <- hits.(i) + 1));
      checkb (Printf.sprintf "every index once at %d domains" d) true
        (Array.for_all (fun c -> c = 1) hits))
    pool_sizes

let test_parallel_reduce () =
  let a = Array.init 500 (fun i -> i) in
  let expected = Array.fold_left ( + ) 0 a in
  List.iter
    (fun d ->
      checki
        (Printf.sprintf "sum at %d domains" d)
        expected
        (Pool.with_domains d (fun () ->
             Pool.parallel_reduce ~map:Fun.id ~combine:( + ) ~init:0 a)))
    pool_sizes

let test_parallel_map_list () =
  let l = List.init 37 (fun i -> i) in
  Alcotest.(check (list int))
    "list map" (List.map succ l)
    (Pool.with_domains 4 (fun () -> Pool.parallel_map_list succ l))

let test_exception_propagation () =
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "exception surfaces at %d domains" d)
        (Failure "boom") (fun () ->
          Pool.with_domains d (fun () ->
              Pool.parallel_for 100 (fun i -> if i = 73 then failwith "boom"))))
    pool_sizes

let test_nested_use () =
  (* Parallel code calling parallel code must still produce correct,
     complete results (the inner level degrades to serial). *)
  let outer = Array.init 8 (fun i -> i) in
  let f i =
    Array.fold_left ( + ) 0 (Pool.parallel_map (fun j -> (i * 100) + j) (Array.init 50 Fun.id))
  in
  let expected = Array.map f outer in
  Alcotest.(check (array int))
    "nested map correct" expected
    (Pool.with_domains 4 (fun () -> Pool.parallel_map f outer))

let test_with_domains_restores () =
  let before = Pool.default_domains () in
  Pool.with_domains 3 (fun () -> checki "inside" 3 (Pool.default_domains ()));
  checki "restored" before (Pool.default_domains ());
  (try Pool.with_domains 2 (fun () -> failwith "x") with Failure _ -> ());
  checki "restored after exception" before (Pool.default_domains ());
  Alcotest.check_raises "size >= 1" (Invalid_argument "Pool.with_domains: size must be >= 1")
    (fun () -> Pool.with_domains 0 Fun.id)

(* ---- Parallel == serial for the library paths ---- *)

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let measure () = Sorl_machine.Measure.model machine

let tiny_instances =
  [
    Instance.create_xyz Benchmarks.edge ~sx:256 ~sy:256 ~sz:1;
    Instance.create_xyz Benchmarks.laplacian ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.gradient ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.blur ~sx:512 ~sy:512 ~sz:1;
  ]

let tiny_spec size = { Sorl.Training.size; mode = Features.Extended; seed = 5 }

let datasets_identical a b =
  let sa = Sorl_svmrank.Dataset.samples a and sb = Sorl_svmrank.Dataset.samples b in
  Array.length sa = Array.length sb
  && Array.for_all2
       (fun x y ->
         x.Sorl_svmrank.Dataset.query = y.Sorl_svmrank.Dataset.query
         && x.Sorl_svmrank.Dataset.runtime = y.Sorl_svmrank.Dataset.runtime
         && x.Sorl_svmrank.Dataset.tag = y.Sorl_svmrank.Dataset.tag
         && Sorl_util.Sparse.equal ~eps:0. x.Sorl_svmrank.Dataset.features
              y.Sorl_svmrank.Dataset.features)
       sa sb

let test_training_generate_parity () =
  let at d =
    Pool.with_domains d (fun () ->
        Sorl.Training.generate ~spec:(tiny_spec 64) ~instances:tiny_instances (measure ()))
  in
  let serial = at 1 in
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "dataset identical at %d domains" d)
        true
        (datasets_identical serial (at d)))
    [ 2; 4 ]

let test_training_generate_counts_evaluations () =
  let ms = measure () in
  let ds =
    Pool.with_domains 4 (fun () ->
        Sorl.Training.generate ~spec:(tiny_spec 64) ~instances:tiny_instances ms)
  in
  checki "samples" 64 (Sorl_svmrank.Dataset.num_samples ds);
  checki "atomic evaluation count" 64 (Sorl_machine.Measure.evaluations ms)

let trained =
  lazy
    (let ds = Sorl.Training.generate ~spec:(tiny_spec 96) ~instances:tiny_instances (measure ()) in
     Sorl.Autotuner.train_on ~mode:Features.Extended ds)

let test_rank_parity () =
  let tuner = Lazy.force trained in
  let inst = List.nth tiny_instances 1 in
  let candidates = Tuning.predefined_set ~dims:3 in
  let at d = Pool.with_domains d (fun () -> Sorl.Autotuner.rank tuner inst candidates) in
  let serial = at 1 in
  List.iter
    (fun d -> checkb (Printf.sprintf "ranking identical at %d domains" d) true (serial = at d))
    [ 2; 4 ];
  (* The chunked entry scorer must agree exactly with the one-candidate
     scoring path the ranking claims to sort by. *)
  let scores = Array.map (Sorl.Autotuner.score tuner inst) serial in
  let sorted = Array.copy scores in
  Array.sort compare sorted;
  checkb "rank order sorts Autotuner.score exactly" true (scores = sorted)

let test_taus_parity () =
  let tuner = Lazy.force trained in
  let at d =
    Pool.with_domains d (fun () ->
        Sorl.Experiments.test_set_taus ~samples_per_instance:16 (measure ()) tuner tiny_instances)
  in
  let serial = at 1 in
  List.iter
    (fun d ->
      checkb (Printf.sprintf "held-out taus identical at %d domains" d) true (serial = at d))
    [ 2; 4 ]

let test_eval_taus_parity () =
  let ds = Sorl.Training.generate ~spec:(tiny_spec 64) ~instances:tiny_instances (measure ()) in
  let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended ds in
  let at d =
    Pool.with_domains d (fun () -> Sorl_svmrank.Eval.taus (Sorl.Autotuner.model tuner) ds)
  in
  let serial = at 1 in
  List.iter
    (fun d ->
      checkb (Printf.sprintf "per-query taus identical at %d domains" d) true (serial = at d))
    [ 2; 4 ]

let test_search_parity () =
  (* Batched generations must reproduce the serial search bit for bit:
     same best point, cost, curve and accounted total cost. *)
  let inst = List.nth tiny_instances 2 in
  let problem = Sorl.Tuning_problem.problem (measure ()) inst in
  List.iter
    (fun algo ->
      let at d =
        Pool.with_domains d (fun () -> algo.Sorl_search.Registry.run ~seed:17 ~budget:96 problem)
      in
      let serial = at 1 in
      List.iter
        (fun d ->
          let o = at d in
          checkb
            (Printf.sprintf "%s outcome identical at %d domains" algo.Sorl_search.Registry.name d)
            true
            (serial.Sorl_search.Runner.best_point = o.Sorl_search.Runner.best_point
            && serial.Sorl_search.Runner.best_cost = o.Sorl_search.Runner.best_cost
            && serial.Sorl_search.Runner.evaluations = o.Sorl_search.Runner.evaluations
            && serial.Sorl_search.Runner.total_cost = o.Sorl_search.Runner.total_cost
            && serial.Sorl_search.Runner.curve = o.Sorl_search.Runner.curve))
        [ 2; 4 ])
    Sorl_search.Registry.paper_baselines

let test_bqueue_close_idempotent () =
  (* the reactor closes the worker queue during shutdown and so may a
     second stop path: double-close must be safe and drainable *)
  let q = Sorl_util.Bqueue.create ~capacity:4 in
  checkb "push before close" true (Sorl_util.Bqueue.try_push q 1);
  checkb "push before close" true (Sorl_util.Bqueue.try_push q 2);
  Sorl_util.Bqueue.close q;
  Sorl_util.Bqueue.close q;
  checkb "closed" true (Sorl_util.Bqueue.is_closed q);
  checkb "push after close fails" false (Sorl_util.Bqueue.try_push q 3);
  checkb "queued elements drain in order" true (Sorl_util.Bqueue.pop q = Some 1);
  checkb "queued elements drain in order" true (Sorl_util.Bqueue.pop q = Some 2);
  checkb "drained pop is None" true (Sorl_util.Bqueue.pop q = None);
  checkb "pop stays None" true (Sorl_util.Bqueue.pop q = None)

let suite =
  [
    Alcotest.test_case "parallel_map matches serial" `Quick test_parallel_map_matches_serial;
    Alcotest.test_case "parallel_for covers all indices" `Quick test_parallel_for_covers_all_indices;
    Alcotest.test_case "parallel_reduce" `Quick test_parallel_reduce;
    Alcotest.test_case "parallel_map_list" `Quick test_parallel_map_list;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested parallel use" `Quick test_nested_use;
    Alcotest.test_case "with_domains restores" `Quick test_with_domains_restores;
    Alcotest.test_case "training generate parity" `Quick test_training_generate_parity;
    Alcotest.test_case "generate counts evaluations" `Quick test_training_generate_counts_evaluations;
    Alcotest.test_case "autotuner rank parity" `Quick test_rank_parity;
    Alcotest.test_case "held-out taus parity" `Quick test_taus_parity;
    Alcotest.test_case "eval taus parity" `Quick test_eval_taus_parity;
    Alcotest.test_case "search outcome parity" `Quick test_search_parity;
    Alcotest.test_case "bqueue close is idempotent and drainable" `Quick
      test_bqueue_close_idempotent;
  ]
