(* Fleet shards re-execute the host binary; dispatch before the test
   harness (see Fleet.maybe_shard_main). *)
let () = Sorl_serve.Fleet.maybe_shard_main ()

let () =
  Alcotest.run "sorl"
    [
      ("rng", Test_rng.suite);
      ("pool", Test_pool.suite);
      ("stats", Test_stats.suite);
      ("rank-correlation", Test_rank_correlation.suite);
      ("vec-sparse", Test_vec_sparse.suite);
      ("table-plot", Test_table_plot.suite);
      ("telemetry", Test_telemetry.suite);
      ("grid", Test_grid.suite);
      ("pattern", Test_pattern.suite);
      ("kernel-instance", Test_kernel_instance.suite);
      ("tuning", Test_tuning.suite);
      ("features", Test_features.suite);
      ("features-fast", Test_features_fast.suite);
      ("benchmarks-shapes", Test_benchmarks_shapes.suite);
      ("dsl", Test_dsl.suite);
      ("codegen", Test_codegen.suite);
      ("machine", Test_machine.suite);
      ("svmrank", Test_svmrank.suite);
      ("search", Test_search.suite);
      ("core", Test_core.suite);
      ("serve", Test_serve.suite);
      ("fleet", Test_fleet.suite);
      ("baselines", Test_baselines.suite);
      ("temporal", Test_temporal.suite);
      ("eval-extras", Test_eval_extras.suite);
      ("rff-validate", Test_rff_validate.suite);
      ("extensions", Test_extensions.suite);
      ("learn", Test_learn.suite);
    ]
