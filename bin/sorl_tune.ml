(* sorl-tune: command-line front end of the ordinal-regression stencil
   autotuner.

   Subcommands:
     list       show the Table III benchmarks and training shapes
     train      generate a training set on the cost model and fit a model
     rank       rank the pre-defined configuration set for a benchmark
     tune       end-to-end: train (or load) a model and print the chosen
                configuration, with optional measured verification
     search     run an iterative-compilation baseline on a benchmark
     emit       print the generated C for a benchmark + tuning vector
     serve      expose rank/tune over a unix or TCP socket
     query      talk to a running serve instance
     learn      replay an observation log, retrain, publish, canary *)

(* Must run before anything else: a fleet shard is a re-execution of
   this binary, dispatched on the SORL_FLEET_SHARD environment
   variable (see Fleet.maybe_shard_main). *)
let () = Sorl_serve.Fleet.maybe_shard_main ()

open Cmdliner
open Sorl_stencil

let default_machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3

let measure_of ~noise ~seed =
  Sorl_machine.Measure.model ~noise_amplitude:noise ~seed default_machine

(* ---- shared arguments ---- *)

let benchmark_arg =
  let doc = "Benchmark instance name, e.g. gradient-256x256x256 (see `sorl_tune list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let size_arg =
  let doc = "Training-set size (number of stencil executions)." in
  Arg.(value & opt int 3840 & info [ "size"; "s" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 5 & info [ "seed" ] ~docv:"SEED" ~doc)

let noise_arg =
  let doc = "Relative measurement-noise amplitude of the cost-model backend." in
  Arg.(value & opt float 0.02 & info [ "noise" ] ~docv:"AMP" ~doc)

let model_file_arg =
  let doc = "Model file path." in
  Arg.(value & opt string "sorl.model" & info [ "model"; "m" ] ~docv:"FILE" ~doc)

let mode_arg =
  let doc = "Feature encoding: canonical (literal paper encoding) or extended." in
  let mode_conv =
    Arg.conv
      ( (fun s ->
          try Ok (Features.mode_of_string s) with Invalid_argument m -> Error (`Msg m)),
        fun ppf m -> Format.pp_print_string ppf (Features.mode_to_string m) )
  in
  Arg.(value & opt mode_conv Features.Extended & info [ "features" ] ~docv:"MODE" ~doc)

let trace_arg =
  let doc = "Enable telemetry (spans, counters, histograms) and print the trace summary." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out_arg =
  let doc = "Write a Chrome trace-event JSON report to $(docv) (implies $(b,--trace))." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* Runs [f] with telemetry enabled when requested, then prints the span
   tree / counters / histograms and writes the Chrome-trace JSON. *)
let with_trace trace trace_out f =
  let tracing = trace || trace_out <> None in
  if tracing then begin
    Sorl_util.Telemetry.set_enabled true;
    Sorl_util.Telemetry.reset ()
  end;
  let r = f ~tracing () in
  if tracing then begin
    print_newline ();
    print_string (Sorl_util.Telemetry.summary ());
    Option.iter
      (fun path ->
        Sorl_util.Telemetry.write_chrome_json path;
        Printf.printf "trace written to %s\n" path)
      trace_out
  end;
  r

let lookup_instance name =
  match Benchmarks.instance_by_name name with
  | inst -> Ok inst
  | exception Not_found ->
    Error
      (`Msg
        (Printf.sprintf "unknown benchmark %S; try `sorl_tune list' for the available names"
           name))

(* ---- list ---- *)

let list_cmd =
  let run () =
    let open Sorl_util in
    print_endline "Test benchmarks (Table III):";
    let t = Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
        [ "benchmark"; "taps"; "buffers"; "type" ] in
    List.iter
      (fun inst ->
        let k = Instance.kernel inst in
        Table.add_row t
          [
            Instance.name inst;
            string_of_int (Kernel.taps k);
            string_of_int (Kernel.num_buffers k);
            Dtype.to_string (Kernel.dtype k);
          ])
      Benchmarks.instances;
    Table.print t;
    Printf.printf "\nTraining shapes: %d kernels, %d instances (see Fig. 1 / section V-B)\n"
      (List.length Training_shapes.kernels)
      (List.length Training_shapes.instances);
    Printf.printf "Search algorithms: %s\n"
      (String.concat ", " (Sorl_search.Registry.names ()))
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, training shapes and search algorithms")
    Term.(const run $ const ())

(* ---- train ---- *)

let shapes_arg =
  let doc =
    "Train on only the first $(docv) of the 200 training shapes (quick smoke runs; the \
     training size must stay >= twice the instance count)."
  in
  Arg.(value & opt (some int) None & info [ "shapes" ] ~docv:"K" ~doc)

let train_instances = function
  | None -> Ok None
  | Some k when k >= 1 ->
    Ok (Some (List.filteri (fun i _ -> i < k) Training_shapes.instances))
  | Some _ -> Error (`Msg "--shapes must be >= 1")

let train_cmd =
  let run size seed noise mode model_file shapes trace trace_out =
    Result.bind (train_instances shapes) @@ fun instances ->
    with_trace trace trace_out @@ fun ~tracing () ->
    let measure = measure_of ~noise ~seed in
    let spec = { Sorl.Training.size; mode; seed } in
    Printf.printf "generating %d training executions on %s...\n%!" size
      (Sorl_machine.Measure.descr measure);
    let ds, gen_s =
      Sorl_util.Timer.time (fun () -> Sorl.Training.generate ~spec ?instances measure)
    in
    let tuner, train_s =
      Sorl_util.Timer.time (fun () -> Sorl.Autotuner.train_on ~mode ds)
    in
    let taus = Sorl_svmrank.Eval.taus (Sorl.Autotuner.model tuner) ds in
    Sorl.Autotuner.save tuner model_file;
    Printf.printf
      "trained on %d samples / %d instances in %s (generation %s)\n\
       training-set Kendall tau: mean %.3f, median %.3f\n\
       model written to %s\n"
      (Sorl_svmrank.Dataset.num_samples ds)
      (Sorl_svmrank.Dataset.num_queries ds)
      (Sorl_util.Table.fmt_time train_s) (Sorl_util.Table.fmt_time gen_s)
      (Sorl_util.Stats.mean taus) (Sorl_util.Stats.median taus) model_file;
    if tracing then
      Printf.printf "evaluations: %d measured (telemetry counter %d)\n"
        (Sorl_machine.Measure.evaluations measure)
        (Sorl_util.Telemetry.counter_value "measure.evaluations");
    Ok ()
  in
  Cmd.v (Cmd.info "train" ~doc:"Generate a training set and fit the ranking model")
    Term.(
      term_result
        (const run $ size_arg $ seed_arg $ noise_arg $ mode_arg $ model_file_arg $ shapes_arg
        $ trace_arg $ trace_out_arg))

(* ---- rank ---- *)

let top_arg =
  let doc = "How many top-ranked configurations to print." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)

let rank_cmd =
  let run name model_file top noise seed trace trace_out =
    Result.bind (lookup_instance name) (fun inst ->
        if not (Sys.file_exists model_file) then
          Error
            (`Msg
              (Printf.sprintf "model file %s not found; run `sorl_tune train' first"
                 model_file))
        else begin
          with_trace trace trace_out @@ fun ~tracing:_ () ->
          let tuner = Sorl.Autotuner.load model_file in
          let dims = Kernel.dims (Instance.kernel inst) in
          let set = Tuning.predefined_set ~dims in
          let ranked, rank_s =
            Sorl_util.Timer.time (fun () -> Sorl.Autotuner.rank tuner inst set)
          in
          Printf.printf "ranked %d configurations for %s in %s (no executions)\n"
            (Array.length set) name (Sorl_util.Table.fmt_time rank_s);
          let measure = measure_of ~noise ~seed in
          let t = Sorl_util.Table.create
              ~aligns:[ Sorl_util.Table.Right; Sorl_util.Table.Left; Sorl_util.Table.Right ]
              [ "rank"; "tuning"; "model-measured GF/s" ] in
          Array.iteri
            (fun i tn ->
              if i < top then
                Sorl_util.Table.add_row t
                  [
                    string_of_int (i + 1);
                    Tuning.to_string tn;
                    Printf.sprintf "%.2f" (Sorl_machine.Measure.gflops measure inst tn);
                  ])
            ranked;
          Sorl_util.Table.print t;
          Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank the pre-defined configuration set for a benchmark")
    Term.(
      term_result
        (const run $ benchmark_arg $ model_file_arg $ top_arg $ noise_arg $ seed_arg $ trace_arg
        $ trace_out_arg))

(* ---- tune ---- *)

let verify_arg =
  let doc = "Measure the model's top-K predictions and report the verified best (hybrid mode)." in
  Arg.(value & opt int 0 & info [ "verify" ] ~docv:"K" ~doc)

let tune_cmd =
  let run name size seed noise mode verify trace trace_out =
    Result.bind (lookup_instance name) (fun inst ->
        with_trace trace trace_out @@ fun ~tracing () ->
        let measure = measure_of ~noise ~seed in
        let spec = { Sorl.Training.size; mode; seed } in
        Printf.printf "training (size %d)...\n%!" size;
        let tuner = Sorl.Autotuner.train ~spec measure in
        let best = Sorl.Autotuner.tune tuner inst in
        Printf.printf "standalone choice: %s (%.2f GF/s on the model)\n"
          (Tuning.to_string best)
          (Sorl_machine.Measure.gflops measure inst best);
        if verify > 0 then begin
          let tn, rt = Sorl.Hybrid.rank_then_measure tuner measure inst ~budget:verify in
          Printf.printf "hybrid (verify %d): %s (%.2f GF/s measured)\n" verify
            (Tuning.to_string tn)
            (Instance.total_flops inst /. rt /. 1e9)
        end;
        if tracing then
          Printf.printf "evaluations: %d measured (telemetry counter %d)\n"
            (Sorl_machine.Measure.evaluations measure)
            (Sorl_util.Telemetry.counter_value "measure.evaluations");
        Ok ())
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Train and pick the best configuration for a benchmark")
    Term.(
      term_result
        (const run $ benchmark_arg $ size_arg $ seed_arg $ noise_arg $ mode_arg $ verify_arg
        $ trace_arg $ trace_out_arg))

(* ---- search ---- *)

let algo_arg =
  let doc = "Search algorithm (ga, de, es, sga, random, hill, bandit, sa, pso)." in
  Arg.(value & opt string "ga" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let budget_arg =
  let doc = "Evaluation budget." in
  Arg.(value & opt int 1024 & info [ "budget"; "b" ] ~docv:"N" ~doc)

let search_cmd =
  let run name algo budget noise seed trace trace_out =
    Result.bind (lookup_instance name) (fun inst ->
        match Sorl_search.Registry.find algo with
        | exception Not_found ->
          Error
            (`Msg
              (Printf.sprintf "unknown algorithm %S (available: %s)" algo
                 (String.concat ", " (Sorl_search.Registry.names ()))))
        | a ->
          with_trace trace trace_out @@ fun ~tracing:_ () ->
          let measure = measure_of ~noise ~seed in
          let problem = Sorl.Tuning_problem.problem measure inst in
          let outcome, wall =
            Sorl_util.Timer.time (fun () -> a.Sorl_search.Registry.run ~seed ~budget problem)
          in
          let best = Sorl.Tuning_problem.decode inst outcome.Sorl_search.Runner.best_point in
          Printf.printf
            "%s on %s: best %s\n  runtime %.6f s (%.2f GF/s), %d evaluations, wall %s\n"
            a.Sorl_search.Registry.descr name (Tuning.to_string best)
            outcome.Sorl_search.Runner.best_cost
            (Instance.total_flops inst /. outcome.Sorl_search.Runner.best_cost /. 1e9)
            outcome.Sorl_search.Runner.evaluations (Sorl_util.Table.fmt_time wall);
          Ok ())
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Run an iterative-compilation search baseline")
    Term.(
      term_result
        (const run $ benchmark_arg $ algo_arg $ budget_arg $ noise_arg $ seed_arg $ trace_arg
        $ trace_out_arg))

(* ---- emit ---- *)

let tuning_arg =
  let doc = "Tuning vector as bx,by,bz,u,c." in
  let tuning_conv =
    Arg.conv
      ( (fun s ->
          match List.map int_of_string (String.split_on_char ',' s) with
          | [ bx; by; bz; u; c ] -> (
            try Ok (Tuning.create ~bx ~by ~bz ~u ~c)
            with Invalid_argument m -> Error (`Msg m))
          | _ | (exception Failure _) -> Error (`Msg "expected bx,by,bz,u,c")),
        fun ppf t -> Format.pp_print_string ppf (Tuning.to_string t) )
  in
  Arg.(value & opt tuning_conv (Tuning.default ~dims:3) & info [ "tuning"; "t" ] ~docv:"T" ~doc)

let emit_cmd =
  let run name tuning =
    Result.bind (lookup_instance name) (fun inst ->
        let tuning =
          if Kernel.dims (Instance.kernel inst) = 2 then { tuning with Tuning.bz = 1 }
          else tuning
        in
        print_string (Sorl_codegen.Emit_c.emit (Sorl_codegen.Variant.compile inst tuning));
        Ok ())
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print the generated C code for a benchmark and tuning vector")
    Term.(term_result (const run $ benchmark_arg $ tuning_arg))

(* ---- inspect ---- *)

let inspect_cmd =
  let run model_file top =
    if not (Sys.file_exists model_file) then
      Error (`Msg (Printf.sprintf "model file %s not found" model_file))
    else begin
      let tuner = Sorl.Autotuner.load model_file in
      let mode = Sorl.Autotuner.feature_mode tuner in
      let names = Features.names mode in
      let model = Sorl.Autotuner.model tuner in
      Printf.printf "model: %d features (%s encoding)\n\n" (Sorl_svmrank.Model.dim model)
        (Features.mode_to_string mode);
      Printf.printf "weight mass by feature family (positive weight = predicts slower):\n";
      List.iter
        (fun (group, share) ->
          if share >= 0.005 then Printf.printf "  %-12s %5.1f%%\n" group (100. *. share))
        (Sorl_svmrank.Explain.weight_mass_by_group ~names model);
      Printf.printf "\ntop %d weights:\n" top;
      let t =
        Sorl_util.Table.create ~aligns:[ Sorl_util.Table.Left; Sorl_util.Table.Right ]
          [ "feature"; "weight" ]
      in
      List.iter
        (fun c ->
          Sorl_util.Table.add_row t
            [ c.Sorl_svmrank.Explain.name; Printf.sprintf "%+.4f" c.Sorl_svmrank.Explain.weight ])
        (Sorl_svmrank.Explain.top_weights ~names ~k:top model);
      Sorl_util.Table.print t;
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show what a trained ranking model learned")
    Term.(term_result (const run $ model_file_arg $ top_arg))

(* ---- serve / query ---- *)

let address_conv =
  Arg.conv
    ( (fun s ->
        match Sorl_serve.Protocol.address_of_string s with
        | Ok a -> Ok a
        | Error m -> Error (`Msg m)),
      fun ppf a -> Format.pp_print_string ppf (Sorl_serve.Protocol.address_to_string a) )

(* Shared by `serve' and `fleet': a --store directory (imported from
   the --model file when the named model is absent) or the bare file. *)
let resolve_source ~model_file ~store ~name =
  match store with
  | None ->
    if Sys.file_exists model_file then Ok (Sorl_serve.Server.Model_file model_file)
    else
      Error
        (`Msg
          (Printf.sprintf "model file %s not found; run `sorl_tune train' first"
             model_file))
  | Some dir -> (
    match Sorl_serve.Model_store.open_dir dir with
    | Error m -> Error (`Msg m)
    | Ok st -> (
      let import =
        (* Seed the store from an existing single-file model so
           `train' output is servable without a separate step. *)
        if (not (List.mem name (Sorl_serve.Model_store.list st)))
           && Sys.file_exists model_file
        then
          match Sorl.Autotuner.load_result model_file with
          | Error m -> Error (`Msg m)
          | Ok tuner -> (
            match Sorl_serve.Model_store.save st ~name tuner with
            | Error m -> Error (`Msg m)
            | Ok () ->
              Printf.printf "imported %s into %s as %S\n%!" model_file dir name;
              Ok ())
        else Ok ()
      in
      match import with
      | Error _ as e -> e
      | Ok () -> Ok (Sorl_serve.Server.Store (st, name))))

let store_arg =
  let doc =
    "Serve from a model-store directory instead of a single file; enables switching \
     models with `reload <name>'.  When the store lacks $(b,--name) but the \
     $(b,--model) file exists, that file is imported into the store first."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let name_arg =
  let doc = "Model name to serve from the store." in
  Arg.(value & opt string "default" & info [ "name" ] ~docv:"NAME" ~doc)

let queue_arg =
  let doc =
    "Worker queue capacity in request batches; a batch that needs a worker and finds it full \
     gets `err busy'.  The server answers reads (rank, tune, info, stats) without queueing."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let timeout_s_arg =
  let doc = "Per-connection idle/write timeout in seconds." in
  Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"S" ~doc)

let max_conns_arg =
  let doc = "Maximum concurrent connections; beyond it new clients get `err busy'." in
  Arg.(value & opt int 512 & info [ "max-connections" ] ~docv:"N" ~doc)

let serve_cmd =
  let listen_arg =
    let doc = "Address to listen on: unix:<path> or tcp:<host>:<port> (port 0 = ephemeral)." in
    Arg.(value & opt address_conv (Sorl_serve.Protocol.Unix_path "sorl.sock")
         & info [ "listen"; "l" ] ~docv:"ADDR" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains (default: one per core)." in
    Arg.(value & opt (some int) None & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  let obs_log_arg =
    let doc =
      "Append `observe' requests to the segmented log at $(docv) (created if missing; \
       a v1 single-file log is migrated in place; enables the online-learning verbs \
       observe/canary/promote)."
    in
    Arg.(value & opt (some string) None & info [ "obs-log" ] ~docv:"PATH" ~doc)
  in
  let obs_roll_arg =
    let doc =
      "Seal the observation log's active tail into an immutable segment every $(docv) \
       records (0 disables rolling); sealed segments are what incremental retraining \
       reuses encoded features for."
    in
    Arg.(value & opt (some int) None & info [ "obs-roll" ] ~docv:"N" ~doc)
  in
  let obs_fsync_arg =
    let doc =
      "fsync each sealed observation segment (and the log directory) before exposing \
       it; also enabled by SORL_OBS_FSYNC=1."
    in
    Arg.(value & flag & info [ "obs-fsync" ] ~doc)
  in
  let run listen model_file store name workers queue timeout max_conns obs_log obs_roll
      obs_fsync trace trace_out =
    Result.bind (resolve_source ~model_file ~store ~name) @@ fun source ->
    with_trace trace trace_out @@ fun ~tracing:_ () ->
    match
      Sorl_serve.Server.start ~address:listen ?workers ~queue_capacity:queue
        ~conn_timeout_s:timeout ~max_connections:max_conns ?obs_log ?obs_roll
        ?obs_fsync:(if obs_fsync then Some true else None)
        source
    with
    | Error m -> Error (`Msg m)
    | Ok server ->
      Printf.printf "serving on %s (send `sorl1 shutdown' or `sorl_tune query shutdown' to stop)\n%!"
        (Sorl_serve.Protocol.address_to_string (Sorl_serve.Server.address server));
      Sorl_serve.Server.wait server;
      Printf.printf "server stopped after %d requests\n"
        (Sorl_serve.Server.requests_served server);
      Ok ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve rank/tune queries over a socket (see README `Serving')")
    Term.(
      term_result
        (const run $ listen_arg $ model_file_arg $ store_arg $ name_arg $ workers_arg
        $ queue_arg $ timeout_s_arg $ max_conns_arg $ obs_log_arg $ obs_roll_arg
        $ obs_fsync_arg $ trace_arg $ trace_out_arg))

let fleet_cmd =
  let listen_arg =
    let doc =
      "Router address to listen on: unix:<path> or tcp:<host>:<port> (port 0 = ephemeral)."
    in
    Arg.(value & opt address_conv (Sorl_serve.Protocol.Unix_path "sorl-router.sock")
         & info [ "listen"; "l" ] ~docv:"ADDR" ~doc)
  in
  let shards_arg =
    let doc = "Number of shard server processes to fork." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc = "Directory for the shards' unix sockets (created if missing)." in
    Arg.(value & opt string "sorl-fleet" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let shard_workers_arg =
    let doc = "Worker domains per shard (scale with shards, not workers)." in
    Arg.(value & opt int 1 & info [ "shard-workers" ] ~docv:"N" ~doc)
  in
  let router_workers_arg =
    let doc = "Router worker domains." in
    Arg.(value & opt int 4 & info [ "router-workers"; "j" ] ~docv:"N" ~doc)
  in
  let obs_dir_arg =
    let doc =
      "Give each shard its own observation log under $(docv) (created if missing) — \
       enables the online-learning verbs fleet-wide."
    in
    Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR" ~doc)
  in
  let obs_roll_arg =
    let doc = "Per-shard observation-log segment roll threshold (0 disables rolling)." in
    Arg.(value & opt (some int) None & info [ "obs-roll" ] ~docv:"N" ~doc)
  in
  let obs_fsync_arg =
    let doc = "fsync each sealed observation segment; also enabled by SORL_OBS_FSYNC=1." in
    Arg.(value & flag & info [ "obs-fsync" ] ~doc)
  in
  let run listen shards dir model_file store name shard_workers router_workers queue
      timeout max_conns obs_dir obs_roll obs_fsync =
    Result.bind (resolve_source ~model_file ~store ~name) @@ fun source ->
    match
      Sorl_serve.Fleet.start ~dir ~shards ~workers:shard_workers ~queue_capacity:queue
        ~conn_timeout_s:timeout ~max_connections:max_conns ?obs_dir
        ?obs_roll
        ?obs_fsync:(if obs_fsync then Some true else None)
        source
    with
    | Error m -> Error (`Msg m)
    | Ok fleet -> (
      match
        Sorl_serve.Router.start ~address:listen ~workers:router_workers
          ~queue_capacity:queue ~conn_timeout_s:timeout ~max_connections:max_conns
          (Sorl_serve.Fleet.addresses fleet)
      with
      | Error m ->
        Sorl_serve.Fleet.stop fleet;
        Error (`Msg m)
      | Ok router ->
        Printf.printf
          "fleet: %d shards under %s (pids %s), router on %s (send `sorl1 shutdown' or \
           `sorl_tune query shutdown' to stop)\n\
           %!"
          shards dir
          (String.concat "," (List.map string_of_int (Sorl_serve.Fleet.pids fleet)))
          (Sorl_serve.Protocol.address_to_string (Sorl_serve.Router.address router));
        Sorl_serve.Router.wait router;
        Sorl_serve.Fleet.stop fleet;
        Printf.printf "fleet stopped after %d routed requests\n"
          (Sorl_serve.Router.requests_routed router);
        Ok ())
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve through a sharded fleet: N forked shard servers behind a \
          consistent-hash router (see README `Fleet')")
    Term.(
      term_result
        (const run $ listen_arg $ shards_arg $ dir_arg $ model_file_arg $ store_arg
        $ name_arg $ shard_workers_arg $ router_workers_arg $ queue_arg $ timeout_s_arg
        $ max_conns_arg $ obs_dir_arg $ obs_roll_arg $ obs_fsync_arg))

let query_cmd =
  let connect_arg =
    let doc = "Server address: unix:<path> or tcp:<host>:<port>." in
    Arg.(value & opt address_conv (Sorl_serve.Protocol.Unix_path "sorl.sock")
         & info [ "connect"; "c" ] ~docv:"ADDR" ~doc)
  in
  let wait_arg =
    let doc = "Keep retrying the connection for up to $(docv) seconds (server still starting)." in
    Arg.(value & opt float 0. & info [ "wait" ] ~docv:"S" ~doc)
  in
  let words_arg =
    let doc =
      "Query: `rank BENCHMARK', `tune BENCHMARK', `rank! BENCHMARK' / `tune! BENCHMARK' \
       (older clients' spelling, answered exactly like rank/tune), `observe \
       BENCHMARK TUNING COST', `observe-batch BENCHMARK N [SEED]' (stream N synthetic \
       cost-model measurements), `info', `stats', `reload [NAME]', `canary NAME', \
       `promote' or `shutdown'."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let print_kvs kvs =
    List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) kvs
  in
  let run connect wait top words =
    let open Sorl_serve in
    let failed = function
      | Ok (Protocol.Error { code; message }) ->
        Error (Protocol.error_code_to_string code ^ ": " ^ message)
      | Ok r -> Error ("unexpected reply: " ^ Protocol.encode_response r)
      | Error _ as e -> e
    in
    let result =
      Client.with_connection ~retry_for_s:wait connect @@ fun c ->
      match words with
      | [ (("rank" | "rank!") as verb); benchmark ] -> (
        (* [rank!] goes out on the wire as such: the server answers it
           exactly like [rank]. *)
        match Client.request c (Protocol.Rank { benchmark; top; approx_ok = verb = "rank!" }) with
        | Ok (Protocol.Ranked { tunings; _ }) ->
          List.iteri (fun i t -> Printf.printf "%2d  %s\n" (i + 1) (Tuning.to_string t)) tunings;
          Ok ()
        | other -> failed other)
      | [ (("tune" | "tune!") as verb); benchmark ] -> (
        match Client.request c (Protocol.Tune { benchmark; approx_ok = verb = "tune!" }) with
        | Ok (Protocol.Tuned { tuning; _ }) ->
          Printf.printf "%s\n" (Tuning.to_string tuning);
          Ok ()
        | other -> failed other)
      | [ "info" ] -> Result.map print_kvs (Client.info c)
      | [ "stats" ] ->
        Result.map
          (fun kvs -> print_kvs (List.map (fun (k, v) -> (k, string_of_int v)) kvs))
          (Client.stats c)
      | [ "reload" ] | [ "reload"; _ ] ->
        let model = match words with [ _; m ] -> Some m | _ -> None in
        Result.map
          (fun (name, gen) -> Printf.printf "reloaded %s (generation %d)\n" name gen)
          (Client.reload ?model c)
      | [ "observe"; benchmark; tuning; cost ] -> (
        match Protocol.tuning_of_string tuning with
        | Error m -> Error m
        | Ok tuning -> (
          match float_of_string_opt cost with
          | None -> Error (Printf.sprintf "bad cost %S (expected seconds)" cost)
          | Some cost ->
            Result.map
              (fun total -> Printf.printf "observed (%d records in log)\n" total)
              (Client.observe c ~benchmark ~tuning ~cost)))
      | "observe-batch" :: benchmark :: count :: rest -> (
        let seed = match rest with [] -> Some 5 | [ s ] -> int_of_string_opt s | _ -> None in
        match (int_of_string_opt count, seed) with
        | Some n, Some seed when n >= 1 -> (
          match Benchmarks.instance_by_name benchmark with
          | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" benchmark)
          | inst ->
            let measure = measure_of ~noise:0.02 ~seed in
            let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
            let rng = Sorl_util.Rng.create seed in
            let observer = Client.Observer.create c in
            let rec go i =
              if i = n then Client.Observer.close observer
              else begin
                let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
                let cost = Sorl_machine.Measure.runtime measure inst tuning in
                match Client.Observer.send observer ~benchmark ~tuning ~cost with
                | Ok () -> go (i + 1)
                | Error _ as e -> e
              end
            in
            Result.map
              (fun () ->
                Printf.printf "streamed %d observations (%d acked, %d rejected)\n" n
                  (Client.Observer.acked observer)
                  (Client.Observer.rejected observer))
              (go 0))
        | _ -> Error "usage: observe-batch BENCHMARK N [SEED]")
      | [ "canary"; model ] ->
        Result.map
          (fun m -> Printf.printf "canary %s loaded (replies stay on the stable model)\n" m)
          (Client.canary c ~model)
      | [ "promote" ] -> (
        match Client.promote c with
        | Ok (m, g) ->
          Printf.printf "promoted %s (generation %d)\n" m g;
          Ok ()
        | Error msg
          when String.length msg >= 15 && String.sub msg 0 15 = "canary-rejected" ->
          (* A rollback is a decision, not a failure: the cycle ran. *)
          Printf.printf "rolled back: %s\n" msg;
          Ok ()
        | Error _ as e -> e)
      | [ "shutdown" ] ->
        Result.map (fun () -> print_endline "server shutting down") (Client.shutdown c)
      | _ ->
        Error
          (Printf.sprintf "bad query %S: expected rank|tune BENCHMARK, observe BENCHMARK \
                           TUNING COST, observe-batch BENCHMARK N [SEED], info, stats, \
                           reload [NAME], canary NAME, promote or shutdown"
             (String.concat " " words))
    in
    Result.map_error (fun m -> `Msg m) result
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running `sorl_tune serve' instance")
    Term.(term_result (const run $ connect_arg $ wait_arg $ top_arg $ words_arg))

(* ---- learn: one observe -> retrain -> publish (-> canary -> promote) cycle ---- *)

let learn_cmd =
  let store_req_arg =
    let doc = "Model store holding the stable model and receiving the new generation." in
    Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let log_arg =
    let doc = "Observation log to replay (default: $(b,--store)/observations.obs)." in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)
  in
  let holdout_arg =
    let doc = "Held-out fraction of the log; must match the serving side's split." in
    Arg.(value
         & opt float Sorl_learn.Trainer.default_holdout
         & info [ "holdout" ] ~docv:"F" ~doc)
  in
  let holdout_seed_arg =
    let doc = "Split hash seed; must match the serving side's." in
    Arg.(value
         & opt int Sorl_learn.Trainer.default_seed
         & info [ "holdout-seed" ] ~docv:"SEED" ~doc)
  in
  let solver_arg =
    let doc = "Retraining solver: dcd or sgd." in
    Arg.(value & opt string "dcd" & info [ "solver" ] ~docv:"S" ~doc)
  in
  let scratch_arg =
    let doc = "Train from scratch instead of warm-starting from the stable weights." in
    Arg.(value & flag & info [ "scratch" ] ~doc)
  in
  let compact_arg =
    let doc =
      "Compact the log's sealed segments first: repeated (benchmark, tuning) \
       observations merge into one aggregate (count, mean, min), shrinking the \
       training pair set."
    in
    Arg.(value & flag & info [ "compact" ] ~doc)
  in
  let keep_arg =
    let doc = "Generations of the base to keep after publishing (older ones are pruned)." in
    Arg.(value & opt int 8 & info [ "keep" ] ~docv:"K" ~doc)
  in
  let min_obs_arg =
    let doc = "Refuse to retrain on fewer complete observations than $(docv)." in
    Arg.(value
         & opt int Sorl_learn.Trainer.default_min_observations
         & info [ "min-obs" ] ~docv:"N" ~doc)
  in
  let connect_opt_arg =
    let doc =
      "After publishing, load the generation as a canary on this running server and \
       ask it to promote (a rollback is reported, not an error)."
    in
    Arg.(value & opt (some address_conv) None & info [ "connect"; "c" ] ~docv:"ADDR" ~doc)
  in
  let run store name log holdout holdout_seed solver scratch compact keep min_obs connect =
    let open Sorl_serve in
    let ( let* ) = Result.bind in
    let err fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
    let of_str r = Result.map_error (fun m -> `Msg m) r in
    let* solver =
      match solver with
      | "dcd" -> Ok (Sorl.Autotuner.Dcd Sorl_svmrank.Solver_dcd.default_params)
      | "sgd" -> Ok (Sorl.Autotuner.Sgd Sorl_svmrank.Solver_sgd.default_params)
      | s -> err "unknown solver %S (expected dcd or sgd)" s
    in
    let* st = of_str (Model_store.open_dir ~create:false store) in
    (* The stable model is the newest published generation, falling
       back to the base entry for the very first cycle. *)
    let stable_name =
      match List.rev (Model_store.list_generations st ~base:name) with
      | latest :: _ -> Model_store.generation_name ~base:name latest
      | [] -> name
    in
    let* stable = of_str (Model_store.load st ~name:stable_name) in
    let mode = Sorl.Autotuner.feature_mode stable in
    let log = Option.value log ~default:(Filename.concat store "observations.obs") in
    let* () =
      if not compact then Ok ()
      else
        let* cs = of_str (Sorl_learn.Obs_log.compact log) in
        Printf.printf "compacted %d segments: %d records -> %d aggregates\n%!"
          cs.Sorl_learn.Obs_log.segments_before cs.Sorl_learn.Obs_log.records_before
          cs.Sorl_learn.Obs_log.records_after;
        Ok ()
    in
    let* obs, clean = of_str (Sorl_learn.Obs_log.replay log) in
    if not clean then
      Printf.printf "note: %s had a torn tail; replayed the complete prefix\n" log;
    let total = List.length obs in
    if total < min_obs then
      err "only %d complete observations in %s (need %d; lower --min-obs to force)" total
        log min_obs
    else begin
      let init = if scratch then None else Some (Sorl.Autotuner.weights stable) in
      let* inc, train_s =
        let r, s =
          Sorl_util.Timer.time (fun () ->
              Sorl_learn.Trainer.retrain_incremental ~solver ?init ~holdout
                ~seed:holdout_seed ~mode log)
        in
        of_str (Result.map (fun c -> (c, s)) r)
      in
      let candidate = inc.Sorl_learn.Trainer.tuner in
      let held = inc.Sorl_learn.Trainer.held in
      let stats = inc.Sorl_learn.Trainer.stats in
      Printf.printf "replayed %d observations from %s (%d train / %d held out)\n%!" total
        log (total - List.length held) (List.length held);
      Printf.printf "encoded %d records, %d from cache; reused %d/%d segments\n%!"
        stats.Sorl_learn.Trainer.records_encoded stats.Sorl_learn.Trainer.records_cached
        stats.Sorl_learn.Trainer.segments_reused stats.Sorl_learn.Trainer.segments_total;
      let tau which tuner =
        match Sorl_learn.Trainer.holdout_tau tuner held with
        | Some tau ->
          Printf.printf "held-out tau (%s): %+.4f\n" which tau;
          Some tau
        | None ->
          Printf.printf "held-out tau (%s): n/a (no benchmark exposes a ranking)\n" which;
          None
      in
      let _ = tau ("stable " ^ stable_name) stable in
      let _ = tau "candidate" candidate in
      Printf.printf "retrained (%s%s) in %s\n" (if scratch then "scratch" else "warm start")
        (match init with Some w -> Printf.sprintf ", %d weights" (Array.length w) | None -> "")
        (Sorl_util.Table.fmt_time train_s);
      let* gname, gen =
        match Model_store.publish st ~base:name candidate with
        | Ok r -> Ok r
        | Error (Model_store.Generation_exists e) ->
          err "generation %s already published (another trainer raced this one?)" e
        | Error (Model_store.Publish_failed m) -> Error (`Msg m)
      in
      Printf.printf "published %s (generation %d of %s)\n%!" gname gen name;
      let* pruned = of_str (Model_store.prune st ~base:name ~keep) in
      if pruned <> [] then
        Printf.printf "pruned %s\n" (String.concat ", " pruned);
      match connect with
      | None -> Ok ()
      | Some address ->
        of_str
          ( Client.with_connection ~retry_for_s:2. address @@ fun c ->
            let* m = Client.canary c ~model:gname in
            Printf.printf "canary %s loaded on %s\n%!" m
              (Protocol.address_to_string address);
            match Client.promote c with
            | Ok (m, g) ->
              Printf.printf "promoted %s (generation %d)\n" m g;
              Ok ()
            | Error msg
              when String.length msg >= 15 && String.sub msg 0 15 = "canary-rejected" ->
              Printf.printf "rolled back: %s\n" msg;
              Ok ()
            | Error _ as e -> e )
    end
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:
         "Close the loop once: replay an observation log, warm-start a retrain from \
          the stable model, publish the candidate generation, and optionally canary \
          and promote it on a running server")
    Term.(
      term_result
        (const run $ store_req_arg $ name_arg $ log_arg $ holdout_arg $ holdout_seed_arg
        $ solver_arg $ scratch_arg $ compact_arg $ keep_arg $ min_obs_arg
        $ connect_opt_arg))

(* ---- tune-file (DSL front end) ---- *)

let tune_file_cmd =
  let file_arg =
    let doc = "Stencil DSL file (see the Dsl module documentation for the grammar)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let size3_arg =
    let doc = "Grid size as X,Y[,Z]." in
    let size_conv =
      Arg.conv
        ( (fun s ->
            match List.map int_of_string (String.split_on_char ',' s) with
            | [ x; y ] -> Ok (x, y, 1)
            | [ x; y; z ] -> Ok (x, y, z)
            | _ | (exception Failure _) -> Error (`Msg "expected X,Y or X,Y,Z")),
          fun ppf (x, y, z) -> Format.fprintf ppf "%d,%d,%d" x y z )
    in
    Arg.(value & opt size_conv (128, 128, 128) & info [ "grid"; "g" ] ~docv:"SIZE" ~doc)
  in
  let run file (sx, sy, sz) size seed noise verify trace trace_out =
    Result.bind
      (Result.map_error (fun m -> `Msg m) (Dsl.parse_file file))
      (fun kernel ->
        let sz = if Kernel.dims kernel = 2 then 1 else sz in
        match Instance.create_xyz kernel ~sx ~sy ~sz with
        | exception Invalid_argument m -> Error (`Msg m)
        | inst ->
          with_trace trace trace_out @@ fun ~tracing:_ () ->
          Printf.printf "parsed %s from %s\n%!" (Format.asprintf "%a" Kernel.pp kernel) file;
          let measure = measure_of ~noise ~seed in
          let spec = { Sorl.Training.size; mode = Features.Extended; seed } in
          let tuner = Sorl.Autotuner.train ~spec measure in
          let best = Sorl.Autotuner.tune tuner inst in
          Printf.printf "%s: standalone choice %s (%.2f GF/s on the model)\n"
            (Instance.name inst) (Tuning.to_string best)
            (Sorl_machine.Measure.gflops measure inst best);
          if verify > 0 then begin
            let tn, rt = Sorl.Hybrid.rank_then_measure tuner measure inst ~budget:verify in
            Printf.printf "hybrid (verify %d): %s (%.2f GF/s measured)\n" verify
              (Tuning.to_string tn)
              (Instance.total_flops inst /. rt /. 1e9)
          end;
          Ok ())
  in
  Cmd.v
    (Cmd.info "tune-file" ~doc:"Tune a stencil described in the textual DSL")
    Term.(
      term_result
        (const run $ file_arg $ size3_arg $ size_arg $ seed_arg $ noise_arg $ verify_arg
        $ trace_arg $ trace_out_arg))

let main_cmd =
  let doc = "ordinal-regression stencil autotuner (IPDPS'17 reproduction)" in
  Cmd.group (Cmd.info "sorl_tune" ~version:"1.0.0" ~doc)
    [
      list_cmd; train_cmd; rank_cmd; tune_cmd; search_cmd; emit_cmd; inspect_cmd;
      tune_file_cmd; serve_cmd; fleet_cmd; query_cmd; learn_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
