(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VI) on the deterministic cost-model substrate, plus
   ablations and Bechamel micro-benchmarks.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig4 fig7    # selected experiments

   Experiments: table2 table3 fig4 fig5 fig6 fig7 ablation baselines
   extensions stability csv perf rank-throughput serve-throughput
   fleet-throughput micro learn-kernels telemetry-overhead online-learn.
   See DESIGN.md for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured discussion of one full run. *)

(* Fleet shards re-execute the host binary; dispatch before anything
   else (see Fleet.maybe_shard_main). *)
let () = Sorl_serve.Fleet.maybe_shard_main ()

open Sorl_stencil
module E = Sorl.Experiments
module Table = Sorl_util.Table
module Stats = Sorl_util.Stats

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let measure = Sorl_machine.Measure.model machine

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* BENCH_parallel.json holds one top-level key per section; experiments
   contribute sections independently (perf: domain_count/host_cores/
   stages/telemetry, rank-throughput: rank_throughput) and the file is
   rewritten with everything collected so far, so any subset of
   experiments produces a valid report. *)
let bench_sections : (string * string) list ref = ref []

(* Reloads the sections a previous invocation left on disk, so running
   experiments one at a time accumulates sections instead of clobbering
   the other invocations' keys.  Minimal splitter for the one-object
   shape this file always has: tracks string/escape state and bracket
   depth to find top-level commas.  Any parse trouble just drops the
   remainder — the file is regenerated below anyway. *)
let load_bench_sections () =
  match open_in "BENCH_parallel.json" with
  | exception Sys_error _ -> []
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length s in
    let sections = ref [] in
    (try
       let i = ref (String.index s '{' + 1) in
       let skip_sep () =
         while
           !i < n && (match s.[!i] with ' ' | '\n' | '\t' | '\r' | ',' | ':' -> true | _ -> false)
         do
           incr i
         done
       in
       let parse_key () =
         incr i (* opening quote *);
         let start = !i in
         while !i < n && s.[!i] <> '"' do
           incr i
         done;
         let k = String.sub s start (!i - start) in
         incr i (* closing quote *);
         k
       in
       let parse_value () =
         let start = !i in
         let depth = ref 0 and instr = ref false and esc = ref false and stop = ref false in
         while (not !stop) && !i < n do
           let c = s.[!i] in
           if !instr then begin
             if !esc then esc := false
             else if c = '\\' then esc := true
             else if c = '"' then instr := false;
             incr i
           end
           else
             match c with
             | '"' ->
               instr := true;
               incr i
             | '{' | '[' ->
               incr depth;
               incr i
             | '}' | ']' when !depth > 0 ->
               decr depth;
               incr i
             | ',' when !depth = 0 -> stop := true
             | '}' (* depth 0: closes the top-level object *) -> stop := true
             | _ -> incr i
         done;
         String.trim (String.sub s start (!i - start))
       in
       while
         skip_sep ();
         !i < n && s.[!i] = '"'
       do
         let k = parse_key () in
         skip_sep ();
         let v = parse_value () in
         sections := (k, v) :: !sections
       done
     with _ -> ());
    List.rev !sections

let bench_sections_loaded = ref false

let add_bench_sections kvs =
  if not !bench_sections_loaded then begin
    bench_sections_loaded := true;
    bench_sections := load_bench_sections ()
  end;
  List.iter
    (fun (k, v) -> bench_sections := List.remove_assoc k !bench_sections @ [ (k, v) ])
    kvs;
  let sections = !bench_sections in
  let oc = open_out "BENCH_parallel.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.ksprintf (output_string oc) "  %S: %s%s\n" k v
            (if i = List.length sections - 1 then "" else ","))
        sections;
      output_string oc "}\n");
  print_endline "wrote BENCH_parallel.json"

(* Models are trained once per size and shared by fig4/fig5; table2,
   fig6 and fig7 train their own sweep. *)
let fig45_models =
  lazy
    (List.map
       (fun tr -> (tr.E.size, tr.E.tuner))
       (E.train_models ~sizes:E.fig45_training_sizes measure))

let sweep_models = lazy (E.train_models ~sizes:E.paper_training_sizes measure)

(* ---- Table III ---- *)

let table3 () =
  header "Table III: stencil test benchmarks (9 kernels, 17 instances)";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right; Table.Left; Table.Left ]
      [ "stencil"; "type"; "shape"; "taps"; "buffers read"; "sizes" ]
  in
  let shape_descr k =
    match Kernel.name k with
    | "blur" -> "5x5 hypercube"
    | "edge" | "game-of-life" -> "3x3 hypercube"
    | "wave" -> "13 laplacian + 1"
    | "tricubic" -> "4x4x4 hypercube"
    | "divergence" -> "6 laplacian (center not read)"
    | "gradient" -> "6 laplacian (center not read)"
    | "laplacian" -> "7 laplacian"
    | "laplacian6" -> "19 laplacian"
    | other -> other
  in
  List.iter
    (fun k ->
      let sizes =
        Benchmarks.instances
        |> List.filter (fun i -> Kernel.equal (Instance.kernel i) k)
        |> List.map (fun i -> Instance.size_to_string (Instance.size i))
        |> String.concat ", "
      in
      Table.add_row t
        [
          Kernel.name k;
          Printf.sprintf "%dD" (Kernel.dims k);
          shape_descr k;
          string_of_int (Kernel.taps k);
          Printf.sprintf "%d %s" (Kernel.num_buffers k) (Dtype.to_string (Kernel.dtype k));
          sizes;
        ])
    Benchmarks.kernels;
  Table.print t

(* ---- Table II ---- *)

let table2 () =
  header "Table II: computing time of the autotuning phases";
  Printf.printf
    "(paper: TS compilation 32h via PATUS+gcc for all training binaries;\n\
    \ here code variants are compiled to the loop-nest IR inside TS\n\
    \ generation, so no separate compilation column exists)\n\n";
  let rows = E.table2 (Lazy.force sweep_models) in
  let t =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "TS size"; "TS generation"; "training"; "regression (rank 8640)" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.E.t2_size;
          Table.fmt_time r.E.t2_generation_s;
          Table.fmt_time r.E.t2_training_s;
          Printf.sprintf "%s (n=%d)" (Table.fmt_time r.E.t2_regression_s) r.E.t2_regression_reps;
        ])
    rows;
  Table.print t

(* ---- Fig. 4 ---- *)

let method_labels =
  [ "ga-1024"; "de-1024"; "es-1024"; "sga-1024"; "regr-960"; "regr-3840"; "regr-6720";
    "regr-16000" ]

let fig4 () =
  header "Fig. 4: speedup over the GA-1024 base configuration (17 benchmarks)";
  let rows = E.fig4 ~budget:1024 measure ~tuners:(Lazy.force fig45_models) Benchmarks.instances in
  let t =
    Table.create
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) method_labels @ [ Table.Right ])
      (("benchmark" :: method_labels) @ [ "oracle" ])
  in
  let per_method = Array.make (List.length method_labels) [] in
  List.iter
    (fun row ->
      let _, speedups = E.speedup row in
      Array.iteri (fun i s -> per_method.(i) <- s :: per_method.(i)) speedups;
      Table.add_row t
        ((row.E.benchmark
          :: (Array.to_list speedups |> List.map (fun s -> Printf.sprintf "%.3f" s)))
        @ [ Printf.sprintf "%.3f" (row.E.base_runtime_s /. row.E.oracle_runtime_s) ]))
    rows;
  Table.add_rule t;
  Table.add_row t
    (("geometric mean"
      :: (Array.to_list per_method
         |> List.map (fun l -> Printf.sprintf "%.3f" (Stats.geometric_mean (Array.of_list l)))))
    @ [ "" ]);
  Table.print t;
  print_endline
    "(oracle = best configuration inside the pre-defined set, the bound\n\
    \ the regression's choice cannot exceed; paper Fig. 4 shows the same\n\
    \ comparison with ordinal regression between 0.75 and 1.15 of GA-1024)"

(* ---- Fig. 5 ---- *)

let fig5 () =
  header "Fig. 5: convergence and time-to-solution (4 selected benchmarks)";
  let rows =
    E.fig5 ~budget:1024 measure ~tuners:(Lazy.force fig45_models) Benchmarks.fig5_instances
  in
  List.iter
    (fun row ->
      Printf.printf "\n--- %s ---\n" row.E.f5_benchmark;
      (* sample the best-so-far curves at powers of two, like the
         paper's log-scaled x axis *)
      let powers = List.init 11 (fun i -> 1 lsl i) in
      let series =
        List.map
          (fun (name, curve) ->
            ( name,
              Array.of_list
                (List.map
                   (fun p -> (log (float_of_int p) /. log 2., curve.(p - 1)))
                   powers) ))
          row.E.f5_curves
      in
      print_string
        (Sorl_util.Ascii_plot.line_chart ~height:14 ~title:"best-so-far GFlop/s"
           ~x_label:"log2(evaluations)" ~y_label:"GF/s" series);
      let t =
        Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
          [ "method"; "GF/s"; "time-to-solution" ]
      in
      List.iter
        (fun (name, curve) ->
          Table.add_row t
            [
              name;
              Printf.sprintf "%.2f" curve.(Array.length curve - 1);
              Table.fmt_time (List.assoc name row.E.f5_time_to_solution);
            ])
        row.E.f5_curves;
      Table.add_rule t;
      List.iter
        (fun (size, gf) ->
          let name = Printf.sprintf "regr-%d" size in
          Table.add_row t
            [
              name;
              Printf.sprintf "%.2f" gf;
              Table.fmt_time (List.assoc name row.E.f5_time_to_solution);
            ])
        row.E.f5_regression_gflops;
      Table.print t;
      List.iter
        (fun (name, rank_s) ->
          Printf.eprintf "fig5 %s %s: measured ranking wall time %s\n" row.E.f5_benchmark name
            (Table.fmt_time rank_s))
        row.E.f5_rank_s)
    rows;
  print_endline
    "\n(time-to-solution charges every search evaluation the 45 s synthetic\n\
    \ PATUS+gcc compile overhead; ranking needs no execution at all, and\n\
    \ its measured wall time is printed on stderr, not added here)"

(* ---- Fig. 6 ---- *)

let fig6 () =
  header "Fig. 6: Kendall tau per training instance (sizes 960 and 6720)";
  let pick size =
    match List.find_opt (fun tr -> tr.E.size = size) (Lazy.force sweep_models) with
    | Some tr -> tr
    | None -> failwith "size missing from sweep"
  in
  List.iter
    (fun size ->
      let tr = pick size in
      let taus = E.taus_on_own_training_set tr in
      let pts = Array.mapi (fun i tau -> (float_of_int i, tau)) taus in
      Printf.printf "\ntraining size %d: mean %.3f  median %.3f  stddev %.3f  min %.3f\n"
        size (Stats.mean taus) (Stats.median taus) (Stats.stddev taus)
        (fst (Stats.min_max taus));
      print_string
        (Sorl_util.Ascii_plot.line_chart ~height:12 ~title:"tau per instance"
           ~x_label:"training instance" ~y_label:"Kendall tau"
           [ (Printf.sprintf "size=%d" size, pts) ]))
    [ 960; 6720 ];
  print_endline
    "\n(paper: larger training sets raise tau and above all tighten its\n\
    \ spread across instances)"

(* ---- Fig. 7 ---- *)

let fig7 () =
  header "Fig. 7: Kendall tau distribution vs training-set size (C fixed)";
  let boxes =
    List.map
      (fun tr ->
        (Printf.sprintf "%5.2fK" (float_of_int tr.E.size /. 1000.), E.tau_distribution tr))
      (Lazy.force sweep_models)
  in
  print_string (Sorl_util.Ascii_plot.box_plots ~title:"tau distribution per size" boxes);
  let t =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "TS size"; "median"; "q1"; "q3"; "stddev" ]
  in
  List.iter
    (fun tr ->
      let taus = E.taus_on_own_training_set tr in
      let b = E.tau_distribution tr in
      Table.add_row t
        [
          string_of_int tr.E.size;
          Printf.sprintf "%.3f" b.Stats.med;
          Printf.sprintf "%.3f" b.Stats.q1;
          Printf.sprintf "%.3f" b.Stats.q3;
          Printf.sprintf "%.3f" (Stats.stddev taus);
        ])
    (Lazy.force sweep_models);
  Table.print t;
  print_endline "(expected shape: median roughly stable, variance shrinking with size)"

(* ---- Ablations ---- *)

let quick_bench_instances =
  [
    Benchmarks.instance_by_name "gradient-256x256x256";
    Benchmarks.instance_by_name "blur-1024x768";
    Benchmarks.instance_by_name "laplacian6-128x128x128";
  ]

let top1_ratio tuner =
  (* geometric-mean (chosen runtime / predefined-set optimum) over a few
     benchmarks: 1.0 is perfect *)
  let ratios =
    List.map
      (fun inst ->
        let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
        let best = Sorl.Autotuner.best tuner inst set in
        let rt = Sorl_machine.Measure.runtime measure inst best in
        let oracle =
          Array.fold_left
            (fun acc t -> Float.min acc (Sorl_machine.Measure.runtime measure inst t))
            infinity set
        in
        rt /. oracle)
      quick_bench_instances
  in
  Stats.geometric_mean (Array.of_list ratios)

let ablation () =
  header "Ablations (design choices; not in the paper)";
  let size = 3840 in

  Printf.printf "\n(a) feature encoding: canonical (literal paper section III) vs extended\n";
  let t = Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "encoding"; "mean tau"; "top-1 / oracle" ] in
  List.iter
    (fun mode ->
      let spec = { Sorl.Training.size; mode; seed = 5 } in
      let ds = Sorl.Training.generate ~spec measure in
      let tuner = Sorl.Autotuner.train_on ~mode ds in
      let tau = Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model tuner) ds in
      Table.add_row t
        [
          Features.mode_to_string mode;
          Printf.sprintf "%.3f" tau;
          Printf.sprintf "%.2f" (top1_ratio tuner);
        ])
    [ Features.Canonical; Features.Extended ];
  Table.print t;

  Printf.printf "\n(b) solver: Pegasos SGD vs dual coordinate descent\n";
  let spec = { Sorl.Training.size; mode = Features.Extended; seed = 5 } in
  let ds = Sorl.Training.generate ~spec measure in
  let t = Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "solver"; "train time"; "mean tau"; "top-1 / oracle" ] in
  List.iter
    (fun (name, solver) ->
      let tuner, dt =
        Sorl_util.Timer.time (fun () ->
            Sorl.Autotuner.train_on ~solver ~mode:Features.Extended ds)
      in
      Table.add_row t
        [
          name;
          Table.fmt_time dt;
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model tuner) ds);
          Printf.sprintf "%.2f" (top1_ratio tuner);
        ])
    [
      ("pegasos-sgd", Sorl.Autotuner.Sgd Sorl_svmrank.Solver_sgd.default_params);
      ("dual-cd", Sorl.Autotuner.Dcd Sorl_svmrank.Solver_dcd.default_params);
    ];
  Table.print t;

  Printf.printf "\n(c) C sensitivity (per-pair averaged objective; paper's C=0.01 under\n";
  Printf.printf "    Joachims' summed-slack convention maps to C=100 here)\n";
  let t = Table.create ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "C"; "mean tau"; "top-1 / oracle" ] in
  List.iter
    (fun c ->
      let solver =
        Sorl.Autotuner.Dcd { Sorl_svmrank.Solver_dcd.default_params with Sorl_svmrank.Solver_dcd.c }
      in
      let tuner = Sorl.Autotuner.train_on ~solver ~mode:Features.Extended ds in
      Table.add_row t
        [
          Printf.sprintf "%g" c;
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model tuner) ds);
          Printf.sprintf "%.2f" (top1_ratio tuner);
        ])
    [ 0.01; 1.; 100.; 10000. ];
  Table.print t;

  Printf.printf "\n(d) pair subsampling cap per query (training-cost / quality trade)\n";
  let t = Table.create ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "max pairs/query"; "train time"; "mean tau" ] in
  List.iter
    (fun cap ->
      let solver =
        Sorl.Autotuner.Sgd
          { Sorl_svmrank.Solver_sgd.default_params with
            Sorl_svmrank.Solver_sgd.max_pairs_per_query = Some cap }
      in
      let tuner, dt =
        Sorl_util.Timer.time (fun () ->
            Sorl.Autotuner.train_on ~solver ~mode:Features.Extended ds)
      in
      Table.add_row t
        [
          string_of_int cap;
          Table.fmt_time dt;
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model tuner) ds);
        ])
    [ 50; 200; 500; 2000 ];
  Table.print t;

  Printf.printf "\n(e') kernel ablation: can an RBF approximation rescue the canonical\n";
  Printf.printf "     encoding? (random Fourier features, D=500, on section III features)\n";
  let canonical_ds =
    Sorl.Training.generate ~spec:{ Sorl.Training.size = size; mode = Features.Canonical; seed = 5 }
      measure
  in
  let t = Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "model"; "mean tau"; "top-1 / oracle" ] in
  (* linear on canonical (repeated for reference) *)
  let lin = Sorl.Autotuner.train_on ~mode:Features.Canonical canonical_ds in
  Table.add_row t
    [
      "linear / canonical";
      Printf.sprintf "%.3f"
        (Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model lin) canonical_ds);
      Printf.sprintf "%.2f" (top1_ratio lin);
    ];
  List.iter
    (fun gamma ->
      let map =
        Sorl_svmrank.Rff.create ~gamma ~input_dim:(Features.dim Features.Canonical)
          ~output_dim:500 ()
      in
      let rff_ds = Sorl_svmrank.Rff.transform_dataset map canonical_ds in
      let model = Sorl_svmrank.Solver_dcd.train rff_ds in
      let score inst tn =
        Sorl_svmrank.Model.score model
          (Sorl_svmrank.Rff.transform map (Features.encode Features.Canonical inst tn))
      in
      let ratios =
        List.map
          (fun inst ->
            let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
            let best = ref set.(0) and best_s = ref infinity in
            Array.iter
              (fun tn ->
                let s = score inst tn in
                if s < !best_s then begin
                  best_s := s;
                  best := tn
                end)
              set;
            let oracle =
              Array.fold_left
                (fun acc tn -> Float.min acc (Sorl_machine.Measure.runtime measure inst tn))
                infinity set
            in
            Sorl_machine.Measure.runtime measure inst !best /. oracle)
          quick_bench_instances
      in
      Table.add_row t
        [
          Printf.sprintf "RBF(gamma=%g) / canonical" gamma;
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.mean_tau model rff_ds);
          Printf.sprintf "%.2f" (Stats.geometric_mean (Array.of_list ratios));
        ])
    [ 0.5; 2. ];
  Table.print t;
  print_endline
    "     (a nonlinear kernel closes part of the canonical encoding's tau gap\n\
    \      but cannot rank per-instance: pairwise differences still cancel the\n\
    \      instance features inside each cosine's argument only weakly)";

  Printf.printf "\n(e) cache simulator vs analytic reuse level (small instance)\n";
  let inst = Instance.create_xyz Benchmarks.laplacian ~sx:96 ~sy:96 ~sz:96 in
  let t = Table.create ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "tuning"; "model reuse level"; "L1 miss %"; "L2 miss %" ] in
  List.iter
    (fun tn ->
      let v = Sorl_codegen.Variant.compile inst tn in
      let level =
        match (Sorl_machine.Cost_model.analyze machine v).Sorl_machine.Cost_model.reuse_level with
        | `L1 -> "L1" | `L2 -> "L2" | `L3 -> "L3" | `Dram -> "DRAM"
      in
      let h = Sorl_machine.Cache_sim.create machine () in
      Sorl_machine.Cache_sim.run_variant h v;
      let s = Sorl_machine.Cache_sim.stats h in
      Table.add_row t
        [
          Tuning.to_string tn;
          level;
          Printf.sprintf "%.1f" (100. *. Sorl_machine.Cache_sim.miss_ratio s.(0));
          Printf.sprintf "%.1f" (100. *. Sorl_machine.Cache_sim.miss_ratio s.(1));
        ])
    [
      Tuning.create ~bx:2 ~by:2 ~bz:2 ~u:1 ~c:1;
      Tuning.create ~bx:16 ~by:8 ~bz:8 ~u:1 ~c:1;
      Tuning.create ~bx:96 ~by:96 ~bz:4 ~u:1 ~c:1;
    ];
  Table.print t

(* ---- Baseline formulations (§IV-A): classification & regression ---- *)

let baselines () =
  header "Baselines: ordinal regression vs classification vs regression (section IV-A)";
  Printf.printf
    "(the paper argues ranking beats both alternative ML formulations;\n\
    \ this experiment substantiates the argument on the same substrate)\n\n";
  let size = 3840 in
  let spec = { Sorl.Training.size; mode = Features.Extended; seed = 5 } in
  let ds, tunings = Sorl.Training.generate_with_tunings ~spec measure in
  let ordinal = Sorl.Autotuner.train_on ~mode:Features.Extended ds in
  let regression = Sorl_baselines.Regression_tuner.train ~mode:Features.Extended ds in
  let classifier =
    Sorl_baselines.Classification_tuner.train measure ds
      ~instances:Training_shapes.instances
      ~tunings:(fun i -> Some tunings.(i))
  in
  Printf.printf "classification labelling cost: %d extra measurements, %d classes\n\n"
    (Sorl_baselines.Classification_tuner.extra_measurements classifier)
    (Array.length (Sorl_baselines.Classification_tuner.classes classifier));
  let choose_ordinal inst = Sorl.Autotuner.tune ordinal inst in
  let choose_regression inst =
    Sorl_baselines.Regression_tuner.best regression inst
      (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  let choose_classifier inst = Sorl_baselines.Classification_tuner.predict classifier inst in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "benchmark"; "ordinal"; "regression"; "classification" ]
  in
  let agg = Array.make 3 [] in
  List.iter
    (fun inst ->
      let oracle =
        Array.fold_left
          (fun acc tn -> Float.min acc (Sorl_machine.Measure.runtime measure inst tn))
          infinity
          (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
      in
      let ratio choose =
        Sorl_machine.Measure.runtime measure inst (choose inst) /. oracle
      in
      let rs = [| ratio choose_ordinal; ratio choose_regression; ratio choose_classifier |] in
      Array.iteri (fun i r -> agg.(i) <- r :: agg.(i)) rs;
      Table.add_row t
        (Instance.name inst :: (Array.to_list rs |> List.map (Printf.sprintf "%.2f"))))
    Benchmarks.instances;
  Table.add_rule t;
  Table.add_row t
    ("geomean (runtime / set oracle)"
    :: (Array.to_list agg
       |> List.map (fun l -> Printf.sprintf "%.2f" (Stats.geometric_mean (Array.of_list l)))));
  Table.print t;
  print_endline
    "(1.00 = the best configuration of the pre-defined set; classification\n\
    \ is additionally bounded by the best of its fixed class variants)"

(* ---- Extensions: guided sampling, generalization, portability ---- *)

let extensions () =
  header "Extensions (paper section VII future work + generalization checks)";
  let size = 3840 in

  Printf.printf "\n(f) training-set generation: uniform random vs search-guided (section VII)\n";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "sampling"; "training tau"; "held-out tau (17 benchmarks)"; "top-1 / oracle" ]
  in
  let eval_sampling name gen =
    let spec = { Sorl.Training.size; mode = Features.Extended; seed = 5 } in
    let ds = gen spec in
    let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended ds in
    let train_tau = Sorl_svmrank.Eval.mean_tau (Sorl.Autotuner.model tuner) ds in
    let held_out = E.test_set_taus measure tuner Benchmarks.instances in
    let mean_held =
      List.fold_left (fun acc (_, tau) -> acc +. tau) 0. held_out
      /. float_of_int (List.length held_out)
    in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.3f" train_tau;
        Printf.sprintf "%.3f" mean_held;
        Printf.sprintf "%.2f" (top1_ratio tuner);
      ]
  in
  eval_sampling "uniform random (paper)" (fun spec -> Sorl.Training.generate ~spec measure);
  eval_sampling "guided 50% (hill-climb)" (fun spec ->
      Sorl.Training.generate_guided ~spec measure);
  Table.print t;

  Printf.printf "\n(g) held-out generalization tau on the 17 unseen benchmarks\n";
  let tuner =
    match List.find_opt (fun (s, _) -> s = 3840) (Lazy.force fig45_models) with
    | Some (_, tuner) -> tuner
    | None -> failwith "3840 model missing"
  in
  let taus = E.test_set_taus ~samples_per_instance:96 measure tuner Benchmarks.instances in
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "benchmark"; "tau" ] in
  List.iter (fun (name, tau) -> Table.add_row t [ name; Printf.sprintf "%.3f" tau ]) taus;
  let arr = Array.of_list (List.map snd taus) in
  Table.add_rule t;
  Table.add_row t [ "mean"; Printf.sprintf "%.3f" (Stats.mean arr) ];
  Table.print t;

  Printf.printf "\n(i) temporal blocking (time skewing, section I related work):\n";
  Printf.printf "    predicted per-step runtime vs temporal block, laplacian-256^3\n";
  let inst = Benchmarks.instance_by_name "laplacian-256x256x256" in
  let t =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "time block"; "redundant compute"; "per-step runtime"; "speedup vs tb=1" ]
  in
  let v = Sorl_codegen.Variant.compile inst (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4) in
  let base = Sorl_machine.Cost_model.temporal_runtime machine v ~time_block:1 in
  List.iter
    (fun tb ->
      let rt = Sorl_machine.Cost_model.temporal_runtime machine v ~time_block:tb in
      Table.add_row t
        [
          string_of_int tb;
          Printf.sprintf "%.2fx" (Sorl_codegen.Temporal.compute_inflation v ~time_block:tb);
          Table.fmt_time rt;
          Printf.sprintf "%.2f" (base /. rt);
        ])
    [ 1; 2; 3; 4; 6; 8 ];
  Table.print t;
  print_endline
    "    (memory-bound stencils gain until redundant halo compute wins;\n\
    \     the executor's semantics are validated against the reference\n\
    \     multi-step executor in the test suite)";

  Printf.printf
    "\n(j) shortlist quality on held-out data: 96 fresh configurations per\n\
    \    unseen benchmark, precision@10 / NDCG@10 per training size\n";
  let heldout =
    Sorl.Training.generate
      ~spec:{ Sorl.Training.size = 17 * 96; mode = Features.Extended; seed = 23 }
      ~instances:Benchmarks.instances measure
  in
  let t =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "TS size"; "precision@10"; "NDCG@10"; "mean tau" ]
  in
  List.iter
    (fun (size, tuner') ->
      let model = Sorl.Autotuner.model tuner' in
      Table.add_row t
        [
          string_of_int size;
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.precision_at_k model heldout ~k:10);
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.ndcg_at_k model heldout ~k:10);
          Printf.sprintf "%.3f" (Sorl_svmrank.Eval.mean_tau model heldout);
        ])
    (Lazy.force fig45_models);
  Table.print t;

  Printf.printf "\n(k) portfolio meta-search (OpenTuner-style successive halving)\n";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Left ]
      [ "benchmark"; "portfolio / GA-1024"; "winning algorithm" ]
  in
  List.iter
    (fun inst ->
      let problem = Sorl.Tuning_problem.problem measure inst in
      let ga = (Sorl_search.Registry.find "ga").Sorl_search.Registry.run ~seed:17 ~budget:1024 problem in
      let outcome, winner = Sorl_search.Portfolio.run ~seed:17 ~budget:1024 problem in
      Table.add_row t
        [
          Instance.name inst;
          Printf.sprintf "%.3f"
            (ga.Sorl_search.Runner.best_cost /. outcome.Sorl_search.Runner.best_cost);
          winner;
        ])
    quick_bench_instances;
  Table.print t;

  Printf.printf "\n(h) machine portability: the model is testbed-specific (section I)\n";
  let laptop = Sorl_machine.Machine_desc.laptop_quad in
  let laptop_measure = Sorl_machine.Measure.model laptop in
  let xeon_tuner = tuner in
  let laptop_tuner =
    Sorl.Autotuner.train
      ~spec:{ Sorl.Training.size = 3840; mode = Features.Extended; seed = 5 }
      laptop_measure
  in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "benchmark (evaluated on laptop model)"; "xeon-trained"; "laptop-trained" ]
  in
  List.iter
    (fun inst ->
      let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
      let oracle =
        Array.fold_left
          (fun acc tn -> Float.min acc (Sorl_machine.Measure.runtime laptop_measure inst tn))
          infinity set
      in
      let ratio tuner =
        Sorl_machine.Measure.runtime laptop_measure inst (Sorl.Autotuner.best tuner inst set)
        /. oracle
      in
      Table.add_row t
        [
          Instance.name inst;
          Printf.sprintf "%.2f" (ratio xeon_tuner);
          Printf.sprintf "%.2f" (ratio laptop_tuner);
        ])
    quick_bench_instances;
  Table.print t;
  print_endline
    "(retraining on the target machine's measurements recovers quality —\n\
    \ the cheap retrainability the paper lists as an autotuning advantage)"

(* ---- seed stability of the searches ---- *)

let stability () =
  header "Search-seed stability (supports Fig. 4's single-seed comparison)";
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "algorithm"; "geomean best/oracle"; "worst seed"; "spread (max/min)" ]
  in
  let seeds = [ 11; 17; 23; 29; 31 ] in
  List.iter
    (fun algo ->
      let per_seed =
        List.map
          (fun seed ->
            let ratios =
              List.map
                (fun inst ->
                  let problem = Sorl.Tuning_problem.problem measure inst in
                  let o = algo.Sorl_search.Registry.run ~seed ~budget:1024 problem in
                  let oracle =
                    Array.fold_left
                      (fun acc tn ->
                        Float.min acc (Sorl_machine.Measure.runtime measure inst tn))
                      infinity (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
                  in
                  o.Sorl_search.Runner.best_cost /. oracle)
                quick_bench_instances
            in
            Stats.geometric_mean (Array.of_list ratios))
          seeds
      in
      let arr = Array.of_list per_seed in
      let lo, hi = Stats.min_max arr in
      Table.add_row t
        [
          algo.Sorl_search.Registry.name;
          Printf.sprintf "%.3f" (Stats.geometric_mean arr);
          Printf.sprintf "%.3f" hi;
          Printf.sprintf "%.3f" (hi /. lo);
        ])
    Sorl_search.Registry.paper_baselines;
  Table.print t;
  print_endline
    "(spreads within a few percent: Fig. 4's single-seed search columns are\n\
    \ representative; note the searches can undercut the set oracle because\n\
    \ they explore the full integer space, not the power-of-two grid)"

(* ---- CSV export for external plotting ---- *)

let csv () =
  header "CSV export (bench_results/*.csv for external plotting)";
  let dir = "bench_results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name header rows =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (header ^ "\n");
        List.iter (fun r -> output_string oc (r ^ "\n")) rows);
    Printf.printf "wrote %s (%d rows)\n" path (List.length rows)
  in
  (* fig4 *)
  let rows = E.fig4 ~budget:1024 measure ~tuners:(Lazy.force fig45_models) Benchmarks.instances in
  write "fig4_speedup.csv"
    ("benchmark," ^ String.concat "," method_labels ^ ",oracle")
    (List.map
       (fun row ->
         let _, speedups = E.speedup row in
         Printf.sprintf "%s,%s,%.6f" row.E.benchmark
           (String.concat ","
              (Array.to_list speedups |> List.map (Printf.sprintf "%.6f")))
           (row.E.base_runtime_s /. row.E.oracle_runtime_s))
       rows);
  (* fig5 curves *)
  let f5 = E.fig5 ~budget:1024 measure ~tuners:(Lazy.force fig45_models) Benchmarks.fig5_instances in
  write "fig5_convergence.csv" "benchmark,algorithm,evaluation,best_gflops"
    (List.concat_map
       (fun row ->
         List.concat_map
           (fun (name, curve) ->
             List.init (Array.length curve) (fun i ->
                 Printf.sprintf "%s,%s,%d,%.6f" row.E.f5_benchmark name (i + 1) curve.(i)))
           row.E.f5_curves)
       f5);
  (* fig7 tau distributions *)
  write "fig7_tau.csv" "ts_size,instance,tau"
    (List.concat_map
       (fun tr ->
         let taus = E.taus_on_own_training_set tr in
         List.init (Array.length taus) (fun i ->
             Printf.sprintf "%d,%d,%.6f" tr.E.size i taus.(i)))
       (Lazy.force sweep_models))

(* ---- Parallel execution engine: serial vs pool ---- *)

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

let perf () =
  header "Parallel execution engine: serial vs pool timing";
  let domains = Sorl_util.Pool.default_domains () in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "pool size %d (host reports %d core%s)\n" domains cores
    (if cores = 1 then "" else "s");
  if domains = 1 then
    print_endline
      "note: pool size 1 — the \"parallel\" column degenerates to serial;\n\
       set Sorl_POOL_DOMAINS to force a larger pool.";
  let spec = { Sorl.Training.size = 16000; mode = Features.Extended; seed = 5 } in
  let generate_at d =
    Sorl_util.Pool.with_domains d (fun () ->
        (* fresh measure so evaluation counts don't accumulate *)
        let m = Sorl_machine.Measure.model machine in
        Sorl_util.Timer.time (fun () -> Sorl.Training.generate ~spec m))
  in
  let ds_serial, gen_serial_s = generate_at 1 in
  let ds_par, gen_par_s = generate_at domains in
  let gen_ok = datasets_identical ds_serial ds_par in
  let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended ds_serial in
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let set = Tuning.predefined_set ~dims:3 in
  let rank_at d =
    Sorl_util.Pool.with_domains d (fun () ->
        let order = Sorl.Autotuner.rank tuner inst set in
        let s, _reps =
          Sorl_util.Timer.time_repeat (fun () -> ignore (Sorl.Autotuner.rank tuner inst set))
        in
        (order, s))
  in
  let order_serial, rank_serial_s = rank_at 1 in
  let order_par, rank_par_s = rank_at domains in
  let rank_ok = order_serial = order_par in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "stage"; "serial"; Printf.sprintf "parallel (%d)" domains; "speedup"; "identical" ]
  in
  let row name serial par ok =
    Table.add_row t
      [
        name;
        Table.fmt_time serial;
        Table.fmt_time par;
        Printf.sprintf "%.2fx" (serial /. par);
        (if ok then "yes" else "NO");
      ]
  in
  row "training generation (16000)" gen_serial_s gen_par_s gen_ok;
  row "rank 8640 candidates" rank_serial_s rank_par_s rank_ok;
  Table.print t;
  (* Per-stage telemetry: trace one reduced-scale generate + train + rank
     and embed the counters/spans in the JSON report.  Resets any
     telemetry collected so far so the section covers exactly this
     pipeline. *)
  let was_on = Sorl_util.Telemetry.enabled () in
  Sorl_util.Telemetry.set_enabled true;
  Sorl_util.Telemetry.reset ();
  let telemetry_json =
    let m = Sorl_machine.Measure.model machine in
    let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed = 5 } in
    let ds = Sorl.Training.generate ~spec m in
    let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended ds in
    ignore (Sorl.Autotuner.rank tuner inst set);
    Sorl_util.Telemetry.report_json ()
  in
  if not was_on then begin
    Sorl_util.Telemetry.set_enabled false;
    Sorl_util.Telemetry.reset ()
  end;
  let stages_json =
    Printf.sprintf
      "{\n\
      \    \"training_generation_16000\": {\n\
      \      \"serial_s\": %.6f,\n\
      \      \"parallel_s\": %.6f,\n\
      \      \"speedup\": %.3f,\n\
      \      \"identical\": %b\n\
      \    },\n\
      \    \"rank_8640\": {\n\
      \      \"serial_s\": %.6f,\n\
      \      \"parallel_s\": %.6f,\n\
      \      \"speedup\": %.3f,\n\
      \      \"identical\": %b\n\
      \    }\n\
      \  }"
      gen_serial_s gen_par_s (gen_serial_s /. gen_par_s) gen_ok rank_serial_s rank_par_s
      (rank_serial_s /. rank_par_s) rank_ok
  in
  add_bench_sections
    [
      ("domain_count", string_of_int domains);
      ("host_cores", string_of_int cores);
      ("stages", stages_json);
      ("telemetry", telemetry_json);
    ]

(* ---- Rank throughput: compiled fast path vs the seed paths ---- *)

(* The seed path's scorer: scores a raw entry list without
   materializing a sparse vector.  The accumulation into the scratch
   (list order, per index) followed by a sum over the sorted touched
   indices with zeros skipped replays the exact float operations of
   [Sparse.of_list] + [dot_dense], so the result is bit-identical to
   [Model.score model (Sparse.of_list ~dim entries)].  The closure owns
   its scratch: create one scorer per domain. *)
let entry_scorer model =
  let w = Sorl_svmrank.Model.weights model in
  let scratch = Array.make (Array.length w) 0. in
  fun entries ->
    List.iter (fun (i, x) -> scratch.(i) <- scratch.(i) +. x) entries;
    let touched = List.sort_uniq compare (List.map fst entries) in
    let acc = ref 0. in
    List.iter
      (fun i ->
        let v = scratch.(i) in
        if v <> 0. then acc := !acc +. (v *. w.(i));
        scratch.(i) <- 0.)
      touched;
    !acc

let rank_throughput () =
  header "Rank throughput: compiled encoder fast path vs entry-list seed path";
  let m = Sorl_machine.Measure.model machine in
  let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed = 5 } in
  let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended (Sorl.Training.generate ~spec m) in
  let model = Sorl.Autotuner.model tuner in
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let set = Tuning.predefined_set ~dims:3 in
  let n = Array.length set in
  (* Three ways to rank the 8640-candidate predefined set.  [seed] is
     the pre-fast-path implementation (one entry list per candidate fed
     to the dense-scratch scorer), [sparse] additionally materializes a
     sparse vector per candidate, [fast] is Autotuner.rank streaming
     through the compiled encoder. *)
  let rank_seed () =
    let entries = Features.encoder_entries Features.Extended inst in
    let score = entry_scorer model in
    Sorl_svmrank.Model.sort_by_score (Array.map (fun tn -> score (entries tn)) set)
  in
  let rank_sparse () =
    let enc = Features.encoder Features.Extended inst in
    Sorl_svmrank.Model.sort_by_score
      (Array.map (fun tn -> Sorl_svmrank.Model.score model (enc tn)) set)
  in
  let rank_fast () = Sorl.Autotuner.rank tuner inst set in
  let to_tunings perm = Array.map (fun i -> set.(i)) perm in
  let fast_order = rank_fast () in
  let orders_ok =
    fast_order = to_tunings (rank_seed ()) && fast_order = to_tunings (rank_sparse ())
  in
  (* Throughput and allocation per candidate, measured serially so
     Gc.allocated_bytes (a per-domain counter) sees every word. *)
  let profile f =
    Sorl_util.Pool.with_domains 1 (fun () ->
        let per_call_s, _ =
          Sorl_util.Timer.time_repeat ~min_time:0.5 (fun () ->
              ignore (Sys.opaque_identity (f ())))
        in
        let iters = 3 in
        ignore (Sys.opaque_identity (f ()));
        let a0 = Gc.allocated_bytes () in
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done;
        let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int (iters * n) in
        (float_of_int n /. per_call_s, per_call_s /. float_of_int n *. 1e9, alloc))
  in
  let fast_cps, fast_ns, fast_alloc = profile rank_fast in
  let seed_cps, seed_ns, seed_alloc = profile rank_seed in
  let sparse_cps, sparse_ns, sparse_alloc = profile rank_sparse in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "path"; "candidates/s"; "ns/candidate"; "alloc B/candidate" ]
  in
  let row name cps ns alloc =
    Table.add_row t
      [ name; Printf.sprintf "%.0f" cps; Printf.sprintf "%.1f" ns; Printf.sprintf "%.1f" alloc ]
  in
  row "fast (compiled, Autotuner.rank)" fast_cps fast_ns fast_alloc;
  row "seed (entry lists + scorer)" seed_cps seed_ns seed_alloc;
  row "sparse (vector per candidate)" sparse_cps sparse_ns sparse_alloc;
  Table.print t;
  let speedup = fast_cps /. seed_cps in
  let alloc_ratio = seed_alloc /. Float.max fast_alloc 1e-9 in
  Printf.printf "fast vs seed: %.2fx throughput, %.1fx less allocation; orders identical: %b\n"
    speedup alloc_ratio orders_ok;
  (* The memoized measurement cache on a real search: same GA, same
     seed, cache on vs off — trajectories must be identical, only the
     re-measured duplicates get cheaper. *)
  let ga = Sorl_search.Registry.find "ga" in
  let run m =
    Sorl_util.Timer.time (fun () ->
        ga.Sorl_search.Registry.run ~seed:17 ~budget:1024 (Sorl.Tuning_problem.problem m inst))
  in
  let m_on = Sorl_machine.Measure.model machine in
  let m_off = Sorl_machine.Measure.model ~cache_capacity:0 machine in
  let o_on, s_on = run m_on in
  let o_off, s_off = run m_off in
  let cache_identical =
    o_on.Sorl_search.Runner.best_cost = o_off.Sorl_search.Runner.best_cost
    && o_on.Sorl_search.Runner.best_point = o_off.Sorl_search.Runner.best_point
    && o_on.Sorl_search.Runner.curve = o_off.Sorl_search.Runner.curve
  in
  let hits = Sorl_machine.Measure.cache_hits m_on in
  Printf.printf
    "GA-1024 measurement cache: %s with cache (capacity %d, %d hits, %d distinct points),\n\
     %s without; outcomes identical: %b\n"
    (Table.fmt_time s_on)
    (Sorl_machine.Measure.cache_capacity m_on)
    hits o_on.Sorl_search.Runner.distinct_points (Table.fmt_time s_off) cache_identical;
  let path_json cps ns alloc =
    Printf.sprintf
      "{ \"candidates_per_s\": %.1f, \"ns_per_candidate\": %.1f, \
       \"alloc_bytes_per_candidate\": %.1f }"
      cps ns alloc
  in
  add_bench_sections
    [
      ( "rank_throughput",
        Printf.sprintf
          "{\n\
          \    \"candidates\": %d,\n\
          \    \"fast\": %s,\n\
          \    \"seed\": %s,\n\
          \    \"sparse\": %s,\n\
          \    \"speedup_vs_seed\": %.3f,\n\
          \    \"alloc_ratio_seed_over_fast\": %.2f,\n\
          \    \"orders_identical\": %b,\n\
          \    \"measure_cache\": {\n\
          \      \"ga_budget\": 1024,\n\
          \      \"seconds_cache_on\": %.6f,\n\
          \      \"seconds_cache_off\": %.6f,\n\
          \      \"cache_hits\": %d,\n\
          \      \"distinct_points\": %d,\n\
          \      \"outcomes_identical\": %b\n\
          \    }\n\
          \  }"
          n
          (path_json fast_cps fast_ns fast_alloc)
          (path_json seed_cps seed_ns seed_alloc)
          (path_json sparse_cps sparse_ns sparse_alloc)
          speedup alloc_ratio orders_ok s_on s_off hits
          o_on.Sorl_search.Runner.distinct_points cache_identical );
    ];
  let problems = ref [] in
  let flag cond msg = if cond then problems := msg :: !problems in
  flag (not orders_ok) "fast/seed/sparse orders differ";
  flag (speedup < 3.) (Printf.sprintf "throughput gate: %.2fx < 3x over the seed path" speedup);
  flag (alloc_ratio < 10.)
    (Printf.sprintf "allocation gate: %.1fx < 10x less than the seed path" alloc_ratio);
  flag (not cache_identical) "cached GA outcome differs from uncached";
  flag (hits = 0) "measure cache recorded no hits on GA-1024";
  match !problems with
  | [] -> print_endline "OK: rank-throughput gates passed"
  | ps ->
    if Sys.getenv_opt "CI" <> None then
      List.iter (fun p -> Printf.printf "WARNING: %s\n" p) ps
    else begin
      List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) ps;
      exit 1
    end

(* ---- Serve throughput: the socket server vs in-process ranking ---- *)

let serve_throughput () =
  header "Serve throughput: the socket server (every ranking resident) vs direct rank";
  let m = Sorl_machine.Measure.model machine in
  let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed = 5 } in
  let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended (Sorl.Training.generate ~spec m) in
  let benchmark = "gradient-256x256x256" in
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:3 in
  (* Baseline: one in-process rank pass over the 8640-candidate set. *)
  let direct_s, _ =
    Sorl_util.Timer.time_repeat ~min_time:0.5 (fun () ->
        ignore (Sys.opaque_identity (Sorl.Autotuner.rank tuner inst set)))
  in
  let direct_rps = 1. /. direct_s in
  let ranked = Sorl.Autotuner.rank tuner inst set in
  let expected = ranked.(0) in
  let was_on = Sorl_util.Telemetry.enabled () in
  Sorl_util.Telemetry.set_enabled true;
  let dir = Filename.temp_dir "sorl-serve-bench" "" in
  let store =
    match Sorl_serve.Model_store.open_dir dir with Ok s -> s | Error m -> failwith m
  in
  (match Sorl_serve.Model_store.save store ~name:"default" tuner with
  | Ok () -> ()
  | Error m -> failwith m);
  let protocol_errors = Atomic.make 0 in
  let run_load address ~clients ~per_client =
    let latencies = Array.make (clients * per_client) 0. in
    let (), wall =
      Sorl_util.Timer.time (fun () ->
          Sorl_util.Pool.parallel_for ~domains:clients clients (fun ci ->
              match Sorl_serve.Client.connect ~retry_for_s:5. address with
              | Error _ -> Atomic.fetch_and_add protocol_errors per_client |> ignore
              | Ok c ->
                for j = 0 to per_client - 1 do
                  let t0 = Unix.gettimeofday () in
                  (match Sorl_serve.Client.rank c ~benchmark ~top:3 with
                  | Ok (best :: _) when Tuning.equal best expected -> ()
                  | Ok _ | Error _ -> Atomic.incr protocol_errors);
                  latencies.((ci * per_client) + j) <- Unix.gettimeofday () -. t0
                done;
                Sorl_serve.Client.close c))
    in
    (wall, latencies)
  in
  (* Exact reply bytes, below the typed client — for the identity
     gate. *)
  let raw_ask address line =
    match address with
    | Sorl_serve.Protocol.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc (line ^ "\n");
      flush oc;
      let reply = input_line ic in
      close_out_noerr oc;
      reply
    | _ -> assert false
  in
  let identity_query = "sorl1 rank " ^ benchmark ^ " 3" in
  let identity_reply =
    Sorl_serve.Protocol.encode_response
      (Sorl_serve.Protocol.Ranked
         {
           benchmark;
           total = Array.length ranked;
           tunings = Array.to_list (Array.sub ranked 0 3);
           approx = false;
         })
  in
  let control address keys =
    match
      Sorl_serve.Client.with_connection address (fun c ->
          match Sorl_serve.Client.stats c with
          | Error _ as e -> e
          | Ok kvs ->
            let get k = Option.value ~default:0 (List.assoc_opt k kvs) in
            (match Sorl_serve.Client.shutdown c with
            | Ok () -> Ok (List.map get keys)
            | Error _ as e -> e))
    with
    | Ok vs -> vs
    | Error m ->
      Printf.printf "WARNING: control connection failed: %s\n" m;
      List.map (fun _ -> 0) keys
  in
  (* Every ranking is built at start: each query is a slice plus one
     write. *)
  Sorl_util.Telemetry.reset ();
  let hot_server =
    match
      Sorl_serve.Server.start
        ~address:(Sorl_serve.Protocol.Unix_path (Filename.concat dir "hot.sock"))
        ~workers:4 ~queue_capacity:64
        (Sorl_serve.Server.Store (store, "default"))
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let hot_addr = Sorl_serve.Server.address hot_server in
  let hot_clients = 4 and hot_per = 200 in
  let hot_total = hot_clients * hot_per in
  let hot_wall, hot_lat = run_load hot_addr ~clients:hot_clients ~per_client:hot_per in
  (* Read the request counter before the identity/control traffic below
     adds its own requests, so it must equal the load generator's count
     exactly. *)
  let hot_requests = Sorl_util.Telemetry.counter_value "serve.requests" in
  let hot_reconciled = hot_requests = hot_total in
  let hot_errors = Atomic.get protocol_errors in
  let hot_reply = raw_ask hot_addr identity_query in
  let hot_reply_again = raw_ask hot_addr identity_query in
  let identical =
    String.equal identity_reply hot_reply && String.equal hot_reply hot_reply_again
  in
  (* Pipelining: one connection writes a whole train before reading;
     the server answers in order with one buffered write. *)
  let pipeline_depth = 100 in
  let pipeline_s =
    match Sorl_serve.Client.connect hot_addr with
    | Error m ->
      Printf.printf "WARNING: pipeline connection failed: %s\n" m;
      Float.infinity
    | Ok c ->
      let reqs =
        List.init pipeline_depth (fun _ -> Sorl_serve.Protocol.Rank { benchmark; top = 3; approx_ok = false })
      in
      let t0 = Unix.gettimeofday () in
      let r = Sorl_serve.Client.pipeline c reqs in
      let dt = Unix.gettimeofday () -. t0 in
      Sorl_serve.Client.close c;
      (match r with
      | Ok replies when List.length replies = pipeline_depth -> ()
      | Ok _ | Error _ -> Atomic.incr protocol_errors);
      dt
  in
  let pipeline_rps = float_of_int pipeline_depth /. pipeline_s in
  let cache_hits, pipelined =
    match control hot_addr [ "result_cache_hits"; "pipelined" ] with
    | [ h; p ] -> (h, p)
    | _ -> (0, 0)
  in
  Sorl_serve.Server.stop hot_server;
  Sorl_serve.Server.wait hot_server;
  Sorl_util.Telemetry.reset ();
  Sorl_util.Telemetry.set_enabled was_on;
  let hot_p50 = Stats.percentile hot_lat 50. and hot_p99 = Stats.percentile hot_lat 99. in
  let total_errors = Atomic.get protocol_errors in
  let hot_rps = float_of_int hot_total /. hot_wall in
  Printf.printf "direct rank: %.1f req/s\n" direct_rps;
  Printf.printf "served (%d clients x %d): %.1f req/s (%.2fx direct), p50 %s, p99 %s\n"
    hot_clients hot_per hot_rps (hot_rps /. direct_rps) (Table.fmt_time hot_p50)
    (Table.fmt_time hot_p99);
  Printf.printf "  rankings: %d hits; pipelined %d; pipeline(%d): %.1f req/s\n" cache_hits
    pipelined pipeline_depth pipeline_rps;
  Printf.printf
    "replies byte-identical (in-process = served = served again): %b; protocol errors: %d\n"
    identical total_errors;
  Printf.printf "telemetry requests %d/%d\n" hot_requests hot_total;
  add_bench_sections
    [
      ( "serve_throughput",
        Printf.sprintf
          "{\n\
          \    \"direct_rank_per_s\": %.1f,\n\
          \    \"hot\": {\n\
          \      \"clients\": %d,\n\
          \      \"requests\": %d,\n\
          \      \"req_per_s\": %.1f,\n\
          \      \"latency_p50_s\": %.6f,\n\
          \      \"latency_p99_s\": %.6f,\n\
          \      \"speedup_vs_direct\": %.2f,\n\
          \      \"cache_hits\": %d,\n\
          \      \"requests_reconciled\": %b\n\
          \    },\n\
          \    \"pipeline\": { \"depth\": %d, \"req_per_s\": %.1f },\n\
          \    \"replies_byte_identical\": %b,\n\
          \    \"protocol_errors\": %d\n\
          \  }"
          direct_rps hot_clients hot_total hot_rps hot_p50 hot_p99 (hot_rps /. direct_rps)
          cache_hits hot_reconciled pipeline_depth pipeline_rps identical total_errors );
    ];
  let problems = ref [] in
  let flag cond msg = if cond then problems := msg :: !problems in
  flag (total_errors > 0)
    (Printf.sprintf "%d protocol errors under concurrency" total_errors);
  flag (not hot_reconciled)
    (Printf.sprintf "telemetry saw %d requests, load generator sent %d" hot_requests
       hot_total);
  flag (hot_errors > 0) (Printf.sprintf "%d protocol errors in the load phase" hot_errors);
  flag (hot_rps < direct_rps)
    (Printf.sprintf "hot throughput gate: %.1f req/s below direct %.1f" hot_rps direct_rps);
  flag (hot_p50 > 0.005)
    (Printf.sprintf "hot latency gate: p50 %.2f ms > 5 ms" (hot_p50 *. 1000.));
  flag (not identical) "served replies are not byte-identical to the in-process rank";
  flag (cache_hits < hot_total)
    (Printf.sprintf "ranking hits %d below request count %d" cache_hits hot_total);
  match !problems with
  | [] -> print_endline "OK: serve-throughput gates passed"
  | ps ->
    if Sys.getenv_opt "CI" <> None then
      List.iter (fun p -> Printf.printf "WARNING: %s\n" p) ps
    else begin
      List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) ps;
      exit 1
    end

(* ---- Bechamel micro-benchmarks ---- *)

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let tn = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  let tuner =
    match Lazy.force fig45_models with
    | (_, t) :: _ -> t
    | [] -> assert false
  in
  let set = Tuning.predefined_set ~dims:3 in
  let candidates100 = Array.sub set 0 100 in
  let small = Instance.create_xyz Benchmarks.edge ~sx:64 ~sy:64 ~sz:1 in
  let small_v = Sorl_codegen.Variant.compile small (Tuning.create ~bx:16 ~by:16 ~bz:1 ~u:2 ~c:2) in
  let small_in, small_out = Sorl_codegen.Interp.make_grids small in
  let rng = Sorl_util.Rng.create 3 in
  let xs = Array.init 256 (fun _ -> Sorl_util.Rng.uniform rng) in
  let ys = Array.init 256 (fun _ -> Sorl_util.Rng.uniform rng) in
  let phi = Features.encode Features.Extended inst tn in
  let tests =
    [
      Test.make ~name:"feature-encode (extended)"
        (Staged.stage (fun () -> ignore (Features.encode Features.Extended inst tn)));
      Test.make ~name:"cost-model eval"
        (Staged.stage (fun () ->
             ignore (Sorl_machine.Cost_model.runtime_of machine inst tn)));
      Test.make ~name:"model score (1 candidate)"
        (Staged.stage (fun () ->
             ignore (Sorl_svmrank.Model.score (Sorl.Autotuner.model tuner) phi)));
      Test.make ~name:"rank 100 candidates"
        (Staged.stage (fun () -> ignore (Sorl.Autotuner.rank tuner inst candidates100)));
      Test.make ~name:"kendall-tau n=256"
        (Staged.stage (fun () -> ignore (Sorl_util.Rank_correlation.kendall_tau xs ys)));
      Test.make ~name:"interp edge 64x64 sweep"
        (Staged.stage (fun () ->
             Sorl_codegen.Interp.run small_v ~inputs:small_in ~output:small_out));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "benchmark"; "time/run" ] in
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let raw = Benchmark.run cfg instances tst in
          let results = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let est =
            match Analyze.OLS.estimates results with
            | Some [ e ] -> e
            | Some _ | None -> Float.nan
          in
          Table.add_row t [ Test.Elt.name tst; Table.fmt_time (est /. 1e9) ])
        (Test.elements test))
    tests;
  Table.print t

(* ---- telemetry overhead ---- *)

let telemetry_overhead () =
  header "Telemetry overhead: disabled-path cost relative to Autotuner.rank";
  let was_on = Sorl_util.Telemetry.enabled () in
  Sorl_util.Telemetry.set_enabled false;
  let c = Sorl_util.Telemetry.counter "bench.overhead" in
  let h = Sorl_util.Telemetry.histogram "bench.overhead_s" in
  let iters = 1_000_000 in
  let batch_s, _ =
    Sorl_util.Timer.time_repeat ~min_time:0.2 (fun () ->
        for i = 1 to iters do
          Sorl_util.Telemetry.span "bench/overhead" (fun () ->
              Sorl_util.Telemetry.incr c;
              Sorl_util.Telemetry.observe h (Sys.opaque_identity (float_of_int i)))
        done)
  in
  (* each iteration exercises one disabled span + counter + histogram *)
  let per_op_s = batch_s /. float_of_int (3 * iters) in
  let m = Sorl_machine.Measure.model machine in
  let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed = 5 } in
  let tuner = Sorl.Autotuner.train_on ~mode:Features.Extended (Sorl.Training.generate ~spec m) in
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let set = Tuning.predefined_set ~dims:3 in
  let rank_s, _ =
    Sorl_util.Timer.time_repeat ~min_time:0.2 (fun () ->
        ignore (Sorl.Autotuner.rank tuner inst set))
  in
  if was_on then Sorl_util.Telemetry.set_enabled true;
  (* Disabled instrumentation on the rank path: the rank span, the
     candidate counter and one enabled-check per chunk — bounded by a
     handful of ops per call, scored here as 8 for slack. *)
  let overhead_s = 8. *. per_op_s in
  let rel = overhead_s /. rank_s in
  Printf.printf "disabled telemetry op: %.1f ns (span+counter+histogram avg)\n"
    (per_op_s *. 1e9);
  Printf.printf "Autotuner.rank (8640 candidates): %s\n" (Table.fmt_time rank_s);
  Printf.printf "estimated disabled overhead per rank: %.5f%% (budget 1%%)\n" (rel *. 100.);
  if rel > 0.01 then
    if Sys.getenv_opt "CI" <> None then
      Printf.printf "WARNING: disabled-telemetry overhead exceeds the 1%% budget\n"
    else begin
      Printf.eprintf "FAIL: disabled-telemetry overhead exceeds the 1%% budget\n";
      exit 1
    end
  else print_endline "OK: disabled telemetry is below the 1% budget"

(* ---- Fleet throughput: 1 -> 2 shard scaling through the router ---- *)

let fleet_throughput () =
  header "Fleet: shard scaling through the consistent-hash router";
  let m = Sorl_machine.Measure.model machine in
  let train seed =
    let spec = { Sorl.Training.size = 960; mode = Features.Extended; seed } in
    Sorl.Autotuner.train_on ~mode:Features.Extended (Sorl.Training.generate ~spec m)
  in
  let tuner_a = train 5 and tuner_b = train 7 in
  let dir = Filename.temp_dir "sorl-fleet-bench" "" in
  let store =
    match Sorl_serve.Model_store.open_dir dir with Ok s -> s | Error m -> failwith m
  in
  let save name tuner =
    match Sorl_serve.Model_store.save store ~name tuner with
    | Ok () -> ()
    | Error m -> failwith m
  in
  save "default" tuner_a;
  save "next" tuner_b;
  (* Shards build every ranking at start, so each request is a slice
     and the scaling number measures forwarding through the router. *)
  let expected tuner inst =
    let benchmark = Instance.name inst in
    let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
    let ranked = Sorl.Autotuner.rank tuner inst set in
    ( Sorl_serve.Protocol.encode_response
        (Sorl_serve.Protocol.Ranked
           {
             benchmark;
             total = Array.length ranked;
             tunings = Array.to_list (Array.sub ranked 0 3);
             approx = false;
           }),
      Sorl_serve.Protocol.encode_response
        (Sorl_serve.Protocol.Tuned { benchmark; tuning = ranked.(0); approx = false }) )
  in
  (* One work item per routing key the router distinguishes:
     (benchmark, rank) and (benchmark, tune), with the exact reply
     bytes each model must produce. *)
  let items =
    List.concat_map
      (fun inst ->
        let name = Instance.name inst in
        let rank_a, tune_a = expected tuner_a inst in
        let rank_b, tune_b = expected tuner_b inst in
        [
          (name ^ "/rank", Printf.sprintf "sorl1 rank %s 3" name, rank_a, rank_b);
          (name ^ "/tune", Printf.sprintf "sorl1 tune %s" name, tune_a, tune_b);
        ])
      Benchmarks.instances
  in
  (* Interleave the two shards' keys so the offered load is balanced by
     construction — this measures fleet capacity; how evenly organic
     traffic spreads depends on its key cardinality, not on the fleet. *)
  let ring = Sorl_serve.Ring.create [ "s0"; "s1" ] in
  let owned_by s = List.filter (fun (k, _, _, _) -> Sorl_serve.Ring.owner ring k = s) items in
  let items0 = Array.of_list (owned_by 0) and items1 = Array.of_list (owned_by 1) in
  let balanced = Array.length items0 > 0 && Array.length items1 > 0 in
  let all_items = Array.of_list items in
  let item_at ci j =
    if not balanced then all_items.((ci + j) mod Array.length all_items)
    else if j land 1 = 0 then items0.((ci + (j / 2)) mod Array.length items0)
    else items1.((ci + (j / 2)) mod Array.length items1)
  in
  let raw_connect address =
    match address with
    | Sorl_serve.Protocol.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | _ -> assert false
  in
  let sent = Atomic.make 0 in
  let ask ic oc line =
    Atomic.incr sent;
    output_string oc (line ^ "\n");
    flush oc;
    input_line ic
  in
  let ask_once address line =
    let fd, ic, oc = raw_connect address in
    let reply = ask ic oc line in
    close_out_noerr oc;
    ignore fd;
    reply
  in
  let mismatches = Atomic.make 0 in
  let clients = 4 and per_client = 40 in
  let total = clients * per_client in
  let run_load address =
    let (), wall =
      Sorl_util.Timer.time (fun () ->
          Sorl_util.Pool.parallel_for ~domains:clients clients (fun ci ->
              let fd, ic, oc = raw_connect address in
              for j = 0 to per_client - 1 do
                let _, line, expect_a, _ = item_at ci j in
                if not (String.equal (ask ic oc line) expect_a) then
                  Atomic.incr mismatches
              done;
              close_out_noerr oc;
              ignore fd))
    in
    float_of_int total /. wall
  in
  (* ---- direct baseline: one in-process server, no router ---- *)
  let direct_server =
    match
      Sorl_serve.Server.start
        ~address:(Sorl_serve.Protocol.Unix_path (Filename.concat dir "direct.sock"))
        ~workers:1 ~conn_timeout_s:30.
        (Sorl_serve.Server.Store (store, "default"))
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let direct_addr = Sorl_serve.Server.address direct_server in
  let direct_rps = run_load direct_addr in
  let _, identity_line, _, _ = all_items.(0) in
  let direct_reply = ask_once direct_addr identity_line in
  Sorl_serve.Server.stop direct_server;
  Sorl_serve.Server.wait direct_server;
  (* ---- fleet phases: fork shards first, then start the router's
     domains — never fork while our own domains are live ---- *)
  let reload_loaders = 2 and reload_per = 40 in
  let torn = Atomic.make 0 in
  let reload_ok = ref false in
  let post_mismatches = ref 0 in
  let run_fleet ~shards ~with_reload =
    let fdir = Filename.concat dir (Printf.sprintf "fleet%d" shards) in
    let fleet =
      match
        Sorl_serve.Fleet.start ~dir:fdir ~shards ~workers:1 ~conn_timeout_s:30.
          (Sorl_serve.Server.Store (store, "default"))
      with
      | Ok f -> f
      | Error m -> failwith m
    in
    let router =
      match
        Sorl_serve.Router.start
          ~address:
            (Sorl_serve.Protocol.Unix_path
               (Filename.concat dir (Printf.sprintf "router%d.sock" shards)))
          ~workers:4 ~conn_timeout_s:30. ~connect_retry_s:5.
          (Sorl_serve.Fleet.addresses fleet)
      with
      | Ok r -> r
      | Error m ->
        Sorl_serve.Fleet.stop fleet;
        failwith m
    in
    let router_addr = Sorl_serve.Router.address router in
    let before = Atomic.get sent in
    let rps = run_load router_addr in
    let router_reply = ask_once router_addr identity_line in
    if with_reload then begin
      (* Rolling reload under load: every in-flight reply must be
         model A's bytes or model B's bytes — a torn or
         cross-generation frame matches neither. *)
      let loaders =
        List.init reload_loaders (fun li ->
            Domain.spawn (fun () ->
                let fd, ic, oc = raw_connect router_addr in
                for j = 0 to reload_per - 1 do
                  let _, line, expect_a, expect_b = item_at li j in
                  let reply = ask ic oc line in
                  if
                    not
                      (String.equal reply expect_a || String.equal reply expect_b)
                  then Atomic.incr torn
                done;
                close_out_noerr oc;
                ignore fd))
      in
      Unix.sleepf 0.05;
      (match
         Sorl_serve.Client.with_connection router_addr (fun c ->
             Sorl_serve.Client.reload ~model:"next" c)
       with
      | Ok ("next", _) -> reload_ok := true
      | Ok _ | Error _ -> ());
      List.iter Domain.join loaders;
      (* After the roll completes, every shard serves model B only. *)
      Array.iter
        (fun (_, line, _, expect_b) ->
          if not (String.equal (ask_once router_addr line) expect_b) then
            incr post_mismatches)
        all_items
    end;
    let expected_forwarded = Atomic.get sent - before in
    let forwarded, errors =
      match
        Sorl_serve.Client.with_connection router_addr Sorl_serve.Client.stats
      with
      | Ok kvs ->
        let get k = Option.value ~default:(-1) (List.assoc_opt k kvs) in
        (get "router.forwarded", get "router.errors")
      | Error _ -> (-1, -1)
    in
    ignore
      (Sorl_serve.Client.with_connection router_addr Sorl_serve.Client.shutdown);
    Sorl_serve.Router.wait router;
    Sorl_serve.Fleet.stop fleet;
    (rps, router_reply, forwarded = expected_forwarded, errors)
  in
  let rps1, reply1, reconciled1, errors1 = run_fleet ~shards:1 ~with_reload:false in
  let rps2, reply2, reconciled2, errors2 = run_fleet ~shards:2 ~with_reload:true in
  let scaling = rps2 /. rps1 in
  let identical =
    String.equal direct_reply reply1 && String.equal direct_reply reply2
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "load: %d clients x %d requests over %d routing keys (balanced: %b)\n"
    clients per_client (List.length items) balanced;
  Printf.printf "direct server (1 proc, no router): %.1f req/s\n" direct_rps;
  Printf.printf "1 shard behind router: %.1f req/s\n" rps1;
  Printf.printf "2 shards behind router: %.1f req/s (%.2fx, %d cores)\n" rps2 scaling cores;
  Printf.printf
    "router = direct bytes: %b; reply mismatches: %d; router errors: %d+%d\n"
    identical (Atomic.get mismatches) errors1 errors2;
  Printf.printf
    "rolling reload under load: ok %b, torn replies %d, post-reload mismatches %d\n"
    !reload_ok (Atomic.get torn) !post_mismatches;
  Printf.printf "stats reconciled (forwarded = sent): %b, %b\n" reconciled1 reconciled2;
  add_bench_sections
    [
      ( "fleet",
        Printf.sprintf
          "{\n\
          \    \"clients\": %d,\n\
          \    \"requests_per_phase\": %d,\n\
          \    \"routing_keys\": %d,\n\
          \    \"balanced_workload\": %b,\n\
          \    \"direct_req_per_s\": %.1f,\n\
          \    \"one_shard_req_per_s\": %.1f,\n\
          \    \"two_shard_req_per_s\": %.1f,\n\
          \    \"scaling_1_to_2\": %.2f,\n\
          \    \"cores\": %d,\n\
          \    \"replies_byte_identical\": %b,\n\
          \    \"reply_mismatches\": %d,\n\
          \    \"router_errors\": %d,\n\
          \    \"stats_reconciled\": %b,\n\
          \    \"rolling_reload\": { \"ok\": %b, \"torn_replies\": %d, \
           \"post_reload_mismatches\": %d }\n\
          \  }"
          clients total (List.length items) balanced direct_rps rps1 rps2 scaling cores
          identical
          (Atomic.get mismatches)
          (errors1 + errors2)
          (reconciled1 && reconciled2)
          !reload_ok (Atomic.get torn) !post_mismatches );
    ];
  let problems = ref [] in
  let flag cond msg = if cond then problems := msg :: !problems in
  flag (not identical) "router replies are not byte-identical to the direct server's";
  flag
    (Atomic.get mismatches > 0)
    (Printf.sprintf "%d replies did not match the expected bytes" (Atomic.get mismatches));
  flag (errors1 > 0 || errors2 > 0)
    (Printf.sprintf "router reported %d protocol errors" (errors1 + errors2));
  flag
    ((not reconciled1) || not reconciled2)
    "router.forwarded does not reconcile with the load generator's count";
  flag (not !reload_ok) "rolling reload through the router failed";
  flag (Atomic.get torn > 0)
    (Printf.sprintf "%d torn replies during the rolling reload" (Atomic.get torn));
  flag (!post_mismatches > 0)
    (Printf.sprintf "%d post-reload replies still carried the old model" !post_mismatches);
  (* The scaling gate needs real parallel hardware: 1 shard already
     saturates 1-2 cores (1 worker + reactor + router + clients). *)
  if cores >= 4 then
    flag (scaling < 1.7)
      (Printf.sprintf "scaling gate: %.2fx < 1.7x from 1 to 2 shards" scaling)
  else
    Printf.printf "note: %d cores — the >=1.7x scaling gate needs >=4, skipped\n" cores;
  match !problems with
  | [] -> print_endline "OK: fleet-throughput gates passed"
  | ps ->
    if Sys.getenv_opt "CI" <> None then
      List.iter (fun p -> Printf.printf "WARNING: %s\n" p) ps
    else begin
      List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) ps;
      exit 1
    end

(* ---- Online learning: observe -> retrain -> canary -> promote ---- *)

let online_learn () =
  header "Online learning: ingestion throughput, warm-start retrain, canaried rollout";
  let m = Sorl_machine.Measure.model machine in
  let spec = { Sorl.Training.size = 480; mode = Features.Extended; seed = 5 } in
  let stable =
    Sorl.Autotuner.train_on ~mode:Features.Extended (Sorl.Training.generate ~spec m)
  in
  let mode = Sorl.Autotuner.feature_mode stable in
  let benchmarks = [ "blur-1024x768"; "edge-512x512"; "game-of-life-512x512" ] in
  let per_bench = 2000 in
  (* The observation stream a measurement harness would produce: random
     points from the predefined set, costed by the noisy substrate. *)
  let obs_by_bench =
    let noisy = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:11 machine in
    let rng = Sorl_util.Rng.create 86243 in
    List.map
      (fun benchmark ->
        let inst = Benchmarks.instance_by_name benchmark in
        let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
        List.init per_bench (fun _ ->
            let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
            let cost = Sorl_machine.Measure.runtime noisy inst tuning in
            { Sorl_learn.Obs_log.benchmark; tuning; cost }))
      benchmarks
  in
  let obs = List.concat obs_by_bench in
  let early =
    List.concat_map (List.filteri (fun i _ -> i < per_bench / 2)) obs_by_bench
  in
  let n_obs = List.length obs in
  (* ---- warm-start convergence, in the loop's steady state: the
     previous generation was fit on a prefix of the same stream, and
     the next cycle warm-starts from it on the grown log.  At half the
     pass budget the warm solve must land on the from-scratch held-out
     tau. ---- *)
  let dcd passes =
    Sorl.Autotuner.Dcd
      { Sorl_svmrank.Solver_dcd.default_params with max_passes = passes; seed = 11 }
  in
  let scratch_passes = 40 in
  let warm_passes = scratch_passes / 2 in
  let train_early, _ = Sorl_learn.Trainer.split early in
  let gen1 =
    match Sorl_learn.Trainer.retrain ~solver:(dcd scratch_passes) ~mode train_early with
    | Ok t -> t
    | Error m -> failwith m
  in
  let train_slice, held = Sorl_learn.Trainer.split obs in
  let tau tuner =
    match Sorl_learn.Trainer.holdout_tau tuner held with Some t -> t | None -> nan
  in
  let scratch_r, scratch_s =
    Sorl_util.Timer.time (fun () ->
        Sorl_learn.Trainer.retrain ~solver:(dcd scratch_passes) ~mode train_slice)
  in
  let warm_r, warm_s =
    Sorl_util.Timer.time (fun () ->
        Sorl_learn.Trainer.retrain ~solver:(dcd warm_passes)
          ~init:(Sorl.Autotuner.weights gen1) ~mode train_slice)
  in
  let scratch_tuner = match scratch_r with Ok t -> t | Error m -> failwith m in
  let candidate = match warm_r with Ok t -> t | Error m -> failwith m in
  let stable_tau = tau stable in
  let gen1_tau = tau gen1 in
  let scratch_tau = tau scratch_tuner in
  let warm_tau = tau candidate in
  let converged = warm_tau >= scratch_tau -. 1e-6 in
  Printf.printf
    "%d observations over %d benchmarks; held-out tau: stable %+.4f, previous \
     generation (half the stream) %+.4f\n"
    n_obs (List.length benchmarks) stable_tau gen1_tau;
  Printf.printf
    "retrain scratch (%d passes): tau %+.4f in %s; warm from previous (%d passes): tau \
     %+.4f in %s\n"
    scratch_passes scratch_tau (Table.fmt_time scratch_s) warm_passes warm_tau
    (Table.fmt_time warm_s);
  (* ---- ingestion throughput: one connection streams the whole list
     [ingest_rounds] times pipelined while a foreground client keeps
     measuring rank latency (each rank a slice of a resident ranking
     after the benchmark's first request) ---- *)
  let dir = Filename.temp_dir "sorl-learn-bench" "" in
  let store =
    match Sorl_serve.Model_store.open_dir dir with Ok s -> s | Error m -> failwith m
  in
  (match Sorl_serve.Model_store.save store ~name:"default" stable with
  | Ok () -> ()
  | Error m -> failwith m);
  let ingest_server =
    match
      Sorl_serve.Server.start
        ~address:(Sorl_serve.Protocol.Unix_path (Filename.concat dir "ingest.sock"))
        ~workers:4 ~queue_capacity:64
        ~obs_log:(Filename.concat dir "ingest.obs")
        (Sorl_serve.Server.Store (store, "default"))
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let ingest_addr = Sorl_serve.Server.address ingest_server in
  let rank_client =
    match Sorl_serve.Client.connect ~retry_for_s:5. ingest_addr with
    | Ok c -> c
    | Error m -> failwith m
  in
  let bench_arr = Array.of_list benchmarks in
  let rank_errors = ref 0 in
  let rank_once i =
    let t0 = Unix.gettimeofday () in
    (match
       Sorl_serve.Client.rank rank_client
         ~benchmark:bench_arr.(i mod Array.length bench_arr)
         ~top:3
     with
    | Ok _ -> ()
    | Error _ -> incr rank_errors);
    Unix.gettimeofday () -. t0
  in
  let quiet_lat = Array.init 200 rank_once in
  let p50_quiet = Stats.percentile quiet_lat 50. in
  (* [stream rounds] pushes the whole observation list [rounds] times
     through one pipelined Observer.  With [pace_to] it sleeps off the
     remainder of each batch interval, holding a target rate. *)
  let stream ?pace_to rounds =
    match Sorl_serve.Client.connect ~retry_for_s:5. ingest_addr with
    | Error m -> failwith m
    | Ok c ->
      let batch = 64 in
      let ob = Sorl_serve.Client.Observer.create ~batch c in
      let interval = Option.map (fun rate -> float_of_int batch /. rate) pace_to in
      let sent = ref 0 in
      let next = ref (Unix.gettimeofday ()) in
      let (), wall =
        Sorl_util.Timer.time (fun () ->
            for _ = 1 to rounds do
              List.iter
                (fun { Sorl_learn.Obs_log.benchmark; tuning; cost } ->
                  ignore (Sorl_serve.Client.Observer.send ob ~benchmark ~tuning ~cost);
                  incr sent;
                  match interval with
                  | Some dt when !sent mod batch = 0 ->
                    next := !next +. dt;
                    let now = Unix.gettimeofday () in
                    if now < !next then Unix.sleepf (!next -. now)
                  | _ -> ())
                obs
            done;
            ignore (Sorl_serve.Client.Observer.close ob))
      in
      let acked = Sorl_serve.Client.Observer.acked ob in
      let rejected = Sorl_serve.Client.Observer.rejected ob in
      Sorl_serve.Client.close c;
      (acked, rejected, wall)
  in
  (* Burst: full pipeline speed, no foreground load — the capacity
     number. *)
  let burst_rounds = 4 in
  let burst_sent = burst_rounds * n_obs in
  let burst_acked, burst_rejected, burst_wall = stream burst_rounds in
  let burst_rate = float_of_int burst_sent /. burst_wall in
  (* Paced: hold ~12k obs/s while the foreground client keeps measuring
     rank latency.  The latency gate runs at the rate the acceptance
     demands, not at burst capacity — an in-process burst saturates the
     shared runtime and would measure GC pressure, not serving. *)
  let paced_rounds = 2 in
  let paced_sent = paced_rounds * n_obs in
  let ingest_done = Atomic.make false in
  let ingest_result = Atomic.make (0, 0, 0.) in
  let ingester =
    Domain.spawn (fun () ->
        (try Atomic.set ingest_result (stream ~pace_to:12_000. paced_rounds)
         with _ -> ());
        Atomic.set ingest_done true)
  in
  let during = ref [] in
  let i = ref 0 in
  while not (Atomic.get ingest_done) do
    during := rank_once !i :: !during;
    incr i
  done;
  Domain.join ingester;
  let during_lat = Array.of_list !during in
  let p50_during =
    if Array.length during_lat = 0 then p50_quiet else Stats.percentile during_lat 50.
  in
  let paced_acked, paced_rejected, paced_wall = Atomic.get ingest_result in
  let paced_rate = float_of_int paced_sent /. paced_wall in
  let acked = burst_acked + paced_acked in
  let rejected = burst_rejected + paced_rejected in
  let obs_sent = burst_sent + paced_sent in
  let served_obs =
    match Sorl_serve.Client.stats rank_client with
    | Ok kvs -> Option.value ~default:(-1) (List.assoc_opt "observations" kvs)
    | Error _ -> -1
  in
  Sorl_serve.Client.close rank_client;
  Sorl_serve.Server.stop ingest_server;
  Sorl_serve.Server.wait ingest_server;
  let p50_degrade =
    if p50_quiet > 0. then (p50_during -. p50_quiet) /. p50_quiet else 0.
  in
  Printf.printf
    "ingestion burst: %d observations in %s (%.0f obs/s); paced: %d in %s (%.0f obs/s); \
     %d acked, %d rejected\n"
    burst_sent (Table.fmt_time burst_wall) burst_rate paced_sent
    (Table.fmt_time paced_wall) paced_rate acked rejected;
  Printf.printf "rank p50 %s quiet -> %s under paced ingestion (%+.1f%%, %d samples)\n"
    (Table.fmt_time p50_quiet) (Table.fmt_time p50_during) (100. *. p50_degrade)
    (Array.length during_lat);
  (* ---- canaried rollout through the router: shard logs fill over the
     wire, the candidate generation shadows, and promote is a rolling
     hot reload that must never tear a reply ---- *)
  let fleet =
    match
      Sorl_serve.Fleet.start ~dir:(Filename.concat dir "fleet") ~shards:1 ~workers:2
        ~conn_timeout_s:30.
        ~obs_dir:(Filename.concat dir "obs")
        (Sorl_serve.Server.Store (store, "default"))
    with
    | Ok f -> f
    | Error m -> failwith m
  in
  let router =
    match
      Sorl_serve.Router.start
        ~address:(Sorl_serve.Protocol.Unix_path (Filename.concat dir "router.sock"))
        ~workers:2 ~conn_timeout_s:30. ~connect_retry_s:5.
        (Sorl_serve.Fleet.addresses fleet)
    with
    | Ok r -> r
    | Error m ->
      Sorl_serve.Fleet.stop fleet;
      failwith m
  in
  let router_addr = Sorl_serve.Router.address router in
  let gname =
    match Sorl_serve.Model_store.publish store ~base:"default" candidate with
    | Ok (n, _) -> n
    | Error (Sorl_serve.Model_store.Generation_exists n) ->
      failwith ("generation already published: " ^ n)
    | Error (Sorl_serve.Model_store.Publish_failed m) -> failwith m
  in
  let router_acked =
    match Sorl_serve.Client.connect ~retry_for_s:5. router_addr with
    | Error m -> failwith m
    | Ok c ->
      let ob = Sorl_serve.Client.Observer.create ~batch:256 c in
      List.iter
        (fun { Sorl_learn.Obs_log.benchmark; tuning; cost } ->
          ignore (Sorl_serve.Client.Observer.send ob ~benchmark ~tuning ~cost))
        obs;
      ignore (Sorl_serve.Client.Observer.close ob);
      let n = Sorl_serve.Client.Observer.acked ob in
      Sorl_serve.Client.close c;
      n
  in
  let expected_rank tuner benchmark =
    let inst = Benchmarks.instance_by_name benchmark in
    let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
    let ranked = Sorl.Autotuner.rank tuner inst set in
    Sorl_serve.Protocol.encode_response
      (Sorl_serve.Protocol.Ranked
         {
           benchmark;
           total = Array.length ranked;
           tunings = Array.to_list (Array.sub ranked 0 3);
           approx = false;
         })
  in
  let id_bench = List.hd benchmarks in
  let stable_bytes = expected_rank stable id_bench in
  let candidate_bytes = expected_rank candidate id_bench in
  let id_line = Printf.sprintf "sorl1 rank %s 3" id_bench in
  let raw_connect address =
    match address with
    | Sorl_serve.Protocol.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | _ -> assert false
  in
  let ask_once line =
    let fd, ic, oc = raw_connect router_addr in
    output_string oc (line ^ "\n");
    flush oc;
    let reply = input_line ic in
    close_out_noerr oc;
    ignore fd;
    reply
  in
  let torn = Atomic.make 0 in
  let leaked = Atomic.make 0 in
  let load_replies = Atomic.make 0 in
  let stop = Atomic.make false in
  (* 0 while only the stable model may serve; 2 once the promote is in
     flight.  Loaders read it after each reply arrives, so a candidate
     reply seen at phase < 2 is a leak through the shadow path, not a
     racing promote. *)
  let promote_phase = Atomic.make 0 in
  let loaders =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let fd, ic, oc = raw_connect router_addr in
            while not (Atomic.get stop) do
              output_string oc (id_line ^ "\n");
              flush oc;
              let reply = input_line ic in
              Atomic.incr load_replies;
              if String.equal reply stable_bytes then ()
              else if String.equal reply candidate_bytes then begin
                if Atomic.get promote_phase < 2 then Atomic.incr leaked
              end
              else Atomic.incr torn
            done;
            close_out_noerr oc;
            ignore fd))
  in
  Unix.sleepf 0.05;
  let canary_ok =
    match
      Sorl_serve.Client.with_connection router_addr (fun c ->
          Sorl_serve.Client.canary c ~model:gname)
    with
    | Ok _ -> true
    | Error m ->
      Printf.printf "WARNING: canary failed: %s\n" m;
      false
  in
  (* Guaranteed shadow traffic: every rank while a canary is loaded
     compares the stable and candidate rankings' prefixes before its
     reply is written. *)
  (match Sorl_serve.Client.connect ~retry_for_s:5. router_addr with
  | Error _ -> ()
  | Ok c ->
    List.iter
      (fun b -> ignore (Sorl_serve.Client.rank c ~benchmark:b ~top:3))
      benchmarks;
    Sorl_serve.Client.close c);
  Unix.sleepf 0.1;
  Atomic.set promote_phase 2;
  let promoted =
    match Sorl_serve.Client.with_connection router_addr Sorl_serve.Client.promote with
    | Ok (m2, _) -> String.equal m2 gname
    | Error m ->
      Printf.printf "WARNING: promote failed: %s\n" m;
      false
  in
  Atomic.set stop true;
  List.iter Domain.join loaders;
  let post_ok = String.equal (ask_once id_line) candidate_bytes in
  (* ---- rollback: a deliberately degraded generation (negated
     weights, so its held-out tau is exactly negated) must be rejected
     at promote and quarantined ---- *)
  let degraded =
    Sorl.Autotuner.of_model ~mode
      (Sorl_svmrank.Model.create
         (Array.map (fun x -> -.x) (Sorl.Autotuner.weights candidate)))
  in
  let dname =
    match Sorl_serve.Model_store.publish store ~base:"default" degraded with
    | Ok (n, _) -> n
    | Error _ -> failwith "publishing the degraded generation failed"
  in
  let rollback_ok =
    match
      Sorl_serve.Client.with_connection router_addr (fun c ->
          match Sorl_serve.Client.canary c ~model:dname with
          | Error m -> Error ("canary of degraded generation failed: " ^ m)
          | Ok _ ->
            List.iter
              (fun b -> ignore (Sorl_serve.Client.rank c ~benchmark:b ~top:3))
              benchmarks;
            (match Sorl_serve.Client.promote c with
            | Ok _ -> Error "degraded candidate was promoted"
            | Error m when String.starts_with ~prefix:"canary-rejected" m -> Ok ()
            | Error m -> Error ("unexpected promote failure: " ^ m)))
    with
    | Ok () -> true
    | Error m ->
      Printf.printf "WARNING: %s\n" m;
      false
  in
  let still_candidate = String.equal (ask_once id_line) candidate_bytes in
  let stat_kvs =
    match Sorl_serve.Client.with_connection router_addr Sorl_serve.Client.stats with
    | Ok kvs -> kvs
    | Error _ -> []
  in
  let stat k = Option.value ~default:(-1) (List.assoc_opt k stat_kvs) in
  let router_errors = stat "router.errors" in
  ignore (Sorl_serve.Client.with_connection router_addr Sorl_serve.Client.shutdown);
  Sorl_serve.Router.wait router;
  Sorl_serve.Fleet.stop fleet;
  Printf.printf
    "canary cycle: %d load replies, %d torn, %d leaked; canary %b, promote %b, \
     post-promote candidate %b\n"
    (Atomic.get load_replies) (Atomic.get torn) (Atomic.get leaked) canary_ok promoted
    post_ok;
  Printf.printf
    "rollback: degraded generation rejected %b, still serving candidate %b; stats: \
     shadowed %d, promotions %d, rollbacks %d, quarantined %d, router errors %d\n"
    rollback_ok still_candidate (stat "canary_shadowed") (stat "canary_promotions")
    (stat "canary_rollbacks") (stat "canary_quarantined") router_errors;
  (* ---- retrain scaling: the same observation stream re-observed
     [s] times grows the log s-fold while the unique configuration set
     stays fixed (the cost model is deterministic per (benchmark,
     tuning), exactly like production traffic replayed against a
     measurement cache).  The cold path replays, re-encodes and
     re-pairs every duplicate; the incremental pipeline — compaction
     deduplicating the log, sidecars serving sealed segments, the
     shrinking solver — keeps the retrain proportional to unique
     records plus the tail.  Exactness is gated against a cold
     full-replay of the {e same} compacted log, where the incremental
     data path is bit-identical by construction; the tau drift of
     aggregation itself (mean cost replacing duplicate draws) is
     reported alongside. ---- *)
  let scale_per = 150 in
  let scale_base =
    let noisy = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:11 machine in
    let rng = Sorl_util.Rng.create 424243 in
    List.concat_map
      (fun inst ->
        let benchmark = Instance.name inst in
        let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
        List.init scale_per (fun _ ->
            let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
            let cost = Sorl_machine.Measure.runtime noisy inst tuning in
            { Sorl_learn.Obs_log.benchmark; tuning; cost }))
      Benchmarks.instances
  in
  let scale_solver = dcd scratch_passes in
  let num_pairs obs =
    let train, _ = Sorl_learn.Trainer.split obs in
    match Sorl_learn.Trainer.dataset ~mode train with
    | Ok ds -> Sorl_svmrank.Dataset.num_possible_pairs ds
    | Error _ -> 0
  in
  let scale_row s =
    let sdir = Filename.concat dir (Printf.sprintf "scale%d.obs" s) in
    let w =
      match Sorl_learn.Obs_log.create ~roll_at:1024 sdir with
      | Ok w -> w
      | Error m -> failwith m
    in
    for _ = 1 to s do
      List.iter (Sorl_learn.Obs_log.append w) scale_base
    done;
    Sorl_learn.Obs_log.seal w;
    Sorl_learn.Obs_log.close w;
    (* cold baseline: replay, re-encode and refit over every record *)
    let (cold_tuner, cold_held, records), cold_s =
      Sorl_util.Timer.time (fun () ->
          let obs, _ =
            match Sorl_learn.Obs_log.replay sdir with Ok r -> r | Error m -> failwith m
          in
          let train, held = Sorl_learn.Trainer.split obs in
          match Sorl_learn.Trainer.retrain ~solver:scale_solver ~mode train with
          | Ok t -> (t, held, List.length obs)
          | Error m -> failwith m)
    in
    let pairs_before =
      let obs, _ =
        match Sorl_learn.Obs_log.replay sdir with Ok r -> r | Error m -> failwith m
      in
      num_pairs obs
    in
    let cstats, compact_s =
      Sorl_util.Timer.time (fun () ->
          match Sorl_learn.Obs_log.compact sdir with
          | Ok st -> st
          | Error m -> failwith m)
    in
    let compacted_obs, _ =
      match Sorl_learn.Obs_log.replay sdir with Ok r -> r | Error m -> failwith m
    in
    let pairs_after = num_pairs compacted_obs in
    let inc () =
      match Sorl_learn.Trainer.retrain_incremental ~solver:scale_solver ~mode sdir with
      | Ok i -> i
      | Error m -> failwith m
    in
    (* first run builds the compacted segment's sidecar; the timed run
       is the steady state every later cycle of the loop pays *)
    ignore (inc ());
    let i, inc_s = Sorl_util.Timer.time inc in
    (* exactness: a cold full replay of the same compacted log must
       land on the same model *)
    let replay_tuner =
      let train, _ = Sorl_learn.Trainer.split compacted_obs in
      match Sorl_learn.Trainer.retrain ~solver:scale_solver ~mode train with
      | Ok t -> t
      | Error m -> failwith m
    in
    let tau_on held t =
      match Sorl_learn.Trainer.holdout_tau t held with Some x -> x | None -> nan
    in
    let tau_cold = tau_on cold_held cold_tuner in
    let tau_inc = tau_on i.Sorl_learn.Trainer.held i.Sorl_learn.Trainer.tuner in
    let dtau_replay =
      Float.abs (tau_inc -. tau_on i.Sorl_learn.Trainer.held replay_tuner)
    in
    let st = i.Sorl_learn.Trainer.stats in
    Printf.printf
      "scale %2dx: %6d records -> %5d compacted (%d segs), pairs %d -> %d | cold %s, \
       compact %s, incremental %s (%.1fx) | tau cold %+.4f inc %+.4f (replay drift \
       %.1e) | encoded %d, cached %d, segments reused %d/%d\n"
      s records cstats.Sorl_learn.Obs_log.records_after
      cstats.Sorl_learn.Obs_log.segments_before pairs_before pairs_after
      (Table.fmt_time cold_s) (Table.fmt_time compact_s) (Table.fmt_time inc_s)
      (cold_s /. inc_s) tau_cold tau_inc dtau_replay
      st.Sorl_learn.Trainer.records_encoded st.Sorl_learn.Trainer.records_cached
      st.Sorl_learn.Trainer.segments_reused st.Sorl_learn.Trainer.segments_total;
    ( s,
      records,
      cstats.Sorl_learn.Obs_log.records_after,
      pairs_before,
      pairs_after,
      cold_s,
      compact_s,
      inc_s,
      tau_cold,
      tau_inc,
      dtau_replay,
      st )
  in
  let scaling = List.map scale_row [ 1; 3; 10 ] in
  let ( top_s,
        top_records,
        top_after,
        top_pairs_before,
        top_pairs_after,
        top_cold_s,
        _,
        top_inc_s,
        _,
        _,
        top_dtau,
        _ ) =
    List.nth scaling (List.length scaling - 1)
  in
  let top_speedup = top_cold_s /. top_inc_s in
  let scaling_json =
    String.concat ",\n"
      (List.map
         (fun (s, rec_, after, pb, pa, cold_s, compact_s, inc_s, tc, ti, dt, st) ->
           Printf.sprintf
             "      { \"scale\": %d, \"records\": %d, \"compacted\": %d, \
              \"pairs_before\": %d, \"pairs_after\": %d, \"cold_s\": %.4f, \
              \"compact_s\": %.4f, \"incremental_s\": %.4f, \"speedup\": %.2f, \
              \"tau_cold\": %.4f, \"tau_incremental\": %.4f, \"dtau_vs_replay\": %.2e, \
              \"records_encoded\": %d, \"records_cached\": %d, \"segments_reused\": %d, \
              \"segments_total\": %d }"
             s rec_ after pb pa cold_s compact_s inc_s (cold_s /. inc_s) tc ti dt
             st.Sorl_learn.Trainer.records_encoded st.Sorl_learn.Trainer.records_cached
             st.Sorl_learn.Trainer.segments_reused st.Sorl_learn.Trainer.segments_total)
         scaling)
  in
  add_bench_sections
    [
      ( "online_learn",
        Printf.sprintf
          "{\n\
          \    \"observations\": %d,\n\
          \    \"holdout_tau\": { \"stable\": %.4f, \"scratch\": %.4f, \"warm\": %.4f },\n\
          \    \"retrain\": { \"scratch_passes\": %d, \"scratch_s\": %.3f, \
           \"warm_passes\": %d, \"warm_s\": %.3f, \"converged\": %b },\n\
          \    \"ingestion\": { \"sent\": %d, \"acked\": %d, \"rejected\": %d, \
           \"burst_obs_per_s\": %.0f, \"paced_obs_per_s\": %.0f, \
           \"rank_p50_quiet_s\": %.6f, \"rank_p50_during_s\": %.6f },\n\
          \    \"canary\": { \"load_replies\": %d, \"torn\": %d, \"leaked\": %d, \
           \"promoted\": %b, \"rolled_back\": %b, \"shadowed\": %d, \"promotions\": %d, \
           \"rollbacks\": %d, \"quarantined\": %d },\n\
          \    \"router_errors\": %d\n\
          \  }"
          n_obs stable_tau scratch_tau warm_tau scratch_passes scratch_s warm_passes
          warm_s converged obs_sent acked rejected burst_rate paced_rate p50_quiet
          p50_during
          (Atomic.get load_replies) (Atomic.get torn) (Atomic.get leaked) promoted
          rollback_ok (stat "canary_shadowed") (stat "canary_promotions")
          (stat "canary_rollbacks") (stat "canary_quarantined") router_errors );
      ( "retrain_scaling",
        Printf.sprintf
          "{\n\
          \    \"benchmarks\": %d,\n\
          \    \"base_records\": %d,\n\
          \    \"scales\": [\n\
           %s\n\
          \    ],\n\
          \    \"gates\": { \"at_scale\": %d, \"speedup\": %.2f, \"min_speedup\": 5.0, \
           \"dtau_vs_replay\": %.2e, \"max_dtau\": 1e-6, \"pairs_shrunk\": %b }\n\
          \  }"
          (List.length Benchmarks.instances)
          (List.length scale_base)
          scaling_json top_s top_speedup top_dtau
          (top_pairs_after < top_pairs_before) );
    ];
  let problems = ref [] in
  let flag cond msg = if cond then problems := msg :: !problems in
  flag (not converged)
    (Printf.sprintf
       "warm-start gate: tau %.6f at %d passes missed the scratch %.6f at %d passes"
       warm_tau warm_passes scratch_tau scratch_passes);
  flag (!rank_errors > 0) (Printf.sprintf "%d rank errors during ingestion" !rank_errors);
  flag (acked <> obs_sent || rejected > 0)
    (Printf.sprintf "ingestion acked %d/%d (%d rejected)" acked obs_sent rejected);
  flag (served_obs <> obs_sent)
    (Printf.sprintf "server counted %d observations, harness sent %d" served_obs obs_sent);
  flag (router_acked <> n_obs)
    (Printf.sprintf "router acked %d/%d observations" router_acked n_obs);
  flag (Atomic.get torn > 0)
    (Printf.sprintf "%d torn replies during the canary cycle" (Atomic.get torn));
  flag
    (Atomic.get leaked > 0)
    (Printf.sprintf "%d candidate replies leaked before the promote" (Atomic.get leaked));
  flag (not canary_ok) "canary fanout through the router failed";
  flag (not promoted) "rolling promote through the router failed";
  flag (not post_ok) "post-promote replies are not the candidate's bytes";
  flag (not rollback_ok) "degraded generation was not rolled back";
  flag (not still_candidate) "rollback changed the served bytes";
  flag (stat "canary_shadowed" < List.length benchmarks)
    (Printf.sprintf "only %d ranks were shadow-scored" (stat "canary_shadowed"));
  flag (stat "canary_promotions" <> 1)
    (Printf.sprintf "expected 1 promotion, stats count %d" (stat "canary_promotions"));
  flag (stat "canary_rollbacks" <> 1)
    (Printf.sprintf "expected 1 rollback, stats count %d" (stat "canary_rollbacks"));
  flag (stat "canary_quarantined" <> 1)
    (Printf.sprintf "expected 1 quarantined name, stats count %d"
       (stat "canary_quarantined"));
  (* The rejected promote is an err reply, which the router counts: the
     whole cycle must produce exactly that one deliberate error. *)
  flag (router_errors <> 1)
    (Printf.sprintf "router reported %d errors, expected exactly the deliberate rejection"
       router_errors);
  flag (burst_rate < 10_000.)
    (Printf.sprintf "ingestion gate: burst %.0f obs/s < 10000 obs/s pipelined" burst_rate);
  flag (paced_rate < 10_000.)
    (Printf.sprintf "ingestion gate: paced %.0f obs/s < 10000 obs/s sustained" paced_rate);
  flag (p50_degrade > 0.10)
    (Printf.sprintf "rank p50 degraded %.1f%% (> 10%%) under 10k obs/s ingestion"
       (100. *. p50_degrade));
  flag
    (top_speedup < 5.)
    (Printf.sprintf
       "retrain scaling gate: incremental %.3fs only %.1fx faster than cold %.3fs at \
        %dx history (%d records), need >= 5x"
       top_inc_s top_speedup top_cold_s top_s top_records);
  flag (top_dtau > 1e-6)
    (Printf.sprintf
       "retrain scaling gate: incremental tau drifts %.2e from full replay of the same \
        log (> 1e-6)"
       top_dtau);
  flag
    (top_pairs_after >= top_pairs_before)
    (Printf.sprintf
       "retrain scaling gate: compaction left pair count at %d (was %d) on a \
        duplicate-heavy log (%d records -> %d)"
       top_pairs_after top_pairs_before top_records top_after);
  match !problems with
  | [] -> print_endline "OK: online-learn gates passed"
  | ps ->
    if Sys.getenv_opt "CI" <> None then
      List.iter (fun p -> Printf.printf "WARNING: %s\n" p) ps
    else begin
      List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) ps;
      exit 1
    end

(* ---- learn-cycle kernels ---- *)

(* The CPU kernels of setup and of one learn cycle.  Serial (one pool
   domain): a serving snapshot build (compile + full-grid [rank_order]
   for every registered benchmark), its two halves (encoding the grids,
   sorting the scores), [Dataset.pairs] over a 17-query training slice
   at the serving cap of 500 pairs per query, and the default-spec fit
   split into packing its pair differences into CSR and the Pegasos
   solve.  Then the server's own snapshot build at pool size 2.  Each
   figure is the median of [reps] timed runs after one warm-up.  The
   digest lines cover every ranking, the sampled pair set, the fitted
   weights' bits and the 2-domain snapshot, so two builds of this
   harness, or two pool sizes, can be checked for identical outputs by
   diffing them. *)
let learn_kernels () =
  header "Learn-cycle kernels (median of 9 runs, 5 for the fit; serial unless stated)";
  let median_s ?(reps = 9) f =
    ignore (Sys.opaque_identity (f ()));
    let ts =
      Array.init reps (fun _ ->
          Sorl_util.Timer.time_unit (fun () -> ignore (Sys.opaque_identity (f ()))))
    in
    Stats.median ts
  in
  let spec = Sorl.Training.default_spec in
  let fit_ds = Sorl.Training.generate ~spec measure in
  let tuner = Sorl.Autotuner.train_on ~mode:spec.Sorl.Training.mode fit_ds in
  let model = Sorl.Autotuner.model tuner in
  let mode = Sorl.Autotuner.feature_mode tuner in
  let insts = Array.of_list Benchmarks.instances in
  let grids =
    Array.map (fun i -> Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel i))) insts
  in
  let encs = Array.map (Features.compile mode) insts in
  let candidates = Array.fold_left (fun n g -> n + Array.length g) 0 grids in
  let build () =
    Array.mapi (fun b inst -> Sorl.Autotuner.rank_order tuner (Features.compile mode inst) grids.(b)) insts
  in
  let encode () =
    Array.iteri
      (fun b g ->
        let enc = encs.(b) in
        let m = Features.max_nnz enc in
        let idx = Array.make m 0 and v = Array.make m 0. in
        Array.iter (fun tn -> ignore (Features.encode_into enc tn idx v)) g)
      grids
  in
  let scores =
    Array.mapi
      (fun b g ->
        let enc = encs.(b) in
        let m = Features.max_nnz enc in
        let idx = Array.make m 0 and v = Array.make m 0. in
        let score = Sorl_svmrank.Model.range_scorer model in
        Array.map (fun tn -> score idx v 0 (Features.encode_into enc tn idx v)) g)
      grids
  in
  let sort () = Array.map Sorl_svmrank.Model.sort_by_score scores in
  (* 290 grid points per benchmark, costed by the machine model: the
     size of one training slice in a serving learn cycle. *)
  let rng = Sorl_util.Rng.create 11 in
  let ms =
    List.concat
      (List.mapi
         (fun b inst ->
           List.init 290 (fun _ ->
               let tn = Sorl_util.Rng.choose rng grids.(b) in
               (inst, tn, Sorl_machine.Cost_model.runtime_of machine inst tn)))
         Benchmarks.instances)
  in
  let ds = Sorl.Training.of_measurements ~mode ms in
  let pairs () =
    Sorl_svmrank.Dataset.pairs ~max_per_query:500 ~rng:(Sorl_util.Rng.create 3) ds
  in
  (* The default solver's pairs for the default spec, drawn as
     [Solver_sgd.train] draws them. *)
  let sgd = Sorl_svmrank.Solver_sgd.default_params in
  let fit_pairs =
    Sorl_svmrank.Dataset.pairs ?max_per_query:sgd.max_pairs_per_query
      ~rng:(Sorl_util.Rng.create (sgd.seed + 7919))
      fit_ds
  in
  let pack () = Sorl_svmrank.Solver_common.pair_csr fit_ds fit_pairs in
  let zc = pack () in
  let solve () = Sorl_svmrank.Solver_sgd.train_on_csr ~params:sgd zc in
  let snapshot = Sorl_serve.Server.build_rankings () in
  let hex_of_bytes bs =
    let b = Buffer.create (2 * candidates) in
    Array.iter (Buffer.add_bytes b) bs;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let packed orders =
    Array.map
      (fun o ->
        let p = Bytes.create (2 * Array.length o) in
        Array.iteri (fun j x -> Bytes.set_uint16_le p (2 * j) x) o;
        p)
      orders
  in
  let build_s, encode_s, sort_s, pairs_s, pack_s, solve_s, digest, fit_digest, serial_rankings =
    Sorl_util.Pool.with_domains 1 (fun () ->
        let build_s = median_s build in
        let encode_s = median_s encode in
        let sort_s = median_s sort in
        let pairs_s = median_s pairs in
        let pack_s = median_s ~reps:5 pack in
        let solve_s = median_s ~reps:5 solve in
        let orders = build () in
        let digest =
          let b = Buffer.create (4 * candidates) in
          Array.iter (Array.iter (fun i -> Buffer.add_string b (string_of_int i ^ ","))) orders;
          Array.iter (fun (i, j) -> Buffer.add_string b (Printf.sprintf "%d:%d," i j)) (pairs ());
          Digest.to_hex (Digest.string (Buffer.contents b))
        in
        let w = Sorl_svmrank.Model.weights (solve ()) in
        if w <> Sorl.Autotuner.weights tuner then begin
          prerr_endline "FAIL: the timed solve's weights differ from Autotuner.train_on's";
          exit 1
        end;
        let b = Buffer.create (8 * Array.length w) in
        Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) w;
        ( build_s, encode_s, sort_s, pairs_s, pack_s, solve_s, digest,
          Digest.to_hex (Digest.string (Buffer.contents b)),
          hex_of_bytes (packed orders) ))
  in
  let snapshot_s, snapshot_digest =
    Sorl_util.Pool.with_domains 2 (fun () ->
        (median_s (fun () -> snapshot tuner), hex_of_bytes (snapshot tuner)))
  in
  if snapshot_digest <> serial_rankings then begin
    prerr_endline "FAIL: the 2-domain snapshot differs from the serial rankings";
    exit 1
  end;
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "kernel"; "median" ] in
  Table.add_row t
    [ Printf.sprintf "snapshot build (%d benchmarks, %d candidates)" (Array.length insts) candidates;
      Printf.sprintf "%.1f ms" (build_s *. 1e3) ];
  Table.add_row t
    [ "encode (compiled, all grids)";
      Printf.sprintf "%.1f ms (%.0f ns/candidate)" (encode_s *. 1e3)
        (encode_s /. float_of_int candidates *. 1e9) ];
  Table.add_row t [ "sort_by_score (all grids)"; Printf.sprintf "%.1f ms" (sort_s *. 1e3) ];
  Table.add_row t
    [ Printf.sprintf "Dataset.pairs (%d samples, cap 500)" (Sorl_svmrank.Dataset.num_samples ds);
      Printf.sprintf "%.1f ms" (pairs_s *. 1e3) ];
  Table.add_row t
    [ Printf.sprintf "default fit: pair differences -> CSR (%d pairs, %d nnz)"
        (Array.length fit_pairs) (Sorl_util.Sparse.Csr.nnz zc);
      Printf.sprintf "%.1f ms" (pack_s *. 1e3) ];
  Table.add_row t
    [ Printf.sprintf "default fit: Pegasos solve (%d epochs, batch %d)" sgd.epochs sgd.batch;
      Printf.sprintf "%.1f ms" (solve_s *. 1e3) ];
  Table.add_row t
    [ "Server snapshot build, pool size 2"; Printf.sprintf "%.1f ms" (snapshot_s *. 1e3) ];
  Table.print t;
  Printf.printf "outputs digest (rankings + pairs): %s\n" digest;
  Printf.printf "default fit weights digest: %s\n" fit_digest;
  Printf.printf "snapshot digest (pool size 2): %s\n" snapshot_digest

(* ---- driver ---- *)

let experiments =
  [
    ("table3", table3);
    ("table2", table2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("ablation", ablation);
    ("baselines", baselines);
    ("extensions", extensions);
    ("stability", stability);
    ("csv", csv);
    ("perf", perf);
    ("rank-throughput", rank_throughput);
    ("serve-throughput", serve_throughput);
    ("fleet-throughput", fleet_throughput);
    ("micro", micro);
    ("learn-kernels", learn_kernels);
    ("telemetry-overhead", telemetry_overhead);
    ("online-learn", online_learn);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let trace_out =
    List.find_map
      (fun a ->
        if String.starts_with ~prefix:"--trace-out=" a then
          Some (String.sub a 12 (String.length a - 12))
        else None)
      args
  in
  let trace = List.mem "--trace" args || trace_out <> None in
  let args =
    List.filter
      (fun a -> a <> "--trace" && not (String.starts_with ~prefix:"--trace-out=" a))
      args
  in
  if trace then begin
    Sorl_util.Telemetry.set_enabled true;
    Sorl_util.Telemetry.reset ()
  end;
  let requested = match args with [] -> List.map fst experiments | l -> l in
  Printf.printf "substrate: %s\n" (Sorl_machine.Measure.descr measure);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S (available: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  (* Wall time goes to stderr: stdout depends only on code and seed. *)
  Printf.eprintf "total bench wall time: %s\n"
    (Table.fmt_time (Unix.gettimeofday () -. t0));
  if trace then begin
    print_newline ();
    print_string (Sorl_util.Telemetry.summary ());
    Option.iter
      (fun path ->
        Sorl_util.Telemetry.write_chrome_json path;
        Printf.printf "trace written to %s\n" path)
      trace_out
  end
