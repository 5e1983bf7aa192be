(* Tests for the machine substrate: description validation, analytic
   cost model structure, cache simulator and the measurement
   interface. *)

open Sorl_stencil
open Sorl_machine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let m = Machine_desc.xeon_e5_2680_v3

let inst3 = Benchmarks.instance_by_name "gradient-256x256x256"

let rt t = Cost_model.runtime_of m inst3 t

(* ---- Machine_desc ---- *)

let test_desc_validate () =
  checkb "xeon valid" true (Machine_desc.validate m = Ok ());
  checkb "laptop valid" true (Machine_desc.validate Machine_desc.laptop_quad = Ok ());
  let bad = { m with Machine_desc.cores = 0 } in
  checkb "bad rejected" true (Result.is_error (Machine_desc.validate bad));
  let unordered = { m with Machine_desc.l1_bytes = m.Machine_desc.l3_bytes * 2 } in
  checkb "unordered caches rejected" true (Result.is_error (Machine_desc.validate unordered))

let test_desc_simd () =
  checki "8 float lanes" 8 (Machine_desc.simd_lanes m ~bytes_per_elt:4);
  checki "4 double lanes" 4 (Machine_desc.simd_lanes m ~bytes_per_elt:8);
  (* 12 cores * 2.5e9 * 2 FMA * 4 lanes * 2 flops = 480 GF/s double *)
  Alcotest.check (Alcotest.float 1.) "dp peak" 480e9 (Machine_desc.peak_flops m ~bytes_per_elt:8)

(* ---- Cost model structure ---- *)

let test_runtime_positive_finite () =
  let rng = Sorl_util.Rng.create 2 in
  for _ = 1 to 200 do
    let t = Tuning.random rng ~dims:3 in
    let r = rt t in
    checkb "positive" true (r > 0.);
    checkb "finite" true (Float.is_finite r)
  done

let test_ilp_curve () =
  checkb "unrolling helps vs none" true
    (Cost_model.ilp_efficiency 4 > Cost_model.ilp_efficiency 0);
  checkb "sweet spot before 8" true
    (Cost_model.ilp_efficiency 8 < Cost_model.ilp_efficiency 6);
  Alcotest.check_raises "range check"
    (Invalid_argument "Cost_model.ilp_efficiency: u outside 0..8") (fun () ->
      ignore (Cost_model.ilp_efficiency 9));
  for u = 0 to 8 do
    let e = Cost_model.ilp_efficiency u in
    checkb "in (0,1]" true (e > 0. && e <= 1.)
  done

let test_simd_starved_inner_block_slow () =
  (* bx = 2 uses 2 of 4 double lanes; bx = 64 uses all. *)
  let narrow = rt (Tuning.create ~bx:2 ~by:64 ~bz:8 ~u:4 ~c:4) in
  let wide = rt (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4) in
  checkb "narrow x slower" true (narrow > wide)

let test_reuse_level_classification () =
  let level inst t =
    (Cost_model.analyze m (Sorl_codegen.Variant.compile inst t)).Cost_model.reuse_level
  in
  checkb "small tile fits L1" true
    (level inst3 (Tuning.create ~bx:16 ~by:8 ~bz:8 ~u:1 ~c:1) = `L1);
  (* laplacian6 has radius 3 (7 live planes); full x/y tiles on a 256^3
     double grid with 32 z-tiles sharing the L3 across 12 threads spill
     even the shared cache. *)
  let deep = Benchmarks.instance_by_name "laplacian6-256x256x256" in
  checkb "deep wide tile spills" true
    (level deep (Tuning.create ~bx:1024 ~by:1024 ~bz:8 ~u:1 ~c:1) = `Dram)

let test_spilled_tile_slower () =
  let good = rt (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4) in
  let spilled = rt (Tuning.create ~bx:1024 ~by:1024 ~bz:1024 ~u:4 ~c:1) in
  checkb "cache spill costs" true (spilled > 1.5 *. good)

let test_tiny_tiles_halo_overhead () =
  let tiny = rt (Tuning.create ~bx:2 ~by:2 ~bz:2 ~u:1 ~c:4) in
  let good = rt (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:1 ~c:4) in
  checkb "tiny tiles slower" true (tiny > 2. *. good)

let test_threading_imbalance () =
  (* One giant chunk serializes the machine. *)
  let b = Cost_model.analyze m (Sorl_codegen.Variant.compile inst3
            (Tuning.create ~bx:64 ~by:64 ~bz:64 ~u:4 ~c:256)) in
  checkb "serialized" true (b.Cost_model.imbalance > 2. || b.Cost_model.threads < 12);
  let balanced = Cost_model.analyze m (Sorl_codegen.Variant.compile inst3
                   (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4)) in
  checkb "balanced near 1" true (balanced.Cost_model.imbalance < 1.2);
  checki "all cores used" 12 balanced.Cost_model.threads

let test_breakdown_consistency () =
  let b = Cost_model.analyze m (Sorl_codegen.Variant.compile inst3
            (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4)) in
  checkb "components positive" true
    (b.Cost_model.compute_s > 0. && b.Cost_model.memory_s > 0. && b.Cost_model.overhead_s > 0.);
  let r = Cost_model.runtime m (Sorl_codegen.Variant.compile inst3
            (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4)) in
  checkb "runtime >= max component" true
    (r >= Float.max b.Cost_model.compute_s b.Cost_model.memory_s)

let test_more_taps_cost_more () =
  let t = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  let i7 = Benchmarks.instance_by_name "laplacian-128x128x128" in
  let i19 = Benchmarks.instance_by_name "laplacian6-128x128x128" in
  checkb "19-point slower than 7-point" true
    (Cost_model.runtime_of m i19 t > Cost_model.runtime_of m i7 t)

let test_gflops_sanity () =
  let g = Cost_model.gflops m inst3 (Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4) in
  checkb "below machine peak" true (g < 480.);
  checkb "above 1 GF/s" true (g > 1.)

(* ---- Cache simulator ---- *)

let test_cache_basics () =
  let c = Cache_sim.create_cache ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  checkb "cold miss" false (Cache_sim.access c 0);
  checkb "hit same line" true (Cache_sim.access c 32);
  checkb "other set" false (Cache_sim.access c 64);
  let hits, misses = Cache_sim.cache_stats c in
  checki "hits" 1 hits;
  checki "misses" 2 misses

let test_cache_lru_eviction () =
  (* 2-way, 8 sets of 64B lines: addresses 0, 1024, 2048 map to set 0. *)
  let c = Cache_sim.create_cache ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  ignore (Cache_sim.access c 0);
  ignore (Cache_sim.access c 1024);
  checkb "both resident" true (Cache_sim.access c 0);
  ignore (Cache_sim.access c 2048); (* evicts LRU = 1024 *)
  checkb "MRU survived" true (Cache_sim.access c 0);
  checkb "victim evicted" false (Cache_sim.access c 1024)

let test_cache_validation () =
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Cache_sim.create_cache: capacity not divisible by assoc*line")
    (fun () -> ignore (Cache_sim.create_cache ~size_bytes:1000 ~assoc:3 ~line_bytes:64))

let test_hierarchy_counts () =
  let h = Cache_sim.create m () in
  Cache_sim.touch h 0;
  Cache_sim.touch h 0;
  let s = Cache_sim.stats h in
  checki "levels" 3 (Array.length s);
  checki "L1 accesses" 2 s.(0).Cache_sim.accesses;
  checki "L1 misses" 1 s.(0).Cache_sim.misses;
  checki "L2 sees only the miss" 1 s.(1).Cache_sim.accesses

let test_hierarchy_agrees_with_model_reuse () =
  (* On a small instance, an L1-resident schedule must show much lower
     L1 miss ratio than a spilling schedule. *)
  let inst = Instance.create_xyz Benchmarks.laplacian ~sx:48 ~sy:48 ~sz:48 in
  let run t =
    let h = Cache_sim.create m () in
    Cache_sim.run_variant h (Sorl_codegen.Variant.compile inst t);
    Cache_sim.miss_ratio (Cache_sim.stats h).(0)
  in
  let fitting = run (Tuning.create ~bx:16 ~by:8 ~bz:8 ~u:1 ~c:1) in
  let spilling = run (Tuning.create ~bx:1024 ~by:1024 ~bz:1024 ~u:1 ~c:1) in
  checkb "fitting schedule mostly hits" true (fitting < 0.2);
  checkb "spilling misses more" true (spilling > 1.5 *. fitting)

(* ---- Measure ---- *)

let test_measure_model_deterministic () =
  let a = Measure.model ~seed:1 m in
  let b = Measure.model ~seed:1 m in
  let t = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  Alcotest.check (Alcotest.float 0.) "same measurement"
    (Measure.runtime a inst3 t) (Measure.runtime b inst3 t)

let test_measure_noise_bounded_and_order_independent () =
  let noiseless = Measure.model ~noise_amplitude:0. m in
  let noisy = Measure.model ~noise_amplitude:0.05 ~seed:3 m in
  let t1 = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  let t2 = Tuning.create ~bx:16 ~by:16 ~bz:16 ~u:2 ~c:2 in
  let base1 = Measure.runtime noiseless inst3 t1 in
  let n1 = Measure.runtime noisy inst3 t1 in
  checkb "noise within 5%" true (Float.abs (n1 -. base1) /. base1 <= 0.05 +. 1e-12);
  (* measuring t2 first must not change t1's value *)
  let noisy2 = Measure.model ~noise_amplitude:0.05 ~seed:3 m in
  ignore (Measure.runtime noisy2 inst3 t2);
  Alcotest.check (Alcotest.float 0.) "order independent" n1 (Measure.runtime noisy2 inst3 t1)

let test_measure_counts_evaluations () =
  let ms = Measure.model m in
  checki "fresh" 0 (Measure.evaluations ms);
  let t = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  ignore (Measure.runtime ms inst3 t);
  ignore (Measure.gflops ms inst3 t);
  checki "two evals" 2 (Measure.evaluations ms);
  Measure.reset_evaluations ms;
  checki "reset" 0 (Measure.evaluations ms)

let test_measure_wallclock () =
  (* Slow path: tiny instance only. *)
  let ms = Measure.wallclock ~repeats:1 () in
  let inst = Instance.create_xyz Benchmarks.edge ~sx:24 ~sy:24 ~sz:1 in
  let r = Measure.runtime ms inst (Tuning.create ~bx:8 ~by:8 ~bz:1 ~u:2 ~c:2) in
  checkb "positive wallclock" true (r > 0.)

let test_measure_validation () =
  Alcotest.check_raises "negative noise"
    (Invalid_argument "Measure.model: negative noise amplitude") (fun () ->
      ignore (Measure.model ~noise_amplitude:(-0.1) m));
  Alcotest.check_raises "repeats" (Invalid_argument "Measure.wallclock: repeats must be >= 1")
    (fun () -> ignore (Measure.wallclock ~repeats:0 ()))

(* ---- runtime_of without a compiled variant ---- *)

(* 600 seeded random tunings spread over every training shape. *)
let sampled_tunings =
  lazy
    (let rng = Sorl_util.Rng.create 29 in
     let insts = Array.of_list Training_shapes.instances in
     List.init 600 (fun i ->
         let inst = insts.(i mod Array.length insts) in
         (inst, Tuning.random rng ~dims:(Kernel.dims (Instance.kernel inst)))))

let both_machines =
  [ ("xeon", Machine_desc.xeon_e5_2680_v3); ("laptop", Machine_desc.laptop_quad) ]

(* [runtime_of] prices the schedule alone; it must equal the price of
   the fully compiled variant bit for bit. *)
let test_runtime_of_matches_compiled () =
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (inst, t) ->
          let direct = Cost_model.runtime_of m inst t in
          let compiled = Cost_model.runtime m (Sorl_codegen.Variant.compile inst t) in
          if Int64.bits_of_float direct <> Int64.bits_of_float compiled then
            Alcotest.failf "%s %s@%s: runtime_of %h <> runtime %h" name (Instance.name inst)
              (Tuning.to_string t) direct compiled)
        (Lazy.force sampled_tunings))
    both_machines

(* Every breakdown field and [runtime_of] over the sampled tunings,
   digested bit for bit; the pinned digests were computed before
   [runtime_of] stopped compiling the variant, so any change to a
   priced bit fails here. *)
let test_analyze_pinned () =
  let digest m =
    let b = Buffer.create 65536 in
    let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
    List.iter
      (fun (inst, t) ->
        let r = Cost_model.analyze m (Sorl_codegen.Variant.compile inst t) in
        add r.Cost_model.compute_s;
        add r.Cost_model.memory_s;
        add r.Cost_model.overhead_s;
        add r.Cost_model.imbalance;
        Buffer.add_int64_le b (Int64.of_int r.Cost_model.threads);
        add r.Cost_model.dram_bytes_per_point;
        Buffer.add_char b
          (match r.Cost_model.reuse_level with `L1 -> '1' | `L2 -> '2' | `L3 -> '3' | `Dram -> 'D');
        add (Cost_model.runtime_of m inst t))
      (Lazy.force sampled_tunings);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let pinned =
    [ ("xeon", "1a4542aae02d7c08fbb7d00e19c448c9"); ("laptop", "518ea63f9db76a17c96d21facc0cd1a6") ]
  in
  List.iter
    (fun (name, m) ->
      Alcotest.(check string) (name ^ " breakdown digest") (List.assoc name pinned) (digest m))
    both_machines

let suite =
  [
    Alcotest.test_case "desc validation" `Quick test_desc_validate;
    Alcotest.test_case "desc simd/peak" `Quick test_desc_simd;
    Alcotest.test_case "runtime positive/finite" `Quick test_runtime_positive_finite;
    Alcotest.test_case "ilp curve" `Quick test_ilp_curve;
    Alcotest.test_case "simd-starved inner block" `Quick test_simd_starved_inner_block_slow;
    Alcotest.test_case "reuse-level classification" `Quick test_reuse_level_classification;
    Alcotest.test_case "cache spill slower" `Quick test_spilled_tile_slower;
    Alcotest.test_case "tiny-tile halo overhead" `Quick test_tiny_tiles_halo_overhead;
    Alcotest.test_case "threading imbalance" `Quick test_threading_imbalance;
    Alcotest.test_case "breakdown consistency" `Quick test_breakdown_consistency;
    Alcotest.test_case "taps monotonicity" `Quick test_more_taps_cost_more;
    Alcotest.test_case "gflops sanity" `Quick test_gflops_sanity;
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache validation" `Quick test_cache_validation;
    Alcotest.test_case "hierarchy counts" `Quick test_hierarchy_counts;
    Alcotest.test_case "hierarchy vs model reuse" `Slow test_hierarchy_agrees_with_model_reuse;
    Alcotest.test_case "measure deterministic" `Quick test_measure_model_deterministic;
    Alcotest.test_case "measure noise bounded" `Quick
      test_measure_noise_bounded_and_order_independent;
    Alcotest.test_case "measure counts" `Quick test_measure_counts_evaluations;
    Alcotest.test_case "measure wallclock" `Quick test_measure_wallclock;
    Alcotest.test_case "measure validation" `Quick test_measure_validation;
    Alcotest.test_case "runtime_of = runtime of compiled" `Quick
      test_runtime_of_matches_compiled;
    Alcotest.test_case "analyze digest pinned" `Quick test_analyze_pinned;
  ]
