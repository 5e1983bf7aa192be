open Sorl_stencil
open Sorl_codegen

type breakdown = {
  compute_s : float;
  memory_s : float;
  overhead_s : float;
  imbalance : float;
  threads : int;
  dram_bytes_per_point : float;
  reuse_level : [ `L1 | `L2 | `L3 | `Dram ];
}

(* Unroll-factor ILP efficiency: u = 0 and u = 1 both mean "not
   unrolled" (dependency-chain limited); the sweet spot sits around 4-6;
   beyond that register pressure erodes the gain. *)
let ilp_table = [| 0.50; 0.50; 0.72; 0.82; 0.90; 0.92; 0.93; 0.90; 0.86 |]

let ilp_efficiency u =
  if u < 0 || u > 8 then invalid_arg "Cost_model.ilp_efficiency: u outside 0..8";
  ilp_table.(u)

(* The model reads the instance, the schedule and the tuning's unroll
   factor only, never the variant's compute expression. *)
let analyze_schedule (m : Machine_desc.t) inst sched (tuning : Tuning.t) =
  let k = Instance.kernel inst in
  let s = Instance.size inst in
  let open Schedule in
  let bytes = Dtype.bytes (Kernel.dtype k) in
  let taps = Kernel.taps k in
  let nbufs = Kernel.num_buffers k in
  let points = float_of_int (Instance.points inst) in
  let fbytes = float_of_int bytes in

  (* ---- threading ---- *)
  let ntiles = num_tiles sched and nchunks = num_chunks sched in
  let threads = max 1 (min m.Machine_desc.cores nchunks) in
  (* Chunk-granularity imbalance: the busiest worker owns
     ceil(nchunks/threads) chunks of [chunk] tiles each (the final chunk
     may be partial, which the ceiling already over-approximates). *)
  let chunks_per_worker = (nchunks + threads - 1) / threads in
  let max_tiles = min ntiles (chunks_per_worker * sched.chunk) in
  let avg_tiles = float_of_int ntiles /. float_of_int threads in
  let imbalance = Float.max 1. (float_of_int max_tiles /. avg_tiles) in

  (* ---- compute ---- *)
  let lanes = Machine_desc.simd_lanes m ~bytes_per_elt:bytes in
  let flanes = float_of_int lanes in
  (* Lane utilization of the innermost extent: remainder lanes idle. *)
  let vec_eff =
    let bx = sched.bx in
    float_of_int bx /. (Float.of_int ((bx + lanes - 1) / lanes) *. flanes)
  in
  let u_eff = sched.unroll in
  let ilp = ilp_efficiency tuning.Tuning.u in
  (* Instruction-footprint penalty for very large unrolled bodies. *)
  let body_ops = u_eff * taps in
  let icache = if body_ops <= 128 then 1. else Float.min 1.5 (1. +. (0.002 *. float_of_int (body_ops - 128))) in
  let flops_pt = 2. *. float_of_int taps in
  let peak_flops_cycle = float_of_int (m.Machine_desc.fma_per_cycle * lanes * 2) in
  let loop_overhead_pt = 2.5 /. float_of_int u_eff /. flanes in
  let cycles_pt =
    (flops_pt /. (peak_flops_cycle *. vec_eff *. ilp) *. icache) +. loop_overhead_pt
  in
  let compute_s =
    points *. cycles_pt /. m.Machine_desc.freq_hz /. float_of_int threads
  in

  (* ---- memory ---- *)
  let radii = List.map Pattern.radius (Kernel.buffer_patterns k) in
  (* Halo-extended tile footprint per input buffer (capped by the grid). *)
  let ext b r = min (b + (2 * r)) in
  let tile_pts = sched.bx * sched.by * sched.bz in
  let ws_in_pts =
    List.fold_left
      (fun acc (rx, ry, rz) ->
        acc
        + (ext sched.bx rx s.Instance.sx * ext sched.by ry s.Instance.sy
           * ext sched.bz rz s.Instance.sz))
      0 radii
  in
  (* Streaming reuse set: the (2rz+1) halo-extended planes alive across
     the tile's z loop, plus an output row. *)
  let reuse_bytes =
    let planes =
      List.fold_left
        (fun acc (rx, ry, rz) ->
          acc
          + (ext sched.bx rx s.Instance.sx * ext sched.by ry s.Instance.sy
             * min ((2 * rz) + 1) s.Instance.sz))
        0 radii
    in
    fbytes *. float_of_int (planes + sched.bx)
  in
  let l3_share = float_of_int m.Machine_desc.l3_bytes /. float_of_int threads in
  let reuse_level =
    if reuse_bytes <= 0.8 *. float_of_int m.Machine_desc.l1_bytes then `L1
    else if reuse_bytes <= 0.8 *. float_of_int m.Machine_desc.l2_bytes then `L2
    else if reuse_bytes <= 0.8 *. l3_share then `L3
    else `Dram
  in
  (* Cross-tile halo redundancy: input points re-loaded by neighbouring
     tiles. *)
  let redundancy = float_of_int ws_in_pts /. float_of_int (tile_pts * nbufs) in
  (* Compulsory DRAM traffic: reads (inflated by halo redundancy) plus
     write-allocate + write-back of the output.  When even the L3 share
     cannot hold the reuse planes, reuse across the z loop is lost and
     each input plane streams from DRAM once per consuming z iteration. *)
  let read_multiplier =
    match reuse_level with
    | `L1 | `L2 | `L3 -> 1.
    | `Dram ->
      let max_rz = List.fold_left (fun acc (_, _, rz) -> max acc rz) 0 radii in
      float_of_int (min ((2 * max_rz) + 1) s.Instance.sz)
  in
  let dram_pt = fbytes *. ((float_of_int nbufs *. redundancy *. read_multiplier) +. 2.) in
  let dram_time = points *. dram_pt /. m.Machine_desc.dram_bw in
  (* Inner-level traffic: taps that miss L1 are served by L2 (or L3). *)
  let l2_pt =
    match reuse_level with
    | `L1 -> fbytes *. (float_of_int nbufs +. 2.) (* refills only *)
    | `L2 | `L3 | `Dram -> fbytes *. float_of_int taps
  in
  let l2_time =
    points *. l2_pt /. (m.Machine_desc.l2_bw_core *. float_of_int threads)
  in
  let l3_pt =
    match reuse_level with
    | `L1 | `L2 -> fbytes *. (float_of_int nbufs +. 2.)
    | `L3 | `Dram -> fbytes *. float_of_int taps
  in
  let l3_time = points *. l3_pt /. m.Machine_desc.l3_bw in
  let memory_s = Float.max dram_time (Float.max l2_time l3_time) in

  (* ---- overheads ---- *)
  let overhead_s =
    (float_of_int nchunks *. m.Machine_desc.chunk_dispatch_cycles
     /. m.Machine_desc.freq_hz /. float_of_int threads)
    +. m.Machine_desc.launch_overhead_s
  in
  {
    compute_s;
    memory_s;
    overhead_s;
    imbalance;
    threads;
    dram_bytes_per_point = dram_pt;
    reuse_level;
  }

let analyze m v = analyze_schedule m (Variant.instance v) (Variant.schedule v) (Variant.tuning v)
let total b = (Float.max b.compute_s b.memory_s *. b.imbalance) +. b.overhead_s
let runtime m v = total (analyze m v)

let temporal_runtime m v ~time_block =
  if time_block < 1 then invalid_arg "Cost_model.temporal_runtime: time_block must be >= 1";
  if time_block = 1 then runtime m v
  else begin
    let b = analyze m v in
    let inst = Variant.instance v in
    let k = Instance.kernel inst in
    let s = Instance.size inst in
    let sched = Variant.schedule v in
    let bytes = float_of_int (Dtype.bytes (Kernel.dtype k)) in
    let nbufs = float_of_int (Kernel.num_buffers k) in
    let f = Sorl_codegen.Temporal.footprints v ~time_block in
    let inflation =
      float_of_int f.Sorl_codegen.Temporal.computed_points
      /. float_of_int (f.Sorl_codegen.Temporal.tile_points * time_block)
    in
    (* Redundant halo compute inflates the compute-bound side. *)
    let compute_s = b.compute_s *. inflation in
    (* DRAM traffic amortizes: one extended read per buffer and one
       write-allocate+write-back per tile serve [time_block] steps. *)
    let dram_bytes_chunk =
      bytes
      *. ((nbufs *. float_of_int f.Sorl_codegen.Temporal.loaded_points)
         +. (2. *. float_of_int f.Sorl_codegen.Temporal.tile_points))
    in
    let dram_step = dram_bytes_chunk /. float_of_int time_block /. m.Machine_desc.dram_bw in
    (* The streaming reuse set grows with the extended halo; recompute
       the level decision on the enlarged extents. *)
    let radii = List.map Pattern.radius (Kernel.buffer_patterns k) in
    let reuse_bytes =
      let planes =
        List.fold_left
          (fun acc (rx, ry, rz) ->
            let ex = min (sched.Schedule.bx + (2 * rx * time_block)) s.Instance.sx in
            let ey = min (sched.Schedule.by + (2 * ry * time_block)) s.Instance.sy in
            acc + (ex * ey * min ((2 * rz) + 1) s.Instance.sz))
          0 radii
      in
      bytes *. float_of_int (planes + sched.Schedule.bx)
    in
    let threads = b.threads in
    let l3_share = float_of_int m.Machine_desc.l3_bytes /. float_of_int threads in
    let taps = float_of_int (Kernel.taps k) in
    let points = float_of_int (Instance.points inst) in
    let fits level_bytes = reuse_bytes <= 0.8 *. level_bytes in
    let l2_pt =
      if fits (float_of_int m.Machine_desc.l1_bytes) then bytes *. (nbufs +. 2.)
      else bytes *. taps
    in
    let l2_time =
      points *. inflation *. l2_pt /. (m.Machine_desc.l2_bw_core *. float_of_int threads)
    in
    let l3_pt =
      if fits (float_of_int m.Machine_desc.l2_bytes) then bytes *. (nbufs +. 2.)
      else bytes *. taps
    in
    let l3_time = points *. inflation *. l3_pt /. m.Machine_desc.l3_bw in
    let dram_time = if fits l3_share then dram_step else dram_step *. float_of_int time_block in
    let memory_s = Float.max dram_time (Float.max l2_time l3_time) in
    (Float.max compute_s memory_s *. b.imbalance) +. b.overhead_s
  end

let runtime_of m inst t = total (analyze_schedule m inst (Schedule.create inst t) t)
let gflops m inst t = Instance.total_flops inst /. runtime_of m inst t /. 1e9
