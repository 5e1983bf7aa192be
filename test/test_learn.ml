(* Tests for the online-learning subsystem: the crash-safe segmented
   observation log (replay must recover exactly the complete-record
   prefix under truncation at EVERY byte boundary, including a torn
   seal), compaction to aggregated sufficient statistics, the
   persistent encoded-feature cache, the deterministic held-out split,
   warm-started and incremental retraining, the shrinking DCD solver,
   and the model store's generation ledger. *)

open Sorl_stencil

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let get = function Ok x -> x | Error m -> Alcotest.fail m
let get_err what = function Ok _ -> Alcotest.fail (what ^ ": expected Error") | Error m -> m

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_dir "sorl-learn-test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3

(* Synthetic observations off the cost model: [n] per benchmark,
   tunings drawn from the predefined set, deterministic per seed. *)
let observations ?(benchmarks = [ "blur-1024x768"; "edge-512x512" ]) ~n seed =
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed machine in
  let rng = Sorl_util.Rng.create (seed * 7919) in
  List.concat_map
    (fun benchmark ->
      let inst = Benchmarks.instance_by_name benchmark in
      let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
      List.init n (fun _ ->
          let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
          let cost = Sorl_machine.Measure.runtime measure inst tuning in
          { Sorl_learn.Obs_log.benchmark; tuning; cost }))
    benchmarks

(* Keep the first observation of each (benchmark, tuning) point —
   compaction tests need inputs whose duplicate structure is exactly
   the one they construct. *)
let dedup obs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (o : Sorl_learn.Obs_log.obs) ->
      let key = (o.benchmark, Tuning.to_string o.tuning) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    obs

let obs_equal (a : Sorl_learn.Obs_log.obs) (b : Sorl_learn.Obs_log.obs) =
  a.benchmark = b.benchmark && Tuning.equal a.tuning b.tuning && a.cost = b.cost

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let active_of log = Filename.concat log "active.obs"
let seg_of log i = Filename.concat log (Printf.sprintf "seg-%06d.obs" i)

(* ---- observation log ---- *)

let test_obs_log_roundtrip () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:10 3 in
  let w = get (Sorl_learn.Obs_log.create path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  checki "written" (List.length obs) (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.close w;
  let replayed, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "clean" true clean;
  checkb "exact roundtrip (%.17g costs)" true (List.equal obs_equal obs replayed);
  (* reopening recovers the count and keeps appending *)
  let w = get (Sorl_learn.Obs_log.create path) in
  checki "recovered count" (List.length obs) (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.append w (List.hd obs);
  Sorl_learn.Obs_log.close w;
  let replayed, _ = get (Sorl_learn.Obs_log.replay path) in
  checki "append after reopen" (List.length obs + 1) (List.length replayed)

let test_obs_log_rolls_segments () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:5 3 in
  (* 10 observations, roll every 4: two sealed segments + 2 in the tail *)
  let w = get (Sorl_learn.Obs_log.create ~roll_at:4 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  checki "written across segments" 10 (Sorl_learn.Obs_log.written w);
  checki "sealed automatically" 2 (Sorl_learn.Obs_log.segments w);
  Sorl_learn.Obs_log.close w;
  checkb "segment files exist" true
    (Sys.file_exists (seg_of path 1) && Sys.file_exists (seg_of path 2));
  let replayed, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "clean" true clean;
  checkb "append order across segments" true (List.equal obs_equal obs replayed);
  (* reopen recovers counts; explicit seal rolls the 2-record tail *)
  let w = get (Sorl_learn.Obs_log.create path) in
  checki "recovered count" 10 (Sorl_learn.Obs_log.written w);
  checki "recovered segments" 2 (Sorl_learn.Obs_log.segments w);
  Sorl_learn.Obs_log.seal w;
  checki "explicit seal" 3 (Sorl_learn.Obs_log.segments w);
  Sorl_learn.Obs_log.seal w;
  checki "sealing an empty tail is a no-op" 3 (Sorl_learn.Obs_log.segments w);
  (* fsync-on-seal is purely a durability knob: same bytes, same replay *)
  Sorl_learn.Obs_log.append w (List.hd obs);
  Sorl_learn.Obs_log.close w;
  let w = get (Sorl_learn.Obs_log.create ~fsync_on_seal:true path) in
  Sorl_learn.Obs_log.seal w;
  checki "fsync seal" 4 (Sorl_learn.Obs_log.segments w);
  Sorl_learn.Obs_log.close w;
  let replayed, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "clean after fsync seal" true clean;
  checki "all records" 11 (List.length replayed)

let test_obs_log_append_validates () =
  with_temp_dir @@ fun dir ->
  let w = get (Sorl_learn.Obs_log.create (Filename.concat dir "log.obs")) in
  let t = Tuning.default ~dims:2 in
  let bad =
    [
      { Sorl_learn.Obs_log.benchmark = ""; tuning = t; cost = 1. };
      { Sorl_learn.Obs_log.benchmark = "a b"; tuning = t; cost = 1. };
      { Sorl_learn.Obs_log.benchmark = "ok"; tuning = t; cost = 0. };
      { Sorl_learn.Obs_log.benchmark = "ok"; tuning = t; cost = -1. };
      { Sorl_learn.Obs_log.benchmark = "ok"; tuning = t; cost = Float.nan };
      { Sorl_learn.Obs_log.benchmark = "ok"; tuning = t; cost = Float.infinity };
    ]
  in
  List.iter
    (fun o ->
      match Sorl_learn.Obs_log.append w o with
      | () -> Alcotest.fail "append accepted an invalid observation"
      | exception Invalid_argument _ -> ())
    bad;
  checki "nothing written" 0 (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.close w

(* The satellite guarantee: truncate the active tail at EVERY byte
   boundary inside the last record; replay must recover exactly the
   complete prefix, flag the tail, and a writer reopening the torn log
   must repair it and keep appending. *)
let test_obs_log_truncation_every_byte () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~benchmarks:[ "blur-1024x768" ] ~n:4 17 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.close w;
  let full = read_file (active_of path) in
  (* byte offset where the last record starts = end of the 3rd record *)
  let prefix_end =
    let rec nth_newline i remaining =
      if remaining = 0 then i
      else nth_newline (String.index_from full i '\n' + 1) (remaining - 1)
    in
    (* header line + 3 complete records *)
    nth_newline 0 4
  in
  let torn = Filename.concat dir "torn.obs" in
  for cut = prefix_end to String.length full - 1 do
    rm_rf torn;
    Unix.mkdir torn 0o755;
    write_file (active_of torn) (String.sub full 0 cut);
    let replayed, clean = get (Sorl_learn.Obs_log.replay torn) in
    checki (Printf.sprintf "prefix at cut %d" cut) 3 (List.length replayed);
    checkb "prefix records intact" true
      (List.equal obs_equal (List.filteri (fun i _ -> i < 3) obs) replayed);
    checkb "torn tail flagged" (cut <> prefix_end) (not clean);
    (* the writer repairs the tail and the log accepts new records *)
    let w = get (Sorl_learn.Obs_log.create ~roll_at:0 torn) in
    checki "recovered" 3 (Sorl_learn.Obs_log.written w);
    Sorl_learn.Obs_log.append w (List.nth obs 3);
    Sorl_learn.Obs_log.close w;
    let replayed, clean = get (Sorl_learn.Obs_log.replay torn) in
    checkb "clean after repair" true clean;
    checkb "repaired log = original records" true (List.equal obs_equal obs replayed)
  done

(* Crash anywhere inside the seal protocol: a torn seal line is
   truncated away (the tail stays active), and a fully sealed tail that
   missed its rename is rolled forward at the next open. *)
let test_obs_log_torn_seal_recovery () =
  with_temp_dir @@ fun dir ->
  let src = Filename.concat dir "src.obs" in
  let obs = observations ~benchmarks:[ "edge-512x512" ] ~n:3 29 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 src) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let sealed = read_file (seg_of src 1) in
  let seal_start = String.rindex_from sealed (String.length sealed - 2) '\n' + 1 in
  let torn = Filename.concat dir "torn.obs" in
  (* every byte boundary inside the seal line: still an active tail *)
  for cut = seal_start to String.length sealed - 1 do
    rm_rf torn;
    Unix.mkdir torn 0o755;
    write_file (active_of torn) (String.sub sealed 0 cut);
    let replayed, clean = get (Sorl_learn.Obs_log.replay torn) in
    checki (Printf.sprintf "records at cut %d" cut) 3 (List.length replayed);
    checkb "torn seal flagged" (cut <> seal_start) (not clean);
    let w = get (Sorl_learn.Obs_log.create ~roll_at:0 torn) in
    checki "recovered as tail" 3 (Sorl_learn.Obs_log.written w);
    checki "no segment yet" 0 (Sorl_learn.Obs_log.segments w);
    Sorl_learn.Obs_log.close w
  done;
  (* the full seal hit the disk but the rename did not: finish the roll *)
  rm_rf torn;
  Unix.mkdir torn 0o755;
  write_file (active_of torn) sealed;
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 torn) in
  checki "roll finished" 1 (Sorl_learn.Obs_log.segments w);
  checki "records preserved" 3 (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.close w;
  checkb "segment renamed" true (Sys.file_exists (seg_of torn 1));
  let replayed, clean = get (Sorl_learn.Obs_log.replay torn) in
  checkb "clean after roll" true clean;
  checkb "records intact" true (List.equal obs_equal obs replayed)

let test_obs_log_rejects_corruption () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~benchmarks:[ "edge-512x512" ] ~n:3 23 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let seg = seg_of path 1 in
  let full = read_file seg in
  (* flip a digit inside the second record's cost: its checksum fails,
     so replay keeps only the first record (and the seal no longer
     covers the records it counts, so it is void too) *)
  let second_start = String.index_from full (String.index full '\n' + 1) '\n' + 1 in
  let second_end = String.index_from full second_start '\n' in
  let flipped = Bytes.of_string full in
  let rec flip i =
    if i >= second_end then Alcotest.fail "no digit to corrupt"
    else
      match Bytes.get flipped i with
      | '0' .. '8' as c -> Bytes.set flipped i (Char.chr (Char.code c + 1))
      | _ -> flip (i + 1)
  in
  flip (second_start + 2);
  write_file seg (Bytes.to_string flipped);
  let replayed, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "corruption flagged" false clean;
  checkb "prefix before corruption" true
    (List.equal obs_equal [ List.hd obs ] replayed);
  (* reopening reseals the surviving prefix; the log is clean again *)
  let w = get (Sorl_learn.Obs_log.create path) in
  checki "recovered prefix" 1 (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.close w;
  let _, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "clean after reseal" true clean;
  (* foreign and wrong-version headers are errors, not empty replays *)
  let alien = Filename.concat dir "alien.obs" in
  write_file alien "not an obs log\n";
  ignore (get_err "foreign header" (Sorl_learn.Obs_log.replay alien));
  write_file alien "sorl-obs v9\n";
  ignore (get_err "future version" (Sorl_learn.Obs_log.replay alien));
  ignore (get_err "writer refuses foreign file" (Sorl_learn.Obs_log.create alien))

(* A v1 single-file log replays in place and is migrated to a segment
   directory by the writer. *)
let test_obs_log_v1_compat () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:4 31 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.close w;
  (* record lines are shared between v1 and v2; swap the header *)
  let v2 = read_file (active_of path) in
  let body_start = String.index v2 '\n' + 1 in
  let body = String.sub v2 body_start (String.length v2 - body_start) in
  let v1_path = Filename.concat dir "v1.obs" in
  write_file v1_path ("sorl-obs v1\n" ^ body);
  let replayed, clean = get (Sorl_learn.Obs_log.replay v1_path) in
  checkb "v1 replays clean" true clean;
  checkb "v1 records" true (List.equal obs_equal obs replayed);
  (* the writer migrates the file into a directory under the same path *)
  let w = get (Sorl_learn.Obs_log.create v1_path) in
  checkb "migrated to a directory" true (Sys.is_directory v1_path);
  checki "records survive migration" (List.length obs) (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.append w (List.hd obs);
  Sorl_learn.Obs_log.close w;
  let replayed, clean = get (Sorl_learn.Obs_log.replay v1_path) in
  checkb "clean after migration" true clean;
  checki "migrated + appended" (List.length obs + 1) (List.length replayed)

(* ---- compaction ---- *)

let test_obs_log_compaction () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = dedup (observations ~n:6 37) in
  let n = List.length obs in
  (* duplicate-heavy history: every observation three times, with the
     third copy at 3x cost so the aggregate mean/min are nontrivial *)
  let w = get (Sorl_learn.Obs_log.create ~roll_at:4 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  List.iter (Sorl_learn.Obs_log.append w) obs;
  List.iter
    (fun (o : Sorl_learn.Obs_log.obs) ->
      Sorl_learn.Obs_log.append w { o with cost = o.cost *. 3. })
    obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let stats = get (Sorl_learn.Obs_log.compact path) in
  checki "records before" (3 * n) stats.Sorl_learn.Obs_log.records_before;
  checki "deduplicated" n stats.Sorl_learn.Obs_log.records_after;
  let segs, tail, clean = get (Sorl_learn.Obs_log.replay_segments path) in
  checkb "clean" true clean;
  checki "one compacted segment" 1 (List.length segs);
  checki "no tail" 0 (List.length tail);
  let records = (List.hd segs).Sorl_learn.Obs_log.seg_records in
  checki "aggregates" n (List.length records);
  List.iter2
    (fun (o : Sorl_learn.Obs_log.obs) (r : Sorl_learn.Obs_log.record) ->
      checkb "first-appearance order" true (obs_equal o { r.obs with cost = o.cost });
      checki "count" 3 r.count;
      checkb "mean cost" true
        (Float.abs (r.obs.cost -. (5. *. o.cost /. 3.)) <= 1e-12 *. o.cost);
      checkb "min cost" true (r.min_cost = o.cost))
    obs records;
  (* replay surfaces the aggregate mean, one record per point *)
  let replayed, _ = get (Sorl_learn.Obs_log.replay path) in
  checki "replay = aggregates" n (List.length replayed);
  (* appending continues after compaction *)
  let w = get (Sorl_learn.Obs_log.create path) in
  checki "count after compaction" n (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.append w (List.hd obs);
  Sorl_learn.Obs_log.close w;
  checki "append after compaction" (n + 1)
    (List.length (fst (get (Sorl_learn.Obs_log.replay path))))

let test_obs_log_compaction_duplicate_free_identity () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = dedup (observations ~n:8 41) in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:5 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let before, _ = get (Sorl_learn.Obs_log.replay path) in
  let stats = get (Sorl_learn.Obs_log.compact path) in
  checki "nothing merged away"
    stats.Sorl_learn.Obs_log.records_before
    stats.Sorl_learn.Obs_log.records_after;
  let after, clean = get (Sorl_learn.Obs_log.replay path) in
  checkb "clean" true clean;
  checkb "duplicate-free compaction is the identity" true
    (List.equal obs_equal before after)

let test_obs_log_compaction_crash_recovery () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:6 43 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:4 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let seg_files =
    List.filter (fun f -> String.length f = 14 && String.sub f 0 4 = "seg-")
      (Array.to_list (Sys.readdir path))
  in
  let last = seg_of path (List.length seg_files) in
  checkb "several segments" true (List.length seg_files >= 2);
  let saved =
    List.filter_map
      (fun f ->
        let p = Filename.concat path f in
        if p = last then None else Some (p, read_file p))
      seg_files
  in
  ignore (get (Sorl_learn.Obs_log.compact path));
  let compacted_expect, _ = get (Sorl_learn.Obs_log.replay path) in
  (* simulate a crash between the compacted rename and the unlinks:
     resurrect the covered segments *)
  List.iter (fun (p, bytes) -> write_file p bytes) saved;
  let replayed, _ = get (Sorl_learn.Obs_log.replay path) in
  checkb "covered segments skipped on replay" true
    (List.equal obs_equal compacted_expect replayed);
  let w = get (Sorl_learn.Obs_log.create path) in
  checki "no double counting" (List.length compacted_expect) (Sorl_learn.Obs_log.written w);
  Sorl_learn.Obs_log.close w;
  List.iter
    (fun (p, _) -> checkb "leftover segment deleted" false (Sys.file_exists p))
    saved

(* ---- encoded-feature cache ---- *)

(* Zero out one space-separated field of the sidecar's header line. *)
let tamper_header_field raw idx =
  let nl = String.index raw '\n' in
  let header = String.sub raw 0 nl in
  let rest = String.sub raw nl (String.length raw - nl) in
  let fields =
    List.mapi
      (fun i f -> if i = idx then String.map (fun _ -> '0') f else f)
      (String.split_on_char ' ' header)
  in
  String.concat " " fields ^ rest

let test_enc_cache_roundtrip_and_invalidation () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:6 47 in
  let unknown =
    { Sorl_learn.Obs_log.benchmark = "not-a-benchmark"; tuning = Tuning.default ~dims:2; cost = 1. }
  in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:0 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.append w unknown;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let segs, _, _ = get (Sorl_learn.Obs_log.replay_segments path) in
  let seg = List.hd segs in
  let mode = Features.Extended in
  (* first touch builds the sidecar, second reuses it bit-identically *)
  let rows1, hit1 = Sorl_learn.Enc_cache.get ~mode seg in
  checkb "first touch is a miss" false hit1;
  checkb "sidecar written" true
    (Sys.file_exists (Sorl_learn.Enc_cache.path seg.Sorl_learn.Obs_log.seg_file));
  let rows2, hit2 = Sorl_learn.Enc_cache.get ~mode seg in
  checkb "second touch is a hit" true hit2;
  checki "row count" (List.length obs + 1) (Array.length rows1);
  let same =
    Array.for_all2
      (fun a b ->
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> Sorl_util.Sparse.equal ~eps:0. x y
        | _ -> false)
      rows1 rows2
  in
  checkb "cached rows bit-identical to fresh encodings" true same;
  (* cached rows equal the reference encoder output *)
  List.iteri
    (fun i (o : Sorl_learn.Obs_log.obs) ->
      let inst = Benchmarks.instance_by_name o.benchmark in
      let expect = Features.encode mode inst o.tuning in
      match rows2.(i) with
      | Some s -> checkb "row = Features.encode" true (Sorl_util.Sparse.equal ~eps:0. s expect)
      | None -> Alcotest.fail "known benchmark row missing")
    obs;
  checkb "unknown benchmark row is None" true (rows2.(List.length obs) = None);
  (* a different mode is a different schema: the sidecar does not serve it *)
  checkb "mode mismatch misses" true
    (Sorl_learn.Enc_cache.load ~mode:Features.Canonical seg = None);
  (* stale schema hash or stale segment digest misses, never lies *)
  let sidecar = Sorl_learn.Enc_cache.path seg.Sorl_learn.Obs_log.seg_file in
  let raw = read_file sidecar in
  write_file sidecar (tamper_header_field raw 2);
  checkb "stale schema hash misses" true (Sorl_learn.Enc_cache.load ~mode seg = None);
  write_file sidecar (tamper_header_field raw 3);
  checkb "stale segment digest misses" true (Sorl_learn.Enc_cache.load ~mode seg = None);
  (* truncated sidecar misses *)
  write_file sidecar (String.sub raw 0 (String.length raw - 10));
  checkb "torn sidecar misses" true (Sorl_learn.Enc_cache.load ~mode seg = None);
  (* the untampered bytes still serve *)
  write_file sidecar raw;
  checkb "restored sidecar hits" true (Sorl_learn.Enc_cache.load ~mode seg <> None)

(* ---- deterministic held-out split ---- *)

let test_split_deterministic_and_stable () =
  let obs = observations ~n:60 5 in
  let train1, held1 = Sorl_learn.Trainer.split obs in
  let train2, held2 = Sorl_learn.Trainer.split obs in
  checkb "same split both times" true
    (List.equal obs_equal train1 train2 && List.equal obs_equal held1 held2);
  checki "partition" (List.length obs) (List.length train1 + List.length held1);
  checkb "both sides populated" true (train1 <> [] && held1 <> []);
  (* growing the log never migrates an existing record across the
     split: membership is a pure function of (seed, benchmark, tuning) *)
  let more = obs @ observations ~n:20 31 in
  let _, held_grown = Sorl_learn.Trainer.split more in
  let key (o : Sorl_learn.Obs_log.obs) = (o.benchmark, o.tuning) in
  let held_keys = List.map key held_grown in
  List.iter
    (fun o -> checkb "held-out membership stable" true (List.mem (key o) held_keys))
    held1;
  (* duplicates of one point never straddle the split *)
  let dup = List.hd held1 in
  let train_d, held_d = Sorl_learn.Trainer.split (dup :: obs @ [ dup ]) in
  checkb "duplicates stay held out" true
    (List.for_all (fun o -> not (obs_equal o dup)) train_d
    && List.length (List.filter (fun o -> obs_equal o dup) held_d) = 3);
  (* bad fractions are rejected, 0 holds nothing out *)
  (match Sorl_learn.Trainer.split ~holdout:1. obs with
  | _ -> Alcotest.fail "holdout = 1 accepted"
  | exception Invalid_argument _ -> ());
  let _, held0 = Sorl_learn.Trainer.split ~holdout:0. obs in
  checki "holdout 0" 0 (List.length held0)

(* ---- warm-started retraining ---- *)

(* [shrink = false] pins the exact pre-shrinking solver: this test
   compares truncated (non-converged) runs, whose trajectory the
   shrinking heuristic legitimately alters.  The shrinking and
   non-shrinking solvers agreeing at convergence has its own test
   below. *)
let dcd_params passes =
  { Sorl_svmrank.Solver_dcd.default_params with max_passes = passes; seed = 11; shrink = false }

let test_warm_start_dcd_equivalence_and_speed () =
  let obs = observations ~n:80 7 in
  let train_slice, held = Sorl_learn.Trainer.split obs in
  let mode = Features.Extended in
  let retrain ?init passes =
    get
      (Sorl_learn.Trainer.retrain
         ~solver:(Sorl.Autotuner.Dcd (dcd_params passes))
         ?init ~mode train_slice)
  in
  let tau tuner = Option.get (Sorl_learn.Trainer.holdout_tau tuner held) in
  (* init = zeros is bit-identical to the cold path (same RNG stream,
     same starting point) *)
  let dim = Features.dim mode in
  let cold = retrain 40 in
  let zeros = retrain ~init:(Array.make dim 0.) 40 in
  checkb "zero init = cold path" true
    (Sorl.Autotuner.weights cold = Sorl.Autotuner.weights zeros);
  (* warm-starting from the converged solution reaches the scratch
     optimum's held-out tau in a tenth of the passes *)
  let scratch_tau = tau cold in
  let warm_tau = tau (retrain ~init:(Sorl.Autotuner.weights cold) 4) in
  checkb
    (Printf.sprintf "warm tau %.6f within 1e-6 of scratch %.6f" warm_tau scratch_tau)
    true
    (warm_tau >= scratch_tau -. 1e-6)

let test_warm_start_dim_mismatch () =
  let obs = observations ~n:30 9 in
  let msg =
    get_err "dim mismatch"
      (Sorl_learn.Trainer.retrain ~init:(Array.make 3 0.) ~mode:Features.Extended obs)
  in
  checkb "names the mismatch" true (String.length msg > 0)

let test_retrain_error_shapes () =
  (* unknown benchmarks only -> typed error, no exception *)
  let t = Tuning.default ~dims:2 in
  let unknown = [ { Sorl_learn.Obs_log.benchmark = "nope"; tuning = t; cost = 1. } ] in
  ignore (get_err "unknown only" (Sorl_learn.Trainer.retrain ~mode:Features.Extended unknown));
  ignore (get_err "empty" (Sorl_learn.Trainer.retrain ~mode:Features.Extended []));
  (* a single observation exposes no pairs *)
  let one = observations ~benchmarks:[ "blur-1024x768" ] ~n:1 3 in
  ignore (get_err "no pairs" (Sorl_learn.Trainer.retrain ~mode:Features.Extended one))

let test_holdout_tau_and_no_worse () =
  let obs = observations ~n:80 13 in
  let train_slice, held = Sorl_learn.Trainer.split obs in
  let tuner =
    get
      (Sorl_learn.Trainer.retrain
         ~solver:(Sorl.Autotuner.Dcd (dcd_params 40))
         ~mode:Features.Extended train_slice)
  in
  let tau =
    match Sorl_learn.Trainer.holdout_tau tuner held with
    | Some t -> t
    | None -> Alcotest.fail "no held-out tau"
  in
  checkb (Printf.sprintf "tau %.3f is a correlation" tau) true (tau >= -1. && tau <= 1.);
  checkb "learned something" true (tau > 0.);
  (* a sign-flipped model ranks backwards: strictly worse *)
  let degraded =
    Sorl.Autotuner.of_model ~mode:Features.Extended
      (Sorl_svmrank.Model.create
         (Array.map (fun x -> -.x) (Sorl.Autotuner.weights tuner)))
  in
  let dtau = Option.get (Sorl_learn.Trainer.holdout_tau degraded held) in
  checkb "degraded tau negated" true (Float.abs (dtau +. tau) < 1e-9);
  checkb "no_worse accepts equal" true
    (Sorl_learn.Trainer.no_worse ~stable:tau ~candidate:tau);
  checkb "no_worse accepts better" true
    (Sorl_learn.Trainer.no_worse ~stable:tau ~candidate:(tau +. 0.1));
  checkb "no_worse rejects degraded" false
    (Sorl_learn.Trainer.no_worse ~stable:tau ~candidate:dtau);
  (* unknown benchmarks and singleton queries are skipped, not fatal *)
  let noise =
    { Sorl_learn.Obs_log.benchmark = "nope"; tuning = Tuning.default ~dims:2; cost = 1. }
  in
  let with_noise = Option.get (Sorl_learn.Trainer.holdout_tau tuner (noise :: held)) in
  checkb "unknown benchmark skipped in tau" true (Float.abs (with_noise -. tau) < 1e-12);
  checkb "tau of nothing" true (Sorl_learn.Trainer.holdout_tau tuner [ noise ] = None)

(* [per_benchmark_tau] scores each benchmark's block through one
   compiled encoder; scoring every record through [Autotuner.score]
   (the list encoding path) must give the identical taus. *)
let test_per_benchmark_tau_compiled_parity () =
  let benchmarks = [ "blur-1024x768"; "edge-512x512"; "laplacian-128x128x128"; "wave-128x128x128" ] in
  let obs = observations ~benchmarks ~n:60 17 in
  let train_slice, held = Sorl_learn.Trainer.split obs in
  let tuner = get (Sorl_learn.Trainer.retrain ~mode:Features.Extended train_slice) in
  let reference =
    List.filter_map
      (fun name ->
        let block = List.filter (fun (o : Sorl_learn.Obs_log.obs) -> o.benchmark = name) held in
        let inst = Benchmarks.instance_by_name name in
        let costs = Array.of_list (List.map (fun (o : Sorl_learn.Obs_log.obs) -> o.cost) block) in
        let scores =
          Array.of_list
            (List.map
               (fun (o : Sorl_learn.Obs_log.obs) -> Sorl.Autotuner.score tuner inst o.tuning)
               block)
        in
        if List.length block < 2 then None
        else Some (name, Sorl_util.Rank_correlation.kendall_tau scores costs))
      benchmarks
  in
  let taus = Sorl_learn.Trainer.per_benchmark_tau tuner held in
  checki "every benchmark scored" (List.length benchmarks) (List.length taus);
  List.iter
    (fun (n, rt) ->
      let t = List.assoc n taus in
      checkb (Printf.sprintf "%s tau bit-identical (%h vs %h)" n rt t) true
        (Int64.bits_of_float rt = Int64.bits_of_float t))
    reference

(* [per_benchmark_tau] lists benchmarks in the order they first appear
   in the held-out list, whatever order the names sort in. *)
let test_per_benchmark_tau_order () =
  let order = [ "wave-128x128x128"; "blur-1024x768"; "laplacian-128x128x128"; "edge-512x512" ] in
  let blocks = List.map (fun b -> observations ~benchmarks:[ b ] ~n:6 19) order in
  (* round-robin: every benchmark's later records follow the first
     record of each benchmark after it *)
  let held = List.concat (List.init 6 (fun i -> List.map (fun blk -> List.nth blk i) blocks)) in
  let tuner = get (Sorl_learn.Trainer.retrain ~mode:Features.Extended (observations ~n:40 17)) in
  Alcotest.(check (list string))
    "first-appearance order" order
    (List.map fst (Sorl_learn.Trainer.per_benchmark_tau tuner held))

(* ---- model store / shared tuner ---- *)

let tiny_tuner =
  lazy
    (let spec = { Sorl.Training.size = 120; mode = Features.Extended; seed = 3 } in
     let instances =
       [
         Instance.create_xyz Benchmarks.edge ~sx:256 ~sy:256 ~sz:1;
         Instance.create_xyz Benchmarks.blur ~sx:512 ~sy:512 ~sz:1;
       ]
     in
     Sorl.Autotuner.train_on ~mode:Features.Extended
       (Sorl.Training.generate ~spec ~instances (Sorl_machine.Measure.model machine)))

(* Near-tied costs are degenerate: a spread within float noise must not
   produce a tau (regression test — the check used to be exact float
   equality, which 1 ulp of measurement noise defeats). *)
let test_per_benchmark_tau_epsilon () =
  let tuner = Lazy.force tiny_tuner in
  let set = Tuning.predefined_set ~dims:2 in
  let t1 = set.(0) and t2 = set.(1) in
  let near_tied =
    [
      { Sorl_learn.Obs_log.benchmark = "blur-1024x768"; tuning = t1; cost = 1.0 };
      { Sorl_learn.Obs_log.benchmark = "blur-1024x768"; tuning = t2; cost = 1.0 +. 1e-13 };
    ]
  in
  checkb "near-tied costs expose no ranking" true
    (Sorl_learn.Trainer.holdout_tau tuner near_tied = None);
  checkb "per-benchmark list likewise" true
    (Sorl_learn.Trainer.per_benchmark_tau tuner near_tied = []);
  let separated =
    [
      { Sorl_learn.Obs_log.benchmark = "blur-1024x768"; tuning = t1; cost = 1.0 };
      { Sorl_learn.Obs_log.benchmark = "blur-1024x768"; tuning = t2; cost = 1.001 };
    ]
  in
  checkb "separated costs do" true (Sorl_learn.Trainer.holdout_tau tuner separated <> None)

(* ---- incremental retraining ---- *)

let test_incremental_retrain_parity_and_reuse () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = observations ~n:40 19 in
  let w = get (Sorl_learn.Obs_log.create ~roll_at:16 path) in
  List.iter (Sorl_learn.Obs_log.append w) obs;
  Sorl_learn.Obs_log.close w;
  let mode = Features.Extended in
  let solver = Sorl.Autotuner.Dcd (dcd_params 30) in
  (* cold full-replay path *)
  let replayed, _ = get (Sorl_learn.Obs_log.replay path) in
  let train_slice, held_ref = Sorl_learn.Trainer.split replayed in
  let cold = get (Sorl_learn.Trainer.retrain ~solver ~mode train_slice) in
  (* incremental path, twice: the first run builds the sidecars *)
  let inc1 = get (Sorl_learn.Trainer.retrain_incremental ~solver ~mode path) in
  let inc2 = get (Sorl_learn.Trainer.retrain_incremental ~solver ~mode path) in
  checkb "incremental weights = cold weights (bit-identical)" true
    (Sorl.Autotuner.weights cold = Sorl.Autotuner.weights inc1.Sorl_learn.Trainer.tuner);
  checkb "second run likewise" true
    (Sorl.Autotuner.weights cold = Sorl.Autotuner.weights inc2.Sorl_learn.Trainer.tuner);
  checkb "same held-out slice" true
    (List.equal obs_equal held_ref inc1.Sorl_learn.Trainer.held);
  let s1 = inc1.Sorl_learn.Trainer.stats and s2 = inc2.Sorl_learn.Trainer.stats in
  let n = List.length obs in
  checki "replayed" n s1.Sorl_learn.Trainer.replayed;
  checkb "several sealed segments" true (s1.Sorl_learn.Trainer.segments_total >= 2);
  checki "first run encodes everything" n s1.Sorl_learn.Trainer.records_encoded;
  checki "first run reuses nothing" 0 s1.Sorl_learn.Trainer.segments_reused;
  (* the second run re-encodes only the tail *)
  checki "second run reuses every segment" s2.Sorl_learn.Trainer.segments_total
    s2.Sorl_learn.Trainer.segments_reused;
  checki "second run encodes only the tail" (n mod 16) s2.Sorl_learn.Trainer.records_encoded;
  checki "second run serves the rest from cache" (n - (n mod 16))
    s2.Sorl_learn.Trainer.records_cached

let test_incremental_retrain_compacted_tau () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "log.obs" in
  let obs = dedup (observations ~n:40 53) in
  let mode = Features.Extended in
  let solver = Sorl.Autotuner.Dcd (dcd_params 30) in
  (* duplicate-heavy log: every record twice (identical costs) *)
  let w = get (Sorl_learn.Obs_log.create ~roll_at:20 path) in
  List.iter
    (fun o ->
      Sorl_learn.Obs_log.append w o;
      Sorl_learn.Obs_log.append w o)
    obs;
  Sorl_learn.Obs_log.seal w;
  Sorl_learn.Obs_log.close w;
  let full = get (Sorl_learn.Trainer.retrain_incremental ~solver ~mode path) in
  let count_records segs =
    List.fold_left
      (fun acc s -> acc + List.length s.Sorl_learn.Obs_log.seg_records)
      0 segs
  in
  let before, _, _ = get (Sorl_learn.Obs_log.replay_segments path) in
  ignore (get (Sorl_learn.Obs_log.compact path));
  let after, _, _ = get (Sorl_learn.Obs_log.replay_segments path) in
  checkb "compaction halved the training records" true
    (2 * count_records after = count_records before);
  let compacted = get (Sorl_learn.Trainer.retrain_incremental ~solver ~mode path) in
  let tau t =
    Option.get
      (Sorl_learn.Trainer.holdout_tau t.Sorl_learn.Trainer.tuner
         full.Sorl_learn.Trainer.held)
  in
  let tau_full = tau full and tau_compact = tau compacted in
  checkb
    (Printf.sprintf "compacted tau %.4f close to full %.4f" tau_compact tau_full)
    true
    (Float.abs (tau_compact -. tau_full) <= 0.15)

(* ---- shrinking DCD ---- *)

let test_shrinking_dcd_matches_unshrunk () =
  let rng = Sorl_util.Rng.create 613 in
  let dim = 24 in
  let random_pairs m =
    Array.init m (fun _ ->
        let nnz = 1 + Sorl_util.Rng.int rng 6 in
        let idx = Sorl_util.Rng.sample_without_replacement rng nnz dim in
        Sorl_util.Sparse.of_list ~dim
          (Array.to_list
             (Array.map (fun i -> (i, (2. *. Sorl_util.Rng.uniform rng) -. 1.)) idx)))
  in
  let params shrink =
    { Sorl_svmrank.Solver_dcd.default_params with max_passes = 500; seed = 7; shrink }
  in
  for _trial = 1 to 5 do
    let zs = random_pairs (120 + Sorl_util.Rng.int rng 80) in
    let w_plain =
      Sorl_svmrank.Model.weights
        (Sorl_svmrank.Solver_dcd.train_on_pairs ~params:(params false) ~dim zs)
    in
    let w_shrunk =
      Sorl_svmrank.Model.weights
        (Sorl_svmrank.Solver_dcd.train_on_pairs ~params:(params true) ~dim zs)
    in
    let worst = ref 0. in
    Array.iteri
      (fun i x ->
        let d = Float.abs (x -. w_shrunk.(i)) in
        if d > !worst then worst := d)
      w_plain;
    checkb
      (Printf.sprintf "shrunk w within tol of plain w (max diff %.2e)" !worst)
      true
      (!worst <= (params true).Sorl_svmrank.Solver_dcd.tol)
  done;
  (* shrinking actually fires, visibly in telemetry *)
  let was = Sorl_util.Telemetry.enabled () in
  Sorl_util.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sorl_util.Telemetry.set_enabled was)
    (fun () ->
      let before = Sorl_util.Telemetry.counter_value "solver.shrunk_pairs" in
      ignore
        (Sorl_svmrank.Solver_dcd.train_on_pairs ~params:(params true) ~dim
           (random_pairs 200));
      checkb "solver.shrunk_pairs advanced" true
        (Sorl_util.Telemetry.counter_value "solver.shrunk_pairs" > before))

(* ---- model store generations ---- *)

let test_store_generations () =
  with_temp_dir @@ fun dir ->
  let open Sorl_serve in
  let st = get (Model_store.open_dir dir) in
  let tuner = Lazy.force tiny_tuner in
  get (Model_store.save st ~name:"default" tuner);
  checkb "no generations yet" true (Model_store.list_generations st ~base:"default" = []);
  let pub ?generation () =
    match Model_store.publish ?generation st ~base:"default" tuner with
    | Ok r -> r
    | Error (Model_store.Generation_exists e) -> Alcotest.fail ("exists: " ^ e)
    | Error (Model_store.Publish_failed m) -> Alcotest.fail m
  in
  let n1, g1 = pub () in
  let n2, g2 = pub () in
  checkb "auto-numbered" true (g1 = 1 && g2 = 2 && n1 = "default.g1" && n2 = "default.g2");
  checkb "listed ascending" true
    (Model_store.list_generations st ~base:"default" = [ 1; 2 ]);
  (* published generations load back like any entry *)
  ignore (get (Model_store.load st ~name:"default.g2"));
  (* republish of a taken number is the typed error *)
  (match Model_store.publish ~generation:2 st ~base:"default" tuner with
  | Error (Model_store.Generation_exists e) -> checkb "names entry" true (e = "default.g2")
  | Error (Model_store.Publish_failed m) -> Alcotest.fail m
  | Ok _ -> Alcotest.fail "clobbered generation 2");
  (* lookalike names never count as generations *)
  get (Model_store.save st ~name:"default.g2x" tuner);
  get (Model_store.save st ~name:"other.g9" tuner);
  checkb "lookalikes ignored" true
    (Model_store.list_generations st ~base:"default" = [ 1; 2 ]);
  (* prune keeps the newest [keep], never the base or other names *)
  let _ = pub () in
  let _ = pub () in
  let removed = get (Model_store.prune st ~base:"default" ~keep:2) in
  checkb "removed oldest two" true (removed = [ "default.g1"; "default.g2" ]);
  checkb "newest kept" true
    (Model_store.list_generations st ~base:"default" = [ 3; 4 ]);
  checkb "base untouched" true (List.mem "default" (Model_store.list st));
  checkb "lookalikes untouched" true (List.mem "default.g2x" (Model_store.list st));
  checki "prune is idempotent" 0 (List.length (get (Model_store.prune st ~base:"default" ~keep:2)));
  ignore (get_err "negative keep" (Model_store.prune st ~base:"default" ~keep:(-1)))

let suite =
  [
    Alcotest.test_case "obs-log roundtrip" `Quick test_obs_log_roundtrip;
    Alcotest.test_case "obs-log rolls segments" `Quick test_obs_log_rolls_segments;
    Alcotest.test_case "obs-log append validates" `Quick test_obs_log_append_validates;
    Alcotest.test_case "obs-log truncation at every byte" `Quick
      test_obs_log_truncation_every_byte;
    Alcotest.test_case "obs-log torn seal recovery" `Quick test_obs_log_torn_seal_recovery;
    Alcotest.test_case "obs-log rejects corruption" `Quick test_obs_log_rejects_corruption;
    Alcotest.test_case "obs-log v1 compat" `Quick test_obs_log_v1_compat;
    Alcotest.test_case "obs-log compaction" `Quick test_obs_log_compaction;
    Alcotest.test_case "obs-log compaction identity" `Quick
      test_obs_log_compaction_duplicate_free_identity;
    Alcotest.test_case "obs-log compaction crash recovery" `Quick
      test_obs_log_compaction_crash_recovery;
    Alcotest.test_case "enc-cache roundtrip and invalidation" `Quick
      test_enc_cache_roundtrip_and_invalidation;
    Alcotest.test_case "split deterministic and stable" `Quick
      test_split_deterministic_and_stable;
    Alcotest.test_case "warm start: equivalence and speed" `Quick
      test_warm_start_dcd_equivalence_and_speed;
    Alcotest.test_case "warm start: dim mismatch" `Quick test_warm_start_dim_mismatch;
    Alcotest.test_case "retrain error shapes" `Quick test_retrain_error_shapes;
    Alcotest.test_case "holdout tau and promotion rule" `Quick
      test_holdout_tau_and_no_worse;
    Alcotest.test_case "per-benchmark tau epsilon" `Quick test_per_benchmark_tau_epsilon;
    Alcotest.test_case "per-benchmark tau order" `Quick test_per_benchmark_tau_order;
    Alcotest.test_case "per-benchmark tau: compiled = list path" `Quick
      test_per_benchmark_tau_compiled_parity;
    Alcotest.test_case "incremental retrain parity" `Quick
      test_incremental_retrain_parity_and_reuse;
    Alcotest.test_case "incremental retrain on compacted log" `Quick
      test_incremental_retrain_compacted_tau;
    Alcotest.test_case "shrinking dcd matches unshrunk" `Quick
      test_shrinking_dcd_matches_unshrunk;
    Alcotest.test_case "store generations" `Quick test_store_generations;
  ]
