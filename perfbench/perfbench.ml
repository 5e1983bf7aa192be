(* perfbench: the repository benchmark.

   One run trains the paper's model from scratch
   ([Training.default_spec], seed 5), starts `sorl_tune serve' as a
   separate process with its default settings (plus an empty
   observation log), drives one workload against it for [--seconds],
   checks every reply against the in-process oracle, and prints the
   metrics.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Workloads (the seed generates every request and observation):
   - serve-hot: reads over the 68 keys the server warms, Zipf
     popularity; every read is a result-cache hit.
   - serve-cold: rank/tune with heavy-tailed depths up to the whole
     grid, a quarter bang verbs; most reads reach the ranking stack.
   Reads are closed-loop on one connection: the next request goes out
   when the previous reply arrives, like a compile step waiting for its
   tuning.  One connection leaves a core for the server's reactor and
   worker on a 2-core host, so the figures track the server rather than
   scheduler queueing.  The window opens after [warmup_reads] reads,
   which are checked and counted but not timed.  After the window, both
   workloads stream observations and run learn cycles (retrain,
   publish, canary, promote) on a second connection, so every run
   reports the learn metrics.

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ones.  A traced run splits its window: the first half runs like an
   untraced run, the second also polls the server's [stats] every
   10 ms; the difference between the halves is the tracing overhead.
   After the server stops, the traced run replays the recorded request
   and observation streams in-process through each layer's public
   functions.

   Usage: perfbench --workload W --seed N --seconds S --trace 0|1
            --server PATH [--commit C] *)

module Client = Sorl_serve.Client
module Protocol = Sorl_serve.Protocol
module Trainer = Sorl_learn.Trainer

let now = Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ok what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

let median = Layers.median

(* Nearest-rank percentile of an unsorted sample. *)
let percentile (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
  end

(* ---- arguments ---- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server_bin : string;
  commit : string;
}

let workloads = [ "serve-hot"; "serve-cold" ]

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let server = ref "" and commit = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server", Arg.Set_string server, "PATH the sorl_tune executable");
      ("--commit", Arg.Set_string commit, "C commit or digest of the sources (provenance)");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1 --server PATH" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad m =
    prerr_endline ("perfbench: " ^ m);
    Arg.usage specs usage;
    exit 2
  in
  if not (List.mem !workload workloads) then bad "unknown or missing --workload";
  if !seed < 0 then bad "missing --seed";
  if not (!seconds > 0.) then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if not (Sys.file_exists !server) then bad "--server must name the sorl_tune executable";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    server_bin = !server;
    commit = !commit;
  }

(* ---- the server process ---- *)

type server = {
  pid : int;
  sock : string;
  store : Sorl_serve.Model_store.t;
  obs_log : string;
}

let live_pids = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let reap pid ~grace_s =
  let deadline = now () +. grace_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live_pids := List.filter (( <> ) pid) !live_pids

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid ~grace_s:5.)
    !live_pids

let address srv = Protocol.Unix_path srv.sock

let stop_server srv =
  (match Client.connect ~timeout_s:10. (address srv) with
  | Ok c ->
    ignore (Client.shutdown c);
    Client.close c
  | Error _ -> ());
  reap srv.pid ~grace_s:15.

(* Peak resident set of a process, in MiB ([VmHWM]). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type setup = {
  setup_s : float;
  generate_s : float;
  fit_s : float;
  start_s : float;
}

(* Train, store, spawn and wait until the server answers — everything
   a user pays before the first tuning answer. *)
let setup ~bin ~dir ~t0 =
  let spec = Sorl.Training.default_spec in
  let measure =
    Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:spec.Sorl.Training.seed Mix.machine
  in
  let ds, generate_s = time (fun () -> Sorl.Training.generate ~spec measure) in
  let tuner, fit_s = time (fun () -> Sorl.Autotuner.train_on ~mode:spec.Sorl.Training.mode ds) in
  mkdir_p dir;
  let store = ok "store" (Sorl_serve.Model_store.open_dir (Filename.concat dir "store")) in
  ok "store save" (Sorl_serve.Model_store.save store ~name:"default" tuner);
  let sock = Filename.concat dir "s.sock" and obs_log = Filename.concat dir "obs" in
  let t_spawn = now () in
  let out = Unix.openfile (Filename.concat dir "server.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bin
      [|
        bin; "serve"; "--store"; Filename.concat dir "store"; "--name"; "default"; "--listen";
        "unix:" ^ sock; "--obs-log"; obs_log;
      |]
      Unix.stdin out out
  in
  Unix.close out;
  live_pids := pid :: !live_pids;
  let srv = { pid; sock; store; obs_log } in
  let info =
    ok "server start"
      (Client.with_connection ~retry_for_s:60. (address srv) (fun c -> Client.info c))
  in
  let t_ready = now () in
  ( srv,
    info,
    { setup_s = t_ready -. t0; generate_s; fit_s; start_s = t_ready -. t_spawn } )

(* ---- read accounting ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type reads = {
  lat : Samples.t;  (** seconds; a failed read counts as the timeout *)
  sent_at : Samples.t;  (** send time of each [lat] sample *)
  mutable sent : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable wrong : int;  (** replies that failed the oracle *)
  mutable approx : int;  (** provisional replies, not compared *)
  mutable errors : string list;
}

let new_reads () =
  {
    lat = Samples.create ();
    sent_at = Samples.create ();
    sent = 0;
    succeeded = 0;
    failed = 0;
    wrong = 0;
    approx = 0;
    errors = [];
  }

let read_timeout_s = 30.

let note_error r m = if List.length r.errors < 5 then r.errors <- m :: r.errors

let finish (r : reads) (g : Oracle.gen) (read : Mix.read) outcome ~ts ~tr =
  Samples.add r.sent_at ts;
  let failed m =
    r.failed <- r.failed + 1;
    note_error r m;
    Samples.add r.lat read_timeout_s
  in
  match outcome with
  | Wire.Lost m -> failed m
  | Wire.Reply line ->
    if String.length line >= 4 && String.sub line 0 4 = "err " then failed line
    else if read.approx_ok && Oracle.is_approx line then begin
      r.approx <- r.approx + 1;
      r.succeeded <- r.succeeded + 1;
      Samples.add r.lat (tr -. ts)
    end
    else if Oracle.matches g read line then begin
      r.succeeded <- r.succeeded + 1;
      Samples.add r.lat (tr -. ts)
    end
    else begin
      r.wrong <- r.wrong + 1;
      failed
        (Printf.sprintf "wrong reply to %S: %s" (String.trim read.line)
           (if String.length line > 120 then String.sub line 0 120 ^ "..." else line))
    end

(* Read throughput, p50 and p99 (ms) of the reads sent in [t0, t1]:
   the window is cut into up to ten equal slices and each figure is the
   median over the slices, which keeps a few seconds of noise from a
   neighbouring tenant out of the result.  Throughput uses slices of at
   least 100 reads; percentile slices hold at least 1000, so every
   slice's p99 has ten samples beyond it. *)
let read_metrics (r : reads) ~t0 ~t1 =
  let lat = Samples.to_array r.lat and ts = Samples.to_array r.sent_at in
  let sliced ~min_reads f =
    let slices = max 1 (min 10 (Array.length lat / min_reads)) in
    let width = (t1 -. t0) /. float_of_int slices in
    let buckets = Array.make slices [] in
    Array.iteri
      (fun i l ->
        let b = max 0 (min (slices - 1) (int_of_float ((ts.(i) -. t0) /. width))) in
        buckets.(b) <- l :: buckets.(b))
      lat;
    median (Array.to_list (Array.map (fun b -> f ~width (Array.of_list b)) buckets))
  in
  let served b = Array.fold_left (fun n l -> if l < read_timeout_s then n + 1 else n) 0 b in
  ( sliced ~min_reads:100 (fun ~width b -> float_of_int (served b) /. width),
    sliced ~min_reads:1000 (fun ~width:_ b -> percentile b 50. *. 1000.),
    sliced ~min_reads:1000 (fun ~width:_ b -> percentile b 99. *. 1000.) )

(* ---- stats over the wire ---- *)

let stat kvs k = Option.value ~default:0 (List.assoc_opt k kvs)
let delta a b k = stat b k - stat a k
let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* ---- the run ---- *)

(* The learn cycles run after the read window, so every seed reads
   against the same model, and do a fixed amount of work, so their
   metrics compare across versions: 2048 observations, then sixteen
   cycles 256 observations apart.  Sixteen leave several promoted
   cycles even for a seed whose candidates are mostly rolled back.
   A cycle's time grows with the log (about a fifth from the first
   cycle to the last), so which cycles promote moves the median a
   little; larger prefills with smaller batches did not make it
   steadier on a 2-core host. *)
let learn_plan = { Learner.prefill = 2048; batch = 256; cycles = 16 }

let setups = 5

(* Reads sent before the window opens: enough to fill the result
   cache's 1024 entries on serve-cold and turn some over, so the window
   sees the cache's steady state rather than its fill-up from the 68
   keys the server warms.  Without it, p50 fell through the window. *)
let warmup_reads = 2000

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let run args ~workdir =
  let t_bench = now () in
  (* ---- set-up, several times; the last server stays up ---- *)
  let rec boot i acc =
    let dir = Filename.concat workdir (Printf.sprintf "setup%d" i) in
    let srv, info, s = setup ~bin:args.server_bin ~dir ~t0:(if i = 0 then t_bench else now ()) in
    if i + 1 < setups then begin
      stop_server srv;
      boot (i + 1) (s :: acc)
    end
    else (srv, info, List.rev (s :: acc))
  in
  let srv, info, setups_done = boot 0 [] in
  let setup_med f = median (List.map f setups_done) in
  let server_workers = Option.value ~default:"?" (List.assoc_opt "workers" info) in
  (* The control connection may sit idle past the server's idle
     timeout; reconnect when the server has closed it.  Only answered
     requests count: a request written into a closed connection never
     reached the server. *)
  let connect_ctl () = ok "control connection" (Client.connect ~timeout_s:30. (address srv)) in
  let ctl = ref (connect_ctl ()) in
  let ctl_requests = ref 0 in
  let ctl_stats () =
    let kvs =
      match Client.stats !ctl with
      | Ok kvs -> kvs
      | Error _ ->
        Client.close !ctl;
        ctl := connect_ctl ();
        ok "stats" (Client.stats !ctl)
    in
    incr ctl_requests;
    kvs
  in
  let g0 = Oracle.gen ~number:0 (ok "store load" (Sorl_serve.Model_store.load srv.store ~name:"default")) in
  let cold = args.workload = "serve-cold" in
  let next_read = if cold then Mix.cold ~seed:args.seed else Mix.hot ~seed:args.seed in
  (* Traced runs record every finished read with its latency (nan
     unless the reply was exact) for the in-process replay. *)
  let recorded = ref [] and n_recorded = ref 0 in
  let record (r : Mix.read) outcome ~ts ~tr =
    if args.trace && !n_recorded < 400_000 then begin
      let exact =
        match outcome with
        | Wire.Reply line -> not (Oracle.is_approx line || String.starts_with ~prefix:"err " line)
        | Wire.Lost _ -> false
      in
      recorded := (r, if exact then tr -. ts else Float.nan) :: !recorded;
      incr n_recorded
    end
  in
  let next_obs = Mix.observations ~seed:args.seed in
  let learner = Learner.create () in
  let hard_deadline = t_bench +. 150. in
  let run_learner ~plan ~stable =
    Learner.run learner ~address:(address srv) ~store:srv.store ~log:srv.obs_log ~stable ~plan
      ~next:next_obs
      ~abort:(fun () -> now () > hard_deadline)
  in
  Oracle.prepare g0 ~k:(if cold then max_int else Oracle.shallow);
  let s0 = ctl_stats () in
  ctl_requests := 0;
  (* ---- the read window, after [warmup_reads] unmeasured reads ---- *)
  let t_start = ref infinity and t_end = ref infinity and t_mid = ref infinity in
  let n_next = ref 0 in
  (* Reads of the warm-up, the untraced (first) half and the traced
     (second) half. *)
  let phases = [| new_reads (); new_reads (); new_reads () |] in
  let phase_of ts = phases.(if ts < !t_start then 0 else if ts < !t_mid then 1 else 2) in
  let conns = Wire.open_conns srv.sock 1 in
  let s_mid = ref None and queue_max = ref 0 and last_poll = ref 0. in
  let tick () =
    let t = now () in
    if t >= !t_mid then begin
      if !s_mid = None then s_mid := Some (ctl_stats ());
      if t -. !last_poll >= 0.01 then begin
        last_poll := t;
        queue_max := max !queue_max (stat (ctl_stats ()) "queue_depth")
      end
    end
  in
  Wire.run conns
    ~next:(fun () ->
      let t = now () in
      if !n_next = warmup_reads then begin
        t_start := t;
        t_end := t +. args.seconds;
        if args.trace then t_mid := t +. (args.seconds /. 2.)
      end;
      incr n_next;
      let h = phase_of t in
      h.sent <- h.sent + 1;
      next_read ())
    ~finish:(fun read outcome ~ts ~tr ->
      record read outcome ~ts ~tr;
      finish (phase_of ts) g0 read outcome ~ts ~tr)
    ~stop:(fun () -> now () >= !t_end)
    ~tick ~timeout_s:read_timeout_s;
  let t_start = !t_start and t_mid = !t_mid in
  let t_reads_end = now () in
  List.iter Wire.close_conn conns;
  let s_window = ctl_stats () in
  (* ---- the learn cycles ---- *)
  let last_live = run_learner ~plan:learn_plan ~stable:g0 in
  let rss_mb = peak_rss_mb srv.pid in
  let s_end = ctl_stats () in
  let obs_replayed = List.length (fst (ok "obs replay" (Sorl_learn.Obs_log.replay srv.obs_log))) in
  Client.close !ctl;
  stop_server srv;
  (* ---- checks ---- *)
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  let merge (hs : reads list) =
    let r = new_reads () in
    List.iter
      (fun (h : reads) ->
        Array.iter (Samples.add r.lat) (Samples.to_array h.lat);
        Array.iter (Samples.add r.sent_at) (Samples.to_array h.sent_at);
        r.sent <- r.sent + h.sent;
        r.succeeded <- r.succeeded + h.succeeded;
        r.failed <- r.failed + h.failed;
        r.wrong <- r.wrong + h.wrong;
        r.approx <- r.approx + h.approx;
        r.errors <- r.errors @ h.errors)
      hs;
    r
  in
  let all_reads = merge (Array.to_list phases) in
  let measured = merge [ phases.(1); phases.(2) ] in
  check (all_reads.wrong = 0) (Printf.sprintf "%d replies failed the oracle" all_reads.wrong);
  (* serve-hot reads only the keys the server warms; a miss means the
     mix no longer matches the server's warm set. *)
  if not cold then
    check
      (delta s0 s_window "result_cache_misses" = 0)
      (Printf.sprintf "serve-hot: %d result-cache misses in the read window"
         (delta s0 s_window "result_cache_misses"));
  let sent_total = all_reads.sent + learner.requests + !ctl_requests in
  check
    (delta s0 s_end "requests" = sent_total)
    (Printf.sprintf "server counted %d requests, the load generator sent %d"
       (delta s0 s_end "requests") sent_total);
  check
    (delta s0 s_window "approx_replies" = all_reads.approx)
    (Printf.sprintf "server counted %d approximate replies, the client saw %d"
       (delta s0 s_window "approx_replies") all_reads.approx);
  check
    (learner.acked = delta s0 s_end "obs_log_records")
    (Printf.sprintf "%d observations acknowledged, the log grew by %d" learner.acked
       (delta s0 s_end "obs_log_records"));
  check
    (learner.acked = obs_replayed)
    (Printf.sprintf "%d observations acknowledged, Obs_log.replay returned %d" learner.acked
       obs_replayed);
  check (List.length learner.cycles = learn_plan.cycles)
    (Printf.sprintf "%d of %d learn cycles ran" (List.length learner.cycles) learn_plan.cycles);
  List.iter (fun m -> check false ("learn: " ^ m)) learner.errors;
  let last_cycle = match learner.cycles with c :: _ -> Some c | [] -> None in
  (* The last incremental retrain must equal a full cold retrain over
     the same log prefix, bit for bit. *)
  Option.iter
    (fun (c : Learner.cycle) ->
      let obs = fst (ok "obs replay" (Sorl_learn.Obs_log.replay srv.obs_log)) in
      let prefix = List.filteri (fun i _ -> i < c.stats.Trainer.replayed) obs in
      let train, _ = Trainer.split prefix in
      let full =
        ok "full retrain" (Trainer.retrain ~solver:Learner.solver ~init:c.init ~mode:Learner.mode train)
      in
      let bits w = Array.map Int64.bits_of_float w in
      check
        (bits (Sorl.Autotuner.weights full) = bits (Sorl.Autotuner.weights c.candidate))
        "incremental retrain weights differ from a full replay retrain")
    last_cycle;
  (* ---- metrics ---- *)
  let rps, p50, p99 = read_metrics measured ~t0:t_start ~t1:t_reads_end in
  let cycles = learner.cycles in
  let cyc f = median (List.map f cycles) in
  (* A cycle's generation goes live only when it is promoted; a rolled
     back cycle ends early and would make the median bimodal. *)
  let promoted = List.filter (fun (c : Learner.cycle) -> c.promoted) cycles in
  check (promoted <> []) "no learn cycle promoted its candidate";
  let holdout_tau =
    let seen = Hashtbl.create 4096 in
    List.iter
      (fun (o : Sorl_learn.Obs_log.obs) -> Hashtbl.replace seen (o.benchmark, o.tuning) ())
      learner.sent;
    let held =
      List.filter
        (fun (o : Sorl_learn.Obs_log.obs) -> not (Hashtbl.mem seen (o.benchmark, o.tuning)))
        (Mix.evaluation ~seed:args.seed ~per_benchmark:256)
    in
    Option.value ~default:0. (Trainer.holdout_tau last_live.tuner held)
  in
  check (holdout_tau > 0.) "held-out tau of the serving generation is not positive";
  let e2e =
    [
      ("setup_s", setup_med (fun s -> s.setup_s), "s");
      ("read_rps", rps, "1/s");
      ("read_p50_ms", p50, "ms");
      ("read_p99_ms", p99, "ms");
      ("server_rss_mb", rss_mb, "MiB");
      ("observe_per_s", median learner.batch_rates, "1/s");
      ("learn_cycle_s", median (List.map (fun (c : Learner.cycle) -> c.cycle_s) promoted), "s");
      ("holdout_tau", holdout_tau, "tau");
    ]
  in
  let attempted = all_reads.sent + learner.ops in
  let failed = all_reads.failed + learner.failed in
  let layers () =
    let rps_t, p50_t, p99_t = read_metrics phases.(2) ~t0:t_mid ~t1:t_reads_end in
    let rps_u, p50_u, p99_u = read_metrics phases.(1) ~t0:t_start ~t1:t_mid in
    let a = Option.value ~default:s0 !s_mid and b = s_window in
    let d = delta a b in
    let recorded = Array.of_list (List.rev !recorded) in
    let sv = Layers.serving g0 (Array.map fst recorded) (Array.map snd recorded) in
    let hit_ratio = ratio (d "result_cache_hits") (d "result_cache_misses") in
    let stream = Array.of_list (List.rev learner.sent) in
    let ln =
      Layers.learning ~dir:(Filename.concat workdir "replay-log") ~mode:Learner.mode
        ~solver_params:Sorl_svmrank.Solver_dcd.default_params
        ~init:(match last_cycle with Some c -> c.init | None -> Sorl.Autotuner.weights g0.tuner)
        ~stream
        ~points:(List.map (fun c -> c.Learner.acked_at) cycles)
    in
    let reuse =
      match last_cycle with
      | Some c ->
        ratio c.stats.Trainer.records_cached c.stats.Trainer.records_encoded
      | None -> 0.
    in
    [
      ("server.requests", float_of_int (d "requests"), "count");
      ("server.busy_rejections", float_of_int (d "busy_rejections"), "count");
      ("server.pipelined", float_of_int (d "pipelined"), "count");
      ("server.queue_depth_max", float_of_int !queue_max, "count");
      ("protocol.parse_us", sv.parse_us, "us");
      ("protocol.encode_us", sv.encode_us, "us");
      ("result_cache.hit_ratio", hit_ratio, "ratio");
      ("result_cache.evictions", float_of_int (d "result_cache_evictions"), "count");
      ("result_cache.find_us", sv.find_us, "us");
      ("batcher.coalesced_ratio", ratio (d "rank_followers") (d "rank_leaders"), "ratio");
      ("batcher.encoder_hit_ratio", ratio (d "encoder_hits") (d "encoder_misses"), "ratio");
      ("batcher.arena_hit_ratio", ratio (d "arena_hits") (d "arena_misses"), "ratio");
      ("batcher.rank_top_us", sv.rank_top_us, "us");
      ("features.compile_us", sv.compile_us, "us");
      ("autotuner.top_k_us", sv.top_k_us, "us");
      ("autotuner.scored_per_miss", sv.scored_per_miss, "count");
      ("autotuner.pruned_ratio", sv.pruned_ratio, "ratio");
      ("neighbor.hit_ratio", ratio (d "neighbor_hits") (d "neighbor_misses"), "ratio");
      ("neighbor.approx_replies", float_of_int phases.(2).approx, "count");
      ("obs_log.append_us", ln.append_us, "us");
      ("observe.flush_ms", median learner.flush_ms, "ms");
      ("obs_log.segments", float_of_int (stat s_end "obs_log_segments"), "count");
      ("trainer.retrain_s", cyc (fun c -> c.Learner.retrain_s), "s");
      ("trainer.replay_s", ln.replay_s, "s");
      ("trainer.encode_s", ln.encode_s, "s");
      ("dataset.pairs_s", ln.pairs_s, "s");
      ("solver.solve_s", ln.solve_s, "s");
      ("solver.pairs", float_of_int ln.pairs, "count");
      ("enc_cache.reuse_ratio", reuse, "ratio");
      ("model_store.publish_ms", cyc (fun c -> c.Learner.publish_ms), "ms");
      ("server.canary_ms", cyc (fun c -> c.Learner.canary_ms), "ms");
      ("server.promote_ms", median (List.map (fun (c : Learner.cycle) -> c.promote_ms) promoted), "ms");
      ("learn.promoted_cycles", float_of_int (List.length promoted), "count");
      ("learn.rolled_back_cycles", float_of_int (List.length cycles - List.length promoted), "count");
      ("training.generate_s", setup_med (fun s -> s.generate_s), "s");
      ("autotuner.fit_s", setup_med (fun s -> s.fit_s), "s");
      ("server.start_s", setup_med (fun s -> s.start_s), "s");
      ("failed_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
      ("trainer.layer_share", (ln.replay_s +. ln.encode_s +. ln.pairs_s +. ln.solve_s) /. ln.retrain_s, "ratio");
      ("trainer.retrain_inprocess_s", ln.retrain_s, "s");
      ("serve.unaccounted_us", sv.unaccounted_us, "us");
      ("trace.added_read_rps", rps_t -. rps_u, "1/s");
      ("trace.added_read_p50_ms", p50_t -. p50_u, "ms");
      ("trace.added_read_p99_ms", p99_t -. p99_u, "ms");
    ]
  in
  let metrics = if args.trace then layers () else e2e in
  (* ---- report ---- *)
  Printf.printf
    "provenance: workload=%s seed=%d seconds=%g trace=%b commit=%s nproc=%d ocaml=%s pool=%d \
     server_workers=%s\n"
    args.workload args.seed args.seconds args.trace args.commit
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Sorl_util.Pool.default_domains ())
    server_workers;
  let phase name attempted failed =
    Printf.printf "phase %-8s attempted %7d succeeded %7d failed %d\n" name attempted
      (attempted - failed) failed
  in
  phase "setup" setups 0;
  List.iteri
    (fun i s ->
      Printf.printf "setup %d: %.3f s (generate %.3f, fit %.3f, start %.3f)\n" i s.setup_s
        s.generate_s s.fit_s s.start_s)
    setups_done;
  phase "warm-up" phases.(0).sent phases.(0).failed;
  phase "reads" measured.sent measured.failed;
  let observed = List.length learner.sent in
  phase "observe" observed (observed - learner.acked);
  phase "learn" learner.cycle_ops learner.cycle_failed;
  List.iteri
    (fun i (c : Learner.cycle) ->
      Printf.printf
        "cycle %d: %.3f s at %d observations (retrain %.3f s, publish %.2f ms, canary %.2f ms, \
         promote %.2f ms, %s)\n"
        i c.cycle_s c.acked_at c.retrain_s c.publish_ms c.canary_ms c.promote_ms
        (if c.promoted then "promoted" else "rolled back"))
    (List.rev learner.cycles);
  Printf.printf "reads: %d measured samples, %d approximate (not compared)\n"
    (Array.length (Samples.to_array measured.lat))
    all_reads.approx;
  (let ts = Samples.to_array measured.sent_at in
   let slices = 10 in
   let width = (t_reads_end -. t_start) /. float_of_int slices in
   let counts = Array.make slices 0 in
   Array.iter
     (fun t ->
       let b = max 0 (min (slices - 1) (int_of_float ((t -. t_start) /. width))) in
       counts.(b) <- counts.(b) + 1)
     ts;
   Printf.printf "read rps by tenth of the window:%s\n"
     (String.concat ""
        (Array.to_list
           (Array.map (fun c -> Printf.sprintf " %.0f" (float_of_int c /. width)) counts))));
  (let lat = Samples.to_array measured.lat in
   Printf.printf "read latency (ms):%s\n"
     (String.concat ""
        (List.map
           (fun p -> Printf.sprintf " p%g %.3f" p (percentile lat p *. 1000.))
           [ 10.; 50.; 90.; 99. ])));
  List.iter (fun m -> Printf.printf "read error: %s\n" m) all_reads.errors;
  if args.trace then
    List.iter
      (fun (name, v, unit) -> Printf.printf "end-to-end %-22s %14.6f %s\n" name v unit)
      e2e;
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) (List.rev !problems);
  {
    correct = !problems = [];
    attempted;
    failed;
    metrics;
  }

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result r =
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %-28s %18.6f %s\n" name v unit)
    r.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) unit)
          r.metrics))

let () =
  let args = parse_args () in
  let workdir = Filename.concat ".perfbench-run" (string_of_int (Unix.getpid ())) in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let code =
    match run args ~workdir with
    | r ->
      print_result r;
      if r.correct then 0 else 1
    | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      2
  in
  kill_all ();
  rm_rf workdir;
  (try Unix.rmdir ".perfbench-run" with Unix.Unix_error _ -> ());
  exit code
