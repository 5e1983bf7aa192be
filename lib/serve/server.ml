open Sorl_stencil

type source =
  | Model_file of string
  | Store of Model_store.t * string

(* The paper's pre-defined configuration set of one grid shape (2-D or
   3-D), each tuning pre-rendered in its wire form with the separating
   space in front (" bx,by,bz,u,c"), so a rank reply is a header plus
   entries of this table.  Model-independent: built once per server. *)
type grid = { set : Tuning.t array; words : string array }

(* One benchmark's full ranking under one model: flat indices into
   [grid.set], best first, 16 bits each (the 3-D grid has 8,640). *)
type ranking = { grid : grid; order : Bytes.t }

(* The served model.  Swapped atomically on reload, so a request holds
   one coherent snapshot for its whole lifetime: a reload mid-request
   can never mix model A's weights with model B's generation.  It
   carries its own rankings, all built before it goes live, one per
   registered benchmark (by position in [instances]), so a retired
   generation's rankings are freed with it and no reply can outlive the
   model that produced it. *)
type loaded = {
  tuner : Sorl.Autotuner.t;
  model_name : string;
  generation : int;
  rankings : ranking array;
}

type t = {
  address : Protocol.address;
  source : source;
  current : loaded Atomic.t;
  obs : Sorl_learn.Obs_log.writer option;  (** observation ingestion, [None] = disabled *)
  observations : int Atomic.t;  (** records appended by this process *)
  holdout : float;  (** held-out fraction for promote decisions *)
  holdout_seed : int;
  canary : loaded option Atomic.t;
      (** a candidate's snapshot, built whole but not live: it answers
          no request, only shadows the stable rankings until [promote] *)
  quarantined : string list Atomic.t;  (** rolled-back names; written under [reload_m] *)
  canary_shadowed : int Atomic.t;
  canary_agree : int Atomic.t;
  canary_disagree : int Atomic.t;
  canary_promotions : int Atomic.t;
  canary_rollbacks : int Atomic.t;
  canary_tau_stable_m : int Atomic.t;  (** last decision's stable tau, thousandths *)
  canary_tau_candidate_m : int Atomic.t;
  canary_bm_agree : int Atomic.t array;
      (** per benchmark position in [instances], over the server's lifetime *)
  canary_bm_disagree : int Atomic.t array;
  grid2 : grid;
  grid3 : grid;
  hits : int Atomic.t;  (** rank/tune replies sliced from a resident ranking *)
  workers : int;
  conn_timeout_s : float;
  listen_fd : Unix.file_descr;
  queue : Reactor.batch Sorl_util.Bqueue.t;
  stopping : bool Atomic.t;
  reload_m : Mutex.t;  (** serializes reloads; readers never take it *)
  started_at : float;
  requests : int Atomic.t;
  errors : int Atomic.t;
  connections : int Atomic.t;
  busy_rejections : int Atomic.t;
  reloads : int Atomic.t;
  pipelined : int Atomic.t;
  reactor_replies : int Atomic.t;  (** requests answered on the reactor domain *)
  mutable reactor : Reactor.t option;
  mutable reactor_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable joined : bool;
}

let requests_counter = Sorl_util.Telemetry.counter "serve.requests"
let errors_counter = Sorl_util.Telemetry.counter "serve.errors"
let connections_counter = Sorl_util.Telemetry.counter "serve.connections"
let busy_counter = Sorl_util.Telemetry.counter "serve.busy"
let reloads_counter = Sorl_util.Telemetry.counter "serve.reloads"
let pipelined_counter = Sorl_util.Telemetry.counter "serve.pipelined"
let reactor_replies_counter = Sorl_util.Telemetry.counter "serve.reactor_replies"
let queue_depth_hist = Sorl_util.Telemetry.histogram "serve.queue_depth"
let latency_hist = Sorl_util.Telemetry.histogram "serve.request_s"
let observations_counter = Sorl_util.Telemetry.counter "serve.observations"
let canary_shadowed_counter = Sorl_util.Telemetry.counter "serve.canary_shadowed"
let canary_agree_counter = Sorl_util.Telemetry.counter "serve.canary_agree"
let canary_disagree_counter = Sorl_util.Telemetry.counter "serve.canary_disagree"
let canary_promotions_counter = Sorl_util.Telemetry.counter "serve.canary_promotions"
let canary_rollbacks_counter = Sorl_util.Telemetry.counter "serve.canary_rollbacks"

let load_source source ~name =
  match (source, name) with
  | Model_file path, None -> (
    match Sorl.Autotuner.load_result path with
    | Ok tuner -> Ok (tuner, Filename.basename path)
    | Error msg -> Error (Protocol.Store, msg))
  | Model_file _, Some _ ->
    Error (Protocol.No_model, "file-backed server cannot switch models; restart with --store")
  | Store (store, current), name -> (
    let name = Option.value name ~default:current in
    match Model_store.load store ~name with
    | Ok tuner -> Ok (tuner, name)
    | Error msg -> Error (Protocol.Store, msg))

(* ---- listener sockets ---- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      Error (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0))

let make_listener address =
  match address with
  | Protocol.Unix_path path -> (
    (* A stale socket file from a crashed server would make bind fail;
       only ever unlink sockets, never regular files. *)
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128
    with
    | () -> Ok (fd, address)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e)))
  | Protocol.Tcp (host, port) -> (
    match resolve_host host with
    | Error _ as e -> e
    | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 128
      with
      | () ->
        (* Port 0 asks the kernel for an ephemeral port; report the
           actual one so clients can connect. *)
        let port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        Ok (fd, Protocol.Tcp (host, port))
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s:%d: %s" host port (Unix.error_message e))))

let listener = make_listener

(* ---- request dispatch ---- *)

let err code message = Protocol.Error { code; message }

(* ---- rank / tune ---- *)

let instances = Array.of_list Benchmarks.instances
let names = Array.map Instance.name instances

let bench_index benchmark = Array.find_index (String.equal benchmark) names

let make_grid ~dims =
  let set = Tuning.predefined_set ~dims in
  { set; words = Array.map (fun tn -> " " ^ Protocol.tuning_to_string tn) set }

(* One full scoring pass over the benchmark's grid.  The sort's own
   permutation is already the flat index into [grid.set], so it is
   stored as is. *)
let build ~grid2 ~grid3 tuner inst =
  let grid = if Kernel.dims (Instance.kernel inst) = 2 then grid2 else grid3 in
  let enc = Features.compile (Sorl.Autotuner.feature_mode tuner) inst in
  let order = Sorl.Autotuner.rank_order tuner enc grid.set in
  let packed = Bytes.create (2 * Array.length order) in
  Array.iteri (fun j x -> Bytes.set_uint16_le packed (2 * j) x) order;
  { grid; order = packed }

(* A serving snapshot with every benchmark's ranking built, at
   generation 0 until [install_locked] stamps it.  The rankings are
   handed out one at a time through an atomic next index to the
   calling domain (the starting domain, or the worker of a reload or
   canary) and, at a pool size of 2 or more, one helper domain.  Each
   ranking is built whole and serially, so no [rank_order] fans out
   below it, and is stored at its benchmark's index: the snapshot does
   not depend on which domain built what.  Rankings are 1–4 ms each
   and independent, so two domains halve the build, where a fan-out
   inside every [rank_order] (17 spawns at start) gained nothing.  An
   exception from a build stops the hand-out and propagates once both
   domains are done, so the snapshot is never installed or
   canaried. *)
let snapshot ~grid2 ~grid3 ~tuner ~model_name =
  let n = Array.length instances in
  let built = Array.make n None in
  let next = Atomic.make 0 in
  let work () =
    Sorl_util.Pool.serially (fun () ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            built.(i) <- Some (build ~grid2 ~grid3 tuner instances.(i));
            go ()
          end
        in
        match go () with
        | () -> Ok ()
        | exception e ->
          Atomic.set next n;
          Error (e, Printexc.get_raw_backtrace ()))
  in
  let helper =
    if Sorl_util.Pool.default_domains () >= 2 then Some (Domain.spawn work) else None
  in
  let mine = work () in
  let theirs = match helper with Some d -> Domain.join d | None -> Ok () in
  (match (mine, theirs) with
  | Error (e, bt), _ | Ok (), Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Ok (), Ok () -> ());
  { tuner; model_name; generation = 0; rankings = Array.map Option.get built }

let build_rankings () =
  let grid2 = make_grid ~dims:2 and grid3 = make_grid ~dims:3 in
  fun tuner ->
    Array.map (fun r -> r.order) (snapshot ~grid2 ~grid3 ~tuner ~model_name:"").rankings

let word r j = r.grid.words.(Bytes.get_uint16_le r.order (2 * j))

(* Append to [b] the bytes [Protocol.encode_response] gives the first
   [top] of the ranking as a [Ranked] / the best as a [Tuned] reply. *)
let rank_reply ~benchmark ~top r b =
  let n = Bytes.length r.order / 2 in
  Buffer.add_string b "ok rank ";
  Buffer.add_string b benchmark;
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int n);
  for j = 0 to min top n - 1 do
    Buffer.add_string b (word r j)
  done

let tune_reply ~benchmark r b =
  Buffer.add_string b "ok tune ";
  Buffer.add_string b benchmark;
  Buffer.add_string b (word r 0)

let handle_info t =
  let l = Atomic.get t.current in
  let mode = Sorl.Autotuner.feature_mode l.tuner in
  Protocol.Info_reply
    [
      ("protocol", string_of_int Protocol.version);
      ("model", l.model_name);
      ("generation", string_of_int l.generation);
      ("mode", Features.mode_to_string mode);
      ("dim", string_of_int (Features.dim mode));
      ("workers", string_of_int t.workers);
      ("uptime_s", string_of_int (int_of_float (Unix.gettimeofday () -. t.started_at)));
    ]

let handle_observe t ~benchmark ~tuning ~cost =
  match t.obs with
  | None ->
    err Protocol.No_log "server has no observation log (start serve with --obs-log)"
  | Some ol -> (
    match Sorl_stencil.Benchmarks.instance_by_name benchmark with
    | exception Not_found ->
      err Protocol.No_benchmark (Printf.sprintf "unknown benchmark %S" benchmark)
    | _ -> (
      match Sorl_learn.Obs_log.append ol { Sorl_learn.Obs_log.benchmark; tuning; cost } with
      | () ->
        Atomic.incr t.observations;
        Sorl_util.Telemetry.incr observations_counter;
        Protocol.Observed { total = Sorl_learn.Obs_log.written ol }
      | exception Sys_error msg -> err Protocol.Internal ("observation log: " ^ msg)))

let handle_stats t =
  let current = Atomic.get t.current in
  let learn_kvs =
    let obs_kvs =
      match t.obs with
      | None -> []
      | Some ol ->
        [
          ("observations", Atomic.get t.observations);
          ("obs_log_records", Sorl_learn.Obs_log.written ol);
          ("obs_log_segments", Sorl_learn.Obs_log.segments ol);
        ]
    in
    (* the benchmarks shadowed at least once *)
    let per_benchmark =
      List.concat
        (List.init (Array.length names) (fun i ->
             let a = Atomic.get t.canary_bm_agree.(i)
             and d = Atomic.get t.canary_bm_disagree.(i) in
             if a + d = 0 then []
             else [ ("canary_agree_" ^ names.(i), a); ("canary_disagree_" ^ names.(i), d) ]))
      |> List.sort compare
    in
    obs_kvs
    @ [
        ("canary_active", (match Atomic.get t.canary with Some _ -> 1 | None -> 0));
        ("canary_shadowed", Atomic.get t.canary_shadowed);
        ("canary_agree", Atomic.get t.canary_agree);
        ("canary_disagree", Atomic.get t.canary_disagree);
        ("canary_promotions", Atomic.get t.canary_promotions);
        ("canary_rollbacks", Atomic.get t.canary_rollbacks);
        ("canary_quarantined", List.length (Atomic.get t.quarantined));
        ("canary_tau_stable_m", Atomic.get t.canary_tau_stable_m);
        ("canary_tau_candidate_m", Atomic.get t.canary_tau_candidate_m);
      ]
    @ per_benchmark
  in
  Protocol.Stats_reply
    ([
       ("requests", Atomic.get t.requests);
       ("errors", Atomic.get t.errors);
       ("connections", Atomic.get t.connections);
       ("busy_rejections", Atomic.get t.busy_rejections);
       ("reloads", Atomic.get t.reloads);
       ("pipelined", Atomic.get t.pipelined);
       ("reactor_replies", Atomic.get t.reactor_replies);
       ("result_cache_hits", Atomic.get t.hits);
       ("result_cache_entries", Array.length current.rankings);
       ("queue_depth", Sorl_util.Bqueue.length t.queue);
       ("generation", current.generation);
     ]
    @ learn_kvs)

(* ---- per-line handling ---- *)

(* [reply] appends the reply line, without its newline, to the worker's
   output buffer: a deep slice (about 150 KB at full depth) goes from
   the ranking into the write with no intermediate string. *)
type outcome = { reply : Buffer.t -> unit; error : bool; bye : bool }

let outcome_of_response response =
  let line = Protocol.encode_response response in
  {
    reply = (fun b -> Buffer.add_string b line);
    error = (match response with Protocol.Error _ -> true | _ -> false);
    bye = response = Protocol.Bye;
  }

(* Install a built serving snapshot, stamped with the next generation.
   Must be called holding [reload_m]; shared by [reload] and a
   successful [promote], so a promoted canary goes live through exactly
   the hot-swap path reload exercises, before the reply is on the wire.
   Until the swap the old snapshot keeps serving; the retired one's
   rankings go with it. *)
let install_locked t s =
  let generation = (Atomic.get t.current).generation + 1 in
  Atomic.set t.current { s with generation };
  Atomic.incr t.reloads;
  Sorl_util.Telemetry.incr reloads_counter;
  generation

(* The build runs before [install_locked]: one that raises leaves the
   old snapshot live, and the request gets [err internal]. *)
let handle_reload t ~model =
  Mutex.protect t.reload_m (fun () ->
      match load_source t.source ~name:model with
      | Error (code, msg) -> err code msg
      | Ok (tuner, model_name) ->
        let generation =
          install_locked t (snapshot ~grid2:t.grid2 ~grid3:t.grid3 ~tuner ~model_name)
        in
        Protocol.Reloaded { model = model_name; generation })

(* Load and build the candidate's whole snapshot, with the same code
   reload uses, and hold it beside the live one; it replaces any
   earlier canary.  A failed build leaves the earlier canary loaded. *)
let handle_canary t ~model =
  Mutex.protect t.reload_m (fun () ->
      if List.mem model (Atomic.get t.quarantined) then
        err Protocol.Canary_rejected
          (Printf.sprintf "model %S was rolled back and is quarantined; publish a new generation"
             model)
      else
        match t.source with
        | Model_file _ ->
          err Protocol.No_model "file-backed server cannot canary; restart with --store"
        | Store (store, _) -> (
          match Model_store.load store ~name:model with
          | Error msg -> err Protocol.Store msg
          | Ok tuner ->
            Atomic.set t.canary
              (Some (snapshot ~grid2:t.grid2 ~grid3:t.grid3 ~tuner ~model_name:model));
            Protocol.Canaried { model }))

(* Decide the loaded canary on the observation log's held-out slice:
   the same deterministic split the trainer used, so the candidate is
   judged on records it never trained on.  Promotion requires the
   candidate's mean per-benchmark Kendall tau to be no worse than the
   stable generation's, and then its already built snapshot is swapped
   in; otherwise the candidate is dropped and its name quarantined so
   a republished generation (not the same bytes) is needed to try
   again. *)
let handle_promote t =
  Mutex.protect t.reload_m (fun () ->
      match Atomic.get t.canary with
      | None -> err Protocol.Canary_rejected "no canary loaded (send a canary request first)"
      | Some cn -> (
        match t.obs with
        | None ->
          err Protocol.No_log
            "promote needs an observation log for the held-out comparison (start serve with \
             --obs-log)"
        | Some ol -> (
          match Sorl_learn.Obs_log.replay (Sorl_learn.Obs_log.path ol) with
          | Error msg -> err Protocol.Internal msg
          | Ok (obs, _clean) -> (
            let _train, held =
              Sorl_learn.Trainer.split ~holdout:t.holdout ~seed:t.holdout_seed obs
            in
            let stable = Atomic.get t.current in
            match
              ( Sorl_learn.Trainer.holdout_tau stable.tuner held,
                Sorl_learn.Trainer.holdout_tau cn.tuner held )
            with
            | Some st, Some ct ->
              let milli x = int_of_float (Float.round (x *. 1000.)) in
              Atomic.set t.canary_tau_stable_m (milli st);
              Atomic.set t.canary_tau_candidate_m (milli ct);
              if Sorl_learn.Trainer.no_worse ~stable:st ~candidate:ct then begin
                let generation = install_locked t cn in
                Atomic.set t.canary None;
                Atomic.incr t.canary_promotions;
                Sorl_util.Telemetry.incr canary_promotions_counter;
                Protocol.Promoted { model = cn.model_name; generation }
              end
              else begin
                Atomic.set t.canary None;
                Atomic.set t.quarantined (cn.model_name :: Atomic.get t.quarantined);
                Atomic.incr t.canary_rollbacks;
                Sorl_util.Telemetry.incr canary_rollbacks_counter;
                err Protocol.Canary_rejected
                  (Printf.sprintf
                     "candidate %s held-out tau %.4f is worse than stable %.4f; rolled back and \
                      quarantined"
                     cn.model_name ct st)
              end
            | _ ->
              err Protocol.Canary_rejected
                "not enough held-out observations to compare (each benchmark needs >= 2 records \
                 with distinct costs)"))))

(* Shadow agreement, recorded before the reply is written: does the
   canary's ranking of benchmark [i] start with the same [k] entries as
   the stable one?  A reply of depth [k] is the first [k] of its
   model's ranking, so this is the verdict re-scoring the reply with
   the candidate would give, in O(k) bytes. *)
let shadow t stable cn i ~k =
  let a = stable.rankings.(i).order and b = cn.rankings.(i).order in
  let rec same j =
    j = k || (Bytes.get_uint16_le a (2 * j) = Bytes.get_uint16_le b (2 * j) && same (j + 1))
  in
  let agreed = same 0 in
  Atomic.incr t.canary_shadowed;
  Sorl_util.Telemetry.incr canary_shadowed_counter;
  if agreed then begin
    Atomic.incr t.canary_agree;
    Sorl_util.Telemetry.incr canary_agree_counter;
    Atomic.incr t.canary_bm_agree.(i)
  end
  else begin
    Atomic.incr t.canary_disagree;
    Sorl_util.Telemetry.incr canary_disagree_counter;
    Atomic.incr t.canary_bm_disagree.(i)
  end

(* rank/tune, with or without [!]: a slice of the benchmark's resident
   ranking, [top] deep. *)
let from_ranking t snapshot ~benchmark ~top reply_of =
  match bench_index benchmark with
  | None ->
    outcome_of_response
      (err Protocol.No_benchmark (Printf.sprintf "unknown benchmark %S" benchmark))
  | Some i ->
    Atomic.incr t.hits;
    let r = snapshot.rankings.(i) in
    (match Atomic.get t.canary with
    | None -> ()
    | Some cn -> shadow t snapshot cn i ~k:(min top (Bytes.length r.order / 2)));
    { reply = reply_of r; error = false; bye = false }

let dispatch t snapshot request =
  match request with
  | Protocol.Rank { benchmark; top; _ } ->
    from_ranking t snapshot ~benchmark ~top (rank_reply ~benchmark ~top)
  | Protocol.Tune { benchmark; _ } ->
    from_ranking t snapshot ~benchmark ~top:1 (tune_reply ~benchmark)
  | Protocol.Observe { benchmark; tuning; cost } ->
    outcome_of_response (handle_observe t ~benchmark ~tuning ~cost)
  | Protocol.Info -> outcome_of_response (handle_info t)
  | Protocol.Stats -> outcome_of_response (handle_stats t)
  | Protocol.Reload { model } -> outcome_of_response (handle_reload t ~model)
  | Protocol.Canary { model } -> outcome_of_response (handle_canary t ~model)
  | Protocol.Promote -> outcome_of_response (handle_promote t)
  | Protocol.Shutdown ->
    Atomic.set t.stopping true;
    outcome_of_response Protocol.Bye

let handle_request t parsed =
  Atomic.incr t.requests;
  Sorl_util.Telemetry.incr requests_counter;
  let outcome =
    Sorl_util.Telemetry.time_hist latency_hist (fun () ->
        match parsed with
        | Error msg -> outcome_of_response (err Protocol.Bad_request msg)
        | Ok request -> (
          let snapshot = Atomic.get t.current in
          match dispatch t snapshot request with
          | outcome -> outcome
          | exception e -> outcome_of_response (err Protocol.Internal (Printexc.to_string e))))
  in
  if outcome.error then begin
    Atomic.incr t.errors;
    Sorl_util.Telemetry.incr errors_counter
  end;
  outcome

(* Serve one parsed request, appending its reply line to [buf]; true
   when the reply is [bye]. *)
let serve_into t buf parsed =
  let o = Sorl_util.Telemetry.span "serve/request" (fun () -> handle_request t parsed) in
  o.reply buf;
  Buffer.add_char buf '\n';
  o.bye

(* ---- the reactor's own path ---- *)

(* A batch whose every line is a rank/tune (bang forms too), info or
   stats only reads resident state, so the reactor answers it without
   a hop to a worker.  Any other verb, or a line that does not parse,
   sends the whole batch to the workers: one place per batch keeps the
   replies in request order with no further bookkeeping. *)
let answer_on_reactor t lines =
  let rec parse acc = function
    | [] -> Some (List.rev acc)
    | line :: rest -> (
      match Protocol.parse_request line with
      | Ok (Protocol.Rank _ | Protocol.Tune _ | Protocol.Info | Protocol.Stats) as r ->
        parse (r :: acc) rest
      | Ok _ | Error _ -> None)
  in
  Option.map
    (fun requests buf ->
      List.iter
        (fun r ->
          Atomic.incr t.reactor_replies;
          Sorl_util.Telemetry.incr reactor_replies_counter;
          ignore (serve_into t buf r))
        requests)
    (parse [] lines)

(* ---- worker loop ---- *)

(* Workers never see connections, only ready request batches that the
   reactor did not answer itself: the reactor owns every descriptor and
   all reading.  A batch's replies are answered in request order into
   one buffer and leave in a single write, so an N-deep pipeline pays
   one syscall, not N flushes. *)
let worker_loop t reactor =
  (* Worker domains live for the whole server; requests they process
     must not fan out into a second level of Pool domains.  The one
     exception is [snapshot], which a reload or canary runs here: it
     hands its 17 rankings to this worker and at most one helper
     domain, because a whole build is 30–50 ms of independent work that
     halves on two domains, while each ranking stays serial. *)
  Sorl_util.Pool.serially (fun () ->
      let buf = Buffer.create 512 in
      let rec loop () =
        match Sorl_util.Bqueue.pop t.queue with
        | None -> ()
        | Some { Reactor.conn; lines } ->
          Buffer.clear buf;
          let bye = ref false in
          List.iter
            (fun line ->
              (* Requests pipelined behind a shutdown are not served:
                 the channel-based loop stopped reading after [Bye]. *)
              if not !bye then bye := serve_into t buf (Protocol.parse_request line))
            lines;
          let wrote =
            Reactor.write_all ~timeout_s:t.conn_timeout_s (Reactor.conn_fd conn)
              (Buffer.contents buf)
          in
          Reactor.complete reactor conn ~close:(!bye || Result.is_error wrote);
          loop ()
      in
      loop ())

let start ?(address = Protocol.Unix_path "sorl.sock") ?workers ?(queue_capacity = 64)
    ?(conn_timeout_s = 10.) ?(max_connections = 512) ?obs_log ?obs_roll ?obs_fsync
    ?(holdout = Sorl_learn.Trainer.default_holdout)
    ?(holdout_seed = Sorl_learn.Trainer.default_seed) source =
  let workers =
    match workers with Some w -> w | None -> Sorl_util.Pool.default_domains ()
  in
  if workers < 1 then Error "Server.start: workers must be >= 1"
  else if queue_capacity < 1 then Error "Server.start: queue_capacity must be >= 1"
  else if not (Float.is_finite holdout) || holdout < 0. || holdout >= 1. then
    Error "Server.start: holdout must be in [0, 1)"
  else
    (* Everything that can fail runs before the observation log and the
       listener are opened, and the listener is bound last, so an
       [Error] never leaves a descriptor or a socket file behind. *)
    let ( let* ) = Result.bind in
    let grid2 = make_grid ~dims:2 and grid3 = make_grid ~dims:3 in
    let opened =
      let* tuner, model_name = Result.map_error snd (load_source source ~name:None) in
      (* Built before accepting: the first query of every benchmark is
         already a slice. *)
      let* initial =
        match snapshot ~grid2 ~grid3 ~tuner ~model_name with
        | s -> Ok s
        | exception e -> Error ("Server.start: ranking build: " ^ Printexc.to_string e)
      in
      let* obs =
        match obs_log with
        | None -> Ok None
        | Some path ->
          Result.map Option.some
            (Sorl_learn.Obs_log.create ?roll_at:obs_roll ?fsync_on_seal:obs_fsync path)
      in
      match make_listener address with
      | Ok listener -> Ok (initial, obs, listener)
      | Error _ as e ->
        Option.iter Sorl_learn.Obs_log.close obs;
        e
    in
    match opened with
    | Error _ as e -> e
    | Ok (initial, obs, (listen_fd, address)) ->
      (* A client vanishing mid-reply must not kill the server. *)
      (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
      let t =
        {
          address;
          source;
          current = Atomic.make initial;
          obs;
          observations = Atomic.make 0;
          holdout;
          holdout_seed;
          canary = Atomic.make None;
          quarantined = Atomic.make [];
          canary_shadowed = Atomic.make 0;
          canary_agree = Atomic.make 0;
          canary_disagree = Atomic.make 0;
          canary_promotions = Atomic.make 0;
          canary_rollbacks = Atomic.make 0;
          canary_tau_stable_m = Atomic.make 0;
          canary_tau_candidate_m = Atomic.make 0;
          canary_bm_agree = Array.map (fun _ -> Atomic.make 0) names;
          canary_bm_disagree = Array.map (fun _ -> Atomic.make 0) names;
          grid2;
          grid3;
          hits = Atomic.make 0;
          workers;
          conn_timeout_s;
          listen_fd;
          queue = Sorl_util.Bqueue.create ~capacity:queue_capacity;
          stopping = Atomic.make false;
          reload_m = Mutex.create ();
          started_at = Unix.gettimeofday ();
          requests = Atomic.make 0;
          errors = Atomic.make 0;
          connections = Atomic.make 0;
          busy_rejections = Atomic.make 0;
          reloads = Atomic.make 0;
          pipelined = Atomic.make 0;
          reactor_replies = Atomic.make 0;
          reactor = None;
          reactor_domain = None;
          worker_domains = [];
          joined = false;
        }
      in
      let reactor =
        Reactor.create ~listen_fd ~queue:t.queue ~stopping:t.stopping ~max_connections
          ~idle_timeout_s:conn_timeout_s ~answer:(answer_on_reactor t)
          ~busy_reply:
            (Protocol.encode_response (err Protocol.Busy "server busy, retry later"))
          ~on_connection:(fun () ->
            Atomic.incr t.connections;
            Sorl_util.Telemetry.incr connections_counter;
            Sorl_util.Telemetry.observe queue_depth_hist
              (float_of_int (Sorl_util.Bqueue.length t.queue)))
          ~on_shed:(fun () ->
            Atomic.incr t.busy_rejections;
            Sorl_util.Telemetry.incr busy_counter)
          ~on_pipelined:(fun n ->
            ignore (Atomic.fetch_and_add t.pipelined n);
            Sorl_util.Telemetry.add pipelined_counter n)
          ()
      in
      t.reactor <- Some reactor;
      t.worker_domains <-
        List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t reactor));
      t.reactor_domain <- Some (Domain.spawn (fun () -> Reactor.run reactor));
      Ok t

let address t = t.address
let generation t = (Atomic.get t.current).generation
let stop t = Atomic.set t.stopping true

let wait t =
  if not t.joined then begin
    t.joined <- true;
    (match t.reactor_domain with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.worker_domains;
    (match t.obs with Some ol -> Sorl_learn.Obs_log.close ol | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.address with
    | Protocol.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  end

let requests_served t = Atomic.get t.requests
