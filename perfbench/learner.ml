(* The write side: stream observations through [Client.Observer] and,
   after a prefill, every [batch] acknowledged observations run one learn cycle
   the way `sorl_tune learn --connect' does — warm-started
   [Trainer.retrain_incremental] from the serving generation, then
   [Model_store.publish], [canary] and [promote]. *)

module Client = Sorl_serve.Client

type cycle = {
  cycle_s : float;  (** observations flushed -> promote reply *)
  retrain_s : float;
  publish_ms : float;
  canary_ms : float;
  promote_ms : float;
  promoted : bool;
  stats : Sorl_learn.Trainer.retrain_stats;
  init : float array;  (** warm-start weights *)
  candidate : Sorl.Autotuner.t;
  acked_at : int;  (** observations in the log when it ran *)
}

type t = {
  mutable acked : int;
  mutable rejected : int;
  mutable batch_rates : float list;
      (** observations per second of each flushed batch, counting only
          time spent inside [send] *)
  mutable flush_ms : float list;
  mutable cycles : cycle list;  (** newest first *)
  mutable sent : Sorl_learn.Obs_log.obs list;  (** newest first, [record] only *)
  mutable requests : int;  (** protocol requests sent *)
  mutable ops : int;  (** observations + cycle steps attempted *)
  mutable failed : int;
  mutable cycle_ops : int;  (** of [ops], learn-cycle steps *)
  mutable cycle_failed : int;
  mutable errors : string list;
}

let create () =
  {
    acked = 0;
    rejected = 0;
    batch_rates = [];
    flush_ms = [];
    cycles = [];
    sent = [];
    requests = 0;
    ops = 0;
    failed = 0;
    cycle_ops = 0;
    cycle_failed = 0;
    errors = [];
  }

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- msg :: t.errors

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

type plan = {
  prefill : int;  (** observations streamed before the first batch *)
  batch : int;  (** observations per cycle; a multiple of the observer's flush batch (64) *)
  cycles : int;  (** cycles in the plan *)
}

let mode = Sorl_stencil.Features.Extended
let solver = Sorl.Autotuner.Dcd Sorl_svmrank.Solver_dcd.default_params

(* One cycle.  [stable] is the serving generation's oracle; returns the
   generation serving after the promote. *)
let cycle t ~client ~store ~log ~stable ~t_flushed =
  let ( let* ) r f =
    match r with
    | Ok x -> f x
    | Error m ->
      t.cycle_failed <- t.cycle_failed + 1;
      fail t m;
      None
  in
  let step () =
    t.ops <- t.ops + 1;
    t.cycle_ops <- t.cycle_ops + 1
  in
  let init = Sorl.Autotuner.weights stable.Oracle.tuner in
  step ();
  let* inc, retrain_s =
    match time (fun () -> Sorl_learn.Trainer.retrain_incremental ~solver ~init ~mode log) with
    | Ok inc, s -> Ok (inc, s)
    | Error m, _ -> Error ("retrain: " ^ m)
  in
  step ();
  let* (name, _), publish_s =
    match time (fun () -> Sorl_serve.Model_store.publish store ~base:"default" inc.tuner) with
    | Ok r, s -> Ok (r, s)
    | Error (Sorl_serve.Model_store.Generation_exists e), _ -> Error ("publish: exists " ^ e)
    | Error (Sorl_serve.Model_store.Publish_failed m), _ -> Error ("publish: " ^ m)
  in
  (* What the server will load: the published bytes, not our copy. *)
  let* served = Sorl_serve.Model_store.load store ~name in
  step ();
  t.requests <- t.requests + 1;
  let* _, canary_s =
    match time (fun () -> Client.canary client ~model:name) with
    | Ok m, s -> Ok (m, s)
    | Error m, _ -> Error ("canary: " ^ m)
  in
  step ();
  t.requests <- t.requests + 1;
  let cand = Oracle.gen ~number:(stable.Oracle.number + 1) served in
  let t_promote = Clock.now () in
  let reply = Client.promote client in
  let t_done = Clock.now () in
  let* promoted =
    match reply with
    | Ok (_, g) when g = cand.number -> Ok true
    | Ok (_, g) -> Error (Printf.sprintf "promote: generation %d, expected %d" g cand.number)
    | Error m when String.starts_with ~prefix:"canary-rejected" m -> Ok false
    | Error m -> Error ("promote: " ^ m)
  in
  let c =
    {
      cycle_s = t_done -. t_flushed;
      retrain_s;
      publish_ms = publish_s *. 1000.;
      canary_ms = canary_s *. 1000.;
      promote_ms = (t_done -. t_promote) *. 1000.;
      promoted;
      stats = inc.stats;
      init;
      candidate = inc.tuner;
      acked_at = t.acked;
    }
  in
  t.cycles <- c :: t.cycles;
  Some (if promoted then cand else stable)

(* Stream observations from [next] until the plan's cycles are done, an
   operation fails or [abort ()] holds.  Returns the generation serving
   at the end: the last promoted one, else [stable]. *)
let run t ~address ~store ~log ~stable ~plan ~next ~abort =
  match Client.connect ~timeout_s:30. address with
  | Error m ->
    fail t ("observer connect: " ^ m);
    stable
  | Ok client ->
    let observer = Client.Observer.create client in
    (* Totals carry over from earlier calls on the same [t]. *)
    let acked0 = t.acked and rejected0 = t.rejected in
    let sync () =
      t.acked <- acked0 + Client.Observer.acked observer;
      t.rejected <- rejected0 + Client.Observer.rejected observer
    in
    let stable = ref stable in
    let alive = ref true in
    let batch_s = ref 0. and batch_acked = ref 0 in
    let sent_time s =
      batch_s := !batch_s +. s;
      let acked = Client.Observer.acked observer in
      if acked > !batch_acked then begin
        t.batch_rates <- (float_of_int (acked - !batch_acked) /. !batch_s) :: t.batch_rates;
        batch_s := 0.;
        batch_acked := acked
      end
    in
    let send o =
      t.ops <- t.ops + 1;
      t.requests <- t.requests + 1;
      t.sent <- o :: t.sent;
      let before = Client.Observer.acked observer in
      let r, s =
        time (fun () ->
            Client.Observer.send observer ~benchmark:o.Sorl_learn.Obs_log.benchmark
              ~tuning:o.Sorl_learn.Obs_log.tuning ~cost:o.Sorl_learn.Obs_log.cost)
      in
      sent_time s;
      match r with
      | Error m ->
        fail t ("observe: " ^ m);
        alive := false
      | Ok () ->
        if Client.Observer.acked observer > before then t.flush_ms <- (s *. 1000.) :: t.flush_ms;
        sync ()
    in
    let cycles_done () = List.length t.cycles >= plan.cycles in
    let n = ref 0 in
    while !alive && (not (abort ())) && not (cycles_done ()) do
      send (next ());
      incr n;
      if !alive && (not (cycles_done ())) && !n > plan.prefill
         && (!n - plan.prefill) mod plan.batch = 0
      then begin
        (* The batch boundary is also a flush boundary (batch is a
           multiple of the observer's), so every sent observation is
           acknowledged here. *)
        match cycle t ~client ~store ~log ~stable:!stable ~t_flushed:(Clock.now ()) with
        | Some g -> stable := g
        | None -> alive := false
      end
    done;
    (match time (fun () -> Client.Observer.close observer) with
    | Ok (), s ->
      sent_time s;
      sync ()
    | Error m, _ -> fail t ("observe flush: " ^ m));
    if t.rejected > rejected0 then
      fail t (Printf.sprintf "%d observations rejected" (t.rejected - rejected0));
    Client.close client;
    !stable
