open Sorl_stencil

type 'a slot = { mutable outcome : ('a, exn) result option }

type cached_encoder = { enc : Features.compiled; mutable last_used : int }

type t = {
  m : Mutex.t;
  done_ : Condition.t;
  tops : (string, Tuning.t array slot) Hashtbl.t;  (** key: "<generation>/<instance>#<k>" *)
  encoders : (string, cached_encoder) Hashtbl.t;  (** key: "<mode>/<instance>" *)
  encoder_cache : int;
  mutable tick : int;  (** LRU clock *)
  mutable leaders : int;
  mutable followers : int;
  mutable encoder_hits : int;
  mutable encoder_misses : int;
}

let batched_counter = Sorl_util.Telemetry.counter "serve.batched"

let create ?(encoder_cache = 32) () =
  if encoder_cache < 1 then invalid_arg "Batcher.create: encoder_cache must be >= 1";
  {
    m = Mutex.create ();
    done_ = Condition.create ();
    tops = Hashtbl.create 16;
    encoders = Hashtbl.create 16;
    encoder_cache;
    tick = 0;
    leaders = 0;
    followers = 0;
    encoder_hits = 0;
    encoder_misses = 0;
  }

(* Caller holds [t.m]. *)
let get_encoder t mode inst =
  let key = Features.mode_to_string mode ^ "/" ^ Instance.name inst in
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.encoders key with
  | Some c ->
    c.last_used <- t.tick;
    t.encoder_hits <- t.encoder_hits + 1;
    c.enc
  | None ->
    t.encoder_misses <- t.encoder_misses + 1;
    if Hashtbl.length t.encoders >= t.encoder_cache then begin
      (* Evict the least recently used entry; the cache is small
         (default 32), so a linear scan beats maintaining a heap. *)
      let victim = ref None in
      Hashtbl.iter
        (fun k c ->
          match !victim with
          | Some (_, age) when age <= c.last_used -> ()
          | _ -> victim := Some (k, c.last_used))
        t.encoders;
      match !victim with Some (k, _) -> Hashtbl.remove t.encoders k | None -> ()
    end;
    let enc = Features.compile mode inst in
    Hashtbl.replace t.encoders key { enc; last_used = t.tick };
    enc

(* Leader/follower coalescing: the first arrival under [key] computes
   (outside the lock), everyone else waits on the condition variable
   and shares the result. *)
let coalesce t ~key ~compute =
  Mutex.lock t.m;
  match Hashtbl.find_opt t.tops key with
  | Some slot ->
    t.followers <- t.followers + 1;
    let rec wait () =
      match slot.outcome with
      | None ->
        Condition.wait t.done_ t.m;
        wait ()
      | Some outcome -> outcome
    in
    let outcome = wait () in
    Mutex.unlock t.m;
    Sorl_util.Telemetry.incr batched_counter;
    (match outcome with Ok r -> (r, true) | Error e -> raise e)
  | None ->
    t.leaders <- t.leaders + 1;
    let slot = { outcome = None } in
    Hashtbl.replace t.tops key slot;
    Mutex.unlock t.m;
    (* [compute] re-takes the lock for its own bookkeeping (encoder
       cache), so it must run unlocked; an exception becomes [Error]
       so the slot below is always resolved and no follower waits
       forever. *)
    let outcome = (try compute () with e -> Error e) in
    Mutex.lock t.m;
    slot.outcome <- Some outcome;
    Hashtbl.remove t.tops key;
    Condition.broadcast t.done_;
    Mutex.unlock t.m;
    (match outcome with Ok r -> (r, false) | Error e -> raise e)

let rank_top t ~generation ~tuner ~inst ~k () =
  (* [k] is part of the key: a top-1 and a top-10 for the same
     instance are different results, so they never coalesce onto each
     other. *)
  let key = Printf.sprintf "%d/%s#%d" generation (Instance.name inst) k in
  coalesce t ~key ~compute:(fun () ->
      Mutex.lock t.m;
      let enc = get_encoder t (Sorl.Autotuner.feature_mode tuner) inst in
      Mutex.unlock t.m;
      let dims = Kernel.dims (Instance.kernel inst) in
      Ok (fst (Sorl.Autotuner.top_k_pruned tuner enc ~dims ~k)))

type stats = {
  leaders : int;
  followers : int;
  encoder_hits : int;
  encoder_misses : int;
}

let stats t =
  Mutex.lock t.m;
  let s =
    {
      leaders = t.leaders;
      followers = t.followers;
      encoder_hits = t.encoder_hits;
      encoder_misses = t.encoder_misses;
    }
  in
  Mutex.unlock t.m;
  s
