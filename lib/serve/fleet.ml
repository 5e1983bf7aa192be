type shard = {
  address : Protocol.address;
  pid : int;
  mutable reaped : bool;
}

type t = { shards : shard list; mutable stopped : bool }

let shard_env = "SORL_FLEET_SHARD"

let shard_address ~dir i =
  Protocol.Unix_path (Filename.concat dir (Printf.sprintf "shard%d.sock" i))

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let now () = Unix.gettimeofday ()

(* ---- the shard side: spec marshalling and re-entry ----

   [Unix.fork] is off the table: OCaml 5 forbids it in any process
   that has ever created a domain, and every interesting supervisor
   (the CLI after training, the bench, the tests) has.  So a shard is
   a re-exec of the host executable with the server parameters in
   [SORL_FLEET_SHARD]; {!maybe_shard_main}, called at host startup,
   intercepts the variable before any CLI parsing and never returns. *)

let field k v = k ^ "=" ^ v
let sep = '\x1f'

let encode_spec ~address ~workers ?queue_capacity ?conn_timeout_s ?max_connections ?obs_log
    ?obs_roll ?obs_fsync source =
  let opt k to_s v = Option.map (fun v -> field k (to_s v)) v in
  let fields =
    [
      Some (field "addr" (Protocol.address_to_string address));
      Some
        (match source with
        | Server.Model_file path -> field "src" "file" ^ String.make 1 sep ^ field "path" path
        | Server.Store (st, name) ->
          field "src" "store"
          ^ String.make 1 sep
          ^ field "path" (Model_store.dir st)
          ^ String.make 1 sep
          ^ field "name" name);
      Some (field "workers" (string_of_int workers));
      opt "queue" string_of_int queue_capacity;
      opt "timeout" string_of_float conn_timeout_s;
      opt "maxconns" string_of_int max_connections;
      opt "obs" Fun.id obs_log;
      opt "obsroll" string_of_int obs_roll;
      opt "obsfsync" string_of_bool obs_fsync;
    ]
  in
  String.concat (String.make 1 sep) (List.filter_map Fun.id fields)

let maybe_shard_main () =
  match Sys.getenv_opt shard_env with
  | None -> ()
  | Some spec ->
    let die : 'a. string -> 'a =
     fun msg ->
      Printf.eprintf "fleet shard: %s\n%!" msg;
      exit 1
    in
    let fields =
      String.split_on_char sep spec
      |> List.filter_map (fun f ->
             match String.index_opt f '=' with
             | Some i ->
               Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
             | None -> None)
    in
    let get k = List.assoc_opt k fields in
    let req k =
      match get k with Some v -> v | None -> die (Printf.sprintf "missing field %S" k)
    in
    let parse what of_string v =
      match of_string v with
      | Some x -> x
      | None -> die (Printf.sprintf "bad %s %S" what v)
    in
    let address =
      match Protocol.address_of_string (req "addr") with
      | Ok a -> a
      | Error m -> die m
    in
    let source =
      match req "src" with
      | "file" -> Server.Model_file (req "path")
      | "store" -> (
        match Model_store.open_dir ~create:false (req "path") with
        | Ok st -> Server.Store (st, req "name")
        | Error m -> die m)
      | s -> die (Printf.sprintf "bad source kind %S" s)
    in
    let workers = parse "workers" int_of_string_opt (req "workers") in
    let opt_of what of_string k = Option.map (parse what of_string) (get k) in
    (match
       Server.start ~address ~workers
         ?queue_capacity:(opt_of "queue" int_of_string_opt "queue")
         ?conn_timeout_s:(opt_of "timeout" float_of_string_opt "timeout")
         ?max_connections:(opt_of "maxconns" int_of_string_opt "maxconns")
         ?obs_log:(get "obs")
         ?obs_roll:(opt_of "obsroll" int_of_string_opt "obsroll")
         ?obs_fsync:(opt_of "obsfsync" bool_of_string_opt "obsfsync")
         source
     with
    | Ok server ->
      Server.wait server;
      exit 0
    | Error m -> die m)

(* ---- the supervisor side ---- *)

let spawn_shard spec =
  let prog = Sys.executable_name in
  let env = Array.append (Unix.environment ()) [| shard_env ^ "=" ^ spec |] in
  (* The child inherits stdio; flush so it does not replay our
     buffered output. *)
  flush stdout;
  flush stderr;
  Unix.create_process_env prog [| prog |] env Unix.stdin Unix.stdout Unix.stderr

let child_alive sh =
  (not sh.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] sh.pid with
  | 0, _ -> true
  | _ ->
    sh.reaped <- true;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    sh.reaped <- true;
    false

(* Reap one child: wait [grace_s] for a voluntary exit, then SIGKILL.
   The escalation matters for the no-orphans guarantee — a wedged
   shard must not outlive its supervisor. *)
let reap ?(grace_s = 5.) sh =
  if not sh.reaped then begin
    let deadline = now () +. grace_s in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] sh.pid with
      | 0, _ ->
        if now () >= deadline then begin
          (try Unix.kill sh.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] sh.pid) with Unix.Unix_error _ -> ());
          sh.reaped <- true
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
      | _ -> sh.reaped <- true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> sh.reaped <- true
    in
    go ()
  end

let shutdown_shard sh =
  if child_alive sh then
    ignore
      (Client.with_connection ~timeout_s:5. ~retry_for_s:0.5 sh.address Client.shutdown)

(* Block until the shard answers an [info] probe, bailing out early if
   the child already exited (e.g. the source failed to load in the
   child — its stderr has the diagnosis). *)
let wait_ready ~deadline sh =
  let rec go () =
    match Client.connect_result ~timeout_s:5. ~retry_for_s:0.25 sh.address with
    | Ok c ->
      let r = Client.info c in
      Client.close c;
      (match r with
      | Ok _ -> Ok ()
      | Error _ ->
        if now () >= deadline then
          Error
            (Printf.sprintf "shard %s: not answering info within the ready timeout"
               (Protocol.address_to_string sh.address))
        else go ())
    | Error _ when not (child_alive sh) ->
      Error
        (Printf.sprintf "shard %s (pid %d) exited during startup"
           (Protocol.address_to_string sh.address)
           sh.pid)
    | Error e ->
      if now () >= deadline then
        Error
          (Printf.sprintf "shard %s: %s"
             (Protocol.address_to_string sh.address)
             (Client.connect_error_to_string e))
      else go ()
  in
  go ()

let start ~dir ~shards:n ?(workers = 1) ?queue_capacity ?conn_timeout_s ?max_connections
    ?obs_dir ?obs_roll ?obs_fsync ?(ready_timeout_s = 10.) source =
  if n < 1 then Error "Fleet.start: shards must be >= 1"
  else begin
    mkdir_p dir;
    Option.iter mkdir_p obs_dir;
    let spawn i =
      let address = shard_address ~dir i in
      let obs_log =
        Option.map
          (fun d -> Filename.concat d (Printf.sprintf "shard%d.obs" i))
          obs_dir
      in
      let spec =
        encode_spec ~address ~workers ?queue_capacity ?conn_timeout_s ?max_connections ?obs_log
          ?obs_roll ?obs_fsync source
      in
      { address; pid = spawn_shard spec; reaped = false }
    in
    let t = { shards = List.init n spawn; stopped = false } in
    let deadline = now () +. ready_timeout_s in
    let rec check = function
      | [] -> Ok t
      | sh :: rest -> (
        match wait_ready ~deadline sh with
        | Ok () -> check rest
        | Error msg ->
          (* Clean up whatever did come up before reporting. *)
          List.iter shutdown_shard t.shards;
          List.iter (reap ~grace_s:2.) t.shards;
          t.stopped <- true;
          Error msg)
    in
    check t.shards
  end

let addresses t = List.map (fun sh -> sh.address) t.shards
let pids t = List.map (fun sh -> sh.pid) t.shards

let alive t =
  List.map
    (fun sh ->
      (not sh.reaped)
      &&
      match Unix.kill sh.pid 0 with
      | () -> true
      | exception Unix.Unix_error _ -> false)
    t.shards

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    List.iter shutdown_shard t.shards;
    List.iter reap t.shards
  end
