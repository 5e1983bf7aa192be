type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; strict : bool }

let resolve address =
  match address with
  | Protocol.Unix_path path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | addr -> Ok (Unix.PF_INET, Unix.ADDR_INET (addr, port))
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        Error (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> Ok (Unix.PF_INET, Unix.ADDR_INET (h_addr_list.(0), port))))

let connect_once address timeout_s strict =
  match resolve address with
  | Error _ as e -> e
  | Ok (d, sa) -> (
    let fd = Unix.socket d Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
       with Unix.Unix_error _ -> ());
      Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; strict }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Protocol.address_to_string address)
           (Unix.error_message e)))

type connect_error =
  | Refused of string
  | Timed_out of { elapsed_s : float; attempts : int; last : string }

let connect_error_to_string = function
  | Refused msg -> msg
  | Timed_out { elapsed_s; attempts; last } ->
    Printf.sprintf "gave up connecting after %.2fs (%d attempts): %s" elapsed_s attempts
      last

(* Cheap xorshift for backoff jitter: [Random] would perturb the
   global generator (tests seed it), and quality hardly matters — the
   point is only that a thundering herd of reconnecting routers does
   not re-synchronize on identical sleep schedules. *)
let jitter_state =
  lazy
    (let t = Unix.gettimeofday () in
     ref
       (Unix.getpid ()
       + (int_of_float (t *. 1e6) land 0xffffff)
       + 1))

let jitter () =
  let s = Lazy.force jitter_state in
  let x = !s in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  s := x land max_int;
  float_of_int (!s land 0xffff) /. 65536.

let connect_result ?(timeout_s = 30.) ?(retry_for_s = 0.) ?(strict = false) address =
  let started = Unix.gettimeofday () in
  let deadline = started +. retry_for_s in
  (* Bounded exponential backoff with jitter: 10 ms doubling to a
     500 ms cap, each sleep scaled into [1/2, 1] of the current step
     and clamped to the remaining budget, so a dead endpoint costs a
     handful of attempts and exactly [retry_for_s] wall time — the old
     fixed 50 ms spin retried a dead shard hundreds of times per
     second for the whole window. *)
  let rec go attempts backoff =
    match connect_once address timeout_s strict with
    | Ok _ as ok -> ok
    | Error last ->
      let now = Unix.gettimeofday () in
      if now >= deadline then
        if retry_for_s <= 0. then Error (Refused last)
        else Error (Timed_out { elapsed_s = now -. started; attempts; last })
      else begin
        let sleep = Float.min (backoff *. (0.5 +. (0.5 *. jitter ()))) (deadline -. now) in
        if sleep > 0. then Unix.sleepf sleep;
        go (attempts + 1) (Float.min (backoff *. 2.) 0.5)
      end
  in
  go 1 0.01

let connect ?timeout_s ?retry_for_s ?strict address =
  Result.map_error connect_error_to_string
    (connect_result ?timeout_s ?retry_for_s ?strict address)

let close t = close_out_noerr t.oc

let request t req =
  match Protocol.encode_request req with
  | exception Invalid_argument msg -> Error msg
  | frame -> (
    (* A failed send does not abort the exchange: a server shedding
       load writes its busy reply and closes before ever reading, so
       the diagnosis is sitting in our receive buffer — read it. *)
    let write_error =
      match
        output_string t.oc (frame ^ "\n");
        flush t.oc
      with
      | () -> None
      | exception Sys_error msg -> Some ("connection failed: " ^ msg)
      | exception Unix.Unix_error (e, _, _) ->
        Some ("connection failed: " ^ Unix.error_message e)
    in
    match input_line t.ic with
    | line -> Protocol.parse_response ~strict:t.strict line
    | exception End_of_file ->
      Error (Option.value write_error ~default:"connection closed by server")
    | exception Sys_error msg ->
      Error (Option.value write_error ~default:("connection failed: " ^ msg))
    | exception Unix.Unix_error (e, _, _) ->
      Error (Option.value write_error ~default:("connection failed: " ^ Unix.error_message e)))

let pipeline t reqs =
  match List.map Protocol.encode_request reqs with
  | exception Invalid_argument msg -> Error msg
  | frames -> (
    (* One buffered write and one flush for the whole train; the
       server answers in order, batching its replies the same way.  As
       in [request], a failed send still tries to read — a shedding
       server's busy reply may be sitting in the receive buffer. *)
    let write_error =
      match
        List.iter (fun frame -> output_string t.oc (frame ^ "\n")) frames;
        flush t.oc
      with
      | () -> None
      | exception Sys_error msg -> Some ("connection failed: " ^ msg)
      | exception Unix.Unix_error (e, _, _) ->
        Some ("connection failed: " ^ Unix.error_message e)
    in
    let fail default = Error (Option.value write_error ~default) in
    let rec read_replies n acc =
      if n = 0 then Ok (List.rev acc)
      else
        match input_line t.ic with
        | line -> (
          match Protocol.parse_response ~strict:t.strict line with
          | Ok r -> read_replies (n - 1) (r :: acc)
          | Error _ as e -> e)
        | exception End_of_file -> fail "connection closed by server"
        | exception Sys_error msg -> fail ("connection failed: " ^ msg)
        | exception Unix.Unix_error (e, _, _) ->
          fail ("connection failed: " ^ Unix.error_message e)
    in
    read_replies (List.length reqs) [])

let with_connection ?timeout_s ?retry_for_s ?strict address f =
  match connect ?timeout_s ?retry_for_s ?strict address with
  | Error _ as e -> e
  | Ok c -> Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

let server_error code message =
  Error (Protocol.error_code_to_string code ^ ": " ^ message)

let unexpected line = Error ("unexpected reply: " ^ line)

let rank t ~benchmark ~top =
  match request t (Protocol.Rank { benchmark; top; approx_ok = false }) with
  | Error _ as e -> e
  | Ok (Protocol.Ranked { tunings; _ }) -> Ok tunings
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let tune t ~benchmark =
  match request t (Protocol.Tune { benchmark; approx_ok = false }) with
  | Error _ as e -> e
  | Ok (Protocol.Tuned { tuning; _ }) -> Ok tuning
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let info t =
  match request t Protocol.Info with
  | Error _ as e -> e
  | Ok (Protocol.Info_reply kvs) -> Ok kvs
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let stats t =
  match request t Protocol.Stats with
  | Error _ as e -> e
  | Ok (Protocol.Stats_reply kvs) -> Ok kvs
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let reload ?model t =
  match request t (Protocol.Reload { model }) with
  | Error _ as e -> e
  | Ok (Protocol.Reloaded { model; generation }) -> Ok (model, generation)
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let shutdown t =
  match request t Protocol.Shutdown with
  | Error _ as e -> e
  | Ok Protocol.Bye -> Ok ()
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let observe t ~benchmark ~tuning ~cost =
  match request t (Protocol.Observe { benchmark; tuning; cost }) with
  | Error _ as e -> e
  | Ok (Protocol.Observed { total }) -> Ok total
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let canary t ~model =
  match request t (Protocol.Canary { model }) with
  | Error _ as e -> e
  | Ok (Protocol.Canaried { model }) -> Ok model
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

let promote t =
  match request t Protocol.Promote with
  | Error _ as e -> e
  | Ok (Protocol.Promoted { model; generation }) -> Ok (model, generation)
  | Ok (Protocol.Error { code; message }) -> server_error code message
  | Ok r -> unexpected (Protocol.encode_response r)

module Observer = struct
  type client = t

  type t = {
    client : client;
    batch : int;
    mutable buffered : Protocol.request list;  (* newest first *)
    mutable pending : int;
    mutable acked : int;
    mutable rejected : int;
  }

  let create ?(batch = 64) client =
    if batch < 1 then invalid_arg "Client.Observer.create: batch must be >= 1";
    { client; batch; buffered = []; pending = 0; acked = 0; rejected = 0 }

  let flush o =
    match o.buffered with
    | [] -> Ok ()
    | reqs -> (
      let train = List.rev reqs in
      o.buffered <- [];
      o.pending <- 0;
      match pipeline o.client train with
      | Error _ as e -> e
      | Ok replies ->
        List.iter
          (function
            | Protocol.Observed _ -> o.acked <- o.acked + 1
            | _ -> o.rejected <- o.rejected + 1)
          replies;
        Ok ())

  let send o ~benchmark ~tuning ~cost =
    o.buffered <- Protocol.Observe { benchmark; tuning; cost } :: o.buffered;
    o.pending <- o.pending + 1;
    if o.pending >= o.batch then flush o else Ok ()

  let acked o = o.acked
  let rejected o = o.rejected
  let close o = flush o
end
