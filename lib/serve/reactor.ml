type conn = {
  fd : Unix.file_descr;
  mutable partial : string;  (** bytes of an incomplete trailing line *)
  pending : string Queue.t;  (** complete lines not yet served *)
  mutable busy : bool;  (** a worker holds a batch for this connection *)
  mutable out : string;  (** replies the reactor is writing to this connection *)
  mutable out_off : int;  (** bytes of [out] the socket has taken *)
  mutable shed : bool;  (** answered [busy]: close once [out] is written *)
  mutable eof : bool;  (** peer closed or read failed; close once drained *)
  mutable closed : bool;
  mutable last_active : float;
}

type batch = { conn : conn; lines : string list }

type t = {
  listen_fd : Unix.file_descr;
  queue : batch Sorl_util.Bqueue.t;
  stopping : bool Atomic.t;
  max_connections : int;
  idle_timeout_s : float;
  shed_timeout_s : float;
  busy_line : string;  (** the busy reply with its newline *)
  answer : string list -> (Buffer.t -> unit) option;
  on_connection : unit -> unit;
  on_shed : unit -> unit;
  on_pipelined : int -> unit;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  wake_r : Unix.file_descr;  (** workers poke this pipe to interrupt [select] *)
  wake_w : Unix.file_descr;
  comp_m : Mutex.t;
  completions : (conn * bool) Queue.t;  (** (conn, close requested) *)
  scratch : Bytes.t;
  reply : Buffer.t;  (** assembles the replies of a batch the reactor answers *)
}

let conn_fd c = c.fd

(* A request line is bounded (a verb plus a couple of tokens); a peer
   streaming an endless unterminated line must not grow the buffer
   without limit. *)
let max_line_bytes = 65536

let write_all ?(timeout_s = 10.) fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go off =
    if off >= len then Ok ()
    else if Unix.gettimeofday () > deadline then Result.Error "write timed out"
    else
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        (* Wait for writability, but never past the deadline: a client
           that stopped reading must not park this domain. *)
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then Result.Error "write timed out"
        else
          match Unix.select [] [ fd ] [] (Float.min remaining 0.25) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | _ -> go off)
      | exception Unix.Unix_error (e, _, _) -> Result.Error (Unix.error_message e)
  in
  go 0

let create ~listen_fd ~queue ~stopping ?(max_connections = 512) ?(idle_timeout_s = 10.)
    ?(answer = fun _ -> None) ~busy_reply ~on_connection ~on_shed ~on_pipelined () =
  (try Unix.set_nonblock listen_fd with Unix.Unix_error _ -> ());
  let wake_r, wake_w = Unix.pipe () in
  (try
     Unix.set_nonblock wake_r;
     Unix.set_nonblock wake_w
   with Unix.Unix_error _ -> ());
  {
    listen_fd;
    queue;
    stopping;
    max_connections;
    idle_timeout_s;
    shed_timeout_s = Float.min idle_timeout_s 2.;
    busy_line = busy_reply ^ "\n";
    answer;
    on_connection;
    on_shed;
    on_pipelined;
    conns = Hashtbl.create 64;
    wake_r;
    wake_w;
    comp_m = Mutex.create ();
    completions = Queue.create ();
    scratch = Bytes.create 4096;
    reply = Buffer.create 4096;
  }

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let writing c = c.out_off < String.length c.out

(* Append freshly read bytes, splitting off every complete line.  Bare
   empty lines are skipped, exactly as the channel-based loop skipped
   them; a line of only whitespace still reaches the parser (and earns
   its [bad-request]). *)
let consume c data =
  let data = if c.partial = "" then data else c.partial ^ data in
  let len = String.length data in
  let rec go start =
    if start >= len then c.partial <- ""
    else
      match String.index_from_opt data start '\n' with
      | Some i ->
        if i > start then Queue.add (String.sub data start (i - start)) c.pending;
        go (i + 1)
      | None -> c.partial <- String.sub data start (len - start)
  in
  go 0

(* [c] has nothing in flight (no worker batch, no unwritten reply):
   serve the lines that buffered meanwhile, or close it when it was
   shed, its peer is gone, or the server is stopping. *)
let rec settle t c =
  if c.closed || c.busy || writing c then ()
  else if c.shed || Atomic.get t.stopping then close_conn t c
  else if not (Queue.is_empty c.pending) then dispatch t c
  else if c.eof then close_conn t c

(* Hand [s] to the socket as far as it takes it now, never waiting:
   the rest goes out as [select] reports the descriptor writable. *)
and send t c s =
  c.out <- s;
  c.out_off <- 0;
  flush_out t c

and flush_out t c =
  match Unix.write_substring c.fd c.out c.out_off (String.length c.out - c.out_off) with
  | n ->
    c.out_off <- c.out_off + n;
    c.last_active <- Unix.gettimeofday ();
    if writing c then flush_out t c
    else begin
      c.out <- "";
      c.out_off <- 0;
      settle t c
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t c

(* Answer [n] requests with busy and close the connection once the
   replies are written. *)
and shed t c n =
  t.on_shed ();
  c.shed <- true;
  Queue.clear c.pending;
  send t c (String.concat "" (List.init n (fun _ -> t.busy_line)))

(* A batch the [answer] hook takes is answered here, on the reactor;
   any other goes to the workers whole, or, with their queue full (or
   draining), is shed. *)
and dispatch t c =
  let lines = List.of_seq (Queue.to_seq c.pending) in
  Queue.clear c.pending;
  let n = List.length lines in
  match t.answer lines with
  | Some answer ->
    (* counted before it is answered, so a [stats] in the batch sees it *)
    if n > 1 then t.on_pipelined n;
    Buffer.clear t.reply;
    answer t.reply;
    send t c (Buffer.contents t.reply)
  | None ->
    if Sorl_util.Bqueue.try_push t.queue { conn = c; lines } then begin
      c.busy <- true;
      if n > 1 then t.on_pipelined n
    end
    else shed t c n

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | fd, _ ->
      (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
      let c =
        {
          fd;
          partial = "";
          pending = Queue.create ();
          busy = false;
          out = "";
          out_off = 0;
          shed = false;
          eof = false;
          closed = false;
          last_active = Unix.gettimeofday ();
        }
      in
      let full = Hashtbl.length t.conns >= t.max_connections in
      Hashtbl.replace t.conns fd c;
      if full then shed t c 1 else t.on_connection ();
      go ()
  in
  go ()

let read_conn t c =
  let rec drain () =
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> c.eof <- true
    | n ->
      c.last_active <- Unix.gettimeofday ();
      consume c (Bytes.sub_string t.scratch 0 n);
      (* a short read emptied the socket; more data wakes [select] again *)
      if String.length c.partial > max_line_bytes then c.eof <- true
      else if n = Bytes.length t.scratch then drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.eof <- true
  in
  drain ();
  settle t c

let complete t conn ~close =
  Mutex.protect t.comp_m (fun () -> Queue.add (conn, close) t.completions);
  let b = Bytes.make 1 '!' in
  let rec poke () =
    match Unix.write t.wake_w b 0 1 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poke ()
    (* A full pipe means wake-ups are already pending; a closed pipe
       means the loop is past the point of sleeping. *)
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  poke ()

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let process_completions t =
  let items =
    Mutex.protect t.comp_m (fun () ->
        let l = List.of_seq (Queue.to_seq t.completions) in
        Queue.clear t.completions;
        l)
  in
  List.iter
    (fun (c, close_requested) ->
      c.busy <- false;
      c.last_active <- Unix.gettimeofday ();
      if close_requested then close_conn t c else settle t c)
    items

(* A connection a worker holds is never swept: the worker's own write
   deadline bounds it.  One whose replies wait on a peer that does not
   read is, so it cannot pin memory; a shed one, which has nothing left
   to serve, gets the shorter [shed_timeout_s]. *)
let sweep_idle t =
  let now = Unix.gettimeofday () in
  let victims =
    Hashtbl.fold
      (fun _ c acc ->
        let limit = if c.shed then t.shed_timeout_s else t.idle_timeout_s in
        if (not c.busy) && now -. c.last_active > limit then c :: acc else acc)
      t.conns []
  in
  List.iter (close_conn t) victims

let flush_writable t writable =
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.conns fd with
      | Some c when writing c -> flush_out t c
      | Some _ | None -> ())
    writable

let run t =
  let rec live () =
    if not (Atomic.get t.stopping) then begin
      (* A connection is watched for reads only when nothing is in
         flight on it, and for writes only while a reply waits. *)
      let rfds, wfds =
        Hashtbl.fold
          (fun fd c (r, w) ->
            if writing c then (r, fd :: w) else if c.busy then (r, w) else (fd :: r, w))
          t.conns
          ([ t.listen_fd; t.wake_r ], [])
      in
      (* The timeout doubles as the poll interval for the stopping flag
         and the idle sweep. *)
      (match Unix.select rfds wfds [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, writable, _ ->
        if List.memq t.wake_r ready then begin
          drain_wake t;
          process_completions t
        end;
        flush_writable t writable;
        if List.memq t.listen_fd ready then accept_ready t;
        List.iter
          (fun fd ->
            if fd <> t.listen_fd && fd <> t.wake_r then
              match Hashtbl.find_opt t.conns fd with
              | Some c when (not c.busy) && not (writing c) -> read_conn t c
              | Some _ | None -> ())
          ready);
      sweep_idle t;
      live ()
    end
  in
  live ();
  (* Graceful drain: nothing new is queued or read, queued batches are
     still popped and answered by the workers, every in-flight batch
     completes and every unwritten reply goes out (or meets the idle
     sweep) before its connection is torn down. *)
  Sorl_util.Bqueue.close t.queue;
  let idle =
    Hashtbl.fold (fun _ c acc -> if c.busy || writing c then acc else c :: acc) t.conns []
  in
  List.iter (close_conn t) idle;
  (* Every connection left has something in flight; each closes as it
     completes or its reply drains ([settle] while stopping). *)
  let rec drain () =
    process_completions t;
    if Hashtbl.length t.conns > 0 then begin
      let wfds =
        Hashtbl.fold (fun fd c acc -> if writing c then fd :: acc else acc) t.conns []
      in
      (match Unix.select [ t.wake_r ] wfds [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, writable, _ ->
        if ready <> [] then drain_wake t;
        flush_writable t writable);
      sweep_idle t;
      drain ()
    end
  in
  drain ();
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
