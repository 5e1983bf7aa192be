(** Event-driven connection multiplexer for the ranking server.

    A single domain owns {e every} connection: it accepts, does all the
    (non-blocking) reading and splits the byte stream into complete
    request lines.  Idle connections cost one [select] slot.

    A ready batch of lines is served in one of two places.  When the
    [answer] hook takes it (the server's hook takes a batch whose every
    line is a read of resident state), the reactor answers it itself,
    with no hop to another domain.  Any other batch goes, whole, to the
    worker pool through a bounded {!Sorl_util.Bqueue}.  Either way a
    batch's replies leave in one write, so an N-deep pipeline pays one
    syscall, not N flushes.  While a connection has a batch with a
    worker, or reply bytes the socket has not taken yet, it is neither
    read nor dispatched again, so replies on a connection are always in
    request order.

    The reactor never blocks in a write.  It writes its own replies
    without waiting; what the socket does not take at once goes out as
    [select] reports the descriptor writable.  A peer that never reads
    its replies is closed by the idle sweep, so it cannot pin memory or
    the loop.  Workers write their replies themselves with
    {!write_all}, under a deadline, and signal completion with
    {!complete}, which wakes the [select] loop through a self-pipe; the
    reactor then dispatches the lines that buffered meanwhile, or closes
    the connection (peer EOF, worker-requested close, or write failure).
    The reactor is the {e only} place a connection descriptor is ever
    closed, which structurally rules out double-close hazards.

    Backpressure has two layers, both answering with an [err busy]
    frame per request, written like any reactor reply, after which the
    connection is closed: at accept when [max_connections] is reached,
    and at dispatch when a batch needs a worker and the worker queue is
    full.  A batch the reactor answers never queues, so it is never
    shed. *)

type t

type conn
(** One client connection, owned by the reactor. *)

type batch = { conn : conn; lines : string list }
(** A train of complete request lines, ready to serve, in arrival
    order. *)

val conn_fd : conn -> Unix.file_descr
(** The underlying descriptor — for workers to write replies to.  Do
    not close it; report the outcome via {!complete} instead. *)

val create :
  listen_fd:Unix.file_descr ->
  queue:batch Sorl_util.Bqueue.t ->
  stopping:bool Atomic.t ->
  ?max_connections:int ->
  ?idle_timeout_s:float ->
  ?answer:(string list -> (Buffer.t -> unit) option) ->
  busy_reply:string ->
  on_connection:(unit -> unit) ->
  on_shed:(unit -> unit) ->
  on_pipelined:(int -> unit) ->
  unit ->
  t
(** Build a reactor around an already-listening descriptor.  Defaults:
    [max_connections] 512, [idle_timeout_s] 10, [answer] taking no
    batch.  [answer lines] either declines the batch ([None]: it goes
    to the workers) or returns the function that appends its replies,
    one newline-terminated line per request, to the reactor's buffer;
    the reactor calls it on its own domain.  The two steps are apart so
    that [on_pipelined] counts a batch before it is answered.
    [busy_reply] is the pre-encoded [err busy] line (without newline)
    used by both shed paths.  [on_connection] / [on_shed] run on the
    reactor domain per accepted and per shed connection respectively;
    [on_pipelined n] fires for every served (not shed) batch of [n > 1]
    requests: before the reactor answers it, or once it is queued for a
    worker. *)

val run : t -> unit
(** The event loop.  Returns once [stopping] is set, every in-flight
    batch has completed, every unwritten reply has been written (or its
    connection swept idle), and all connections are closed.  Closes the
    worker queue on the way out so idle workers exit. *)

val complete : t -> conn -> close:bool -> unit
(** Worker-side: the batch for [conn] is fully answered.  [close]
    requests the connection be closed (after a [shutdown] reply, or a
    failed write).  Safe from any domain; wakes the loop. *)

val write_all : ?timeout_s:float -> Unix.file_descr -> string -> (unit, string) result
(** Worker-side: write the whole string, retrying short writes, [EINTR] and
    [EAGAIN] (waiting for writability with [select]) until done or
    [timeout_s] (default 10) has elapsed.  Never raises; never blocks
    longer than the deadline even on a descriptor with a full send
    buffer. *)
