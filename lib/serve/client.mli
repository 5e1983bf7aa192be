(** Blocking client for the ranking service.

    One connection, one request/response at a time.  All failures —
    connection refused, timeouts, malformed replies and [err ...]
    responses — surface as [Error message]; nothing raises. *)

type t

(** Why a connection could not be established. *)
type connect_error =
  | Refused of string
      (** the single attempt failed and no retry window was given *)
  | Timed_out of { elapsed_s : float; attempts : int; last : string }
      (** the retry window elapsed; [attempts] were made, the final
          one failing with [last] *)

val connect_error_to_string : connect_error -> string

val connect_result :
  ?timeout_s:float ->
  ?retry_for_s:float ->
  ?strict:bool ->
  Protocol.address ->
  (t, connect_error) result
(** Connect to a server.  [timeout_s] (default 30) bounds each
    subsequent send/receive.  [retry_for_s] (default 0) keeps retrying
    a refused/absent endpoint for that long — for scripts racing a
    freshly forked server, and for the router's per-shard reconnect
    path.  Retries back off exponentially (10 ms doubling to a 500 ms
    cap) with jitter, so a dead endpoint costs a few attempts rather
    than a 50 ms spin, and a fleet of reconnecting routers does not
    beat on it in lockstep.

    [strict] (default [false]) is handed to
    {!Protocol.parse_response} for every reply this connection reads:
    lenient connections skip unknown reply-verb flags (forward
    compatibility with newer servers), strict ones turn them into
    protocol errors. *)

val connect :
  ?timeout_s:float ->
  ?retry_for_s:float ->
  ?strict:bool ->
  Protocol.address ->
  (t, string) result
(** {!connect_result} with the error flattened to a message. *)

val close : t -> unit

val with_connection :
  ?timeout_s:float ->
  ?retry_for_s:float ->
  ?strict:bool ->
  Protocol.address ->
  (t -> ('a, string) result) ->
  ('a, string) result

val request : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request line, read one response line.  [Error] replies
    from the server come back as [Ok (Protocol.Error _)] — use the
    typed wrappers below to collapse them. *)

val pipeline : t -> Protocol.request list -> (Protocol.response list, string) result
(** Send every request in one buffered write, then read exactly as
    many replies; the server preserves request order and batches its
    replies into a single write, so an N-deep pipeline costs one
    round trip instead of N.  Per-request [err ...] frames (e.g. a
    malformed or unknown benchmark in the middle of the train) come
    back in-place as [Protocol.Error] elements without disturbing the
    rest; only transport failures and unparseable replies collapse the
    whole call to [Error]. *)

(** {1 Typed wrappers}

    Each sends the corresponding request and unpacks the expected reply
    shape; server-side [err code message] replies become
    [Error "code: message"]. *)

val rank :
  t -> benchmark:string -> top:int -> (Sorl_stencil.Tuning.t list, string) result

val tune : t -> benchmark:string -> (Sorl_stencil.Tuning.t, string) result

val info : t -> ((string * string) list, string) result
val stats : t -> ((string * int) list, string) result
val reload : ?model:string -> t -> (string * int, string) result
(** [(model name, new generation)]. *)

val shutdown : t -> (unit, string) result

val observe :
  t ->
  benchmark:string ->
  tuning:Sorl_stencil.Tuning.t ->
  cost:float ->
  (int, string) result
(** Stream one measured observation into the server's log; [Ok total]
    is the log's complete-record count after the append.  For bulk
    ingestion prefer {!Observer}, which pipelines. *)

val canary : t -> model:string -> (string, string) result
(** Load a store entry as the server's shadow candidate.  Replies to
    rank/tune stay byte-identical to the stable model; agreement
    accumulates in the [canary_*] stats until {!promote} decides. *)

val promote : t -> (string * int, string) result
(** Decide the current canary against the observation log's held-out
    slice: [Ok (model, generation)] means it was installed through the
    hot-reload path; a rollback comes back as
    [Error "canary-rejected: ..."]. *)

(** Fire-and-forget observation ingestion: buffers [observe] requests
    and flushes them as one pipelined train every [batch] sends, so a
    measurement harness streaming thousands of observations pays one
    round trip per batch instead of one per observation.  Not
    thread-safe; one observer per connection. *)
module Observer : sig
  type client := t
  type t

  val create : ?batch:int -> client -> t
  (** [batch] (default 64, must be >= 1) is the flush threshold.
      Raises [Invalid_argument] on [batch < 1]. *)

  val send :
    t ->
    benchmark:string ->
    tuning:Sorl_stencil.Tuning.t ->
    cost:float ->
    (unit, string) result
  (** Buffer one observation; transparently flushes when the buffer
      reaches [batch].  [Error] only on a transport failure during such
      a flush — per-record server rejections are counted in
      {!rejected}, not raised here. *)

  val flush : t -> (unit, string) result
  (** Send any buffered observations now and read their acks. *)

  val close : t -> (unit, string) result
  (** Flush-on-close: equivalent to {!flush}; the underlying client
      connection stays open and is the caller's to close. *)

  val acked : t -> int
  (** Observations acknowledged by the server so far. *)

  val rejected : t -> int
  (** Observations the server answered with an error (e.g. unknown
      benchmark) — they are consumed, not retried. *)
end
