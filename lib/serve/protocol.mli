(** Wire protocol of the ranking service (version 1).

    Line-delimited text: every request and every response is exactly
    one ['\n']-terminated line of space-separated tokens, so any
    language with sockets and [split] can speak it.  Requests carry the
    protocol version as their first token ([sorl1]); servers reject
    other versions with a structured error instead of guessing.

    {2 Grammar}

    {v
    request  := "sorl1" SP verb
    verb     := "rank" ["!"] SP benchmark SP top ; top >= 1
              | "tune" ["!"] SP benchmark
              | "observe" SP benchmark SP tuning SP cost ; cost > 0, finite
              | "info"
              | "stats"
              | "reload" [SP model]
              | "canary" SP model
              | "promote"
              | "shutdown"

    response := "ok" SP payload | "err" SP code SP message
    payload  := "rank" flag* SP benchmark SP total SP tuning*
              | "tune" flag* SP benchmark SP tuning
              | "observe" SP total
              | "info" SP (key "=" value)*
              | "stats" SP (key "=" int)*
              | "reload" SP model SP generation
              | "canary" SP model
              | "promote" SP model SP generation
              | "shutdown"
    flag     := "~"                              ; approximate reply
    tuning   := bx "," by "," bz "," u "," c     ; decimal integers
    cost     := decimal float (printed %.17g, exact round trip)
    v}

    Errors are structured ([err <code> <free-text message>]) so clients
    can branch on the code — [busy] means backpressure (retry later),
    [bad-request] means the frame itself was malformed.

    {2 Approximate-reply flags}

    A [rank!]/[tune!] request ([approx_ok]) is accepted and answered
    byte-for-byte like the plain verb.  The [~] reply flag
    ([rank~]/[tune~], [approx = true]: a reply reused from a similar
    instance) is still parsed, but this server never sends it.  Both
    stay in the grammar so older clients keep working.  Reply-verb
    flags are single non-alphanumeric characters after the base verb;
    lenient parsers skip flags they do not know ([strict] makes them
    errors), while unknown {e base} verbs are always errors.

    {2 Pipelining}

    Because frames are self-delimiting lines, a client may write any
    number of requests before reading: the server answers them {e in
    request order}, one reply line per request line, batching the reply
    train into a single write.  A malformed frame in the middle of a
    pipeline earns its own [err bad-request] line and does not disturb
    the requests around it or the connection.  ({!Client.pipeline} is
    the typed wrapper.)  [observe] is designed for deep pipelines:
    ingestion clients batch many observations per write and read the
    acknowledgement train at their leisure ({!Client.Observer}).

    {2 Online learning verbs}

    [observe] streams one measured [(benchmark, tuning, cost)] into
    the server's append-only observation log ({!Obs_log}); the reply
    carries the log's total record count.  [err no-log] when the
    server was started without a log.  [canary <model>] loads a store
    entry and builds its rankings as a {e shadow} model: replies stay
    byte-identical to the stable generation, and every rank/tune
    compares the first entries of the stable and candidate rankings
    before its reply is written, accumulating agreement in the
    [canary_*] stats.  [promote] then compares stable and candidate
    on the held-out slice of the observation log and either swaps the
    built candidate in through the hot-reload path
    ([ok promote <model> <generation>]) or rolls it back and
    quarantines the name ([err canary-rejected ...], the
    decision visible in [canary_rollbacks]/[canary_tau_*]).

    {2 Stats keys}

    The [stats] reply is an open key=int set.  Current keys: request
    accounting ([requests], [errors], [connections],
    [busy_rejections], [reloads], [generation], [queue_depth]),
    pipelining ([pipelined] — requests that arrived as part of a
    multi-request batch), the resident rankings ([result_cache_hits]
    — replies sliced from one, [result_cache_entries] — rankings
    resident in the current generation), and online learning ([observations] — records
    appended by this process, [obs_log_records] — complete records in
    the log including recovered ones, [canary_active],
    [canary_shadowed] — rank/tune replies compared with the canary,
    [canary_agree], [canary_disagree],
    [canary_promotions], [canary_rollbacks], [canary_quarantined],
    [canary_tau_stable_m]/[canary_tau_candidate_m] — the last promote
    decision's mean held-out tau in thousandths, plus per-benchmark
    [canary_agree_<benchmark>]/[canary_disagree_<benchmark>]).
    Clients must ignore keys they do not know. *)

val version : int
(** 1. *)

(** {1 Addresses} *)

type address =
  | Unix_path of string  (** Unix-domain stream socket at a path *)
  | Tcp of string * int  (** host (name or dotted quad) and port *)

val address_to_string : address -> string
(** ["unix:<path>"] or ["tcp:<host>:<port>"] — accepted back by
    {!address_of_string}. *)

val address_of_string : string -> (address, string) result

(** {1 Frames} *)

type request =
  | Rank of { benchmark : string; top : int; approx_ok : bool }
      (** Rank the pre-defined configuration set of a named benchmark
          instance; reply with the best [top] tunings.  [approx_ok]
          is [rank!] on the wire, answered exactly like [rank]. *)
  | Tune of { benchmark : string; approx_ok : bool }  (** Top-1 shorthand. *)
  | Observe of { benchmark : string; tuning : Sorl_stencil.Tuning.t; cost : float }
      (** Stream one measured observation into the server's log.
          [cost] must be finite and positive. *)
  | Info
  | Stats
  | Reload of { model : string option }
      (** Hot-swap the served model: [None] re-reads the current
          source, [Some name] switches to another store entry. *)
  | Canary of { model : string }
      (** Load a store entry as the shadow candidate. *)
  | Promote
      (** Decide the current canary: install or roll back. *)
  | Shutdown

type error_code =
  | Bad_request  (** malformed or wrong-version frame *)
  | No_benchmark
  | No_model
  | No_log  (** server runs without an observation log *)
  | Store  (** model store failure: missing, corrupt, wrong version *)
  | Canary_rejected
      (** canary machinery refused: no/quarantined candidate, not
          enough held-out data, or the candidate lost the tau
          comparison (rolled back) *)
  | Busy  (** backpressure: connection queue full, retry later *)
  | Internal

type response =
  | Ranked of {
      benchmark : string;
      total : int;
      tunings : Sorl_stencil.Tuning.t list;
      approx : bool;  (** the [~] flag; never set by this server *)
    }
  | Tuned of { benchmark : string; tuning : Sorl_stencil.Tuning.t; approx : bool }
  | Observed of { total : int }
      (** Acknowledged; [total] complete records now in the log. *)
  | Info_reply of (string * string) list
  | Stats_reply of (string * int) list
  | Reloaded of { model : string; generation : int }
  | Canaried of { model : string }
  | Promoted of { model : string; generation : int }
  | Bye
  | Error of { code : error_code; message : string }

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val encode_request : request -> string
(** One line, no trailing newline.  Raises [Invalid_argument] when a
    name embeds whitespace/control characters or [top < 1] — such a
    frame could not be parsed back. *)

val parse_request : string -> (request, string) result
(** Strict: unknown verbs, wrong arity, non-numeric or out-of-range
    fields and foreign protocol versions are all [Error].  Never
    raises. *)

val encode_response : response -> string
(** One line, no trailing newline.  Error messages have embedded
    newlines squashed to spaces; info values must be single tokens
    (raises [Invalid_argument] otherwise). *)

val parse_response : ?strict:bool -> string -> (response, string) result
(** [strict] (default [false]) controls unknown reply-verb {e flags}
    only: lenient parsing skips flag characters it does not recognize
    (forward compatibility), strict parsing rejects them.  Unknown base
    verbs, bad arities and malformed fields are [Error] in both
    modes. *)

val tuning_to_string : Sorl_stencil.Tuning.t -> string
(** ["bx,by,bz,u,c"]. *)

val tuning_of_string : string -> (Sorl_stencil.Tuning.t, string) result
(** Validates ranges via {!Sorl_stencil.Tuning.create}. *)
