open Sorl_stencil

let version = 1
let magic = "sorl1"

type address =
  | Unix_path of string
  | Tcp of string * int

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let address_of_string s =
  match String.index_opt s ':' with
  | None -> Result.Error (Printf.sprintf "address %S: expected unix:<path> or tcp:<host>:<port>" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" ->
      if rest = "" then Result.Error "address: empty unix socket path" else Ok (Unix_path rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Result.Error (Printf.sprintf "address %S: expected tcp:<host>:<port>" s)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Result.Error (Printf.sprintf "address %S: bad host or port" s)))
    | _ -> Result.Error (Printf.sprintf "address %S: unknown scheme %S" s scheme))

type request =
  | Rank of { benchmark : string; top : int; approx_ok : bool }
  | Tune of { benchmark : string; approx_ok : bool }
  | Observe of { benchmark : string; tuning : Tuning.t; cost : float }
  | Info
  | Stats
  | Reload of { model : string option }
  | Canary of { model : string }
  | Promote
  | Shutdown

type error_code =
  | Bad_request
  | No_benchmark
  | No_model
  | No_log
  | Store
  | Canary_rejected
  | Busy
  | Internal

type response =
  | Ranked of { benchmark : string; total : int; tunings : Tuning.t list; approx : bool }
  | Tuned of { benchmark : string; tuning : Tuning.t; approx : bool }
  | Observed of { total : int }
  | Info_reply of (string * string) list
  | Stats_reply of (string * int) list
  | Reloaded of { model : string; generation : int }
  | Canaried of { model : string }
  | Promoted of { model : string; generation : int }
  | Bye
  | Error of { code : error_code; message : string }

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | No_benchmark -> "no-benchmark"
  | No_model -> "no-model"
  | No_log -> "no-log"
  | Store -> "store"
  | Canary_rejected -> "canary-rejected"
  | Busy -> "busy"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "no-benchmark" -> Some No_benchmark
  | "no-model" -> Some No_model
  | "no-log" -> Some No_log
  | "store" -> Some Store
  | "canary-rejected" -> Some Canary_rejected
  | "busy" -> Some Busy
  | "internal" -> Some Internal
  | _ -> None

(* A token is anything that survives a round trip through "split on
   whitespace": non-empty, no spaces or control characters. *)
let is_token s =
  s <> ""
  && String.for_all (fun c -> Char.code c > 0x20 && Char.code c < 0x7f) s

let check_token what s =
  if not (is_token s) then
    invalid_arg (Printf.sprintf "Protocol: %s %S is not a single printable token" what s)

let tuning_to_string (t : Tuning.t) =
  Printf.sprintf "%d,%d,%d,%d,%d" t.bx t.by t.bz t.u t.c

let tuning_of_string s =
  match String.split_on_char ',' s |> List.map int_of_string_opt with
  | [ Some bx; Some by; Some bz; Some u; Some c ] -> (
    match Tuning.create ~bx ~by ~bz ~u ~c with
    | t -> Ok t
    | exception Invalid_argument msg ->
      Result.Error (Printf.sprintf "tuning %S out of range: %s" s msg))
  | _ -> Result.Error (Printf.sprintf "malformed tuning %S (expected bx,by,bz,u,c)" s)

let encode_request = function
  | Rank { benchmark; top; approx_ok } ->
    check_token "benchmark" benchmark;
    if top < 1 then invalid_arg "Protocol.encode_request: top must be >= 1";
    Printf.sprintf "%s rank%s %s %d" magic (if approx_ok then "!" else "") benchmark top
  | Tune { benchmark; approx_ok } ->
    check_token "benchmark" benchmark;
    Printf.sprintf "%s tune%s %s" magic (if approx_ok then "!" else "") benchmark
  | Observe { benchmark; tuning; cost } ->
    check_token "benchmark" benchmark;
    if not (Float.is_finite cost && cost > 0.) then
      invalid_arg "Protocol.encode_request: observe cost must be a positive finite float";
    (* %.17g round-trips every finite double exactly. *)
    Printf.sprintf "%s observe %s %s %.17g" magic benchmark (tuning_to_string tuning) cost
  | Info -> magic ^ " info"
  | Stats -> magic ^ " stats"
  | Reload { model = None } -> magic ^ " reload"
  | Reload { model = Some m } ->
    check_token "model" m;
    Printf.sprintf "%s reload %s" magic m
  | Canary { model } ->
    check_token "model" model;
    Printf.sprintf "%s canary %s" magic model
  | Promote -> magic ^ " promote"
  | Shutdown -> magic ^ " shutdown"

(* Split on single spaces, dropping empty fields so stray doubled
   spaces and a trailing [\r] from chatty clients don't break parsing. *)
let tokens line =
  String.split_on_char ' ' line
  |> List.filter_map (fun t ->
         let t = String.trim t in
         if t = "" then None else Some t)

let parse_request line =
  match tokens line with
  | [] -> Result.Error "empty request"
  | v :: _ when v <> magic ->
    Result.Error (Printf.sprintf "unsupported protocol version %S (this server speaks %s)"
             v magic)
  | _ :: rest -> (
    match rest with
    | [ ("rank" | "rank!") as verb; benchmark; top ] -> (
      let approx_ok = String.equal verb "rank!" in
      match int_of_string_opt top with
      | Some k when k >= 1 -> Ok (Rank { benchmark; top = k; approx_ok })
      | Some _ -> Result.Error "rank: top must be >= 1"
      | None -> Result.Error (Printf.sprintf "rank: bad top %S" top))
    | [ ("tune" | "tune!") as verb; benchmark ] ->
      Ok (Tune { benchmark; approx_ok = String.equal verb "tune!" })
    | [ "observe"; benchmark; t; cost ] -> (
      match tuning_of_string t with
      | Result.Error _ as e -> e
      | Ok tuning -> (
        match float_of_string_opt cost with
        | Some c when Float.is_finite c && c > 0. -> Ok (Observe { benchmark; tuning; cost = c })
        | Some _ -> Result.Error "observe: cost must be a positive finite float"
        | None -> Result.Error (Printf.sprintf "observe: bad cost %S" cost)))
    | [ "info" ] -> Ok Info
    | [ "stats" ] -> Ok Stats
    | [ "reload" ] -> Ok (Reload { model = None })
    | [ "reload"; m ] -> Ok (Reload { model = Some m })
    | [ "canary"; m ] -> Ok (Canary { model = m })
    | [ "promote" ] -> Ok Promote
    | [ "shutdown" ] -> Ok Shutdown
    | verb :: _
      when List.mem verb
             [
               "rank"; "rank!"; "tune"; "tune!"; "observe"; "info"; "stats"; "reload";
               "canary"; "promote"; "shutdown";
             ] ->
      Result.Error (Printf.sprintf "%s: wrong number of arguments" verb)
    | verb :: _ -> Result.Error (Printf.sprintf "unknown verb %S" verb)
    | [] -> Result.Error "missing verb")

let sanitize_message msg =
  String.map (function '\n' | '\r' -> ' ' | c -> c) msg

let encode_response = function
  | Ranked { benchmark; total; tunings; approx } ->
    check_token "benchmark" benchmark;
    Printf.sprintf "ok rank%s %s %d%s" (if approx then "~" else "") benchmark total
      (String.concat "" (List.map (fun t -> " " ^ tuning_to_string t) tunings))
  | Tuned { benchmark; tuning; approx } ->
    check_token "benchmark" benchmark;
    Printf.sprintf "ok tune%s %s %s" (if approx then "~" else "") benchmark
      (tuning_to_string tuning)
  | Info_reply kvs ->
    List.iter
      (fun (k, v) ->
        check_token "info key" k;
        check_token "info value" v)
      kvs;
    "ok info"
    ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) kvs)
  | Stats_reply kvs ->
    List.iter (fun (k, _) -> check_token "stats key" k) kvs;
    "ok stats"
    ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) kvs)
  | Observed { total } -> Printf.sprintf "ok observe %d" total
  | Reloaded { model; generation } ->
    check_token "model" model;
    Printf.sprintf "ok reload %s %d" model generation
  | Canaried { model } ->
    check_token "model" model;
    Printf.sprintf "ok canary %s" model
  | Promoted { model; generation } ->
    check_token "model" model;
    Printf.sprintf "ok promote %s %d" model generation
  | Bye -> "ok shutdown"
  | Error { code; message } ->
    Printf.sprintf "err %s %s" (error_code_to_string code) (sanitize_message message)

let split_kv tok =
  match String.index_opt tok '=' with
  | None -> Result.Error (Printf.sprintf "malformed key=value field %S" tok)
  | Some i ->
    Ok (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let rec collect f = function
  | [] -> Ok []
  | x :: xs -> (
    match f x with
    | Result.Error _ as e -> e
    | Ok y -> ( match collect f xs with Result.Error _ as e -> e | Ok ys -> Ok (y :: ys)))

(* Reply verbs may carry one-character flag suffixes after the
   alphanumeric base verb — currently ['~'] marks an approximate
   rank/tune reply, which this server never sends.  Lenient parsing skips flag
   characters it does not know, so a server can grow new flags without
   breaking deployed clients; [strict] turns an unknown flag into a
   protocol error.  An unknown {e base} verb is an error in both
   modes. *)
let split_reply_verb ~strict tok =
  let n = String.length tok in
  let is_base c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let b = ref 0 in
  while !b < n && is_base tok.[!b] do
    incr b
  done;
  let base = String.sub tok 0 !b in
  let rec flags i approx =
    if i >= n then Ok (base, approx)
    else
      match tok.[i] with
      | '~' -> flags (i + 1) true
      | c ->
        if strict then
          Result.Error (Printf.sprintf "unknown reply flag %C on verb %S" c tok)
        else flags (i + 1) approx
  in
  flags !b false

let parse_response ?(strict = false) line =
  match tokens line with
  | "err" :: code :: msg -> (
    match error_code_of_string code with
    | Some c -> Ok (Error { code = c; message = String.concat " " msg })
    | None -> Result.Error (Printf.sprintf "unknown error code %S" code))
  | "ok" :: verb :: rest -> (
    match split_reply_verb ~strict verb with
    | Result.Error _ as e -> e
    | Ok (base, approx) -> (
      match (base, rest) with
      | "rank", benchmark :: total :: tunings -> (
        match int_of_string_opt total with
        | None -> Result.Error (Printf.sprintf "rank reply: bad total %S" total)
        | Some n -> (
          match collect tuning_of_string tunings with
          | Result.Error _ as e -> e
          | Ok ts -> Ok (Ranked { benchmark; total = n; tunings = ts; approx })))
      | "tune", [ benchmark; t ] -> (
        match tuning_of_string t with
        | Result.Error _ as e -> e
        | Ok tuning -> Ok (Tuned { benchmark; tuning; approx }))
      | "info", kvs -> (
        match collect split_kv kvs with
        | Result.Error _ as e -> e
        | Ok l -> Ok (Info_reply l))
      | "stats", kvs -> (
        match
          collect
            (fun tok ->
              match split_kv tok with
              | Result.Error _ as e -> e
              | Ok (k, v) -> (
                match int_of_string_opt v with
                | Some n -> Ok (k, n)
                | None -> Result.Error (Printf.sprintf "stats reply: bad count %S" tok)))
            kvs
        with
        | Result.Error _ as e -> e
        | Ok l -> Ok (Stats_reply l))
      | "observe", [ total ] -> (
        match int_of_string_opt total with
        | Some n -> Ok (Observed { total = n })
        | None -> Result.Error (Printf.sprintf "observe reply: bad total %S" total))
      | "reload", [ model; gen ] -> (
        match int_of_string_opt gen with
        | Some g -> Ok (Reloaded { model; generation = g })
        | None -> Result.Error (Printf.sprintf "reload reply: bad generation %S" gen))
      | "canary", [ model ] -> Ok (Canaried { model })
      | "promote", [ model; gen ] -> (
        match int_of_string_opt gen with
        | Some g -> Ok (Promoted { model; generation = g })
        | None -> Result.Error (Printf.sprintf "promote reply: bad generation %S" gen))
      | "shutdown", [] -> Ok Bye
      | _ -> Result.Error (Printf.sprintf "malformed response starting with %S" verb)))
  | [] -> Result.Error "empty response"
  | tok :: _ -> Result.Error (Printf.sprintf "malformed response starting with %S" tok)
