(* Closed-loop read load over raw protocol connections.

   Each connection carries exactly one outstanding request: the next
   read is sent only after the previous reply arrived, like a compile
   step waiting for its tuning.  All connections are multiplexed by one
   [select] loop in the calling domain, so the load generator adds no
   domains (and no cross-domain GC pauses) of its own. *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

type conn = {
  path : string;
  mutable fd : Unix.file_descr option;
  acc : Buffer.t;  (** bytes of the reply being received *)
  mutable pending : (Mix.read * float) option;  (** outstanding read, send time *)
}

(* What the loop reports per finished read. *)
type outcome =
  | Reply of string  (** a complete reply line *)
  | Lost of string  (** transport error or timeout *)

let chunk = Bytes.create 65536

let open_conns path n =
  List.init n (fun _ ->
      match connect path with
      | Ok fd -> { path; fd = Some fd; acc = Buffer.create 4096; pending = None }
      | Error m -> failwith ("perfbench: cannot connect to the server: " ^ m))

let close_conn c =
  (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  c.fd <- None

(* [run conns ~next ~finish ~stop ~tick ~timeout_s] keeps every
   connection busy with [next ()] until [stop ()] holds, then waits for
   the outstanding replies.  [finish read outcome ~ts ~tr] sees every
   read exactly once.  [tick] runs between [select] rounds.  A
   connection that fails or times out reports [Lost] and is reopened. *)
let run conns ~next ~finish ~stop ~tick ~timeout_s =
  let send c =
    let read = next () in
    let fd =
      match c.fd with
      | Some fd -> fd
      | None -> (
        match connect c.path with
        | Ok fd ->
          c.fd <- Some fd;
          fd
        | Error m -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", m)))
    in
    Buffer.clear c.acc;
    let ts = Clock.now () in
    c.pending <- Some (read, ts);
    try write_all fd read.line 0 (String.length read.line)
    with Unix.Unix_error (e, _, _) ->
      c.pending <- None;
      close_conn c;
      finish read (Lost (Unix.error_message e)) ~ts ~tr:(Clock.now ())
  in
  let fail c msg =
    match c.pending with
    | None -> close_conn c
    | Some (read, ts) ->
      c.pending <- None;
      close_conn c;
      finish read (Lost msg) ~ts ~tr:(Clock.now ())
  in
  let sending = ref true in
  let fill c = if !sending && c.pending = None then try send c with Unix.Unix_error _ -> () in
  List.iter fill conns;
  let busy () = List.exists (fun c -> c.pending <> None) conns in
  while busy () do
    if !sending && stop () then sending := false;
    let fds = List.filter_map (fun c -> if c.pending <> None then c.fd else None) conns in
    let ready =
      match Unix.select fds [] [] 0.005 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        match c.fd with
        | Some fd when List.memq fd ready -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> fail c "connection closed by the server"
          | n -> (
            Buffer.add_subbytes c.acc chunk 0 n;
            if Bytes.get chunk (n - 1) = '\n' then
              match c.pending with
              | None -> fail c "unsolicited reply"
              | Some (read, ts) ->
                let tr = Clock.now () in
                let len = Buffer.length c.acc in
                let line = Buffer.sub c.acc 0 (len - 1) in
                c.pending <- None;
                if String.contains line '\n' then finish read (Lost "extra reply line") ~ts ~tr
                else finish read (Reply line) ~ts ~tr;
                fill c)
          | exception Unix.Unix_error (e, _, _) -> fail c (Unix.error_message e))
        | _ -> ())
      conns;
    let now = Clock.now () in
    List.iter
      (fun c ->
        match c.pending with
        | Some (_, ts) when now -. ts > timeout_s -> fail c "timed out"; fill c
        | _ -> ())
      conns;
    List.iter fill conns;
    tick ()
  done
