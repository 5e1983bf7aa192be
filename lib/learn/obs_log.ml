open Sorl_stencil

type obs = { benchmark : string; tuning : Tuning.t; cost : float }

(* One stored record.  Plain observations have [count = 1] and
   [min_cost = obs.cost]; compaction merges duplicates of one
   [(benchmark, tuning)] point into an aggregate whose [obs.cost] is
   the mean of the merged costs. *)
type record = { obs : obs; count : int; min_cost : float }

type segment = {
  seg_file : string;
  seq : int;
  digest : string;  (* MD5 hex of the sealed file's bytes *)
  seg_records : record list;
}

let v1_magic = "sorl-obs v1"
let v1_header = v1_magic ^ "\n"
let v2_magic = "sorl-obs v2"
let active_name = "active.obs"
let default_roll_at = 1024

let seg_name seq = Printf.sprintf "seg-%06d.obs" seq

let seg_seq_of_name name =
  if
    String.length name = 14
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".obs"
  then int_of_string_opt (String.sub name 4 6)
  else None

(* Wire form of a tuning vector, shared with the serve protocol:
   "bx,by,bz,u,c". *)
let tuning_to_string (t : Tuning.t) =
  Printf.sprintf "%d,%d,%d,%d,%d" t.Tuning.bx t.Tuning.by t.Tuning.bz t.Tuning.u t.Tuning.c

let tuning_of_string s =
  match String.split_on_char ',' s |> List.map int_of_string_opt with
  | [ Some bx; Some by; Some bz; Some u; Some c ] -> (
    match Tuning.create ~bx ~by ~bz ~u ~c with
    | t -> Some t
    | exception Invalid_argument _ -> None)
  | _ -> None

let valid_benchmark s =
  String.length s > 0
  && String.for_all (fun ch -> ch > ' ' && ch < '\x7f') s

let valid_cost c = Float.is_finite c && c > 0.

(* Record line: "o <payload> <sum8>\n" with payload
   "<benchmark> <bx,by,bz,u,c> <cost>"; sum8 is the first 8 hex chars
   of the payload's MD5.  The cost round-trips exactly through %.17g.
   This framing is shared verbatim with the v1 format, so a migrated
   v1 log's record bytes are unchanged.

   Aggregate line: "a <benchmark> <tuning> <count> <mean> <min> <sum8>\n"
   (checksum over "a <payload>" to domain-separate it from record
   payloads), and the seal trailer "s <count> <sum8>\n" (checksum over
   "s <count>") marks a complete, immutable segment. *)
let checksum payload = String.sub (Digest.to_hex (Digest.string payload)) 0 8

let record_line o =
  let payload =
    Printf.sprintf "%s %s %.17g" o.benchmark (tuning_to_string o.tuning) o.cost
  in
  Printf.sprintf "o %s %s\n" payload (checksum payload)

let agg_line r =
  let payload =
    Printf.sprintf "%s %s %d %.17g %.17g" r.obs.benchmark
      (tuning_to_string r.obs.tuning)
      r.count r.obs.cost r.min_cost
  in
  Printf.sprintf "a %s %s\n" payload (checksum ("a " ^ payload))

let seal_line count =
  let payload = string_of_int count in
  Printf.sprintf "s %s %s\n" payload (checksum ("s " ^ payload))

(* Split "<tag> <payload> <sum8>": the checksum is everything after the
   last space. *)
let split_sum line =
  let n = String.length line in
  if n < 2 || line.[1] <> ' ' then None
  else
    match String.rindex_opt line ' ' with
    | None | Some 1 -> None
    | Some i -> Some (String.sub line 2 (i - 2), String.sub line (i + 1) (n - i - 1))

let parse_record line =
  if String.length line < 2 || line.[0] <> 'o' then None
  else
    match split_sum line with
    | None -> None
    | Some (payload, sum) ->
      if not (String.equal sum (checksum payload)) then None
      else (
        match String.split_on_char ' ' payload with
        | [ benchmark; tn; cost ] -> (
          match (tuning_of_string tn, float_of_string_opt cost) with
          | Some tuning, Some c when valid_benchmark benchmark && valid_cost c ->
            Some { obs = { benchmark; tuning; cost = c }; count = 1; min_cost = c }
          | _ -> None)
        | _ -> None)

let parse_agg line =
  if String.length line < 2 || line.[0] <> 'a' then None
  else
    match split_sum line with
    | None -> None
    | Some (payload, sum) ->
      if not (String.equal sum (checksum ("a " ^ payload))) then None
      else (
        match String.split_on_char ' ' payload with
        | [ benchmark; tn; count; mean; min_c ] -> (
          match
            ( tuning_of_string tn,
              int_of_string_opt count,
              float_of_string_opt mean,
              float_of_string_opt min_c )
          with
          | Some tuning, Some n, Some mean, Some mn
            when valid_benchmark benchmark && n >= 1 && valid_cost mean && valid_cost mn ->
            Some { obs = { benchmark; tuning; cost = mean }; count = n; min_cost = mn }
          | _ -> None)
        | _ -> None)

let parse_seal line =
  if String.length line < 2 || line.[0] <> 's' then None
  else
    match split_sum line with
    | None -> None
    | Some (payload, sum) ->
      if not (String.equal sum (checksum ("s " ^ payload))) then None
      else int_of_string_opt payload

(* ---- v1 scan (read-only back-compat + migration source) ---- *)

let scan_v1 raw =
  let hn = String.length v1_header in
  if String.length raw < hn || not (String.equal (String.sub raw 0 hn) v1_header) then
    Error "v1 header mismatch"
  else begin
    let n = String.length raw in
    let records = ref [] in
    let pos = ref hn in
    let stop = ref false in
    while not !stop do
      if !pos >= n then stop := true
      else
        match String.index_from_opt raw !pos '\n' with
        | None -> stop := true (* trailing bytes without a newline: torn tail *)
        | Some nl -> (
          match parse_record (String.sub raw !pos (nl - !pos)) with
          | Some r ->
            records := r :: !records;
            pos := nl + 1
          | None -> stop := true)
    done;
    Ok (List.rev !records, !pos, !pos = n)
  end

(* ---- v2 segment scan ---- *)

type scanned = {
  s_records : record list;  (* in order *)
  s_valid : int;  (* byte length of the valid prefix *)
  s_clean : bool;  (* the whole file was consumed *)
  s_sealed : bool;  (* the valid prefix ends with a matching seal *)
  s_from : int option;  (* compacted-from seq carried in the header *)
}

(* Scan a v2 segment file: header, then complete ('\n'-terminated,
   checksum-valid) record/aggregate lines until a seal line, the first
   invalid line, or EOF.  A seal is accepted only when its count
   matches the records scanned before it — a torn or forged seal is
   just an invalid tail. *)
let scan_v2 raw =
  let header_end =
    match String.index_opt raw '\n' with
    | None -> None
    | Some i -> Some (String.sub raw 0 i, i + 1)
  in
  match header_end with
  | None -> Error (Printf.sprintf "not an observation segment (expected %S header)" v2_magic)
  | Some (first, body_pos) ->
    let from_ =
      if String.equal first v2_magic then Some None
      else if
        String.length first > String.length v2_magic
        && String.sub first 0 (String.length v2_magic) = v2_magic
      then begin
        match String.split_on_char ' ' first with
        | [ "sorl-obs"; "v2"; "from"; j ] -> Option.map Option.some (int_of_string_opt j)
        | _ -> None
      end
      else None
    in
    (match from_ with
    | None ->
      if String.length first >= 9 && String.sub first 0 9 = "sorl-obs " then
        Error
          (Printf.sprintf "unsupported observation log version %S (this build reads v1/v2)"
             first)
      else Error (Printf.sprintf "not an observation segment (expected %S header)" v2_magic)
    | Some s_from ->
      let n = String.length raw in
      let records = ref [] in
      let nrec = ref 0 in
      let pos = ref body_pos in
      let stop = ref false in
      let sealed = ref false in
      while not !stop do
        if !pos >= n then stop := true
        else
          match String.index_from_opt raw !pos '\n' with
          | None -> stop := true
          | Some nl -> (
            let line = String.sub raw !pos (nl - !pos) in
            match parse_record line with
            | Some r ->
              records := r :: !records;
              incr nrec;
              pos := nl + 1
            | None -> (
              match parse_agg line with
              | Some r ->
                records := r :: !records;
                incr nrec;
                pos := nl + 1
              | None -> (
                match parse_seal line with
                | Some count when count = !nrec ->
                  sealed := true;
                  pos := nl + 1;
                  stop := true
                | _ -> stop := true)))
      done;
      Ok
        {
          s_records = List.rev !records;
          s_valid = !pos;
          s_clean = !pos = n;
          s_sealed = !sealed;
          s_from;
        })

let read_file path =
  match Sorl_util.Persist.read_to_string path with
  | Ok raw -> Ok raw
  | Error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)

let write_file path content =
  Sorl_util.Persist.write_atomic path (fun oc -> output_string oc content)

let records_to_lines records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (if r.count = 1 then record_line r.obs else agg_line r))
    records;
  Buffer.contents b

let list_segments dir =
  Sys.readdir dir
  |> Array.to_list
  |> List.filter_map (fun name ->
         match seg_seq_of_name name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

(* ---- replay ---- *)

let replay_segments path =
  let ( let* ) = Result.bind in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "Obs_log: no such log %s" path)
  else if not (Sys.is_directory path) then
    Error (Printf.sprintf "Obs_log: %s is not a segment directory (v1 logs: use replay)" path)
  else begin
    (* Compaction coverage: a segment carrying "from j" supersedes
       segments j..seq-1 (a crash between the compacted rename and the
       unlinks leaves them behind; skip them here, open-time recovery
       deletes them). *)
    let named = list_segments path in
    let* scans =
      List.fold_left
        (fun acc (seq, file) ->
          let* acc = acc in
          let* raw = read_file file in
          match scan_v2 raw with
          | Error msg -> Error (Printf.sprintf "%s (in %s)" msg file)
          | Ok sc -> Ok ((seq, file, raw, sc) :: acc))
        (Ok []) named
    in
    let scans = List.rev scans in
    let covered = Hashtbl.create 8 in
    List.iter
      (fun (seq, _, _, sc) ->
        match sc.s_from with
        | Some j -> for k = j to seq - 1 do Hashtbl.replace covered k () done
        | None -> ())
      scans;
    let live = List.filter (fun (seq, _, _, _) -> not (Hashtbl.mem covered seq)) scans in
    let clean = ref true in
    let segs =
      List.map
        (fun (seq, file, raw, sc) ->
          if not (sc.s_sealed && sc.s_clean) then clean := false;
          { seg_file = file; seq; digest = Digest.to_hex (Digest.string raw); seg_records = sc.s_records })
        live
    in
    let active = Filename.concat path active_name in
    let* tail =
      if not (Sys.file_exists active) then Ok []
      else
        let* raw = read_file active in
        match scan_v2 raw with
        | Error msg -> Error (Printf.sprintf "%s (in %s)" msg active)
        | Ok sc ->
          if not sc.s_clean then clean := false;
          Ok sc.s_records
    in
    Ok (segs, tail, !clean)
  end

let expand records = List.map (fun r -> r.obs) records

let replay path =
  if Sys.file_exists path && not (Sys.is_directory path) then begin
    (* Read-only back-compat: a v1 single-file log. *)
    match read_file path with
    | Error msg -> Error ("Obs_log: " ^ msg)
    | Ok raw -> (
      match scan_v1 raw with
      | Ok (records, _, clean) -> Ok (expand records, clean)
      | Error _ -> (
        match scan_v2 raw with
        | Ok _ ->
          Error
            (Printf.sprintf
               "Obs_log: %s is a bare v2 segment, not a log (point at its directory)" path)
        | Error msg -> Error (Printf.sprintf "Obs_log: %s (in %s)" msg path)))
  end
  else
    match replay_segments path with
    | Error _ as e -> e
    | Ok (segs, tail, clean) ->
      Ok (List.concat_map (fun s -> expand s.seg_records) segs @ expand tail, clean)

(* ---- writer ---- *)

type writer = {
  dir : string;
  m : Mutex.t;
  mutable oc : out_channel;
  count : int Atomic.t;  (* complete records on disk: replayed + appended *)
  mutable tail_count : int;  (* records in the active segment *)
  mutable next_seq : int;
  sealed : int Atomic.t;  (* sealed segments on disk *)
  roll_at : int;  (* <= 0 disables automatic rolling *)
  fsync_on_seal : bool;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let env_fsync () =
  match Sys.getenv_opt "SORL_OBS_FSYNC" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()

let v2_header = v2_magic ^ "\n"

let fresh_active dir = write_file (Filename.concat dir active_name) v2_header

(* Migrate a v1 single-file log in place: its complete records (the
   torn tail dropped, exactly as a v1 reopen would) become the active
   segment of a fresh directory under the same path. *)
let migrate_v1 path raw =
  match scan_v1 raw with
  | Error msg -> Error msg
  | Ok (records, _, _) ->
    Sys.remove path;
    mkdir_p path;
    write_file (Filename.concat path active_name)
      (v2_header ^ records_to_lines records);
    Ok ()

(* Open-time recovery of the active tail.  Returns
   [(tail_records, rolled)]: the complete records left in the (possibly
   truncated) active file, and [Some n] when a crash left the tail
   sealed but un-renamed and the roll was finished here ([n] records
   moved into the new sealed segment). *)
let recover_active ~dir ~next_seq ~fsync =
  let active = Filename.concat dir active_name in
  if not (Sys.file_exists active) then begin
    fresh_active dir;
    Ok (0, None)
  end
  else
    match read_file active with
    | Error msg -> Error msg
    | Ok raw -> (
      match scan_v2 raw with
      | Error msg -> Error (Printf.sprintf "%s (in %s)" msg active)
      | Ok sc ->
        if sc.s_sealed then begin
          (* Crash after the seal hit the disk but before the rename:
             finish the roll.  Any bytes after the seal are torn debris
             from the lost race and are dropped with the rename's
             replacement active file. *)
          if not sc.s_clean then begin
            let fd = Unix.openfile active [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd sc.s_valid)
          end;
          Sys.rename active (Filename.concat dir (seg_name !next_seq));
          if fsync then fsync_dir dir;
          incr next_seq;
          fresh_active dir;
          Ok (0, Some (List.length sc.s_records))
        end
        else begin
          if not sc.s_clean then begin
            (* Torn tail (possibly a torn seal line): drop it before
               appending, otherwise new records would land behind bytes
               replay refuses to cross. *)
            let fd = Unix.openfile active [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd sc.s_valid)
          end;
          Ok (List.length sc.s_records, None)
        end)

let create ?(roll_at = default_roll_at) ?fsync_on_seal path =
  let fsync = match fsync_on_seal with Some b -> b | None -> env_fsync () in
  match
    let ( let* ) = Result.bind in
    let* () =
      if Sys.file_exists path && not (Sys.is_directory path) then
        let* raw = read_file path in
        match migrate_v1 path raw with
        | Ok () -> Ok ()
        | Error _ -> (
          match scan_v2 raw with
          | Ok _ ->
            Error
              (Printf.sprintf "%s is a bare v2 segment, not a log directory" path)
          | Error msg -> Error (Printf.sprintf "%s (in %s)" msg path))
      else begin
        mkdir_p path;
        Ok ()
      end
    in
    (* Sealed segments: verify, repair and count.  A segment missing a
       clean seal (a torn compaction leftover) is rewritten in place
       from its valid records — sealed files are immutable afterwards. *)
    let named = list_segments path in
    let* scans =
      List.fold_left
        (fun acc (seq, file) ->
          let* acc = acc in
          let* raw = read_file file in
          match scan_v2 raw with
          | Error msg -> Error (Printf.sprintf "%s (in %s)" msg file)
          | Ok sc -> Ok ((seq, file, sc) :: acc))
        (Ok []) named
    in
    let scans = List.rev scans in
    (* Delete segments superseded by a compacted segment ("from j"
       covers j..seq-1): a crash between the compacted rename and the
       unlinks must not double-count history. *)
    let covered = Hashtbl.create 8 in
    List.iter
      (fun (seq, _, sc) ->
        match sc.s_from with
        | Some j -> for k = j to seq - 1 do Hashtbl.replace covered k () done
        | None -> ())
      scans;
    let scans =
      List.filter
        (fun (seq, file, _) ->
          if Hashtbl.mem covered seq then begin
            Sys.remove file;
            false
          end
          else true)
        scans
    in
    let sealed_records = ref 0 in
    List.iter
      (fun (_, file, sc) ->
        if not (sc.s_sealed && sc.s_clean) then begin
          let header =
            match sc.s_from with
            | Some j -> Printf.sprintf "%s from %d\n" v2_magic j
            | None -> v2_header
          in
          write_file file
            (header ^ records_to_lines sc.s_records ^ seal_line (List.length sc.s_records))
        end;
        sealed_records := !sealed_records + List.length sc.s_records)
      scans;
    let next_seq =
      ref (1 + List.fold_left (fun acc (seq, _, _) -> max acc seq) 0 scans)
    in
    let* tail_count, rolled = recover_active ~dir:path ~next_seq ~fsync in
    let rolled_records = match rolled with Some n -> n | None -> 0 in
    Ok
      ( !sealed_records + rolled_records + tail_count,
        tail_count,
        !next_seq,
        List.length scans + (if rolled <> None then 1 else 0) )
  with
  | Error msg -> Error ("Obs_log: " ^ msg)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "Obs_log: cannot open %s: %s" path (Unix.error_message e))
  | exception Sys_error msg -> Error ("Obs_log: " ^ msg)
  | Ok (count, tail_count, next_seq, sealed) -> (
    match
      open_out_gen
        [ Open_wronly; Open_append; Open_binary ]
        0o644
        (Filename.concat path active_name)
    with
    | oc ->
      Ok
        {
          dir = path;
          oc;
          m = Mutex.create ();
          count = Atomic.make count;
          tail_count;
          next_seq;
          sealed = Atomic.make sealed;
          roll_at = (if roll_at <= 0 then 0 else roll_at);
          fsync_on_seal = fsync;
        }
    | exception Sys_error msg -> Error ("Obs_log: " ^ msg))

(* Seal the active segment: append the seal trailer, optionally fsync,
   rename it into the sealed sequence and start a fresh tail.  Caller
   holds the mutex. *)
let seal_locked w =
  if w.tail_count > 0 then begin
    output_string w.oc (seal_line w.tail_count);
    flush w.oc;
    if w.fsync_on_seal then Unix.fsync (Unix.descr_of_out_channel w.oc);
    close_out w.oc;
    let active = Filename.concat w.dir active_name in
    Sys.rename active (Filename.concat w.dir (seg_name w.next_seq));
    if w.fsync_on_seal then fsync_dir w.dir;
    w.next_seq <- w.next_seq + 1;
    Atomic.incr w.sealed;
    w.tail_count <- 0;
    fresh_active w.dir;
    w.oc <- open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 active
  end

let seal w = Mutex.protect w.m (fun () -> seal_locked w)

let append w o =
  if not (valid_benchmark o.benchmark) then
    invalid_arg "Obs_log.append: benchmark must be a non-empty printable token";
  if not (valid_cost o.cost) then
    invalid_arg "Obs_log.append: cost must be a positive finite float";
  let line = record_line o in
  Mutex.protect w.m (fun () ->
      output_string w.oc line;
      flush w.oc;
      Atomic.incr w.count;
      w.tail_count <- w.tail_count + 1;
      if w.roll_at > 0 && w.tail_count >= w.roll_at then seal_locked w)

(* [count] and [sealed] change only under the mutex but are read
   without it: a [stats] on the serving reactor must not wait behind an
   append's flush or a seal's fsync.  A reader sees each counter as of
   some moment during the call, never a torn value. *)
let written w = Atomic.get w.count
let segments w = Atomic.get w.sealed
let path w = w.dir

let close w =
  Mutex.protect w.m (fun () ->
      try close_out w.oc with Sys_error _ -> ())

(* ---- compaction ---- *)

type compact_stats = {
  segments_before : int;
  records_before : int;
  records_after : int;
}

(* Merge every sealed segment into one compacted segment: duplicates of
   a (benchmark, tuning) point collapse into an aggregate carrying
   (count, mean, min).  First-appearance order is preserved, so a
   duplicate-free log replays byte-identically (count-1 records keep
   their exact %.17g cost line).  The compacted file replaces the
   highest covered seq atomically; its header records the covered range
   so open-time recovery can delete leftovers after a crash between the
   rename and the unlinks.  The active tail is never touched, so
   compaction is safe beside a live writer. *)
let compact path =
  match replay_segments path with
  | Error msg -> Error msg
  | Ok ([], _, _) ->
    Ok { segments_before = 0; records_before = 0; records_after = 0 }
  | Ok (segs, _, _) ->
    let all = List.concat_map (fun s -> s.seg_records) segs in
    let records_before = List.length all in
    let order = ref [] in
    let tbl : (string, record) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (r : record) ->
        let key = r.obs.benchmark ^ "|" ^ tuning_to_string r.obs.tuning in
        match Hashtbl.find_opt tbl key with
        | Some prev ->
          let n = prev.count + r.count in
          let mean =
            ((prev.obs.cost *. float_of_int prev.count)
            +. (r.obs.cost *. float_of_int r.count))
            /. float_of_int n
          in
          Hashtbl.replace tbl key
            {
              obs = { prev.obs with cost = mean };
              count = n;
              min_cost = Float.min prev.min_cost r.min_cost;
            }
        | None ->
          order := key :: !order;
          Hashtbl.add tbl key r)
      all;
    let merged = List.rev_map (fun key -> Hashtbl.find tbl key) !order in
    let records_after = List.length merged in
    let first_seq = List.fold_left (fun acc s -> min acc s.seq) max_int segs in
    let last_seq = List.fold_left (fun acc s -> max acc s.seq) 0 segs in
    let target = Filename.concat path (seg_name last_seq) in
    let header =
      if first_seq = last_seq then v2_header
      else Printf.sprintf "%s from %d\n" v2_magic first_seq
    in
    write_file target
      (header ^ records_to_lines merged ^ seal_line records_after);
    List.iter (fun s -> if s.seq <> last_seq then Sys.remove s.seg_file) segs;
    Ok { segments_before = List.length segs; records_before; records_after }
