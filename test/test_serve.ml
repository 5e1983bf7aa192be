(* Tests for the serving subsystem: wire protocol round-trips, the
   versioned model store, the top-k batcher, and the socket server
   end-to-end — served rankings must be bit-identical to in-process
   Autotuner.rank, including under concurrent clients and across a
   mid-load hot reload. *)

open Sorl_stencil
open Sorl_serve

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let machine = Sorl_machine.Machine_desc.xeon_e5_2680_v3
let measure () = Sorl_machine.Measure.model machine

let tiny_instances =
  [
    Instance.create_xyz Benchmarks.edge ~sx:256 ~sy:256 ~sz:1;
    Instance.create_xyz Benchmarks.laplacian ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.gradient ~sx:64 ~sy:64 ~sz:64;
    Instance.create_xyz Benchmarks.blur ~sx:512 ~sy:512 ~sz:1;
  ]

let train seed =
  let spec = { Sorl.Training.size = 200; mode = Features.Extended; seed } in
  Sorl.Autotuner.train_on ~mode:Features.Extended
    (Sorl.Training.generate ~spec ~instances:tiny_instances (measure ()))

let tuner_a = lazy (train 5)
let tuner_b = lazy (train 7)

(* A 2-D Table III benchmark: its predefined set has 1600 candidates,
   keeping the server round-trip tests fast. *)
let benchmark = "blur-1024x768"

(* Removes [path] and everything under it.  [lstat] decides the kind,
   so a symlink is unlinked itself and never followed. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun e -> remove_tree (Filename.concat path e))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_dir "sorl-serve-test" "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let get = function Ok x -> x | Error m -> Alcotest.fail m
let get_err what = function Ok _ -> Alcotest.fail (what ^ ": expected Error") | Error m -> m

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- protocol ---- *)

let request_roundtrip r = get (Protocol.parse_request (Protocol.encode_request r))

let test_protocol_request_roundtrip () =
  let reqs =
    [
      Protocol.Rank { benchmark = "blur-1024x768"; top = 7; approx_ok = false };
      Protocol.Tune { benchmark = "gradient-256x256x256"; approx_ok = false };
      Protocol.Info;
      Protocol.Stats;
      Protocol.Reload { model = None };
      Protocol.Reload { model = Some "nightly" };
      Protocol.Observe
        {
          benchmark = "blur-1024x768";
          tuning = Tuning.create ~bx:64 ~by:8 ~bz:1 ~u:2 ~c:4;
          cost = 0.012345678901234567;
        };
      Protocol.Canary { model = "default.g3" };
      Protocol.Promote;
      Protocol.Shutdown;
    ]
  in
  List.iter (fun r -> checkb "request roundtrip" true (request_roundtrip r = r)) reqs

let test_protocol_response_roundtrip () =
  let t1 = Tuning.create ~bx:64 ~by:8 ~bz:8 ~u:4 ~c:4 in
  let t2 = Tuning.create ~bx:16 ~by:16 ~bz:1 ~u:0 ~c:1 in
  let resps =
    [
      Protocol.Ranked { benchmark = "b"; total = 1600; tunings = [ t1; t2 ]; approx = false };
      Protocol.Ranked { benchmark = "b"; total = 0; tunings = []; approx = false };
      Protocol.Tuned { benchmark = "b"; tuning = t1; approx = false };
      Protocol.Info_reply [ ("model", "default"); ("generation", "3") ];
      Protocol.Stats_reply [ ("requests", 12); ("errors", 0) ];
      Protocol.Reloaded { model = "nightly"; generation = 4 };
      Protocol.Observed { total = 4096 };
      Protocol.Canaried { model = "default.g3" };
      Protocol.Promoted { model = "default.g3"; generation = 5 };
      Protocol.Bye;
      Protocol.Error { code = Protocol.Busy; message = "queue full, retry later" };
      Protocol.Error { code = Protocol.No_log; message = "no observation log" };
      Protocol.Error { code = Protocol.Canary_rejected; message = "worse tau" };
    ]
  in
  List.iter
    (fun r -> checkb "response roundtrip" true (get (Protocol.parse_response (Protocol.encode_response r)) = r))
    resps;
  (* newlines in error messages must not break the framing *)
  let framed =
    Protocol.encode_response
      (Protocol.Error { code = Protocol.Internal; message = "line1\nline2" })
  in
  checkb "no newline in frame" true (not (String.contains framed '\n'))

let test_protocol_malformed () =
  let bad_requests =
    [
      "";
      "   ";
      "sorl2 info";
      "sorl1";
      "sorl1 frobnicate";
      "sorl1 rank";
      "sorl1 rank blur-1024x768";
      "sorl1 rank blur-1024x768 x";
      "sorl1 rank blur-1024x768 0";
      "sorl1 rank blur-1024x768 -3";
      "sorl1 tune";
      "sorl1 info extra";
      "sorl1 reload a b";
      "rank blur-1024x768 3";
    ]
  in
  List.iter
    (fun line -> ignore (get_err ("request " ^ line) (Protocol.parse_request line)))
    bad_requests;
  let bad_responses =
    [
      "";
      "yo";
      "ok";
      "ok rank b x";
      "ok rank b 3 1,2";
      "ok rank b 3 9999,2,2,0,1";
      "ok tune b 64,8";
      "ok stats k=x";
      "ok reload m x";
      "err whatever boom";
    ]
  in
  List.iter
    (fun line -> ignore (get_err ("response " ^ line) (Protocol.parse_response line)))
    bad_responses;
  (* encode refuses frames that could not be parsed back *)
  Alcotest.check_raises "space in name"
    (Invalid_argument "Protocol: benchmark \"a b\" is not a single printable token")
    (fun () -> ignore (Protocol.encode_request (Protocol.Tune { benchmark = "a b"; approx_ok = false })))

let test_protocol_addresses () =
  checkb "unix roundtrip" true
    (get (Protocol.address_of_string "unix:/tmp/s.sock") = Protocol.Unix_path "/tmp/s.sock");
  checkb "tcp roundtrip" true
    (get (Protocol.address_of_string "tcp:127.0.0.1:7001") = Protocol.Tcp ("127.0.0.1", 7001));
  List.iter
    (fun s -> ignore (get_err s (Protocol.address_of_string s)))
    [ "bogus"; "ftp:x:1"; "unix:"; "tcp:host"; "tcp::99"; "tcp:host:notaport"; "tcp:host:99999" ]

(* ---- defensive model loading ---- *)

(* ---- protocol: bang requests, tilde replies, strict mode ---- *)

let test_protocol_approx_roundtrip () =
  let enc = Protocol.encode_request in
  (* byte compatibility: the default encodings are the pre-extension
     frames *)
  checks "rank unchanged" "sorl1 rank blur-1024x768 10"
    (enc (Protocol.Rank { benchmark = "blur-1024x768"; top = 10; approx_ok = false }));
  checks "tune unchanged" "sorl1 tune blur-1024x768"
    (enc (Protocol.Tune { benchmark = "blur-1024x768"; approx_ok = false }));
  checks "rank! opt-in" "sorl1 rank! blur-1024x768 10"
    (enc (Protocol.Rank { benchmark = "blur-1024x768"; top = 10; approx_ok = true }));
  checks "tune! opt-in" "sorl1 tune! blur-1024x768"
    (enc (Protocol.Tune { benchmark = "blur-1024x768"; approx_ok = true }));
  (* request round-trips preserve the flag *)
  List.iter
    (fun r ->
      checkb "request roundtrip" true
        (get (Protocol.parse_request (enc r)) = r))
    [
      Protocol.Rank { benchmark = "b"; top = 3; approx_ok = true };
      Protocol.Rank { benchmark = "b"; top = 3; approx_ok = false };
      Protocol.Tune { benchmark = "b"; approx_ok = true };
      Protocol.Tune { benchmark = "b"; approx_ok = false };
    ];
  (* responses: approx=false encodes the legacy verbs, approx=true the
     tilde forms; both round-trip *)
  let t = Tuning.create ~bx:64 ~by:8 ~bz:1 ~u:2 ~c:16 in
  let ranked approx =
    Protocol.Ranked { benchmark = "b"; total = 1600; tunings = [ t ]; approx }
  in
  let tuned approx = Protocol.Tuned { benchmark = "b"; tuning = t; approx } in
  checkb "ranked exact has no flag" true
    (String.sub (Protocol.encode_response (ranked false)) 0 8 = "ok rank ");
  checkb "ranked approx flagged" true
    (String.sub (Protocol.encode_response (ranked true)) 0 8 = "ok rank~");
  List.iter
    (fun r ->
      checkb "response roundtrip" true
        (get (Protocol.parse_response (Protocol.encode_response r)) = r))
    [ ranked false; ranked true; tuned false; tuned true ]

let test_protocol_strict_vs_lenient () =
  let t = Tuning.create ~bx:64 ~by:8 ~bz:1 ~u:2 ~c:16 in
  let exact =
    Protocol.encode_response
      (Protocol.Tuned { benchmark = "b"; tuning = t; approx = false })
  in
  (* splice an unknown flag onto the reply verb ("ok tune" -> "ok tune?") *)
  let unknown_flag =
    "ok tune?" ^ String.sub exact 7 (String.length exact - 7)
  in
  (match Protocol.parse_response unknown_flag with
  | Ok (Protocol.Tuned { approx = false; _ }) -> ()
  | Ok _ -> Alcotest.fail "lenient: wrong reply shape"
  | Error m -> Alcotest.fail ("lenient parse should skip unknown flags: " ^ m));
  let m = get_err "strict" (Protocol.parse_response ~strict:true unknown_flag) in
  checkb "strict names the flag" true
    (let has sub s =
       let n = String.length sub and l = String.length s in
       let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has "?" m);
  (* unknown base verbs error in both modes *)
  (match Protocol.parse_response "ok zzz 1 2 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown base verb must error leniently too");
  match Protocol.parse_response ~strict:true "ok zzz 1 2 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown base verb must error strictly"

(* ---- result cache: evictions and per-generation occupancy ---- *)

let test_result_cache_evictions_and_generations () =
  let c = Result_cache.create ~capacity:3 () in
  let key g b = Result_cache.key ~generation:g ~verb:"rank:3" ~benchmark:b in
  Result_cache.put c (key 0 "a") "ra";
  Result_cache.put c (key 0 "b") "rb";
  Result_cache.put c (key 1 "a") "ra1";
  checki "no evictions yet" 0 (Result_cache.evictions c);
  checkb "by generation" true (Result_cache.entries_by_generation c = [ (0, 2); (1, 1) ]);
  Result_cache.put c (key 1 "b") "rb1";
  checki "one eviction" 1 (Result_cache.evictions c);
  checkb "LRU (gen 0) drained first" true
    (Result_cache.entries_by_generation c = [ (0, 1); (1, 2) ]);
  (* refreshing an existing key is not an eviction *)
  Result_cache.put c (key 1 "b") "rb1";
  checki "refresh is free" 1 (Result_cache.evictions c)

let test_load_errors () =
  with_temp_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  let write name contents =
    let oc = open_out_bin (path name) in
    output_string oc contents;
    close_out oc;
    path name
  in
  let msg_of p = get_err p (Sorl.Autotuner.load_result p) in
  let missing = msg_of (path "nope.model") in
  checkb "missing file names the path" true
    (contains ~sub:"nope.model" missing);
  let garbage = msg_of (write "garbage.model" "hello world\n1 2 3\n") in
  checkb "garbage rejected" true (contains ~sub:"not a model file" garbage);
  let v2 = msg_of (write "v2.model" "sorl-model v2\nmode extended\n") in
  checkb "future version rejected" true
    (contains ~sub:"unsupported format version" v2);
  let full = Sorl.Autotuner.to_string (Lazy.force tuner_a) in
  let truncated =
    msg_of (write "trunc.model" (String.sub full 0 (String.length full / 2)))
  in
  checkb "truncated rejected" true (String.length truncated > 0);
  let bad_mode = msg_of (write "mode.model" "sorl-model v1\nmode fancy\n") in
  checkb "unknown mode rejected" true
    (contains ~sub:"unknown feature mode" bad_mode)

(* A NaN or infinite weight would make scores non-finite, for which
   the ranking sort defines no order: loading refuses it. *)
let test_load_rejects_non_finite_weights () =
  with_temp_dir @@ fun dir ->
  let dim = Features.dim Features.Extended in
  List.iter
    (fun bad ->
      let path = Filename.concat dir (bad ^ ".model") in
      let oc = open_out_bin path in
      Printf.fprintf oc
        "sorl-model v1\nmode extended\nsorl-rank-model 1\ndim %d\nnnz 2\n3 0.5\n7 %s\nend\n"
        dim bad;
      close_out oc;
      let msg = get_err bad (Sorl.Autotuner.load_result path) in
      checkb (bad ^ " weight refused: " ^ msg) true (contains ~sub:"non-finite weight" msg))
    [ "nan"; "inf"; "-inf"; "-nan" ]

(* ---- model store ---- *)

let test_store_roundtrip () =
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  let tuner = Lazy.force tuner_a in
  get (Model_store.save store ~name:"default" tuner);
  get (Model_store.save store ~name:"nightly.v2" tuner);
  Alcotest.check (Alcotest.list Alcotest.string) "list" [ "default"; "nightly.v2" ]
    (Model_store.list store);
  let loaded = get (Model_store.load store ~name:"default") in
  let inst = List.nth tiny_instances 1 in
  let t = Tuning.default ~dims:3 in
  Alcotest.check (Alcotest.float 0.) "bit-identical scores"
    (Sorl.Autotuner.score tuner inst t) (Sorl.Autotuner.score loaded inst t)

let test_store_rejects_corruption () =
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"m" (Lazy.force tuner_a));
  let file = Model_store.path store ~name:"m" in
  (* flip one payload byte; the checksum must catch it *)
  let contents = get (Sorl_util.Persist.read_to_string file) in
  let b = Bytes.of_string contents in
  let i = Bytes.length b - 10 in
  Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
  let oc = open_out_bin file in
  output_bytes oc b;
  close_out oc;
  let msg = get_err "corrupt" (Model_store.load store ~name:"m") in
  checkb "checksum caught it" true (contains ~sub:"checksum mismatch" msg);
  (* truncation *)
  let oc = open_out_bin file in
  output_string oc (String.sub contents 0 (String.length contents - 40));
  close_out oc;
  let msg = get_err "truncated" (Model_store.load store ~name:"m") in
  checkb "truncation caught" true (contains ~sub:"truncated" msg);
  (* foreign version *)
  let oc = open_out_bin file in
  output_string oc "sorl-store v9\nname m\npayload-bytes 0\nchecksum md5 d41d8cd98f00b204e9800998ecf8427e\n";
  close_out oc;
  let msg = get_err "version" (Model_store.load store ~name:"m") in
  checkb "version rejected" true (contains ~sub:"unsupported store version" msg)

let test_store_names () =
  List.iter
    (fun n -> checkb ("valid " ^ n) true (Model_store.valid_name n))
    [ "default"; "nightly.v2"; "a"; "A-b_c.9" ];
  List.iter
    (fun n -> checkb "invalid" false (Model_store.valid_name n))
    [ ""; ".hidden"; "a/b"; "a b"; String.make 65 'x' ];
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  ignore (get_err "bad name" (Model_store.save store ~name:"../evil" (Lazy.force tuner_a)));
  ignore (get_err "missing" (Model_store.load store ~name:"absent"))

(* ---- result cache ---- *)

let test_result_cache () =
  let c = Result_cache.create ~capacity:2 () in
  checki "explicit capacity" 2 (Result_cache.capacity c);
  let k g b = Result_cache.key ~generation:g ~verb:"rank:3" ~benchmark:b in
  checkb "initial miss" true (Result_cache.find c (k 0 "a") = None);
  Result_cache.put c (k 0 "a") "reply-a";
  Result_cache.put c (k 0 "b") "reply-b";
  checkb "hit a" true (Result_cache.find c (k 0 "a") = Some "reply-a");
  (* a was just promoted, so inserting c evicts b (the LRU) *)
  Result_cache.put c (k 0 "c") "reply-c";
  checkb "lru evicted" true (Result_cache.find c (k 0 "b") = None);
  checkb "mru survives eviction" true (Result_cache.find c (k 0 "a") = Some "reply-a");
  checki "length pinned at capacity" 2 (Result_cache.length c);
  (* the generation is part of the key: a reload's bump makes every
     stale entry unreachable without any explicit invalidation *)
  checkb "new generation misses" true (Result_cache.find c (k 1 "a") = None);
  checki "hits accounted" 2 (Result_cache.hits c);
  checki "misses accounted" 3 (Result_cache.misses c);
  (* re-putting an existing key keeps the entry (values are
     deterministic per key) and does not grow the cache *)
  Result_cache.put c (k 0 "a") "reply-a";
  checki "duplicate put keeps length" 2 (Result_cache.length c);
  (* capacity 0 disables the cache: nothing stored, nothing counted *)
  let off = Result_cache.create ~capacity:0 () in
  Result_cache.put off "k" "v";
  checkb "disabled find" true (Result_cache.find off "k" = None);
  checki "disabled hits" 0 (Result_cache.hits off);
  checki "disabled misses" 0 (Result_cache.misses off);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Result_cache.create: capacity must be >= 0") (fun () ->
      ignore (Result_cache.create ~capacity:(-1) ()));
  (* SORL_SERVE_CACHE sizes an unsized create; 0 disables; garbage
     falls back to the default *)
  Unix.putenv "SORL_SERVE_CACHE" "7";
  checki "env capacity" 7 (Result_cache.capacity (Result_cache.create ()));
  Unix.putenv "SORL_SERVE_CACHE" "0";
  checki "env disables" 0 (Result_cache.capacity (Result_cache.create ()));
  Unix.putenv "SORL_SERVE_CACHE" "";
  checki "default capacity" Result_cache.default_capacity
    (Result_cache.capacity (Result_cache.create ()))

(* ---- reactor write path ---- *)

let test_write_all_bounded_by_timeout () =
  (* the satellite fix: a busy/slow peer whose receive buffer is full
     must not wedge the writer — write_all gives up at the deadline *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.set_nonblock a;
      let chunk = Bytes.make 65536 'x' in
      (try
         while true do
           ignore (Unix.write a chunk 0 (Bytes.length chunk))
         done
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let t0 = Unix.gettimeofday () in
      (match Reactor.write_all ~timeout_s:0.3 a (String.make 4096 'y') with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "expected a timeout writing to a full socket");
      let elapsed = Unix.gettimeofday () -. t0 in
      checkb "waited for the deadline" true (elapsed >= 0.25);
      checkb "returned promptly after it" true (elapsed < 2.))

let test_connect_backoff () =
  with_temp_dir @@ fun dir ->
  let nowhere = Protocol.Unix_path (Filename.concat dir "never-listening.sock") in
  (* no retry window: one attempt, typed Refused *)
  (match Client.connect_result nowhere with
  | Error (Client.Refused _) -> ()
  | Error (Client.Timed_out _) ->
    Alcotest.fail "expected Refused without a retry window"
  | Ok c ->
    Client.close c;
    Alcotest.fail "connected to a never-listening socket");
  (* bounded window: typed Timed_out close to the deadline, with few,
     backed-off attempts — the regression was a 50 ms fixed-interval
     spin that made ~10 attempts in this window *)
  let window = 0.5 in
  let t0 = Unix.gettimeofday () in
  match Client.connect_result ~retry_for_s:window nowhere with
  | Error (Client.Timed_out { elapsed_s; attempts; last }) ->
    let wall = Unix.gettimeofday () -. t0 in
    checkb "gave the endpoint the whole window" true (elapsed_s >= window *. 0.8);
    checkb "returned promptly after the window" true (wall < window +. 1.5);
    checkb "retried at all" true (attempts >= 3);
    checkb "backed off exponentially (few attempts)" true (attempts <= 12);
    checkb "last failure reported" true (String.length last > 0)
  | Error (Client.Refused _) -> Alcotest.fail "expected Timed_out with a retry window"
  | Ok c ->
    Client.close c;
    Alcotest.fail "connected to a never-listening socket"

(* ---- server end-to-end ---- *)

let start_server ?(workers = 2) ?(queue_capacity = 16) ?(conn_timeout_s = 10.)
    ?max_connections ?obs_log dir source =
  let address = Protocol.Unix_path (Filename.concat dir "test.sock") in
  get
    (Server.start ~address ~workers ~queue_capacity ~conn_timeout_s ?max_connections ?obs_log
       source)

(* A raw socket speaking the wire protocol directly — for tests that
   care about exact reply bytes, pipelined trains and connection
   lifecycle, below the Client abstraction. *)
let raw_connect server =
  let path =
    match Server.address server with Protocol.Unix_path p -> p | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let raw_close (_, _, oc) = close_out_noerr oc

let file_source dir tuner =
  let path = Filename.concat dir "m.model" in
  Sorl.Autotuner.save tuner path;
  Server.Model_file path

let shutdown_server server =
  get
    (Client.with_connection (Server.address server) (fun c -> Client.shutdown c));
  Server.wait server

let test_server_matches_direct_rank () =
  let tuner = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct =
    Sorl.Autotuner.rank tuner inst
      (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  let top = 5 in
  let expected = Array.to_list (Array.sub direct 0 top) in
  List.iter
    (fun workers ->
      with_temp_dir @@ fun dir ->
      let server = start_server ~workers dir (file_source dir tuner) in
      let clients = 4 in
      let answers = Array.make clients [] in
      let spawned =
        List.init clients (fun i ->
            Domain.spawn (fun () ->
                answers.(i) <-
                  get
                    (Client.with_connection (Server.address server) (fun c ->
                         Client.rank c ~benchmark ~top))))
      in
      List.iter Domain.join spawned;
      Array.iter
        (fun a -> checkb "served ranking = in-process ranking" true (a = expected))
        answers;
      (* info reflects the model *)
      let info = get (Client.with_connection (Server.address server) Client.info) in
      checks "generation 0" "0" (List.assoc "generation" info);
      checks "mode" "extended" (List.assoc "mode" info);
      shutdown_server server)
    [ 1; 2; 4 ]

let test_server_tune_info_stats () =
  let tuner = Lazy.force tuner_a in
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir tuner) in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct_best =
    (Sorl.Autotuner.rank tuner inst
       (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))).(0)
  in
  get
    (Client.with_connection (Server.address server) (fun c ->
         let t = get (Client.tune c ~benchmark) in
         checkb "tune = direct best" true (Tuning.equal t direct_best);
         (* unknown benchmark is a typed error, and the connection
            survives to serve the next request *)
         (match Client.tune c ~benchmark:"no-such-benchmark" with
         | Error m ->
           checkb "no-benchmark error" true
             (contains ~sub:"no-benchmark" m)
         | Ok _ -> Alcotest.fail "expected no-benchmark error");
         let stats = get (Client.stats c) in
         checkb "requests counted" true (List.assoc "requests" stats >= 2);
         checkb "errors counted" true (List.assoc "errors" stats >= 1);
         Ok ()));
  shutdown_server server

let test_batcher_top_k_prefix () =
  (* Batcher.rank_top in process: each call is a leader, and its top-k
     is the prefix of the full sort *)
  let tuner = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name "gradient-256x256x256" in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let direct = Sorl.Autotuner.rank tuner inst set in
  let b = Batcher.create () in
  List.iter
    (fun k ->
      let top, follower = Batcher.rank_top b ~generation:0 ~tuner ~inst ~k () in
      checkb "not coalesced" false follower;
      checkb "top-k = full-sort prefix" true (top = Array.sub direct 0 k))
    [ 3; 10 ]

let test_server_rejects_malformed_line () =
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir (Lazy.force tuner_a)) in
  let path = match Server.address server with Protocol.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "utter nonsense\n";
  flush oc;
  (match get (Protocol.parse_response (input_line ic)) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.fail ("expected bad-request, got " ^ Protocol.encode_response r));
  (* the connection is still usable after a malformed frame *)
  output_string oc "sorl1 info\n";
  flush oc;
  (match get (Protocol.parse_response (input_line ic)) with
  | Protocol.Info_reply _ -> ()
  | r -> Alcotest.fail ("expected info reply, got " ^ Protocol.encode_response r));
  close_out_noerr oc;
  shutdown_server server

let test_server_cached_replies_byte_identical () =
  (* Every reply is a slice of a resident ranking: for every registered
     benchmark, at every interesting depth, the raw bytes must equal
     [Protocol.encode_response] of the in-process rank prefix, and a
     [rank!]/[tune!] must get exactly the plain verb's bytes — on the
     server as started, and again after a reload to another model. *)
  let a = Lazy.force tuner_a and b = Lazy.force tuner_b in
  (* (plain query, bang query, expected reply) *)
  let expected tuner =
    List.concat_map
      (fun inst ->
        let benchmark = Instance.name inst in
        let ranked =
          Sorl.Autotuner.rank tuner inst
            (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
        in
        let n = Array.length ranked in
        let rank k =
          ( Printf.sprintf "sorl1 rank %s %d" benchmark k,
            Printf.sprintf "sorl1 rank! %s %d" benchmark k,
            Protocol.encode_response
              (Protocol.Ranked
                 {
                   benchmark;
                   total = n;
                   tunings = Array.to_list (Array.sub ranked 0 (min k n));
                   approx = false;
                 }) )
        in
        List.map rank [ 1; 2; 3; 10; 11; n - 1; n; n + 7 ]
        @ [
            ( "sorl1 tune " ^ benchmark,
              "sorl1 tune! " ^ benchmark,
              Protocol.encode_response
                (Protocol.Tuned { benchmark; tuning = ranked.(0); approx = false }) );
          ])
      Benchmarks.instances
  in
  let check_all server queries =
    let (_, ic, oc) as conn = raw_connect server in
    let ask q =
      output_string oc (q ^ "\n");
      flush oc;
      input_line ic
    in
    List.iter
      (fun (plain, bang, want) ->
        let got = ask plain in
        checks plain want got;
        checks (bang ^ " = " ^ plain) got (ask bang))
      queries;
    raw_close conn
  in
  let stats server = get (Client.with_connection (Server.address server) Client.stats) in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" a);
  get (Model_store.save store ~name:"other" b);
  let server = start_server dir (Server.Store (store, "default")) in
  let from_a = expected a in
  check_all server from_a;
  let s = stats server in
  checki "every read a slice" (2 * List.length from_a) (List.assoc "result_cache_hits" s);
  checki "one ranking per benchmark" 17 (List.assoc "result_cache_entries" s);
  (* a reload to a different model: every ranking is rebuilt before
     the reply, and replies follow the new model *)
  ignore (get (Client.with_connection (Server.address server) (Client.reload ~model:"other")));
  checki "reload built every ranking" 17 (List.assoc "result_cache_entries" (stats server));
  let from_b = expected b in
  checkb "the models rank differently" true (from_a <> from_b);
  check_all server from_b;
  shutdown_server server

let test_client_pipeline_in_order () =
  let tuner = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct =
    Sorl.Autotuner.rank tuner inst
      (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  let top2 = Array.to_list (Array.sub direct 0 2) in
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir tuner) in
  get
    (Client.with_connection (Server.address server) (fun c ->
         let reqs =
           [
             Protocol.Info;
             Protocol.Rank { benchmark; top = 2; approx_ok = false };
             Protocol.Tune { benchmark; approx_ok = false };
             Protocol.Rank { benchmark = "no-such-benchmark"; top = 1; approx_ok = false };
             Protocol.Stats;
           ]
         in
         let replies = get (Client.pipeline c reqs) in
         checki "one reply per request" (List.length reqs) (List.length replies);
         (match replies with
         | [
          Protocol.Info_reply _;
          Protocol.Ranked { tunings; _ };
          Protocol.Tuned { tuning; _ };
          Protocol.Error { code = Protocol.No_benchmark; _ };
          Protocol.Stats_reply stats;
         ] ->
           checkb "pipelined rank = direct" true (tunings = top2);
           checkb "pipelined tune = direct best" true (Tuning.equal tuning direct.(0));
           checkb "pipelined requests counted" true
             (List.assoc "pipelined" stats >= List.length reqs)
         | _ -> Alcotest.fail "pipelined replies out of order or mis-shaped");
         Ok ()));
  shutdown_server server

let test_pipeline_malformed_frame_isolated () =
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir (Lazy.force tuner_a)) in
  let (_, ic, oc) as conn = raw_connect server in
  (* one write carrying a bad frame between two good ones: only the bad
     frame errors, order holds, the connection survives *)
  output_string oc "sorl1 info\nutter garbage\nsorl1 info\n";
  flush oc;
  let expect what ok =
    match get (Protocol.parse_response (input_line ic)) with
    | r when ok r -> ()
    | r -> Alcotest.fail ("expected " ^ what ^ ", got " ^ Protocol.encode_response r)
  in
  expect "info" (function Protocol.Info_reply _ -> true | _ -> false);
  expect "bad-request" (function
    | Protocol.Error { code = Protocol.Bad_request; _ } -> true
    | _ -> false);
  expect "info" (function Protocol.Info_reply _ -> true | _ -> false);
  output_string oc "sorl1 stats\n";
  flush oc;
  expect "stats" (function Protocol.Stats_reply _ -> true | _ -> false);
  raw_close conn;
  shutdown_server server

let test_interleaved_clients_all_progress () =
  (* more concurrent keep-alive clients than worker domains: under the
     reactor an idle connection costs a select slot, not a worker, so
     every client keeps making progress *)
  let tuner = Lazy.force tuner_a in
  with_temp_dir @@ fun dir ->
  let server = start_server ~workers:1 dir (file_source dir tuner) in
  let addr = Server.address server in
  let clients = 6 and rounds = 5 in
  let failures = Atomic.make 0 in
  let spawned =
    List.init clients (fun i ->
        Domain.spawn (fun () ->
            match Client.connect addr with
            | Error _ -> Atomic.incr failures
            | Ok c ->
              for r = 1 to rounds do
                let ok =
                  if (i + r) mod 2 = 0 then Result.is_ok (Client.info c)
                  else Result.is_ok (Client.rank c ~benchmark ~top:1)
                in
                if not ok then Atomic.incr failures
              done;
              Client.close c))
  in
  List.iter Domain.join spawned;
  checki "every interleaved round-trip succeeded" 0 (Atomic.get failures);
  shutdown_server server

let test_server_sheds_excess_connections () =
  with_temp_dir @@ fun dir ->
  let server =
    start_server ~max_connections:1 dir (file_source dir (Lazy.force tuner_a))
  in
  let (_, ic1, oc1) as c1 = raw_connect server in
  output_string oc1 "sorl1 info\n";
  flush oc1;
  (match get (Protocol.parse_response (input_line ic1)) with
  | Protocol.Info_reply _ -> ()
  | r -> Alcotest.fail ("expected info, got " ^ Protocol.encode_response r));
  (* the second concurrent connection is shed at accept: an explicit
     busy reply, then close *)
  let (_, ic2, _) as c2 = raw_connect server in
  (match get (Protocol.parse_response (input_line ic2)) with
  | Protocol.Error { code = Protocol.Busy; _ } -> ()
  | r -> Alcotest.fail ("expected busy, got " ^ Protocol.encode_response r));
  checkb "excess connection closed" true
    (match input_line ic2 with _ -> false | exception End_of_file -> true);
  raw_close c2;
  (* the resident connection is unaffected *)
  output_string oc1 "sorl1 stats\n";
  flush oc1;
  (match get (Protocol.parse_response (input_line ic1)) with
  | Protocol.Stats_reply stats ->
    checkb "shed counted" true (List.assoc "busy_rejections" stats >= 1)
  | r -> Alcotest.fail ("expected stats, got " ^ Protocol.encode_response r));
  raw_close c1;
  (* give the reactor a beat to reap c1 before the shutdown client
     connects, or it too would be shed *)
  Unix.sleepf 0.3;
  shutdown_server server

let test_server_busy_backpressure () =
  with_temp_dir @@ fun dir ->
  let server =
    start_server ~workers:1 ~queue_capacity:1 dir (file_source dir (Lazy.force tuner_a))
  in
  (* Only a batch that needs a worker can queue, so only such a batch
     can be shed.  c1 pipelines a reload and then a train of full-depth
     ranks of the largest grid (one batch, about 150 KB of reply per
     rank) and does not read: the reload sends the whole batch to the
     single worker, which blocks writing the replies until c1 reads.
     c2's reload then sits in the 1-slot queue, and c3's must be shed
     with an explicit busy reply. *)
  let train = 32 and heavy = "gradient-256x256x256" in
  let (_, ic1, oc1) as c1 = raw_connect server in
  output_string oc1 "sorl1 reload\n";
  for _ = 1 to train do
    output_string oc1 ("sorl1 rank " ^ heavy ^ " 8640\n")
  done;
  flush oc1;
  Unix.sleepf 0.3;
  let (_, ic2, oc2) as c2 = raw_connect server in
  output_string oc2 "sorl1 reload\n";
  flush oc2;
  Unix.sleepf 0.3;
  let (_, ic3, oc3) as c3 = raw_connect server in
  output_string oc3 "sorl1 reload\n";
  flush oc3;
  (match get (Protocol.parse_response (input_line ic3)) with
  | Protocol.Error { code = Protocol.Busy; _ } -> ()
  | r -> Alcotest.fail ("expected busy, got " ^ Protocol.encode_response r));
  checkb "shed connection closed" true
    (match input_line ic3 with _ -> false | exception End_of_file -> true);
  raw_close c3;
  (* a read is answered by the reactor, full queue or not *)
  let (_, ic4, oc4) as c4 = raw_connect server in
  output_string oc4 ("sorl1 rank " ^ benchmark ^ " 3\n");
  flush oc4;
  (match get (Protocol.parse_response (input_line ic4)) with
  | Protocol.Ranked { tunings; _ } -> checki "rank answered while the queue is full" 3 (List.length tunings)
  | r -> Alcotest.fail ("expected rank, got " ^ Protocol.encode_response r));
  raw_close c4;
  (* the pipelined train is answered in full, in order *)
  (match get (Protocol.parse_response (input_line ic1)) with
  | Protocol.Reloaded _ -> ()
  | r -> Alcotest.fail ("train head: expected reload, got " ^ Protocol.encode_response r));
  for i = 1 to train do
    match get (Protocol.parse_response (input_line ic1)) with
    | Protocol.Ranked _ -> ()
    | r ->
      Alcotest.fail
        (Printf.sprintf "train reply %d: expected rank, got %s" i
           (Protocol.encode_response r))
  done;
  raw_close c1;
  (* the queued request is served once the worker frees up *)
  (match get (Protocol.parse_response (input_line ic2)) with
  | Protocol.Reloaded _ -> ()
  | r -> Alcotest.fail ("expected reload, got " ^ Protocol.encode_response r));
  raw_close c2;
  let stats = get (Client.with_connection (Server.address server) Client.stats) in
  checkb "busy rejection counted" true (List.assoc "busy_rejections" stats >= 1);
  checkb "pipelined train counted" true (List.assoc "pipelined" stats >= train + 1);
  shutdown_server server

let test_server_hot_reload_under_load () =
  let a = Lazy.force tuner_a and b = Lazy.force tuner_b in
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let top = 3 in
  let top_of tuner = Array.to_list (Array.sub (Sorl.Autotuner.rank tuner inst set) 0 top) in
  let from_a = top_of a and from_b = top_of b in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" a);
  get (Model_store.save store ~name:"other" b);
  let server = start_server ~workers:2 dir (Server.Store (store, "default")) in
  let addr = Server.address server in
  let rounds = 25 in
  let torn = Atomic.make 0 in
  let clients =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            match Client.connect addr with
            | Error _ -> Atomic.incr torn
            | Ok c ->
              for _ = 1 to rounds do
                match Client.rank c ~benchmark ~top with
                | Ok r when r = from_a || r = from_b -> ()
                | Ok _ | Error _ -> Atomic.incr torn
              done;
              Client.close c))
  in
  (* swap models mid-load *)
  Unix.sleepf 0.05;
  let model, generation =
    get (Client.with_connection addr (fun c -> Client.reload ~model:"other" c))
  in
  checks "reloaded model" "other" model;
  checki "generation bumped" 1 generation;
  List.iter Domain.join clients;
  checki "no torn or failed replies" 0 (Atomic.get torn);
  (* once reload has returned, the retired generation's replies —
     cached or not — must never surface again: every subsequent answer
     comes from model B *)
  get
    (Client.with_connection addr (fun c ->
         for _ = 1 to 8 do
           let r = get (Client.rank c ~benchmark ~top) in
           checkb "serving model B after reload" true (r = from_b)
         done;
         Ok ()));
  shutdown_server server

(* Descriptors this process holds, where the OS lists them. *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let test_server_start_errors_leave_nothing_open () =
  (* a bad argument or an unloadable model is an [Error] before the
     listener or the observation log is opened: no socket file, no
     log directory, no leaked descriptor *)
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "test.sock" and obs = Filename.concat dir "obs" in
  let fds = open_fds () in
  let attempt ?(queue_capacity = 16) source =
    Server.start ~address:(Protocol.Unix_path sock) ~workers:1 ~queue_capacity ~obs_log:obs
      source
  in
  let m = get_err "queue 0" (attempt ~queue_capacity:0 (file_source dir (Lazy.force tuner_a))) in
  checkb "names queue_capacity" true (contains ~sub:"queue_capacity" m);
  ignore (get_err "missing model" (attempt (Server.Model_file (Filename.concat dir "absent"))));
  checkb "no socket file" false (Sys.file_exists sock);
  checkb "no observation log" false (Sys.file_exists obs);
  checkb "no descriptor leaked" true (open_fds () = fds)

let test_server_reload_errors_keep_old_model () =
  let a = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct_best =
    (Sorl.Autotuner.rank a inst
       (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))).(0)
  in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" a);
  let server = start_server dir (Server.Store (store, "default")) in
  let addr = Server.address server in
  (* corrupt the store file under the running server, then ask it to
     reload: the typed store error must come back on the wire and the
     old model must keep serving *)
  let file = Model_store.path store ~name:"default" in
  let oc = open_out_bin file in
  output_string oc "sorl-store v1\nname default\npayload-bytes 3\nchecksum md5 00000000000000000000000000000000\nxyz";
  close_out oc;
  get
    (Client.with_connection addr (fun c ->
         (match Client.reload c with
         | Error m ->
           checkb "store error surfaced" true (contains ~sub:"store" m)
         | Ok _ -> Alcotest.fail "expected reload to fail on a corrupt store");
         let t = get (Client.tune c ~benchmark) in
         checkb "old model still serving" true (Tuning.equal t direct_best);
         let info = get (Client.info c) in
         checks "generation unchanged" "0" (List.assoc "generation" info);
         Ok ()));
  shutdown_server server

(* ---- online learning: observe -> canary -> promote / rollback ---- *)

(* Servers without a log answer the online-learning verbs with typed
   errors instead of half-working. *)
let test_server_without_obs_log () =
  let tuner = Lazy.force tuner_a in
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir tuner) in
  get
    (Client.with_connection (Server.address server) (fun c ->
         (match
            Client.observe c ~benchmark ~tuning:(Tuning.default ~dims:2) ~cost:0.01
          with
         | Error m -> checkb "observe -> no-log" true (contains ~sub:"no-log" m)
         | Ok _ -> Alcotest.fail "observe accepted without a log");
         (match Client.promote c with
         | Error m ->
           checkb "promote without canary rejected" true
             (contains ~sub:"canary-rejected" m)
         | Ok _ -> Alcotest.fail "promote succeeded without a canary");
         (* a file-backed server has no store to canary from *)
         (match Client.canary c ~model:"x" with
         | Error m -> checkb "canary -> no-model" true (contains ~sub:"no-model" m)
         | Ok _ -> Alcotest.fail "file-backed canary accepted");
         Ok ()));
  shutdown_server server

(* The full closed loop against one server, with concurrent rank load
   throughout: stream observations, retrain a candidate exactly the
   way `sorl_tune learn` does, canary it (replies must stay
   byte-identical to the stable model), promote it (the swap is the
   hot-reload path), then canary a deliberately degraded model and
   watch it roll back and quarantine.  A reply that is not exactly one
   model's bytes is torn; a candidate reply before promote is a
   leak. *)
let test_server_canary_cycle_zero_torn_replies () =
  let stable = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let top = 3 in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" stable);
  let obs_log = Filename.concat dir "observations.obs" in
  let server = start_server ~workers:2 ~obs_log dir (Server.Store (store, "default")) in
  let addr = Server.address server in
  (* ingest: pipelined observer, every record acked *)
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:21 machine in
  let rng = Sorl_util.Rng.create 77 in
  let n_obs = 240 in
  get
    (Client.with_connection addr (fun c ->
         let o = Client.Observer.create ~batch:32 c in
         for _ = 1 to n_obs do
           let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
           let cost = Sorl_machine.Measure.runtime measure inst tuning in
           get (Client.Observer.send o ~benchmark ~tuning ~cost)
         done;
         let r = Client.Observer.close o in
         checki "all acked" n_obs (Client.Observer.acked o);
         checki "none rejected" 0 (Client.Observer.rejected o);
         r));
  let obs, clean = get (Sorl_learn.Obs_log.replay obs_log) in
  checkb "server log replays clean" true clean;
  checki "server log complete" n_obs (List.length obs);
  (* retrain: warm start from the stable weights on the train slice *)
  let train_slice, held = Sorl_learn.Trainer.split obs in
  let candidate =
    get
      (Sorl_learn.Trainer.retrain
         ~init:(Sorl.Autotuner.weights stable)
         ~mode:(Sorl.Autotuner.feature_mode stable)
         train_slice)
  in
  let stau = Option.get (Sorl_learn.Trainer.holdout_tau stable held) in
  let ctau = Option.get (Sorl_learn.Trainer.holdout_tau candidate held) in
  checkb (Printf.sprintf "candidate tau %.3f no worse than stable %.3f" ctau stau) true
    (Sorl_learn.Trainer.no_worse ~stable:stau ~candidate:ctau);
  let gname =
    match Model_store.publish store ~base:"default" candidate with
    | Ok (gname, 1) -> gname
    | Ok _ | Error _ -> Alcotest.fail "publish of generation 1 failed"
  in
  let reply_bytes tuner =
    Protocol.encode_response
      (Protocol.Ranked
         {
           benchmark;
           total = Array.length set;
           tunings = Array.to_list (Array.sub (Sorl.Autotuner.rank tuner inst set) 0 top);
           approx = false;
         })
  in
  let stable_bytes = reply_bytes stable and candidate_bytes = reply_bytes candidate in
  (* load: phase 0 = pre-canary, 1 = canary shadowing, 2 = promote
     sent.  Reading the phase after the reply arrives gives a sound
     lower bound — a reply seen while the phase is still <= 1 was
     served strictly before promote. *)
  let phase = Atomic.make 0 in
  let torn = Atomic.make 0 and leaked = Atomic.make 0 in
  let stop = Atomic.make false in
  let request_line = Printf.sprintf "sorl1 rank %s %d" benchmark top in
  let clients =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let (_, ic, oc) as conn = raw_connect server in
            while not (Atomic.get stop) do
              output_string oc (request_line ^ "\n");
              flush oc;
              let line = input_line ic in
              let p = Atomic.get phase in
              if line <> stable_bytes && line <> candidate_bytes then Atomic.incr torn
              else if p <= 1 && line <> stable_bytes then Atomic.incr leaked
            done;
            raw_close conn))
  in
  let with_client f = get (Client.with_connection addr f) in
  Unix.sleepf 0.05;
  (* canary: replies stay stable while the shadow scores *)
  with_client (fun c -> Client.canary c ~model:gname) |> fun m ->
  checks "canaried" gname m;
  Atomic.set phase 1;
  (* guarantee shadow traffic regardless of load timing *)
  with_client (fun c ->
      for _ = 1 to 5 do
        ignore (get (Client.rank c ~benchmark ~top))
      done;
      Ok ());
  Unix.sleepf 0.1;
  Atomic.set phase 2;
  let promoted_model, generation = with_client Client.promote in
  checks "promoted the canary" gname promoted_model;
  checki "promote is a reload" 1 generation;
  Unix.sleepf 0.05;
  Atomic.set stop true;
  List.iter Domain.join clients;
  checki "zero torn replies" 0 (Atomic.get torn);
  checki "zero candidate replies before promote" 0 (Atomic.get leaked);
  (* post-promote: the candidate serves, and the decision is visible *)
  with_client (fun c ->
      for _ = 1 to 4 do
        let r = get (Client.rank c ~benchmark ~top) in
        checkb "candidate serving after promote" true
          (r = Array.to_list (Array.sub (Sorl.Autotuner.rank candidate inst set) 0 top))
      done;
      let stats = get (Client.stats c) in
      let v k = List.assoc k stats in
      checki "observations counted" n_obs (v "observations");
      checki "log records counted" n_obs (v "obs_log_records");
      checkb "shadow traffic scored" true (v "canary_shadowed" >= 5);
      checki "every shadow is a verdict" (v "canary_shadowed")
        (v "canary_agree" + v "canary_disagree");
      checki "promotion counted" 1 (v "canary_promotions");
      checki "no canary loaded" 0 (v "canary_active");
      checki "stable tau exported (milli)"
        (int_of_float (Float.round (stau *. 1000.)))
        (v "canary_tau_stable_m");
      Ok ());
  (* rollback: a sign-flipped model ranks backwards and must lose *)
  let degraded =
    Sorl.Autotuner.of_model
      ~mode:(Sorl.Autotuner.feature_mode candidate)
      (Sorl_svmrank.Model.create
         (Array.map (fun x -> -.x) (Sorl.Autotuner.weights candidate)))
  in
  get (Model_store.save store ~name:"degraded" degraded);
  with_client (fun c ->
      checks "degraded canaried" "degraded" (get (Client.canary c ~model:"degraded"));
      for _ = 1 to 3 do
        ignore (get (Client.rank c ~benchmark ~top))
      done;
      (match Client.promote c with
      | Error m -> checkb "rolled back" true (contains ~sub:"canary-rejected" m)
      | Ok _ -> Alcotest.fail "degraded model was promoted");
      (* quarantined: the name is refused until a new generation *)
      (match Client.canary c ~model:"degraded" with
      | Error m -> checkb "quarantined" true (contains ~sub:"quarantined" m)
      | Ok _ -> Alcotest.fail "quarantined model re-canaried");
      let stats = get (Client.stats c) in
      checki "rollback counted" 1 (List.assoc "canary_rollbacks" stats);
      checki "quarantine counted" 1 (List.assoc "canary_quarantined" stats);
      let info = get (Client.info c) in
      checks "generation unchanged by rollback" "1" (List.assoc "generation" info);
      (* and the wire keeps serving the promoted candidate *)
      let r = get (Client.rank c ~benchmark ~top) in
      checkb "candidate still serving" true
        (r = Array.to_list (Array.sub (Sorl.Autotuner.rank candidate inst set) 0 top));
      Ok ());
  shutdown_server server

(* [stats] takes no lock a build holds: while a reload builds its
   rankings on one worker, stats on a second connection is answered by
   the other worker before the reload's reply arrives. *)
let test_server_stats_not_blocked_by_reload () =
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" (Lazy.force tuner_a));
  let server = start_server ~workers:2 dir (Server.Store (store, "default")) in
  let ((reload_fd, reload_ic, reload_oc) as reloader) = raw_connect server in
  let ((_, stats_ic, stats_oc) as stater) = raw_connect server in
  let readable fd = match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true in
  output_string reload_oc "sorl1 reload\n";
  flush reload_oc;
  (* let a worker take the reload and start its build *)
  Unix.sleepf 0.01;
  let answered_during_build = ref 0 in
  while not (readable reload_fd) do
    output_string stats_oc "sorl1 stats\n";
    flush stats_oc;
    (match get (Protocol.parse_response (input_line stats_ic)) with
    | Protocol.Stats_reply _ -> ()
    | r -> Alcotest.fail ("expected stats, got " ^ Protocol.encode_response r));
    if not (readable reload_fd) then incr answered_during_build
  done;
  (match get (Protocol.parse_response (input_line reload_ic)) with
  | Protocol.Reloaded { generation = 1; _ } -> ()
  | r -> Alcotest.fail ("expected reload, got " ^ Protocol.encode_response r));
  checkb "stats answered while the reload was building" true (!answered_during_build > 0);
  raw_close reloader;
  raw_close stater;
  shutdown_server server

(* [stats] reads the observation log's record and segment counts
   without the log's mutex, so it never waits behind an observe's
   flush or a seal's fsync.  A seal cannot be held open from a test:
   each of its steps (trailer write, fsync, rename, fresh tail) is a
   local file operation that completes without waiting on anything the
   test controls, and the log has no hook inside it.  So the overlap is
   staged by volume instead of deterministically: every observe below
   seals (roll 1, fsync on), the whole train is in flight while stats
   requests interleave with it, and every stats reply must arrive with
   counts that never go backwards. *)
let test_server_stats_during_seals () =
  with_temp_dir @@ fun dir ->
  let n = 64 in
  let server =
    get
      (Server.start
         ~address:(Protocol.Unix_path (Filename.concat dir "test.sock"))
         ~workers:2 ~obs_log:(Filename.concat dir "obs") ~obs_roll:1 ~obs_fsync:true
         (file_source dir (Lazy.force tuner_a)))
  in
  let ((_, obs_ic, obs_oc) as observer) = raw_connect server in
  let ((_, stats_ic, stats_oc) as stater) = raw_connect server in
  let set = Tuning.predefined_set ~dims:2 in
  for i = 0 to n - 1 do
    output_string obs_oc
      (Protocol.encode_request
         (Protocol.Observe
            { benchmark = "edge-512x512"; tuning = set.(i); cost = 1. +. float_of_int i })
      ^ "\n")
  done;
  flush obs_oc;
  let last = ref (0, 0) in
  while fst !last < n do
    output_string stats_oc "sorl1 stats\n";
    flush stats_oc;
    match get (Protocol.parse_response (input_line stats_ic)) with
    | Protocol.Stats_reply kvs ->
      let now = (List.assoc "obs_log_records" kvs, List.assoc "obs_log_segments" kvs) in
      checkb "records never go backwards" true (fst now >= fst !last);
      checkb "segments never go backwards" true (snd now >= snd !last);
      last := now
    | r -> Alcotest.fail ("expected stats, got " ^ Protocol.encode_response r)
  done;
  for i = 1 to n do
    match get (Protocol.parse_response (input_line obs_ic)) with
    | Protocol.Observed _ -> ()
    | r -> Alcotest.failf "observe %d: got %s" i (Protocol.encode_response r)
  done;
  let stats = get (Client.with_connection (Server.address server) Client.stats) in
  checki "every observe sealed its own segment" n (List.assoc "obs_log_segments" stats);
  raw_close observer;
  raw_close stater;
  shutdown_server server

(* ---- reads on the reactor ---- *)

let full_rank_reply tuner name =
  let inst = Benchmarks.instance_by_name name in
  let ranked =
    Sorl.Autotuner.rank tuner inst (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  Protocol.encode_response
    (Protocol.Ranked
       { benchmark = name; total = Array.length ranked; tunings = Array.to_list ranked; approx = false })

(* The next reply line, or a failure when none arrives within [s]. *)
let reply_within ~s (fd, ic, _) =
  (match Unix.select [ fd ] [] [] s with
  | [], _, _ -> Alcotest.failf "no reply within %.0f s" s
  | _ -> ());
  get (Protocol.parse_response (input_line ic))

(* A client that only reads never reaches a worker: every request it
   sends is answered on the reactor and nothing queues. *)
let test_reads_answered_on_reactor () =
  with_temp_dir @@ fun dir ->
  let server = start_server dir (file_source dir (Lazy.force tuner_a)) in
  let stats =
    get
      (Client.with_connection (Server.address server) (fun c ->
           ignore (get (Client.rank c ~benchmark ~top:4));
           ignore (get (Client.tune c ~benchmark));
           ignore (get (Client.info c));
           ignore
             (get
                (Client.pipeline c
                   [
                     Protocol.Rank { benchmark; top = 2; approx_ok = true };
                     Protocol.Tune { benchmark = "no-such-benchmark"; approx_ok = false };
                     Protocol.Stats;
                   ]));
           Client.stats c))
  in
  checki "requests" 7 (List.assoc "requests" stats);
  checki "every one answered on the reactor" 7 (List.assoc "reactor_replies" stats);
  checki "nothing queued" 0 (List.assoc "queue_depth" stats);
  shutdown_server server

(* One write mixing lines the reactor answers with lines a worker
   must: the batch goes to a worker whole, and the replies come back in
   request order. *)
let test_pipeline_mixed_verbs_in_order () =
  let tuner = Lazy.force tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct =
    Sorl.Autotuner.rank tuner inst (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  with_temp_dir @@ fun dir ->
  let obs_log = Filename.concat dir "observations.obs" in
  let server = start_server ~obs_log dir (file_source dir tuner) in
  let ((_, ic, oc) as conn) = raw_connect server in
  List.iter
    (fun r -> output_string oc (Protocol.encode_request r ^ "\n"))
    [
      Protocol.Rank { benchmark; top = 2; approx_ok = false };
      Protocol.Observe { benchmark; tuning = direct.(5); cost = 0.25 };
      Protocol.Tune { benchmark; approx_ok = false };
      Protocol.Stats;
    ];
  flush oc;
  let next () = get (Protocol.parse_response (input_line ic)) in
  (match next () with
  | Protocol.Ranked { tunings; _ } ->
    checkb "rank first" true (tunings = Array.to_list (Array.sub direct 0 2))
  | r -> Alcotest.fail ("expected rank, got " ^ Protocol.encode_response r));
  (match next () with
  | Protocol.Observed { total } -> checki "observe second" 1 total
  | r -> Alcotest.fail ("expected observe, got " ^ Protocol.encode_response r));
  (match next () with
  | Protocol.Tuned { tuning; _ } -> checkb "tune third" true (Tuning.equal tuning direct.(0))
  | r -> Alcotest.fail ("expected tune, got " ^ Protocol.encode_response r));
  (match next () with
  | Protocol.Stats_reply kvs -> checki "stats last, after the observe" 1 (List.assoc "obs_log_records" kvs)
  | r -> Alcotest.fail ("expected stats, got " ^ Protocol.encode_response r));
  raw_close conn;
  shutdown_server server

(* A rank written while the same connection's reload is in flight is
   read only after the reload's reply: it is answered by the new
   model. *)
let test_rank_waits_for_inflight_reload () =
  let a = Lazy.force tuner_a and b = Lazy.force tuner_b in
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let top_of tuner = Array.to_list (Array.sub (Sorl.Autotuner.rank tuner inst set) 0 3) in
  checkb "the models rank differently" true (top_of a <> top_of b);
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" a);
  get (Model_store.save store ~name:"other" b);
  let server = start_server dir (Server.Store (store, "default")) in
  let ((_, ic, oc) as conn) = raw_connect server in
  output_string oc "sorl1 reload other\n";
  flush oc;
  (* let a worker take the reload and start its build *)
  Unix.sleepf 0.01;
  output_string oc ("sorl1 rank " ^ benchmark ^ " 3\n");
  flush oc;
  (match get (Protocol.parse_response (input_line ic)) with
  | Protocol.Reloaded { model = "other"; generation = 1 } -> ()
  | r -> Alcotest.fail ("expected the reload first, got " ^ Protocol.encode_response r));
  (match get (Protocol.parse_response (input_line ic)) with
  | Protocol.Ranked { tunings; _ } -> checkb "answered by the reloaded model" true (tunings = top_of b)
  | r -> Alcotest.fail ("expected rank, got " ^ Protocol.encode_response r));
  raw_close conn;
  shutdown_server server

(* A client that pipelines deep ranks and does not read holds about
   4.8 MB of replies the socket cannot take.  With one worker, nothing
   it holds is needed: another connection's reads are answered at once,
   and once the slow client reads, it gets every reply, complete and in
   order. *)
let test_slow_reader_does_not_block_reads () =
  let tuner = Lazy.force tuner_a in
  let train = 32 and heavy = "gradient-256x256x256" in
  let want = full_rank_reply tuner heavy in
  with_temp_dir @@ fun dir ->
  let server = start_server ~workers:1 dir (file_source dir tuner) in
  let (_, ic1, oc1) as slow = raw_connect server in
  for _ = 1 to train do
    output_string oc1 ("sorl1 rank " ^ heavy ^ " 8640\n")
  done;
  flush oc1;
  Unix.sleepf 0.2;
  let ((_, _, oc2) as fast) = raw_connect server in
  for _ = 1 to 3 do
    List.iter
      (fun (line, ok) ->
        output_string oc2 (line ^ "\n");
        flush oc2;
        let r = reply_within ~s:5. fast in
        if not (ok r) then Alcotest.fail ("unexpected reply " ^ Protocol.encode_response r))
      [
        ( "sorl1 rank " ^ benchmark ^ " 3",
          function Protocol.Ranked _ -> true | _ -> false );
        ("sorl1 info", function Protocol.Info_reply _ -> true | _ -> false);
        ("sorl1 reload", function Protocol.Reloaded _ -> true | _ -> false);
      ]
  done;
  raw_close fast;
  for i = 1 to train do
    checks (Printf.sprintf "deep reply %d" i) want (input_line ic1)
  done;
  raw_close slow;
  shutdown_server server

(* A connection whose replies never drain is closed by the idle
   timeout: its reader gets a prefix of the replies, then end of
   file. *)
let test_undrained_output_closed_by_idle_timeout () =
  let tuner = Lazy.force tuner_a in
  let train = 32 and heavy = "gradient-256x256x256" in
  let want = full_rank_reply tuner heavy in
  with_temp_dir @@ fun dir ->
  let server = start_server ~conn_timeout_s:0.5 dir (file_source dir tuner) in
  let (fd, ic, oc) as conn = raw_connect server in
  for _ = 1 to train do
    output_string oc ("sorl1 rank " ^ heavy ^ " 8640\n")
  done;
  flush oc;
  Unix.sleepf 1.5;
  (* a read that would wait past this fails instead of hanging *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  let lines = ref 0 and complete = ref 0 in
  (try
     while true do
       incr lines;
       if input_line ic = want then incr complete
     done
   with
  | End_of_file -> ()
  | Sys_error _ -> Alcotest.fail "connection left open");
  checkb "some reply bytes written before the close" true (!lines > 1);
  checkb "the rest dropped with the connection" true (!complete < train);
  raw_close conn;
  (* the server itself is unaffected *)
  get (Client.with_connection (Server.address server) (fun c -> Result.map ignore (Client.info c)));
  shutdown_server server

(* Shadow agreement is counted exactly, before each reply is written:
   every rank/rank!/tune while a canary is loaded is one verdict, agree
   iff the first [min k n] entries of the two models' rankings match.
   Then the canary's lifecycle: a second canary replaces the first, and
   promote installs the loaded one at the live generation + 1, also
   after a reload in between. *)
let test_server_shadow_accounting_exact () =
  let stable = Lazy.force tuner_a in
  (* the stable weights, every other one nudged by 10%: the two rankings
     share some prefixes and not others *)
  let cand =
    Sorl.Autotuner.of_model
      ~mode:(Sorl.Autotuner.feature_mode stable)
      (Sorl_svmrank.Model.create
         (Array.mapi
            (fun i x -> if i mod 2 = 0 then x *. 1.1 else x)
            (Sorl.Autotuner.weights stable)))
  in
  let flipped =
    Sorl.Autotuner.of_model
      ~mode:(Sorl.Autotuner.feature_mode stable)
      (Sorl_svmrank.Model.create (Array.map (fun x -> -.x) (Sorl.Autotuner.weights stable)))
  in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  List.iter
    (fun (name, tuner) -> get (Model_store.save store ~name tuner))
    [ ("default", stable); ("cand", cand); ("flipped", flipped); ("copy", stable) ];
  let obs_log = Filename.concat dir "observations.obs" in
  let server = start_server ~workers:2 ~obs_log dir (Server.Store (store, "default")) in
  let c = get (Client.connect (Server.address server)) in
  let stats () = get (Client.stats c) in
  let ask req =
    match get (Client.request c req) with
    | Protocol.Ranked _ | Protocol.Tuned _ -> ()
    | r -> Alcotest.fail ("expected a ranking, got " ^ Protocol.encode_response r)
  in
  (* held-out records for the promote decisions *)
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:21 machine in
  let rng = Sorl_util.Rng.create 78 in
  for _ = 1 to 80 do
    let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
    ignore
      (get
         (Client.observe c ~benchmark ~tuning
            ~cost:(Sorl_machine.Measure.runtime measure inst tuning)))
  done;
  checks "canaried" "cand" (get (Client.canary c ~model:"cand"));
  let agree = ref 0 and disagree = ref 0 and per_benchmark = ref [] in
  List.iter
    (fun inst ->
      let name = Instance.name inst in
      let grid = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
      let rs = Sorl.Autotuner.rank stable inst grid and rc = Sorl.Autotuner.rank cand inst grid in
      let n = Array.length grid in
      let a = ref 0 and d = ref 0 in
      let verdict k =
        let k = min k n in
        incr (if Array.sub rs 0 k = Array.sub rc 0 k then a else d)
      in
      List.iter
        (fun top ->
          ask (Protocol.Rank { benchmark = name; top; approx_ok = false });
          verdict top;
          ask (Protocol.Rank { benchmark = name; top; approx_ok = true });
          verdict top;
          ask (Protocol.Tune { benchmark = name; approx_ok = false });
          verdict 1)
        [ 1; 3; 10; n; n + 7 ];
      agree := !agree + !a;
      disagree := !disagree + !d;
      per_benchmark :=
        ("canary_agree_" ^ name, !a) :: ("canary_disagree_" ^ name, !d) :: !per_benchmark)
    Benchmarks.instances;
  let s = stats () in
  let v k = List.assoc k s in
  checkb "the candidate agrees on some requests" true (!agree > 0);
  checkb "the candidate disagrees on others" true (!disagree > 0);
  checki "shadowed" (!agree + !disagree) (v "canary_shadowed");
  checki "agree" !agree (v "canary_agree");
  checki "disagree" !disagree (v "canary_disagree");
  Alcotest.check
    Alcotest.(list (pair string int))
    "per-benchmark counts" (List.sort compare !per_benchmark)
    (List.filter
       (fun (k, _) ->
         String.starts_with ~prefix:"canary_agree_" k
         || String.starts_with ~prefix:"canary_disagree_" k)
       s);
  (* a second canary replaces the first: a full-depth rank now agrees,
     which the flipped model never would *)
  checks "flipped canaried" "flipped" (get (Client.canary c ~model:"flipped"));
  checks "copy canaried" "copy" (get (Client.canary c ~model:"copy"));
  ask (Protocol.Rank { benchmark; top = Array.length set; approx_ok = false });
  checki "compared with the newer canary" (!agree + 1)
    (List.assoc "canary_agree" (stats ()));
  let model, promoted = get (Client.promote c) in
  checks "promote installs the newer canary" "copy" model;
  checki "at the live generation + 1" 1 promoted;
  checks "serving the promoted model" "copy" (List.assoc "model" (get (Client.info c)));
  (* a reload between canary and promote: promote stamps the reloaded
     generation + 1 *)
  checks "canaried again" "copy" (get (Client.canary c ~model:"copy"));
  let _, reloaded = get (Client.reload ~model:"default" c) in
  let model, promoted = get (Client.promote c) in
  checks "promoted after reload" "copy" model;
  checki "promote follows the reload" (reloaded + 1) promoted;
  let s = stats () in
  checki "promotions" 2 (List.assoc "canary_promotions" s);
  checki "no canary left" 0 (List.assoc "canary_active" s);
  Client.close c;
  shutdown_server server

(* Every snapshot the server builds — at a reload, and at a canary that
   a promote then swaps in — must serve, for each of the 17 registered
   benchmarks, the full-depth rank reply that an in-process
   [Autotuner.rank_order] of the benchmark's grid gives, byte for byte,
   whichever domain built which ranking. *)
let test_reload_and_promote_serve_rank_order () =
  let b = Lazy.force tuner_b in
  let mode = Sorl.Autotuner.feature_mode b in
  let flipped =
    Sorl.Autotuner.of_model ~mode
      (Sorl_svmrank.Model.create (Array.map (fun x -> -.x) (Sorl.Autotuner.weights b)))
  in
  let expected tuner =
    List.map
      (fun inst ->
        let benchmark = Instance.name inst in
        let grid = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
        let order = Sorl.Autotuner.rank_order tuner (Features.compile mode inst) grid in
        let n = Array.length grid in
        ( Printf.sprintf "sorl1 rank %s %d" benchmark n,
          Protocol.encode_response
            (Protocol.Ranked
               {
                 benchmark;
                 total = n;
                 tunings = Array.to_list (Array.map (fun i -> grid.(i)) order);
                 approx = false;
               }) ))
      Benchmarks.instances
  in
  with_temp_dir @@ fun dir ->
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  List.iter
    (fun (name, tuner) -> get (Model_store.save store ~name tuner))
    [ ("default", Lazy.force tuner_a); ("b", b); ("flipped", flipped) ];
  let obs_log = Filename.concat dir "observations.obs" in
  let server = start_server ~obs_log dir (Server.Store (store, "default")) in
  let c = get (Client.connect (Server.address server)) in
  (* held-out records for the promote decision *)
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let measure = Sorl_machine.Measure.model ~noise_amplitude:0.02 ~seed:21 machine in
  let rng = Sorl_util.Rng.create 78 in
  for _ = 1 to 80 do
    let tuning = set.(Sorl_util.Rng.int rng (Array.length set)) in
    ignore
      (get
         (Client.observe c ~benchmark ~tuning
            ~cost:(Sorl_machine.Measure.runtime measure inst tuning)))
  done;
  let check_all what tuner =
    let (_, ic, oc) as conn = raw_connect server in
    List.iter
      (fun (query, want) ->
        output_string oc (query ^ "\n");
        flush oc;
        checks (what ^ ": " ^ query) want (input_line ic))
      (expected tuner);
    raw_close conn
  in
  ignore (get (Client.reload ~model:"flipped" c));
  check_all "after reload" flipped;
  checks "canaried" "b" (get (Client.canary c ~model:"b"));
  let model, _ = get (Client.promote c) in
  checks "the candidate is promoted" "b" model;
  check_all "after canary + promote" b;
  Client.close c;
  shutdown_server server

let suite =
  [
    Alcotest.test_case "protocol request roundtrip" `Quick test_protocol_request_roundtrip;
    Alcotest.test_case "protocol response roundtrip" `Quick test_protocol_response_roundtrip;
    Alcotest.test_case "protocol rejects malformed frames" `Quick test_protocol_malformed;
    Alcotest.test_case "protocol addresses" `Quick test_protocol_addresses;
    Alcotest.test_case "protocol: approx flags roundtrip, byte-compat" `Quick
      test_protocol_approx_roundtrip;
    Alcotest.test_case "protocol: strict vs lenient flags" `Quick
      test_protocol_strict_vs_lenient;
    Alcotest.test_case "autotuner load is defensive" `Quick test_load_errors;
    Alcotest.test_case "autotuner load refuses non-finite weights" `Quick
      test_load_rejects_non_finite_weights;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store rejects corruption" `Quick test_store_rejects_corruption;
    Alcotest.test_case "store name validation" `Quick test_store_names;
    Alcotest.test_case "result cache: lru, generations, env, disable" `Quick
      test_result_cache;
    Alcotest.test_case "result cache: evictions, per-generation" `Quick
      test_result_cache_evictions_and_generations;
    Alcotest.test_case "write_all bounded by timeout" `Quick
      test_write_all_bounded_by_timeout;
    Alcotest.test_case "connect: typed errors, bounded backoff" `Quick
      test_connect_backoff;
    Alcotest.test_case "served ranks = direct ranks (workers 1/2/4)" `Slow
      test_server_matches_direct_rank;
    Alcotest.test_case "tune/info/stats and typed errors" `Quick test_server_tune_info_stats;
    Alcotest.test_case "batcher top-k = full-sort prefix" `Quick test_batcher_top_k_prefix;
    Alcotest.test_case "malformed line gets bad-request" `Quick
      test_server_rejects_malformed_line;
    Alcotest.test_case "cached replies byte-identical to uncached" `Slow
      test_server_cached_replies_byte_identical;
    Alcotest.test_case "pipeline: in-order replies" `Quick test_client_pipeline_in_order;
    Alcotest.test_case "pipeline: malformed frame isolated" `Quick
      test_pipeline_malformed_frame_isolated;
    Alcotest.test_case "interleaved clients > workers all progress" `Quick
      test_interleaved_clients_all_progress;
    Alcotest.test_case "accept shed at max connections" `Quick
      test_server_sheds_excess_connections;
    Alcotest.test_case "busy backpressure" `Slow test_server_busy_backpressure;
    Alcotest.test_case "hot reload under load" `Slow test_server_hot_reload_under_load;
    Alcotest.test_case "start errors leave nothing open" `Quick
      test_server_start_errors_leave_nothing_open;
    Alcotest.test_case "failed reload keeps the old model" `Quick
      test_server_reload_errors_keep_old_model;
    Alcotest.test_case "learning verbs without a log are typed errors" `Quick
      test_server_without_obs_log;
    Alcotest.test_case "canary cycle: zero torn replies under load" `Slow
      test_server_canary_cycle_zero_torn_replies;
    Alcotest.test_case "stats answers while a reload builds" `Quick
      test_server_stats_not_blocked_by_reload;
    Alcotest.test_case "stats answers while observes seal" `Quick
      test_server_stats_during_seals;
    Alcotest.test_case "reactor: read-only client never queues" `Quick
      test_reads_answered_on_reactor;
    Alcotest.test_case "reactor: mixed pipeline in order" `Quick
      test_pipeline_mixed_verbs_in_order;
    Alcotest.test_case "reactor: rank waits for its reload" `Quick
      test_rank_waits_for_inflight_reload;
    Alcotest.test_case "reactor: slow reader blocks no reads" `Slow
      test_slow_reader_does_not_block_reads;
    Alcotest.test_case "reactor: undrained output closed idle" `Slow
      test_undrained_output_closed_by_idle_timeout;
    Alcotest.test_case "canary: exact shadow accounting, replace, promote" `Slow
      test_server_shadow_accounting_exact;
    Alcotest.test_case "reload and promote serve rank_order bytes, all 17" `Slow
      test_reload_and_promote_serve_rank_order;
  ]
