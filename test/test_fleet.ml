(* Tests for the fleet tier: consistent-hash ring invariants (qcheck),
   the router's byte-equivalence with a direct server, failover past a
   dead shard, fleet-wide rolling reload under load, and the
   shard-process supervisor (which re-executes this very test binary —
   see Fleet.maybe_shard_main in test/main.ml). *)

open Sorl_stencil
open Sorl_serve

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let get = function Ok x -> x | Error m -> Alcotest.fail m
let benchmark = Test_serve.benchmark

(* ---- ring ---- *)

let shard_names n = List.init n (fun i -> Printf.sprintf "shard-%d" i)
let keys n = List.init n (fun i -> Printf.sprintf "bench-%d/rank" i)

let test_ring_basics () =
  let r = Ring.create (shard_names 4) in
  checki "size" 4 (Ring.size r);
  checks "name by index" "shard-2" (Ring.name r 2);
  List.iter
    (fun key ->
      let o = Ring.owner r key in
      let os = Ring.owners r key in
      checki "owners head = owner" o (List.hd os);
      checki "owners covers every shard once" 4
        (List.length (List.sort_uniq compare os)))
    (keys 100);
  (* layout depends only on the set of names, not their order *)
  let r' = Ring.create (List.rev (shard_names 4)) in
  List.iter
    (fun key ->
      checks "order-insensitive placement"
        (Ring.name r (Ring.owner r key))
        (Ring.name r' (Ring.owner r' key)))
    (keys 100);
  (match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring accepted");
  match Ring.create [ "a"; "b"; "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate shard name accepted"

let test_ring_balance () =
  (* 128 virtual points per shard keep the arcs even enough that no
     shard of four owns less than a twentieth of a large keyspace *)
  let n = 4 and total = 4000 in
  let r = Ring.create (shard_names n) in
  let counts = Array.make n 0 in
  List.iter (fun k -> counts.(Ring.owner r k) <- counts.(Ring.owner r k) + 1) (keys total);
  Array.iteri
    (fun i c ->
      checkb
        (Printf.sprintf "shard %d owns a fair share (%d/%d)" i c total)
        true
        (c >= total * 5 / 100))
    counts

(* The two exact stability invariants. Removal: a key not owned by the
   removed shard keeps its owner. Addition: a key that moves lands on
   the new shard. Together they bound churn to the resized shard's own
   arcs — about 1/N of the keyspace. *)
let ring_stability_tests =
  let gen = QCheck2.Gen.(pair (int_range 2 8) (int_range 50 400)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name:"ring: removal moves only the removed shard's keys"
         gen (fun (n, nkeys) ->
           let all = shard_names n in
           let removed = List.nth all (n / 2) in
           let before = Ring.create all in
           let after = Ring.create (List.filter (fun s -> s <> removed) all) in
           List.for_all
             (fun key ->
               let o = Ring.name before (Ring.owner before key) in
               o = removed || Ring.name after (Ring.owner after key) = o)
             (keys nkeys)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~name:"ring: a key moved by addition lands on the new shard"
         gen (fun (n, nkeys) ->
           let before = Ring.create (shard_names n) in
           let added = "shard-new" in
           let after = Ring.create (added :: shard_names n) in
           List.for_all
             (fun key ->
               let o = Ring.name before (Ring.owner before key) in
               let o' = Ring.name after (Ring.owner after key) in
               o' = o || o' = added)
             (keys nkeys)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30 ~name:"ring: addition moves about 1/N of the keyspace"
         (QCheck2.Gen.int_range 2 8) (fun n ->
           let nkeys = 2000 in
           let before = Ring.create (shard_names n) in
           let after = Ring.create ("shard-new" :: shard_names n) in
           let moved =
             List.length
               (List.filter
                  (fun key ->
                    Ring.name before (Ring.owner before key)
                    <> Ring.name after (Ring.owner after key))
                  (keys nkeys))
           in
           (* expectation is nkeys/(n+1); allow a generous 3x *)
           moved <= 3 * nkeys / (n + 1)));
  ]

(* ---- router over in-process shards ---- *)

let store_with_models dir =
  let store = get (Model_store.open_dir (Filename.concat dir "store")) in
  get (Model_store.save store ~name:"default" (Lazy.force Test_serve.tuner_a));
  get (Model_store.save store ~name:"next" (Lazy.force Test_serve.tuner_b));
  store

let start_shard dir i store =
  let address = Protocol.Unix_path (Filename.concat dir (Printf.sprintf "s%d.sock" i)) in
  get
    (Server.start ~address ~workers:1 ~queue_capacity:16 ~conn_timeout_s:10.
       (Server.Store (store, "default")))

let start_router ?(connect_retry_s = 2.) dir shards =
  get
    (Router.start
       ~address:(Protocol.Unix_path (Filename.concat dir "router.sock"))
       ~workers:2 ~connect_retry_s
       (List.map Server.address shards))

let with_fleet_2 dir f =
  let store = store_with_models dir in
  let s0 = start_shard dir 0 store and s1 = start_shard dir 1 store in
  let router = start_router dir [ s0; s1 ] in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Router.wait router;
      List.iter
        (fun s ->
          Server.stop s;
          Server.wait s)
        [ s0; s1 ])
    (fun () -> f router [ s0; s1 ])

let raw_ask address line =
  let path = match address with Protocol.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc (line ^ "\n");
  flush oc;
  let reply = input_line ic in
  close_out_noerr oc;
  reply

let test_router_rejects_queue_zero () =
  Test_serve.with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "router.sock" in
  (match
     Router.start ~address:(Protocol.Unix_path sock) ~queue_capacity:0
       [ Protocol.Unix_path (Filename.concat dir "s0.sock") ]
   with
  | Ok r ->
    Router.stop r;
    Router.wait r;
    Alcotest.fail "queue_capacity 0 accepted"
  | Error _ -> ());
  checkb "no socket file" false (Sys.file_exists sock)

let test_router_matches_direct () =
  let tuner = Lazy.force Test_serve.tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let direct =
    Sorl.Autotuner.rank tuner inst
      (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))
  in
  Test_serve.with_temp_dir @@ fun dir ->
  with_fleet_2 dir @@ fun router shards ->
  let raddr = Router.address router in
  (* typed replies through the router equal the in-process ranking *)
  get
    (Client.with_connection raddr (fun c ->
         let r = get (Client.rank c ~benchmark ~top:3) in
         checkb "routed rank = direct rank" true
           (r = Array.to_list (Array.sub direct 0 3));
         let t = get (Client.tune c ~benchmark) in
         checkb "routed tune = direct best" true (Tuning.equal t direct.(0));
         (* a typed shard error passes through untouched *)
         (match Client.tune c ~benchmark:"no-such-benchmark" with
         | Error m -> checkb "no-benchmark through router" true
             (Test_serve.contains ~sub:"no-benchmark" m)
         | Ok _ -> Alcotest.fail "expected no-benchmark error");
         Ok ()));
  (* raw reply bytes through the router are identical to a direct
     shard connection's — the re-encode is canonical *)
  List.iter
    (fun q ->
      let direct_reply = raw_ask (Server.address (List.hd shards)) q in
      checks ("router bytes = shard bytes for " ^ q) direct_reply (raw_ask raddr q))
    [
      "sorl1 rank " ^ benchmark ^ " 3";
      "sorl1 tune " ^ benchmark;
      "sorl1 rank gradient-256x256x256 5";
    ];
  (* info fans out with per-shard prefixes *)
  let info = get (Client.with_connection raddr Client.info) in
  checks "router role" "router" (List.assoc "role" info);
  checks "shard count" "2" (List.assoc "shards" info);
  checks "s0 up" "true" (List.assoc "s0.up" info);
  checks "s1 model" "default" (List.assoc "s1.model" info);
  (* stats sums homonymous counters and exposes router.* *)
  let stats = get (Client.with_connection raddr Client.stats) in
  checkb "summed requests cover the traffic" true (List.assoc "requests" stats >= 5);
  (* exactly the deliberate no-benchmark probe above *)
  checki "router.errors" 1 (List.assoc "router.errors" stats);
  let forwarded = List.assoc "router.forwarded" stats in
  checki "forwarded = the rank/tune requests" (Router.requests_routed router) forwarded;
  checkb "forwarded counted" true (forwarded >= 5)

let test_router_locality () =
  Test_serve.with_temp_dir @@ fun dir ->
  with_fleet_2 dir @@ fun router _shards ->
  let raddr = Router.address router in
  let routed stats i = List.assoc (Printf.sprintf "s%d.routed" i) stats in
  get
    (Client.with_connection raddr (fun c ->
         for _ = 1 to 6 do
           ignore (get (Client.rank c ~benchmark ~top:1))
         done;
         let stats = get (Client.stats c) in
         (* one key, one owner: all six requests landed on one shard *)
         let r0 = routed stats 0 and r1 = routed stats 1 in
         checki "all requests on the owning shard" 6 (max r0 r1);
         checki "none on the other" 0 (min r0 r1);
         Ok ()))

let test_router_failover_dead_shard () =
  let tuner = Lazy.force Test_serve.tuner_a in
  let inst = Benchmarks.instance_by_name benchmark in
  let best =
    (Sorl.Autotuner.rank tuner inst
       (Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)))).(0)
  in
  Test_serve.with_temp_dir @@ fun dir ->
  let store = store_with_models dir in
  let s0 = start_shard dir 0 store and s1 = start_shard dir 1 store in
  let router = start_router ~connect_retry_s:0.1 dir [ s0; s1 ] in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Router.wait router;
      List.iter
        (fun s ->
          Server.stop s;
          Server.wait s)
        [ s0; s1 ])
    (fun () ->
      (* kill one shard outright; every benchmark must still answer —
         keys owned by the dead shard fall through the ring order *)
      Server.stop s1;
      Server.wait s1;
      get
        (Client.with_connection (Router.address router) (fun c ->
             List.iter
               (fun b ->
                 match Client.tune c ~benchmark:b with
                 | Ok t when b = benchmark ->
                   checkb "failover answer is correct" true (Tuning.equal t best)
                 | Ok _ -> ()
                 | Error m -> Alcotest.failf "tune %s through router: %s" b m)
               [ benchmark; "edge-512x512"; "gradient-256x256x256"; "blur-1024x1024" ];
             let info = get (Client.info c) in
             checks "dead shard reported down" "false" (List.assoc "s1.up" info);
             Ok ())))

let test_router_rolling_reload_under_load () =
  let a = Lazy.force Test_serve.tuner_a and b = Lazy.force Test_serve.tuner_b in
  let inst = Benchmarks.instance_by_name benchmark in
  let set = Tuning.predefined_set ~dims:(Kernel.dims (Instance.kernel inst)) in
  let top = 3 in
  let top_of t = Array.to_list (Array.sub (Sorl.Autotuner.rank t inst set) 0 top) in
  let from_a = top_of a and from_b = top_of b in
  Test_serve.with_temp_dir @@ fun dir ->
  with_fleet_2 dir @@ fun router _shards ->
  let raddr = Router.address router in
  let rounds = 25 in
  let torn = Atomic.make 0 in
  let loaders =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            match Client.connect raddr with
            | Error _ -> Atomic.incr torn
            | Ok c ->
              for _ = 1 to rounds do
                match Client.rank c ~benchmark ~top with
                | Ok r when r = from_a || r = from_b -> ()
                | Ok _ | Error _ -> Atomic.incr torn
              done;
              Client.close c))
  in
  Unix.sleepf 0.05;
  (* roll the whole fleet to model B mid-load *)
  let model, _generation =
    get (Client.with_connection raddr (fun c -> Client.reload ~model:"next" c))
  in
  checks "rolled to" "next" model;
  List.iter Domain.join loaders;
  checki "no torn or failed replies across the roll" 0 (Atomic.get torn);
  (* the fleet has converged: every shard serves B, reported per shard *)
  get
    (Client.with_connection raddr (fun c ->
         for _ = 1 to 8 do
           checkb "post-roll replies from model B" true
             (get (Client.rank c ~benchmark ~top) = from_b)
         done;
         let info = get (Client.info c) in
         checks "s0 on next" "next" (List.assoc "s0.model" info);
         checks "s1 on next" "next" (List.assoc "s1.model" info);
         let stats = get (Client.stats c) in
         checkb "roll recorded" true (List.assoc "router.reloads" stats >= 1);
         checki "nothing left draining" 0 (List.assoc "router.draining" stats);
         Ok ()))

(* ---- the process supervisor ---- *)

let test_fleet_spawns_and_stops () =
  Test_serve.with_temp_dir @@ fun dir ->
  let store = store_with_models dir in
  let fleet =
    get
      (Fleet.start
         ~dir:(Filename.concat dir "shards")
         ~shards:2 ~workers:1 (Server.Store (store, "default")))
  in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () -> if not !finished then Fleet.stop fleet)
    (fun () ->
      checki "two shard processes" 2 (List.length (Fleet.pids fleet));
      checkb "all alive after start" true
        (List.for_all Fun.id (Fleet.alive fleet));
      (* each shard is a live server loaded with the store model *)
      List.iter
        (fun addr ->
          let info = get (Client.with_connection addr Client.info) in
          checks "shard model" "default" (List.assoc "model" info))
        (Fleet.addresses fleet);
      (* a router over the fleet serves end to end *)
      let router =
        get
          (Router.start
             ~address:(Protocol.Unix_path (Filename.concat dir "router.sock"))
             ~workers:2 (Fleet.addresses fleet))
      in
      get
        (Client.with_connection (Router.address router) (fun c ->
             ignore (get (Client.rank c ~benchmark ~top:1));
             Ok ()));
      Router.stop router;
      Router.wait router;
      Fleet.stop fleet;
      finished := true;
      checkb "all reaped after stop" true
        (List.for_all not (Fleet.alive fleet));
      (* idempotent *)
      Fleet.stop fleet)

let suite =
  [
    Alcotest.test_case "ring: sizes, owners, order-insensitivity" `Quick test_ring_basics;
    Alcotest.test_case "ring: balance across shards" `Quick test_ring_balance;
  ]
  @ ring_stability_tests
  @ [
      Alcotest.test_case "router: queue 0 is an error, nothing bound" `Quick
        test_router_rejects_queue_zero;
      Alcotest.test_case "router: replies byte-identical to a shard" `Slow
        test_router_matches_direct;
      Alcotest.test_case "router: one key, one shard (locality)" `Slow test_router_locality;
      Alcotest.test_case "router: failover past a dead shard" `Slow
        test_router_failover_dead_shard;
      Alcotest.test_case "router: rolling reload under load, zero torn" `Slow
        test_router_rolling_reload_under_load;
      Alcotest.test_case "fleet: spawn, probe, route, stop, reap" `Slow
        test_fleet_spawns_and_stops;
    ]
