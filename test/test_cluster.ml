(* Tests for the cluster subsystem: the network model's FIFO/latency
   contract against a naive reference, migration conservation under forced
   crashes, and whole-cluster determinism. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Net = Sa_cluster.Net
module Cluster = Sa_cluster.Cluster
module Injector = Sa_fault.Injector

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Net: delivery times vs a naive reference model                      *)
(* ------------------------------------------------------------------ *)

(* An independent re-statement of the link model: departure queues behind
   the link's serialization, arrival adds propagation latency, FIFO per
   link.  No jitter, so times must match exactly. *)
let reference_arrivals ~latency ~ns_per_byte sends =
  let busy = Hashtbl.create 8 and last = Hashtbl.create 8 in
  List.map
    (fun (at, src, dst, bytes) ->
      let key = (src, dst) in
      let get tbl = try Hashtbl.find tbl key with Not_found -> 0 in
      let depart = max at (get busy) + (bytes * ns_per_byte) in
      Hashtbl.replace busy key depart;
      let arrive = max (depart + latency) (get last) in
      Hashtbl.replace last key arrive;
      arrive)
    sends

let net_tests =
  [
    Alcotest.test_case "latency + serialization vs reference" `Quick
      (fun () ->
        let latency = Time.us 10 and ns_per_byte = 2 in
        let sim = Sim.create () in
        let net = Net.create sim ~machines:3 ~latency ~ns_per_byte in
        (* (send time ns, src, dst, bytes): several bursts sharing links so
           serialization queueing and FIFO both matter *)
        let sends =
          [
            (0, 0, 1, 1000);
            (0, 0, 1, 500);
            (100, 0, 2, 2000);
            (2_000, 0, 1, 100);
            (2_000, 1, 0, 100);
            (30_000, 2, 0, 4000);
            (30_000, 2, 0, 4000);
            (30_001, 2, 0, 10);
          ]
        in
        let got = Array.make (List.length sends) (-1) in
        List.iteri
          (fun i (at, src, dst, bytes) ->
            ignore
              (Sim.schedule sim ~at:(Time.of_ns at) (fun () ->
                   let ok =
                     Net.send net ~src ~dst ~bytes (fun () ->
                         got.(i) <- Time.to_ns (Sim.now sim))
                   in
                   check Alcotest.bool "send accepted" true ok)))
          sends;
        Sim.run sim;
        let expected = reference_arrivals ~latency ~ns_per_byte sends in
        List.iteri
          (fun i want ->
            check Alcotest.int (Printf.sprintf "arrival %d" i) want got.(i))
          expected);
    Alcotest.test_case "FIFO per link under jitter" `Quick (fun () ->
        let sim = Sim.create () in
        let net =
          Net.create sim ~machines:2 ~latency:(Time.us 5) ~ns_per_byte:0
            ~jitter_us:50 ~seed:3
        in
        let order = ref [] in
        for i = 0 to 19 do
          ignore
            (Sim.schedule sim ~at:(Time.of_ns (i * 10)) (fun () ->
                 ignore
                   (Net.send net ~src:0 ~dst:1 ~bytes:8 (fun () ->
                        order := i :: !order))))
        done;
        Sim.run sim;
        check
          Alcotest.(list int)
          "delivered in send order"
          (List.init 20 (fun i -> i))
          (List.rev !order));
    Alcotest.test_case "partition drops, then heals" `Quick (fun () ->
        let sim = Sim.create () in
        let net = Net.create sim ~machines:2 ~latency:(Time.us 5) in
        Net.partition net ~a:0 ~b:1 ~until:(Time.of_ns 1_000);
        check Alcotest.bool "unreachable" false
          (Net.reachable net ~src:0 ~dst:1);
        let delivered = ref 0 in
        check Alcotest.bool "dropped" false
          (Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr delivered));
        ignore
          (Sim.schedule sim ~at:(Time.of_ns 2_000) (fun () ->
               check Alcotest.bool "healed" true
                 (Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () ->
                      incr delivered))));
        Sim.run sim;
        check Alcotest.int "one delivery" 1 !delivered;
        let s = Net.stats net in
        check Alcotest.int "one drop counted" 1 s.Net.drops);
    Alcotest.test_case "offline machine drops both directions" `Quick
      (fun () ->
        let sim = Sim.create () in
        let net = Net.create sim ~machines:3 ~latency:(Time.us 5) in
        Net.set_offline net 1 true;
        check Alcotest.bool "to offline" false
          (Net.send net ~src:0 ~dst:1 ~bytes:1 (fun () -> ()));
        check Alcotest.bool "from offline" false
          (Net.send net ~src:1 ~dst:2 ~bytes:1 (fun () -> ()));
        check Alcotest.bool "third parties fine" true
          (Net.send net ~src:0 ~dst:2 ~bytes:1 (fun () -> ()));
        Net.set_offline net 1 false;
        check Alcotest.bool "back online" true
          (Net.send net ~src:0 ~dst:1 ~bytes:1 (fun () -> ()));
        Sim.run sim);
  ]

(* ------------------------------------------------------------------ *)
(* Cluster: migration conserves work, determinism                      *)
(* ------------------------------------------------------------------ *)

let small_params =
  {
    Cluster.default_params with
    machines = 3;
    cpus = 4;
    tenants = 4;
    requests = 12;
    seed = 7;
    cache_blocks = 24;
  }

let summary_digest s =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%d %d %d %d|%d %d %d %d|%d %d|%.3f %b\n" s.Cluster.cl_machines
    s.Cluster.cl_cpus s.Cluster.cl_tenants s.Cluster.cl_requests_total
    s.Cluster.cl_migrations s.Cluster.cl_evacuations s.Cluster.cl_crashes
    s.Cluster.cl_partitions s.Cluster.cl_remote_hits
    s.Cluster.cl_remote_fallbacks s.Cluster.cl_elapsed_ms
    s.Cluster.cl_completed_all;
  add "net %d %d %d\n" s.Cluster.cl_net.Net.messages s.Cluster.cl_net.Net.bytes
    s.Cluster.cl_net.Net.drops;
  List.iter
    (fun m ->
      add "m%d %b %d %d %d %d %d %d %d %d %.6f\n" m.Cluster.m_id
        m.Cluster.m_alive m.Cluster.m_tenants_final m.Cluster.m_upcalls
        m.Cluster.m_preemptions m.Cluster.m_reallocations m.Cluster.m_migs_in
        m.Cluster.m_migs_out m.Cluster.m_remote_hits
        m.Cluster.m_remote_fallbacks m.Cluster.m_util)
    s.Cluster.cl_machine_rows;
  List.iter
    (fun r ->
      add "t%d %s %d->%d %d %.3f %.3f %.3f %d\n" r.Cluster.c_tenant
        r.Cluster.c_class r.Cluster.c_home0 r.Cluster.c_home
        r.Cluster.c_completed r.Cluster.c_p50_us r.Cluster.c_p99_us
        r.Cluster.c_p999_us r.Cluster.c_violations)
    s.Cluster.cl_tenant_rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_once ?crash_at ?(params = small_params) () =
  let cl = Cluster.create params in
  (match crash_at with
  | Some (at, m) ->
      ignore
        (Sim.schedule (Cluster.sim cl) ~at (fun () ->
             ignore (Cluster.crash_machine cl m)))
  | None -> ());
  Cluster.run cl;
  cl

let cluster_tests =
  [
    Alcotest.test_case "skewed placement rebalances" `Quick (fun () ->
        let cl = run_once () in
        let s = Cluster.summary cl in
        check Alcotest.bool "completed" true s.Cluster.cl_completed_all;
        check Alcotest.int "all requests served"
          (small_params.Cluster.tenants * small_params.Cluster.requests)
          s.Cluster.cl_requests_total;
        check Alcotest.bool "at least one migration" true
          (s.Cluster.cl_migrations >= 1);
        check Alcotest.bool "at least one remote hit" true
          (s.Cluster.cl_remote_hits >= 1);
        Array.iter
          (fun sys -> Kernel.check_invariants (System.kernel sys))
          (Cluster.systems cl));
    Alcotest.test_case "crash evacuates and conserves every request" `Quick
      (fun () ->
        (* Crash the machine hosting most tenants mid-run: every space must
           be re-homed and every request still complete exactly once. *)
        let cl = run_once ~crash_at:(Time.of_ns 3_000_000, 0) () in
        let s = Cluster.summary cl in
        check Alcotest.int "one crash" 1 s.Cluster.cl_crashes;
        check Alcotest.bool "evacuations happened" true
          (s.Cluster.cl_evacuations >= 1);
        check Alcotest.bool "completed despite crash" true
          s.Cluster.cl_completed_all;
        check Alcotest.int "no request lost or duplicated"
          (small_params.Cluster.tenants * small_params.Cluster.requests)
          s.Cluster.cl_requests_total;
        check Alcotest.bool "dead machine hosts nothing" true
          (List.for_all
             (fun m ->
               m.Cluster.m_alive || m.Cluster.m_tenants_final = 0)
             s.Cluster.cl_machine_rows);
        Array.iter
          (fun sys -> Kernel.check_invariants (System.kernel sys))
          (Cluster.systems cl));
    Alcotest.test_case "last machine cannot be crashed" `Quick (fun () ->
        let cl =
          Cluster.create { small_params with Cluster.machines = 2 }
        in
        check Alcotest.bool "first crash ok" true (Cluster.crash_machine cl 0);
        check Alcotest.bool "second refused" false
          (Cluster.crash_machine cl 1);
        check Alcotest.bool "idempotent" false (Cluster.crash_machine cl 0));
    Alcotest.test_case "crash and partition constants give pinned counts"
      `Quick (fun () ->
        let cl = Cluster.create small_params in
        let inj =
          Injector.attach
            ~kinds:[ Injector.Machine_crash; Injector.Net_partition ]
            ~cluster:cl ~seed:1
            (Cluster.systems cl).(0)
        in
        Cluster.run cl;
        let s = Cluster.summary cl in
        let injected k = List.assoc k (Injector.injected inj) in
        check Alcotest.int "machine-crash" 2 (injected "machine-crash");
        check Alcotest.int "net-partition" 19 (injected "net-partition");
        check Alcotest.int "migrations" 10 s.Cluster.cl_migrations;
        check Alcotest.int "evacuations" 3 s.Cluster.cl_evacuations;
        check Alcotest.int "net messages" 135 s.Cluster.cl_net.Net.messages;
        check Alcotest.int "net bytes" 274_944 s.Cluster.cl_net.Net.bytes;
        check Alcotest.int "net drops" 3 s.Cluster.cl_net.Net.drops;
        (* Every tenant's final home and every machine's final tenant count
           are in the digest: a placement read from the wrong kernel moves
           it. *)
        check Alcotest.string "summary digest" "e0ab5418974a2bfba39f297578686522"
          (summary_digest s));
    Alcotest.test_case "cluster counters agree" `Quick (fun () ->
        (* Each cluster fact has one owner; every count that restates it
           must agree with it, whatever crashes and partitions did. *)
        let migrations = ref 0 and evacuations = ref 0 in
        for seed = 1 to 5 do
          let cl = Cluster.create small_params in
          ignore
            (Injector.attach
               ~kinds:[ Injector.Machine_crash; Injector.Net_partition ]
               ~cluster:cl ~seed
               (Cluster.systems cl).(0));
          Cluster.run cl;
          let s = Cluster.summary cl in
          let sum f =
            List.fold_left (fun acc m -> acc + f m) 0 s.Cluster.cl_machine_rows
          in
          migrations := !migrations + s.Cluster.cl_migrations;
          evacuations := !evacuations + s.Cluster.cl_evacuations;
          let what fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
          let rebalances =
            match
              (Sa_metrics.Report.cluster ~name:"c" ~title:"c" s)
                .Sa_metrics.Report.data
            with
            | Sa_metrics.Report.Obj fields -> (
                match List.assoc "alloc_rebalances" fields with
                | Sa_metrics.Report.Int n -> n
                | _ -> Alcotest.fail "alloc_rebalances is not an int")
            | _ -> Alcotest.fail "cluster section is not an object"
          in
          check Alcotest.int (what "migrations = sum of migs out")
            (sum (fun m -> m.Cluster.m_migs_out))
            s.Cluster.cl_migrations;
          check Alcotest.int (what "migrations = reported rebalances")
            rebalances s.Cluster.cl_migrations;
          check Alcotest.int
            (what "every shipped space lands once")
            (s.Cluster.cl_migrations + s.Cluster.cl_evacuations)
            (sum (fun m -> m.Cluster.m_migs_in));
          check Alcotest.int (what "crashes = dead machines")
            (sum (fun m -> if m.Cluster.m_alive then 0 else 1))
            s.Cluster.cl_crashes;
          for m = 0 to Cluster.machines cl - 1 do
            check Alcotest.bool
              (what "machine %d alive = online" m)
              (not (Net.offline (Cluster.net cl) m))
              (Cluster.alive cl m)
          done
        done;
        check Alcotest.bool "some space was rebalanced" true (!migrations > 0);
        check Alcotest.bool "some space was evacuated" true (!evacuations > 0));
    qtest
      (QCheck.Test.make ~name:"cluster runs are seed-deterministic" ~count:4
         QCheck.(int_range 1 1000)
         (fun seed ->
           let params = { small_params with Cluster.seed } in
           let digest () =
             summary_digest (Cluster.summary (run_once ~params ()))
           in
           String.equal (digest ()) (digest ())));
    qtest
      (QCheck.Test.make ~name:"crashes stay seed-deterministic" ~count:3
         QCheck.(int_range 1 1000)
         (fun seed ->
           let params = { small_params with Cluster.seed } in
           let digest () =
             summary_digest
               (Cluster.summary
                  (run_once ~crash_at:(Time.of_ns 2_500_000, 1) ~params ()))
           in
           String.equal (digest ()) (digest ())));
  ]

let () =
  Alcotest.run "cluster"
    [ ("net", net_tests); ("cluster", cluster_tests) ]
