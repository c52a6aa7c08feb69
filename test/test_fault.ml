(* Chaos subsystem: deterministic fault injection + invariant checking.

   The unit tests pin down the fault-absorption machinery (guarded wakeups,
   retry-with-backoff, cache invalidation); the campaign tests run short
   seeded sweeps in both kernel personalities and require zero invariant
   violations, plus bit-identical statistics when a seed is replayed. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Io_device = Sa_hw.Io_device
module Buffer_cache = Sa_hw.Buffer_cache
module Campaign = Sa_fault.Campaign
module Injector = Sa_fault.Injector

let span = Alcotest.testable Time.pp_span ( = )

(* --- hardware-level fault hooks ------------------------------------- *)

let test_io_device_retry () =
  let sim = Sim.create () in
  let dev = Io_device.create sim ~service_time:(Time.ms 1) in
  (* Fail the first two completion attempts, then let it through. *)
  let remaining = ref 2 in
  Io_device.set_fault_hook dev
    (Some
       (fun () ->
         if !remaining > 0 then begin
           decr remaining;
           Some Io_device.Fault_transient_error
         end
         else None));
  let done_at = ref None in
  Io_device.submit dev (fun () -> done_at := Some (Sim.now sim));
  Sim.run sim;
  (* 1 ms nominal + 100 us + 200 us of backoff. *)
  Alcotest.(check span)
    "retries add backoff"
    (Time.ms 1 + Time.us 100 + Time.us 200)
    (match !done_at with
    | Some t -> Time.diff t Time.zero
    | None -> Alcotest.fail "request never completed");
  Alcotest.(check int) "two retries counted" 2 (Io_device.retries dev);
  Alcotest.(check int) "one completion" 1 (Io_device.completed dev)

let test_io_device_delay () =
  let sim = Sim.create () in
  let dev = Io_device.create sim ~service_time:(Time.ms 1) in
  let first = ref true in
  Io_device.set_fault_hook dev
    (Some
       (fun () ->
         if !first then begin
           first := false;
           Some (Io_device.Fault_delay (Time.us 500))
         end
         else None));
  let done_at = ref None in
  Io_device.submit dev (fun () -> done_at := Some (Sim.now sim));
  Sim.run sim;
  Alcotest.(check span)
    "delay postpones the interrupt"
    (Time.ms 1 + Time.us 500)
    (match !done_at with
    | Some t -> Time.diff t Time.zero
    | None -> Alcotest.fail "request never completed");
  Alcotest.(check int) "no retries for a delay" 0 (Io_device.retries dev);
  Alcotest.(check int) "fault counted" 1 (Io_device.faults dev)

(* The server stays busy through a retry's backoff: the queued request
   starts its service only when the retried one completes. *)
let test_io_device_retry_queue () =
  let sim = Sim.create () in
  let dev = Io_device.create sim ~service_time:(Time.ms 1) in
  let first = ref true in
  Io_device.set_fault_hook dev
    (Some
       (fun () ->
         if !first then begin
           first := false;
           Some Io_device.Fault_transient_error
         end
         else None));
  let times = ref [] in
  for _ = 1 to 2 do
    Io_device.submit dev (fun () ->
        times := Time.to_ns (Sim.now sim) :: !times)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "second waits for the retried first"
    [ Time.ms 1 + Time.us 100; Time.ms 2 + Time.us 100 ]
    (List.rev !times);
  Alcotest.(check int) "one retry counted" 1 (Io_device.retries dev);
  Alcotest.(check int) "both complete" 2 (Io_device.completed dev)

let test_cache_chaos_invalidation () =
  let c = Buffer_cache.create ~capacity:4 in
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss -> Buffer_cache.fill c 7
  | _ -> Alcotest.fail "expected a cold miss");
  Alcotest.(check bool) "resident" true (Buffer_cache.resident c 7);
  Buffer_cache.set_chaos_hook c (Some (fun () -> true));
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss -> ()
  | Buffer_cache.Hit -> Alcotest.fail "chaos hook should force a miss"
  | Buffer_cache.Miss_in_flight -> Alcotest.fail "not in flight yet");
  Alcotest.(check bool) "invalidated" false (Buffer_cache.resident c 7);
  Alcotest.(check int) "counted" 1 (Buffer_cache.chaos_invalidations c);
  (* The forced miss reserved the in-flight slot like any other miss. *)
  (match Buffer_cache.access c 7 with
  | Buffer_cache.Miss_in_flight -> ()
  | _ -> Alcotest.fail "fill should be in flight");
  Buffer_cache.set_chaos_hook c None;
  Buffer_cache.fill c 7;
  match Buffer_cache.access c 7 with
  | Buffer_cache.Hit -> ()
  | _ -> Alcotest.fail "hook cleared, hit again"

(* --- kernel-level guarded completions -------------------------------- *)

(* A spurious completion wakes the blocked thread early, exactly once; the
   real completion is absorbed and counted as dropped. *)
let test_spurious_absorbed () =
  let kcfg = { Kconfig.native with Kconfig.daemons = false } in
  let sys = Sa.System.create ~cpus:1 ~kconfig:kcfg () in
  let kern = Sa.System.kernel sys in
  let sim = Sa.System.sim sys in
  let prog =
    Sa_program.Program.Build.(to_program (io (Time.ms 5)))
  in
  let job = Sa.System.submit sys ~backend:`Topaz_kthreads ~name:"io" prog in
  (* Let the thread reach its I/O block, then fire the completion early. *)
  Sim.run_for sim (Time.ms 1);
  Alcotest.(check int) "one I/O in flight" 1 (Kernel.io_inflight_count kern);
  Alcotest.(check bool)
    "spurious fired" true
    (Kernel.chaos_spurious_completion kern ~pick:0);
  Sa.System.run sys;
  Alcotest.(check bool) "job finished" true (Sa.System.finished job);
  (match Sa.System.elapsed job with
  | Some d ->
      Alcotest.(check bool)
        "finished before the nominal 5 ms I/O" true (d < Time.ms 5)
  | None -> Alcotest.fail "no elapsed time");
  (* Drain the queue so the real (absorbed) completion event fires. *)
  Sim.run sim;
  let st = Kernel.stats kern in
  Alcotest.(check int) "spurious counted" 1 st.Kernel.spurious_fired;
  Alcotest.(check int) "real completion dropped" 1 st.Kernel.spurious_dropped

let test_kernel_io_fault_retry () =
  let kcfg = { Kconfig.native with Kconfig.daemons = false } in
  let sys = Sa.System.create ~cpus:1 ~kconfig:kcfg () in
  let kern = Sa.System.kernel sys in
  let remaining = ref 3 in
  Kernel.set_io_fault_injector kern
    (Some
       (fun () ->
         if !remaining > 0 then begin
           decr remaining;
           Some Io_device.Fault_transient_error
         end
         else None));
  let prog = Sa_program.Program.Build.(to_program (io (Time.ms 2))) in
  let job = Sa.System.submit sys ~backend:`Topaz_kthreads ~name:"io" prog in
  Sa.System.run sys;
  Alcotest.(check bool) "job finished" true (Sa.System.finished job);
  let st = Kernel.stats kern in
  Alcotest.(check int) "faults counted" 3 st.Kernel.io_faults;
  Alcotest.(check int) "retries counted" 3 st.Kernel.io_retries;
  match Sa.System.elapsed job with
  | Some d ->
      (* 200 + 400 + 800 us of backoff on top of the nominal latency. *)
      Alcotest.(check bool)
        "backoff delayed completion" true
        (d >= Time.ms 2 + Time.us 1400)
  | None -> Alcotest.fail "no elapsed time"

(* --- campaigns -------------------------------------------------------- *)

let quick_config =
  {
    Campaign.default with
    Campaign.horizon = Time.s 5;
    cpus = 3;
  }

let check_clean r =
  match r.Campaign.outcome with
  | Campaign.Completed _ -> ()
  | Campaign.Violation msg | Campaign.No_completion msg ->
      Alcotest.fail
        (Format.asprintf "%a:\n%s" Campaign.pp_result r msg)

let test_campaign_explicit () =
  List.iter
    (fun seed ->
      check_clean
        (Campaign.run_seed ~config:quick_config
           ~mode:Kconfig.Explicit_allocation seed))
    [ 11; 12; 13; 14 ]

let test_campaign_native () =
  List.iter
    (fun seed ->
      check_clean
        (Campaign.run_seed ~config:quick_config ~mode:Kconfig.Native_oblivious
           seed))
    [ 11; 12; 13; 14 ]

(* Every kernel counter, in [Kernel.stats] field order. *)
let kstats_fields (s : Kernel.stats) =
  [
    ("upcalls", s.upcalls);
    ("upcall_events", s.upcall_events);
    ("preemptions", s.preemptions);
    ("reallocations", s.reallocations);
    ("io_blocks", s.io_blocks);
    ("kt_dispatches", s.kt_dispatches);
    ("kt_timeslices", s.kt_timeslices);
    ("daemon_wakeups", s.daemon_wakeups);
    ("io_faults", s.io_faults);
    ("io_retries", s.io_retries);
    ("spurious_fired", s.spurious_fired);
    ("spurious_dropped", s.spurious_dropped);
    ("chaos_preempts", s.chaos_preempts);
  ]

(* Native-mode chaos drives the kernel-thread preemption paths: forced
   preemptions and daemon wakeups that land on a busy processor (the
   preemptions beyond chaos_preempts).  Counts and makespans recorded with
   the scheduler as it stands; any change to those paths moves them. *)
let test_campaign_native_pinned () =
  List.iter
    (fun (seed, makespan, counts) ->
      let r =
        Campaign.run_seed ~config:quick_config ~mode:Kconfig.Native_oblivious
          seed
      in
      let what = Printf.sprintf "seed %d" seed in
      let got = kstats_fields r.Campaign.kstats in
      Alcotest.(check (list (pair string int)))
        (what ^ " kernel stats")
        (List.map2 (fun (name, _) n -> (name, n)) got counts)
        got;
      match r.Campaign.outcome with
      | Campaign.Completed m ->
          Alcotest.(check int) (what ^ " makespan (ns)") makespan m
      | _ -> Alcotest.fail (what ^ " did not complete"))
    [
      (11, 13_612_460, [ 0; 0; 39; 0; 18; 111; 0; 5; 2; 0; 6; 2; 36 ]);
      (12, 10_768_459, [ 0; 0; 31; 0; 17; 91; 0; 3; 1; 0; 4; 1; 30 ]);
      (13, 10_861_148, [ 0; 0; 41; 0; 15; 86; 0; 3; 1; 1; 4; 2; 39 ]);
      (14, 7_994_790, [ 0; 0; 15; 0; 6; 46; 0; 1; 1; 1; 1; 1; 15 ]);
    ]

let test_campaign_deterministic () =
  let run () =
    Campaign.run_seed ~config:quick_config ~mode:Kconfig.Explicit_allocation 99
  in
  let a = run () and b = run () in
  check_clean a;
  Alcotest.(check bool)
    "same seed, identical kernel statistics" true
    (a.Campaign.kstats = b.Campaign.kstats);
  Alcotest.(check bool)
    "same seed, identical injection counts" true
    (a.Campaign.injected = b.Campaign.injected);
  Alcotest.(check bool)
    "same seed, identical outcome" true
    (a.Campaign.outcome = b.Campaign.outcome)

let test_audits_ran () =
  let r =
    Campaign.run_seed ~config:quick_config ~mode:Kconfig.Explicit_allocation 7
  in
  check_clean r;
  Alcotest.(check bool) "auditor ran" true (r.Campaign.audits > 0);
  let injected k = List.assoc k r.Campaign.injected in
  Alcotest.(check bool) "preemptions injected" true (injected "preempt" > 0)

(* The checker's period is a constant of [Invariant]: one audit per
   simulated millisecond, from the first millisecond until the last job
   finishes, so a clean run's audit count is its makespan in whole
   milliseconds. *)
let test_audit_period () =
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let r = Campaign.run_seed ~mode seed in
          let what =
            Printf.sprintf "%s seed %d" (Campaign.mode_name mode) seed
          in
          match r.Campaign.outcome with
          | Campaign.Completed makespan ->
              Alcotest.(check int)
                (what ^ " audits")
                (makespan / Time.ms 1) r.Campaign.audits
          | _ -> Alcotest.fail (what ^ " did not complete"))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ Kconfig.Explicit_allocation; Kconfig.Native_oblivious ]

(* Counts recorded with the injector's gaps, probabilities and holds at
   their current values: changing any of those constants shifts them. *)
let test_injector_constants_pinned () =
  let r =
    Campaign.run_seed ~config:quick_config ~mode:Kconfig.Explicit_allocation 99
  in
  check_clean r;
  List.iter
    (fun (k, n) ->
      Alcotest.(check int) k n (List.assoc k r.Campaign.injected))
    [
      ("preempt", 748);
      ("spurious", 73);
      ("io-fault", 2);
      ("daemon-storm", 84);
      ("priority-flap", 117);
      ("space-churn", 52);
    ];
  match r.Campaign.outcome with
  | Campaign.Completed makespan ->
      Alcotest.(check int) "makespan (ns), 223.587 ms" 223_587_125 makespan
  | _ -> Alcotest.fail "seed 99 did not complete"

let test_demand_drop_gap_pinned () =
  let config =
    { quick_config with Campaign.kinds = [ Injector.Demand_drop ] }
  in
  let r = Campaign.run_seed ~config ~mode:Kconfig.Explicit_allocation 99 in
  Alcotest.(check int) "demand-drop" 3
    (List.assoc "demand-drop" r.Campaign.injected);
  match r.Campaign.outcome with
  | Campaign.Completed makespan ->
      Alcotest.(check string) "makespan" "14.723ms"
        (Format.asprintf "%a" Time.pp_span makespan)
  | _ -> Alcotest.fail "seed 99 did not complete"

let () =
  Alcotest.run "fault"
    [
      ( "hw-hooks",
        [
          Alcotest.test_case "io device retries transient errors" `Quick
            test_io_device_retry;
          Alcotest.test_case "io device honours injected delays" `Quick
            test_io_device_delay;
          Alcotest.test_case "cache chaos invalidation forces a miss" `Quick
            test_cache_chaos_invalidation;
          Alcotest.test_case "a retried request keeps the FIFO server" `Quick
            test_io_device_retry_queue;
        ] );
      ( "kernel-hooks",
        [
          Alcotest.test_case "spurious completion absorbed by the guard"
            `Quick test_spurious_absorbed;
          Alcotest.test_case "kernel retries faulted completions with backoff"
            `Quick test_kernel_io_fault_retry;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "explicit-mode seeds run clean" `Quick
            test_campaign_explicit;
          Alcotest.test_case "native-mode seeds run clean" `Quick
            test_campaign_native;
          Alcotest.test_case "same seed, same trajectory" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "audits and injections actually happen" `Quick
            test_audits_ran;
          Alcotest.test_case
            "the checker audits once per simulated millisecond" `Quick
            test_audit_period;
          Alcotest.test_case "injector constants give pinned counts" `Quick
            test_injector_constants_pinned;
          Alcotest.test_case "demand-drop gap gives a pinned count" `Quick
            test_demand_drop_gap_pinned;
          Alcotest.test_case "native-mode seeds give pinned stats" `Quick
            test_campaign_native_pinned;
        ] );
    ]
