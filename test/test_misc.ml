(* Cross-cutting coverage: kernel semaphores on user-level backends, daemon
   obliviousness under native Topaz, the explicit-flag critical-section cost
   on the kernel-thread substrate, multiple joiners, and assorted small APIs. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module P = Sa_program.Program
module B = P.Build
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall
module Cost_model = Sa_hw.Cost_model
module System = Sa.System

let check = Alcotest.check

let run_collect ?(cpus = 2) kconfig backend prog =
  let sys = System.create ~cpus ~kconfig () in
  let log = ref [] in
  let job =
    System.submit sys ~backend ~name:"t"
      ~observer:(fun id time -> log := (id, time) :: !log)
      prog
  in
  System.run sys;
  Kernel.check_invariants (System.kernel sys);
  (List.rev !log, job)

let ksem_tests =
  [
    Alcotest.test_case "kernel semaphore with initial tokens (no block)"
      `Quick (fun () ->
        (* P on a semaphore with a token consumes it without blocking;
           works on every backend *)
        List.iter
          (fun (kconfig, backend) ->
            let s = P.Sem.create ~initial:2 () in
            let prog =
              B.to_program
                (let open B in
                 let* () = ksem_p s in
                 let* () = ksem_p s in
                 stamp 1)
            in
            let stamps, _ = run_collect kconfig backend prog in
            check Alcotest.int "ran straight through" 1 (List.length stamps))
          [
            (Kconfig.default, `Fastthreads_on_sa);
            (Kconfig.native, `Fastthreads_on_kthreads 2);
            (Kconfig.native, `Topaz_kthreads);
          ]);
    Alcotest.test_case "kernel semaphore blocks and wakes across threads"
      `Quick (fun () ->
        let s = P.Sem.create ~initial:0 () in
        let waiter =
          B.to_program
            (let open B in
             let* () = ksem_p s in
             stamp 2)
        in
        let prog =
          B.to_program
            (let open B in
             let* tid = fork waiter in
             let* () = compute (Time.ms 1) in
             let* () = stamp 1 in
             let* () = ksem_v s in
             join tid)
        in
        let stamps, _ = run_collect Kconfig.default `Fastthreads_on_sa prog in
        check (Alcotest.list Alcotest.int) "v before wake" [ 1; 2 ]
          (List.map fst stamps));
  ]

let daemon_tests =
  [
    Alcotest.test_case "native daemons preempt busy processors obliviously"
      `Quick (fun () ->
        (* one processor, one long-running app thread: every daemon wake
           must preempt it (there is nowhere else to go) *)
        let sys =
          System.create ~cpus:1
            ~kconfig:{ Kconfig.native with Kconfig.daemons = true }
            ()
        in
        let job =
          System.submit sys ~backend:`Topaz_kthreads ~name:"app"
            (P.compute_only (Time.ms 300))
        in
        System.run sys;
        check Alcotest.bool "finished despite preemptions" true
          (System.finished job);
        let st = Kernel.stats (System.kernel sys) in
        (* 300 ms / ~51 ms daemon period: expect several preemptions *)
        check Alcotest.bool "daemon preemptions happened" true
          (st.Kernel.preemptions >= 3);
        (* the app thread lost ~1 ms per wake: elapsed > 300 ms *)
        match System.elapsed job with
        | Some d -> check Alcotest.bool "stretched" true (Time.span_to_ms d > 300.0)
        | None -> Alcotest.fail "no elapsed");
    Alcotest.test_case
      "under explicit allocation the same workload is undisturbed" `Quick
      (fun () ->
        (* two processors, app wants one: the daemon takes the free one and
           the app is never preempted *)
        let sys =
          System.create ~cpus:2
            ~kconfig:{ Kconfig.default with Kconfig.daemons = true }
            ()
        in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"app"
            ~parallelism:1
            (P.compute_only (Time.ms 300))
        in
        System.run sys;
        let st = Kernel.stats (System.kernel sys) in
        check Alcotest.int "no processor preemptions" 0 st.Kernel.preemptions;
        match System.elapsed job with
        | Some d ->
            (* only the startup upcall separates elapsed from pure compute *)
            check Alcotest.bool "barely stretched" true
              (Time.span_to_ms d < 305.0);
            ignore job
        | None -> Alcotest.fail "no elapsed");
  ]

let strategy_tests =
  [
    Alcotest.test_case "explicit flag slows orig FastThreads too" `Quick
      (fun () ->
        let run costs =
          let sys =
            System.create ~cpus:1 ~costs
              ~kconfig:{ Kconfig.native with Kconfig.daemons = false }
              ()
          in
          let r = Sa_workload.Recorder.create () in
          let _job =
            System.submit sys ~backend:(`Fastthreads_on_kthreads 1)
              ~name:"bench"
              ~observer:(Sa_workload.Recorder.observer r)
              (Sa_workload.Latency.null_fork ~iters:50 ())
          in
          System.run sys;
          Sa_workload.Latency.null_fork_latency r
        in
        let plain = run Cost_model.firefly_cvax in
        let flagged =
          run
            {
              Cost_model.firefly_cvax with
              Cost_model.ut_critical_flag = Time.us 2;
            }
        in
        check (Alcotest.float 0.51) "copy-sections 34" 34.0 plain;
        check (Alcotest.float 0.51) "explicit flag 46 (6 x 2us crossings)"
          46.0 flagged);
  ]

let join_tests =
  [
    Alcotest.test_case "several threads can join the same target" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* target = fork (P.compute_only (Time.ms 2)) in
             let joiner id =
               B.to_program
                 (let* () = join target in
                  stamp id)
             in
             let* j1 = fork (joiner 1) in
             let* j2 = fork (joiner 2) in
             let* () = join target in
             let* () = join j1 in
             join j2)
        in
        let stamps, _ = run_collect Kconfig.default `Fastthreads_on_sa prog in
        check Alcotest.int "both joiners released" 2 (List.length stamps));
    Alcotest.test_case "join after completion returns immediately" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* target = fork (P.compute_only (Time.us 10)) in
             (* first join synchronizes (and may block); the timed second
                join must be a cheap table lookup *)
             let* () = join target in
             let* () = stamp 1 in
             let* () = join target in
             stamp 2)
        in
        let stamps, _ =
          run_collect
            { Kconfig.default with Kconfig.daemons = false }
            `Fastthreads_on_sa prog
        in
        match stamps with
        | [ (1, t1); (2, t2) ] ->
            check Alcotest.bool "cheap join" true
              (Time.span_to_us (Time.diff t2 t1) < 20.0)
        | _ -> Alcotest.fail "expected two stamps");
  ]

let misc_tests =
  [
    Alcotest.test_case "backend names render" `Quick (fun () ->
        check Alcotest.string "sa" "FastThreads on Scheduler Activations"
          (System.backend_name `Fastthreads_on_sa);
        check Alcotest.bool "vps included" true
          (String.length (System.backend_name (`Fastthreads_on_kthreads 4)) > 0));
    Alcotest.test_case "cost model pretty-printer runs" `Quick (fun () ->
        let out = Format.asprintf "%a" Cost_model.pp Cost_model.firefly_cvax in
        check Alcotest.bool "mentions upcall" true
          (String.length out > 100));
    Alcotest.test_case "upcall events pretty-print" `Quick (fun () ->
        let s1 = Format.asprintf "%a" Upcall.pp_event Upcall.Add_processor in
        let s2 =
          Format.asprintf "%a" Upcall.pp_event
            (Upcall.Processor_preempted
               { act = 3; ctx = { Upcall.remaining = 500; resume = ignore } })
        in
        check Alcotest.string "add" "add-processor" s1;
        check Alcotest.bool "preempted mentions act" true
          (String.length s2 > 10));
    Alcotest.test_case "run_span advances without finishing jobs" `Quick
      (fun () ->
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.default () in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"long"
            (P.compute_only (Time.ms 50))
        in
        System.run_span sys (Time.ms 10);
        check Alcotest.bool "not yet finished" true (not (System.finished job));
        System.run sys;
        check Alcotest.bool "finished" true (System.finished job));
    Alcotest.test_case "modern cost model is self-consistent" `Quick
      (fun () ->
        let m = Cost_model.modern_x86 in
        check Alcotest.bool "user fork far below kernel fork" true
          (m.Cost_model.ut_fork * 10 < m.Cost_model.kt_fork);
        check Alcotest.bool "null fork expectations ordered" true
          (Cost_oracle.null_fork_expected m `Fastthreads
          < Cost_oracle.null_fork_expected m `Topaz
          && Cost_oracle.null_fork_expected m `Topaz
             < Cost_oracle.null_fork_expected m `Ultrix));
    Alcotest.test_case "trace printer sink streams records" `Quick (fun () ->
        let buf = Buffer.create 64 in
        let tr = Trace.create () in
        Trace.add_sink tr (Trace.printer (Format.formatter_of_buffer buf));
        Trace.emitf tr ~time:Time.zero Trace.Kernel "hello-live";
        check Alcotest.string "streamed" "[0ns] kernel   hello-live\n"
          (Buffer.contents buf));
  ]

let () =
  Alcotest.run "misc"
    [
      ("ksem", ksem_tests);
      ("daemons", daemon_tests);
      ("strategy", strategy_tests);
      ("joins", join_tests);
      ("misc", misc_tests);
    ]
