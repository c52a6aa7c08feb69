(* Kernel tests: native oblivious scheduling, the explicit processor
   allocator, scheduler activations, daemons, and the Section 3.1
   invariants. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall

let check = Alcotest.check

let make ?(cpus = 2) ?(kconfig = Kconfig.native) ?(daemons = false) () =
  let sim = Sim.create () in
  let machine = Machine.create sim ~cpus in
  let kconfig = { kconfig with Kconfig.daemons } in
  let kernel = Kernel.create sim machine Cost_model.firefly_cvax kconfig in
  (sim, machine, kernel)

(* ------------------------------------------------------------------ *)
(* Kernel threads under native scheduling                              *)
(* ------------------------------------------------------------------ *)

let native_tests =
  [
    Alcotest.test_case "a kthread body runs and exits" `Quick (fun () ->
        let sim, _m, k = make () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let ran = ref false in
        Kernel.spawn_kthread k sp ~name:"t"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.us 10) (fun () ->
                ran := true;
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        check Alcotest.bool "ran" true !ran;
        Kernel.check_invariants k);
    Alcotest.test_case "two kthreads share one processor" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let order = ref [] in
        let spawn name =
          Kernel.spawn_kthread k sp ~name
            ~body:(fun kt ->
              Kernel.kt_charge k kt (Time.us 5) (fun () ->
                  order := name :: !order;
                  Kernel.kt_exit k kt))
            ()
        in
        spawn "a";
        spawn "b";
        Sim.run sim;
        check
          (Alcotest.list Alcotest.string)
          "both ran, fifo" [ "a"; "b" ] (List.rev !order));
    Alcotest.test_case "blocking frees the processor for others" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let events = ref [] in
        Kernel.spawn_kthread k sp ~name:"sleeper"
          ~body:(fun kt ->
            Kernel.kt_block_for k kt (Time.ms 10) (fun () ->
                events := "woke" :: !events;
                Kernel.kt_exit k kt))
          ();
        Kernel.spawn_kthread k sp ~name:"worker"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.us 100) (fun () ->
                events := "worked" :: !events;
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        check
          (Alcotest.list Alcotest.string)
          "worker ran during sleep" [ "worked"; "woke" ] (List.rev !events));
    Alcotest.test_case "kt_block_on wakes via registered function" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let wake_fn = ref (fun () -> ()) in
        let woke = ref false in
        Kernel.spawn_kthread k sp ~name:"waiter"
          ~body:(fun kt ->
            Kernel.kt_block_on k kt
              ~register:(fun wake -> wake_fn := wake)
              (fun () ->
                woke := true;
                Kernel.kt_exit k kt))
          ();
        Kernel.spawn_kthread k sp ~name:"waker"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.us 50) (fun () ->
                !wake_fn ();
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        check Alcotest.bool "woke" true !woke);
    Alcotest.test_case "time-slicing preempts long-running threads" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let first_done = ref Time.zero and second_done = ref Time.zero in
        Kernel.spawn_kthread k sp ~name:"hog"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.ms 300) (fun () ->
                first_done := Sim.now sim;
                Kernel.kt_exit k kt))
          ();
        Kernel.spawn_kthread k sp ~name:"short"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.ms 10) (fun () ->
                second_done := Sim.now sim;
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        (* With a 100 ms quantum, the short thread must finish long before
           the 300 ms hog. *)
        check Alcotest.bool "short finishes first" true
          Time.(!second_done < !first_done);
        check Alcotest.bool "short done before 300ms" true
          (Time.to_ms !second_done < 150.0);
        check Alcotest.bool "timeslices happened" true
          ((Kernel.stats k).Kernel.kt_timeslices >= 1));
    Alcotest.test_case "yield hands over the processor" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let order = ref [] in
        Kernel.spawn_kthread k sp ~name:"a"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.us 1) (fun () ->
                order := "a1" :: !order;
                Kernel.kt_yield k kt (fun () ->
                    order := "a2" :: !order;
                    Kernel.kt_exit k kt)))
          ();
        Kernel.spawn_kthread k sp ~name:"b"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.us 1) (fun () ->
                order := "b" :: !order;
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        check (Alcotest.list Alcotest.string) "interleaved" [ "a1"; "b"; "a2" ]
          (List.rev !order));
    Alcotest.test_case "daemons wake periodically under native mode" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:2 ~daemons:true () in
        Sim.run ~until:(Time.of_ns (Time.ms 500)) sim;
        let st = Kernel.stats k in
        (* 500 ms / ~51 ms period: expect roughly 9-10 wakeups. *)
        check Alcotest.bool "several wakeups" true (st.Kernel.daemon_wakeups >= 8);
        Kernel.check_invariants k);
    Alcotest.test_case "stats is a snapshot, not the live counters" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let spawn name =
          Kernel.spawn_kthread k sp ~name
            ~body:(fun kt ->
              Kernel.kt_block_for k kt (Time.us 50) (fun () ->
                  Kernel.kt_exit k kt))
            ()
        in
        spawn "a";
        Sim.run sim;
        let held = Kernel.stats k in
        let dispatches = held.Kernel.kt_dispatches
        and blocks = held.Kernel.io_blocks in
        check Alcotest.bool "first run counted" true
          (dispatches >= 1 && blocks = 1);
        spawn "b";
        Sim.run sim;
        check Alcotest.int "held dispatches unchanged" dispatches
          held.Kernel.kt_dispatches;
        check Alcotest.int "held io_blocks unchanged" blocks
          held.Kernel.io_blocks;
        let fresh = Kernel.stats k in
        check Alcotest.bool "fresh dispatches grew" true
          (fresh.Kernel.kt_dispatches > dispatches);
        check Alcotest.int "fresh io_blocks grew" (blocks + 1)
          fresh.Kernel.io_blocks);
    Alcotest.test_case "dump counts ready, blocked and exited kthreads" `Quick
      (fun () ->
        (* Every invariant violation prints this dump.  Stopped at 20 ms on
           one processor: two threads have exited, one sleeps, one runs
           and one waits for the processor. *)
        let sim, _m, k = make ~cpus:1 () in
        let sp = Kernel.new_kthread_space k ~name:"app" () in
        let spawn name body = Kernel.spawn_kthread k sp ~name ~body () in
        let stop kt () = Kernel.kt_exit k kt in
        let brief kt = Kernel.kt_charge k kt (Time.us 10) (stop kt) in
        spawn "a" brief;
        spawn "b" brief;
        spawn "sleeper" (fun kt ->
            Kernel.kt_block_for k kt (Time.ms 100) (stop kt));
        spawn "hog" (fun kt ->
            Kernel.kt_charge k kt (Time.ms 50) (stop kt));
        spawn "queued" brief;
        Sim.run ~until:(Time.of_ns (Time.ms 20)) sim;
        Kernel.check_invariants k;
        let lines =
          String.split_on_char '\n' (Format.asprintf "%t" (Kernel.dump k))
        in
        check Alcotest.string "census line"
          "kthreads: ready=1 blocked=1 dead=2 total=5"
          (List.find (String.starts_with ~prefix:"kthreads:") lines);
        check
          (Alcotest.list Alcotest.string)
          "runnable threads, newest first"
          [ "  live kt6 queued state=ready pending=0ns";
            "  live kt5 hog state=running@0 pending=0ns" ]
          (List.filter (String.starts_with ~prefix:"  live") lines));
  ]

(* ------------------------------------------------------------------ *)
(* Explicit allocation & scheduler activations                         *)
(* ------------------------------------------------------------------ *)

(* A minimal hand-rolled SA client that counts upcalls and runs a fixed
   amount of work per Add_processor. *)
type mini_client = {
  mutable add_processor : int;
  mutable preempted : int;
  mutable blocked : int;
  mutable unblocked : int;
  mutable work_done : int;
}

let mini_space ?(work = Time.ms 1) k name =
  let c =
    { add_processor = 0; preempted = 0; blocked = 0; unblocked = 0; work_done = 0 }
  in
  let handler delivery =
    let act = delivery.Kernel.uc_activation in
    List.iter
      (fun ev ->
        match ev with
        | Upcall.Add_processor -> c.add_processor <- c.add_processor + 1
        | Upcall.Processor_preempted _ -> c.preempted <- c.preempted + 1
        | Upcall.Activation_blocked _ -> c.blocked <- c.blocked + 1
        | Upcall.Activation_unblocked _ -> c.unblocked <- c.unblocked + 1)
      delivery.Kernel.uc_events;
    (* Run one work quantum, then return the processor. *)
    Kernel.sa_charge k act work (fun () ->
        c.work_done <- c.work_done + 1;
        Kernel.sa_cpu_idle k act)
  in
  let sp = Kernel.new_sa_space k ~name ~on_upcall:handler () in
  (sp, c)

let explicit_tests =
  [
    Alcotest.test_case "sa space rejected in native mode" `Quick (fun () ->
        let _sim, _m, k = make ~kconfig:Kconfig.native () in
        Alcotest.check_raises "native"
          (Invalid_argument "new_sa_space: kernel is in Native_oblivious mode")
          (fun () ->
            ignore
              (Kernel.new_sa_space k ~name:"x" ~on_upcall:(fun _ -> ()) ())));
    Alcotest.test_case "add_more_processors triggers an Add_processor upcall"
      `Quick (fun () ->
        let sim, _m, k = make ~kconfig:Kconfig.default () in
        let sp, c = mini_space k "app" in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        check Alcotest.bool "got a processor" true (c.add_processor >= 1);
        check Alcotest.bool "did work" true (c.work_done >= 1);
        Kernel.check_invariants k);
    Alcotest.test_case "allocator divides processors evenly" `Quick (fun () ->
        let sim, _m, k = make ~cpus:4 ~kconfig:Kconfig.default () in
        (* Two spaces that want everything: each should get 2. *)
        let grabby name =
          let got = ref 0 in
          let handler delivery =
            got := max !got (Kernel.space_assigned (Kernel.activation_space delivery.Kernel.uc_activation));
            (* hold the processor forever *)
            let rec spin () =
              Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
            in
            spin ()
          in
          let sp =
            Kernel.new_sa_space k ~name ~on_upcall:handler ()
          in
          (sp, got)
        in
        let sp1, _g1 = grabby "one" in
        let sp2, _g2 = grabby "two" in
        Kernel.sa_add_more_processors k sp1 4;
        Kernel.sa_add_more_processors k sp2 4;
        Sim.run ~until:(Time.of_ns (Time.ms 50)) sim;
        check Alcotest.int "even split 1" 2 (Kernel.space_assigned sp1);
        check Alcotest.int "even split 2" 2 (Kernel.space_assigned sp2);
        Kernel.check_invariants k);
    Alcotest.test_case "unused share is redistributed" `Quick (fun () ->
        let sim, _m, k = make ~cpus:4 ~kconfig:Kconfig.default () in
        let hold name =
          let handler delivery =
            let rec spin () =
              Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
            in
            spin ()
          in
          Kernel.new_sa_space k ~name ~on_upcall:handler ()
        in
        let sp1 = hold "small" and sp2 = hold "big" in
        Kernel.sa_add_more_processors k sp1 1;
        (* sp1 only wants one *)
        Kernel.sa_add_more_processors k sp2 4;
        Sim.run ~until:(Time.of_ns (Time.ms 50)) sim;
        check Alcotest.int "small got 1" 1 (Kernel.space_assigned sp1);
        check Alcotest.int "big got the rest" 3 (Kernel.space_assigned sp2);
        Kernel.check_invariants k);
    Alcotest.test_case "idle processors return to the allocator" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default () in
        let sp, c = mini_space k "app" in
        Kernel.sa_add_more_processors k sp 2;
        Sim.run sim;
        (* after the work quanta the client returned every processor *)
        check Alcotest.int "no processors held" 0 (Kernel.space_assigned sp);
        check Alcotest.int "all free" 2 (Kernel.free_cpus k);
        check Alcotest.bool "work happened" true (c.work_done >= 1);
        Kernel.check_invariants k);
    Alcotest.test_case "blocking produces blocked then unblocked upcalls"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let c =
          {
            add_processor = 0;
            preempted = 0;
            blocked = 0;
            unblocked = 0;
            work_done = 0;
          }
        in
        let resumed = ref false in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          let events = delivery.Kernel.uc_events in
          let saved_ctx = ref None in
          List.iter
            (fun ev ->
              match ev with
              | Upcall.Add_processor -> c.add_processor <- c.add_processor + 1
              | Upcall.Processor_preempted _ -> c.preempted <- c.preempted + 1
              | Upcall.Activation_blocked _ -> c.blocked <- c.blocked + 1
              | Upcall.Activation_unblocked { ctx; _ } ->
                  c.unblocked <- c.unblocked + 1;
                  saved_ctx := Some ctx)
            events;
          match !saved_ctx with
          | Some ctx ->
              (* resume the saved context in this activation; it marks
                 [resumed] and control returns here via the continuation *)
              Kernel.sa_charge k act ctx.Upcall.remaining (fun () ->
                  ctx.Upcall.resume ();
                  Kernel.sa_cpu_idle k act)
          | None -> (
              match events with
              | Upcall.Add_processor :: _ when c.blocked = 0 ->
                  (* first grant: block in the kernel for 5 ms *)
                  Kernel.sa_block_io k act ~io:(Time.ms 5) (fun () ->
                      resumed := true)
              | _ -> Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"io" ~on_upcall:handler ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        check Alcotest.int "one blocked upcall" 1 c.blocked;
        check Alcotest.int "one unblocked upcall" 1 c.unblocked;
        check Alcotest.bool "context resumed by user level" true !resumed);
    Alcotest.test_case "daemon preempts only when no processor is free"
      `Quick (fun () ->
        (* Explicit mode, 2 CPUs, app wants only 1: the daemon must take the
           free processor, never the app's. *)
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default ~daemons:true () in
        let preempts = ref 0 in
        let handler delivery =
          List.iter
            (fun ev ->
              match ev with
              | Upcall.Processor_preempted _ -> incr preempts
              | Upcall.Add_processor | Upcall.Activation_blocked _
              | Upcall.Activation_unblocked _ -> ())
            delivery.Kernel.uc_events;
          let rec spin () =
            Kernel.sa_charge k delivery.Kernel.uc_activation (Time.ms 1) spin
          in
          spin ()
        in
        let sp =
          Kernel.new_sa_space k ~name:"app" ~on_upcall:handler ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run ~until:(Time.of_ns (Time.ms 500)) sim;
        check Alcotest.int "app never preempted" 0 !preempts;
        check Alcotest.bool "daemons did wake" true
          ((Kernel.stats k).Kernel.daemon_wakeups > 5);
        Kernel.check_invariants k);
    Alcotest.test_case
      "explicit-mode kthread spaces time-slice within their processors"
      `Quick (fun () ->
        (* one granted CPU, one long and one short thread: the short one
           must not wait 300 ms behind the long one *)
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let sp = Kernel.new_kthread_space k ~name:"legacy" () in
        let short_done = ref Time.zero in
        Kernel.spawn_kthread k sp ~name:"hog"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.ms 300) (fun () ->
                Kernel.kt_exit k kt))
          ();
        Kernel.spawn_kthread k sp ~name:"short"
          ~body:(fun kt ->
            Kernel.kt_charge k kt (Time.ms 10) (fun () ->
                short_done := Sim.now sim;
                Kernel.kt_exit k kt))
          ();
        Sim.run sim;
        check Alcotest.bool "short thread ran within two quanta" true
          (Time.to_ms !short_done < 250.0);
        Kernel.check_invariants k);
    Alcotest.test_case "kthread spaces compete under explicit allocation"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:2 ~kconfig:Kconfig.default () in
        let sp = Kernel.new_kthread_space k ~name:"legacy" () in
        let done_count = ref 0 in
        for i = 1 to 4 do
          Kernel.spawn_kthread k sp
            ~name:(Printf.sprintf "w%d" i)
            ~body:(fun kt ->
              Kernel.kt_charge k kt (Time.ms 2) (fun () ->
                  incr done_count;
                  Kernel.kt_exit k kt))
            ()
        done;
        Sim.run sim;
        check Alcotest.int "all four ran" 4 !done_count;
        check Alcotest.int "processors returned" 2 (Kernel.free_cpus k);
        Kernel.check_invariants k);
  ]

(* ------------------------------------------------------------------ *)
(* Paging and debugger extensions (Sections 3.1, 4.4)                  *)
(* ------------------------------------------------------------------ *)

let extension_tests =
  [
    Alcotest.test_case "swapped-out manager delays the next upcall" `Quick
      (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let first_work = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              if !first_work = None then first_work := Some (Sim.now sim);
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"paged" ~on_upcall:handler ()
        in
        Kernel.swap_out_manager k sp;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        (match !first_work with
        | Some t ->
            (* upcall (1.16 ms untuned) + 50 ms page-in + 1 ms work *)
            check Alcotest.bool "delayed by the page-in" true
              (Time.to_ms t > 50.0)
        | None -> Alcotest.fail "no work happened");
        Kernel.check_invariants k);
    Alcotest.test_case "second upcall is not delayed again" `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let works = ref [] in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              works := Sim.now sim :: !works;
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"paged" ~on_upcall:handler ()
        in
        Kernel.swap_out_manager k sp;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        match List.rev !works with
        | [ t1; t2 ] ->
            check Alcotest.bool "first delayed" true (Time.to_ms t1 > 50.0);
            check Alcotest.bool "second prompt" true
              (Time.span_to_ms (Time.diff t2 t1) < 10.0)
        | _ -> Alcotest.fail "expected two work completions");
    Alcotest.test_case "debugger stop/resume is invisible to the space"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let the_act = ref None in
        let done_at = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          the_act := Some act;
          Kernel.sa_charge k act (Time.ms 10) (fun () ->
              done_at := Some (Sim.now sim);
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"dbg" ~on_upcall:handler ()
        in
        Kernel.sa_add_more_processors k sp 1;
        (* let the activation start its 10 ms of work, then freeze it for
           20 ms *)
        Sim.run ~until:(Time.of_ns (Time.ms 5)) sim;
        let act = Option.get !the_act in
        let upcalls_before = Kernel.space_upcalls sp in
        Kernel.debug_stop k act;
        ignore
          (Sim.schedule sim
             ~at:(Time.of_ns (Time.ms 25))
             (fun () -> Kernel.debug_resume k act));
        Sim.run sim;
        (match !done_at with
        | Some t ->
            (* 10 ms of work stretched by the 20 ms freeze *)
            check Alcotest.bool "finished after the freeze" true
              (Time.to_ms t >= 25.0)
        | None -> Alcotest.fail "work never finished");
        check Alcotest.int "no upcalls caused by the debugger" upcalls_before
          (Kernel.space_upcalls sp);
        Kernel.check_invariants k);
    Alcotest.test_case "debugger freeze of an idle spin shifts the give-up"
      `Quick (fun () ->
        (* An SA manager with nothing to run spins 5 ms in 100 us slices
           and then returns its processor.  Freezing it mid-slice for 20 ms
           must move the give-up by exactly 20 ms and cause no upcall. *)
        let spin ?freeze_at () =
          let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
          let gave_up = ref None in
          let started = ref None in
          let handler delivery =
            let act = delivery.Kernel.uc_activation in
            started := Some (act, Sim.now sim);
            Kernel.sa_spin k act ~slice:(Time.us 100) ~length:(Time.ms 5)
              ~poll:(fun () -> false)
              (fun () ->
                gave_up := Some (Sim.now sim);
                Kernel.sa_cpu_idle k act)
          in
          let sp =
            Kernel.new_sa_space k ~name:"idle" ~on_upcall:handler ()
          in
          Kernel.sa_add_more_processors k sp 1;
          Sim.run_while sim (fun () -> !started = None);
          let act, t0 = Option.get !started in
          let upcalls_before = Kernel.space_upcalls sp in
          Option.iter
            (fun d ->
              ignore
                (Sim.schedule sim ~at:(Time.add t0 d) (fun () ->
                     Kernel.debug_stop k act;
                     ignore
                       (Sim.schedule_after sim ~delay:(Time.ms 20) (fun () ->
                            Kernel.debug_resume k act)))))
            freeze_at;
          Sim.run sim;
          check Alcotest.int "no upcall during the spin" upcalls_before
            (Kernel.space_upcalls sp);
          Kernel.check_invariants k;
          match !gave_up with
          | Some t -> Time.diff t t0
          | None -> Alcotest.fail "the spin never gave up"
        in
        let plain = spin () in
        check Alcotest.int "plain spin gives up after its length" (Time.ms 5)
          plain;
        check Alcotest.int "frozen spin gives up 20 ms later"
          (plain + Time.ms 20)
          (spin ~freeze_at:(Time.ms 2 + Time.us 30) ()));
    Alcotest.test_case "a preempted kthread spin resumes on its new processor"
      `Quick (fun () ->
        (* Two processors, three kernel threads: [spin] idles 300 ms in
           100 us slices on cpu0 while two hogs compute.  At the 100 ms
           quantum the waiting hog takes cpu0 and the spinner, mid-slice,
           then takes cpu1 from the other hog, which gets cpu0 back once
           the short hog exits.  The spin must finish its interrupted slice
           on cpu1 and spin on there: its polls, its trace spans and its end
           must be those of a chain of [kt_charge] slices. *)
        let slice = Time.us 100 and length = Time.ms 300 in
        let run ~chain =
          let sim, _m, k = make ~cpus:2 () in
          let tr = Sim.trace sim in
          let spans = ref [] and polls = ref [] and ended = ref None in
          Sa_engine.Trace.add_sink tr (fun r ->
              if r.Sa_engine.Trace.name = "spin" then
                spans :=
                  ( Time.to_ns r.Sa_engine.Trace.time,
                    r.Sa_engine.Trace.cpu,
                    r.Sa_engine.Trace.kind = Sa_engine.Trace.Span_end,
                    r.Sa_engine.Trace.message )
                  :: !spans);
          let sp = Kernel.new_kthread_space k ~name:"app" () in
          let poll () =
            polls := Time.to_ns (Sim.now sim) :: !polls;
            false
          in
          let finish kt () =
            ended := Some (Time.to_ns (Sim.now sim));
            Kernel.kt_exit k kt
          in
          Kernel.spawn_kthread k sp ~name:"spin"
            ~body:(fun kt ->
              if chain then
                let rec go left =
                  let s = min slice left in
                  Kernel.kt_charge k kt s (fun () ->
                      if poll () || left - s <= 0 then finish kt ()
                      else go (left - s))
                in
                go length
              else Kernel.kt_spin k kt ~slice ~length ~poll (finish kt))
            ();
          List.iter
            (fun (name, work) ->
              Kernel.spawn_kthread k sp ~name
                ~body:(fun kt ->
                  Kernel.kt_charge k kt work (fun () -> Kernel.kt_exit k kt))
                ())
            [ ("hog1", Time.ms 500); ("hog2", Time.ms 50) ];
          Sim.run sim;
          Kernel.check_invariants k;
          check Alcotest.int "two quantum preemptions" 2
            (Kernel.stats k).Kernel.kt_timeslices;
          (List.rev !polls, List.rev !spans, Option.get !ended)
        in
        let polls, spans, spin_end = run ~chain:false in
        let chain_polls, chain_spans, chain_end = run ~chain:true in
        check Alcotest.(list int) "same polls" chain_polls polls;
        check
          Alcotest.(list (pair (pair int int) (pair bool string)))
          "same spans"
          (List.map (fun (t, c, e, m) -> ((t, c), (e, m))) chain_spans)
          (List.map (fun (t, c, e, m) -> ((t, c), (e, m))) spans);
        check Alcotest.int "same end" chain_end spin_end;
        (* Each poll closes a slice: the processor that ran it ends a span
           at that instant. *)
        let ends =
          List.map
            (fun t ->
              match
                List.find_opt (fun (t', _, e, m) -> t' = t && e && m = "") spans
              with
              | Some (_, c, _, _) -> (t, c)
              | None -> Alcotest.failf "no slice ends at the poll at %d ns" t)
            polls
        in
        let before, after =
          List.partition (fun (t, _) -> t < Time.ms 100) ends
        in
        check Alcotest.bool "slices before the quantum on cpu0" true
          (before <> [] && List.for_all (fun (_, c) -> c = 0) before);
        check Alcotest.bool "every slice after it on cpu1" true
          (after <> [] && List.for_all (fun (_, c) -> c = 1) after);
        (* Redispatch costs one context switch, then the interrupted
           slice's 50 us remainder runs on cpu1. *)
        check Alcotest.int "the remainder ends on cpu1"
          (Time.ms 100 + Time.us 100)
          (fst (List.hd after));
        check Alcotest.int "the spin ends one context switch late"
          (Time.us 50 + length + Time.us 50)
          spin_end);
    Alcotest.test_case "debug_stop of a non-running activation rejected"
      `Quick (fun () ->
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let the_act = ref None in
        let handler delivery =
          let act = delivery.Kernel.uc_activation in
          the_act := Some act;
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              Kernel.sa_cpu_idle k act)
        in
        let sp =
          Kernel.new_sa_space k ~name:"dbg" ~on_upcall:handler ()
        in
        Kernel.sa_add_more_processors k sp 1;
        Sim.run sim;
        (* activation has been recycled by now *)
        Alcotest.check_raises "not running"
          (Invalid_argument "debug_stop: activation not running") (fun () ->
            Kernel.debug_stop k (Option.get !the_act)));
  ]

(* ------------------------------------------------------------------ *)
(* Allocator passes: warnings in flight, stale warnings, allocation     *)
(* ------------------------------------------------------------------ *)

let warning_config = { Kconfig.default with preempt_warning = Some (Time.ms 20) }

(* An SA space that keeps every processor it is given busy forever and
   never polls for warnings; returns the space and its activations. *)
let holding_space k ?priority name =
  let acts = ref [] in
  let handler delivery =
    let act = delivery.Kernel.uc_activation in
    acts := act :: !acts;
    let rec spin () = Kernel.sa_charge k act (Time.ms 1) spin in
    spin ()
  in
  let sp =
    Kernel.new_sa_space k ~name ?priority ~on_upcall:handler ()
  in
  (sp, acts)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let allocator_pass_tests =
  [
    Alcotest.test_case "warnings in flight count as reclaims" `Quick
      (fun () ->
        (* A holds all 8 processors; a higher-priority B asks for [j], then
           for [k] in total, so A ends [k] over target with [j] warnings
           already outstanding. *)
        List.iter
          (fun (j, over) ->
            let sim, _m, kern = make ~cpus:8 ~kconfig:warning_config () in
            let a, a_acts = holding_space kern "a" in
            let b, _ = holding_space kern ~priority:1 "b" in
            Kernel.sa_add_more_processors kern a 8;
            Sim.run ~until:(Time.of_ns (Time.ms 5)) sim;
            check Alcotest.int "a holds all" 8 (Kernel.space_assigned a);
            let warned () =
              List.length (List.filter (Kernel.sa_cpu_warned kern) !a_acts)
            in
            if j > 0 then begin
              Kernel.sa_add_more_processors kern b j;
              Kernel.reallocate_now kern
            end;
            check Alcotest.int "j outstanding" j (warned ());
            (* B holds nothing yet, so this raises its desire to [over] *)
            Kernel.sa_add_more_processors kern b over;
            Kernel.reallocate_now kern;
            check Alcotest.int
              (Printf.sprintf "k=%d j=%d: k - j new warnings" over j)
              over (warned ());
            Kernel.reallocate_now kern;
            check Alcotest.int "none in the next pass" over (warned ());
            check Alcotest.int "nothing reclaimed yet" 8
              (Kernel.space_assigned a);
            check Alcotest.int "no forced preemption" 0
              (Kernel.stats kern).Kernel.preemptions)
          [ (0, 2); (1, 3); (2, 2); (3, 5) ]);
    Alcotest.test_case "an idle return clears a pending warning" `Quick
      (fun () ->
        (* A idle-spins 1 ms and then returns its processor the way the
           FastThreads idle hysteresis does, without polling for warnings.
           A higher-priority B arrives mid-spin, so A is warned; the slot
           goes to B and then, once B is done, back to A, which now holds
           it for 100 ms.  Neither grant may carry A's old warning, and its
           deadline (20 ms) must find nothing to preempt. *)
        let sim, _m, k = make ~cpus:1 ~kconfig:warning_config () in
        let a_hold = ref (Time.ms 1) in
        let a_first = ref None in
        let a_warned_regrant = ref None in
        let b_warned = ref None in
        let a_handler delivery =
          let act = delivery.Kernel.uc_activation in
          (match !a_first with
          | None -> a_first := Some act
          | Some _ ->
              if !a_warned_regrant = None then
                a_warned_regrant := Some (Kernel.sa_cpu_warned k act));
          Kernel.sa_charge k act !a_hold (fun () -> Kernel.sa_cpu_idle k act)
        in
        let a =
          Kernel.new_sa_space k ~name:"a"
            ~on_upcall:a_handler ()
        in
        let b_handler delivery =
          let act = delivery.Kernel.uc_activation in
          b_warned := Some (Kernel.sa_cpu_warned k act);
          Kernel.sa_charge k act (Time.ms 1) (fun () ->
              Kernel.sa_cpu_idle k act;
              a_hold := Time.ms 100;
              Kernel.sa_add_more_processors k a 1)
        in
        let b =
          Kernel.new_sa_space k ~name:"b" ~priority:1
            ~on_upcall:b_handler ()
        in
        Kernel.sa_add_more_processors k a 1;
        Sim.run_while sim (fun () -> !a_first = None);
        Kernel.sa_add_more_processors k b 1;
        Kernel.reallocate_now k;
        check Alcotest.bool "a warned mid-spin" true
          (Kernel.sa_cpu_warned k (Option.get !a_first));
        Sim.run sim;
        check Alcotest.(option bool) "b's grant carries no warning"
          (Some false) !b_warned;
        check Alcotest.(option bool) "a's regrant carries no warning"
          (Some false) !a_warned_regrant;
        check Alcotest.int "the stale deadline preempts nothing" 0
          (Kernel.stats k).Kernel.preemptions;
        check Alcotest.int "a never preempted" 0 (Kernel.space_preempts a);
        Kernel.check_invariants k);
    Alcotest.test_case "a pass that moves nothing allocates nothing" `Quick
      (fun () ->
        (* 24 spaces that each want 4 of 64 processors, settled: every
           further pass finds each space at its target and moves nothing. *)
        let sim, _m, k = make ~cpus:64 ~kconfig:Kconfig.default () in
        let spaces =
          List.init 24 (fun i -> fst (holding_space k (Printf.sprintf "s%d" i)))
        in
        List.iter (fun sp -> Kernel.sa_add_more_processors k sp 4) spaces;
        Sim.run ~until:(Time.of_ns (Time.ms 5)) sim;
        (* arm the rotation timer, if this pass is the one to do it *)
        Kernel.reallocate_now k;
        let assigned () = List.map Kernel.space_assigned spaces in
        let before = assigned () in
        let passes = (Kernel.stats k).Kernel.reallocations in
        check Alcotest.int "all processors held" 64
          (List.fold_left ( + ) 0 before);
        let words =
          minor_words_of (fun () ->
              for _ = 1 to 100 do
                Kernel.reallocate_now k
              done)
        in
        check (Alcotest.float 0.) "minor words" (minor_words_of ignore) words;
        check Alcotest.(list int) "nothing moved" before (assigned ());
        check Alcotest.int "no reallocation counted" passes
          (Kernel.stats k).Kernel.reallocations;
        Kernel.check_invariants k);
    Alcotest.test_case "an untraced downcall that changes nothing allocates \
                        nothing" `Quick (fun () ->
        (* No trace sink: the downcall's trace instant must cost only its
           enable test, not a built name or boxed ids. *)
        let _sim, _m, k = make ~cpus:4 ~kconfig:Kconfig.default () in
        let sp, _ = holding_space k "s" in
        let words =
          minor_words_of (fun () ->
              for _ = 1 to 100 do
                Kernel.sa_add_more_processors k sp 0
              done)
        in
        check (Alcotest.float 0.) "net minor words" (minor_words_of ignore)
          words;
        check Alcotest.int "demand unchanged" 0 (Kernel.space_desired sp));
    Alcotest.test_case "an untraced give-back and grant allocate nothing \
                        for tracing" `Quick (fun () ->
        (* One space takes the lone processor, gives it back idle, asks for
           it again and is granted it, over and over with no trace sink.
           Words per cycle, 64-bit: a give-back allocates 3 (the pool's
           cons cell) and a request plus grant 23 (the upcall's event list,
           delivery record and completion closure among them).  The
           ownership ledger is two int fields and allocates nothing.  Their
           disabled [tracef]s and trace instant used to add 10 and 40 more. *)
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let act = ref None in
        let sp =
          Kernel.new_sa_space k ~name:"s"
            ~on_upcall:(fun d -> act := Some d.Kernel.uc_activation)
            ()
        in
        let give_back = ref 0. and grant = ref 0. in
        let warmup = 10 and cycles = 50 in
        for i = 1 to warmup + cycles do
          let granted =
            minor_words_of (fun () ->
                Kernel.sa_add_more_processors k sp 1;
                Kernel.reallocate_now k)
          in
          Sim.run sim;
          let a = Option.get !act in
          let returned = minor_words_of (fun () -> Kernel.sa_cpu_idle k a) in
          Sim.run sim;
          if i > warmup then begin
            grant := !grant +. granted;
            give_back := !give_back +. returned
          end
        done;
        let per_cycle w = w /. float_of_int cycles in
        let within what budget w =
          if per_cycle w > budget then
            Alcotest.failf "%s: %.1f words per cycle, budget %.0f" what
              (per_cycle w) budget
        in
        within "give-back" 3. !give_back;
        within "request and grant" 23. !grant;
        check Alcotest.int "every cycle granted" (warmup + cycles)
          (Kernel.space_grants sp);
        Kernel.check_invariants k);
    Alcotest.test_case "processor-seconds integrate from a space's \
                        creation" `Quick (fun () ->
        (* A space created at 5 ms is granted the lone processor at once,
           charges 5 ms on it and gives it back idle: by 20 ms it has owned
           one processor from 5 ms to the give-back and none before or
           after, not its mean level times the whole clock. *)
        let sim, _m, k = make ~cpus:1 ~kconfig:Kconfig.default () in
        let returned = ref Time.zero in
        let at ms f = ignore (Sim.schedule sim ~at:(Time.of_ns (Time.ms ms)) f) in
        let sp = ref None and mid = ref 0. and final = ref 0. in
        at 5 (fun () ->
            let s =
              Kernel.new_sa_space k ~name:"late"
                ~on_upcall:(fun d ->
                  let act = d.Kernel.uc_activation in
                  Kernel.sa_charge k act (Time.ms 5) (fun () ->
                      returned := Sim.now sim;
                      Kernel.sa_cpu_idle k act))
                ()
            in
            sp := Some s;
            Kernel.sa_add_more_processors k s 1;
            Kernel.reallocate_now k;
            check Alcotest.int "granted at 5 ms" 1 (Kernel.space_assigned s));
        at 8 (fun () -> mid := Kernel.space_cpu_seconds k (Option.get !sp));
        at 20 (fun () -> final := Kernel.space_cpu_seconds k (Option.get !sp));
        Sim.run sim;
        check Alcotest.int "given back" 0
          (Kernel.space_assigned (Option.get !sp));
        check (Alcotest.float 1e-12) "3 ms owned by 8 ms" 0.003 !mid;
        check (Alcotest.float 1e-12) "owned from 5 ms to the give-back"
          (Time.span_to_ms (Time.diff !returned (Time.of_ns (Time.ms 5)))
          /. 1000.)
          !final);
  ]

(* ------------------------------------------------------------------ *)
(* The allocation policy as pure properties (Section 4.1)              *)
(* ------------------------------------------------------------------ *)

module Alloc_policy = Sa_kernel.Alloc_policy

let qtest = QCheck_alcotest.to_alcotest

let claims_gen =
  QCheck.Gen.(
    let claim i =
      map2
        (fun prio desired -> { Alloc_policy.space = i; priority = prio; desired })
        (int_range 0 2) (int_range 0 8)
    in
    sized_size (int_range 1 6) (fun n ->
        flatten_l (List.init n claim)))

let claims_arb =
  QCheck.make claims_gen ~print:(fun cs ->
      String.concat ";"
        (List.map
           (fun c ->
             Printf.sprintf "(id=%d,p=%d,d=%d)" c.Alloc_policy.space
               c.Alloc_policy.priority c.Alloc_policy.desired)
           cs))

let with_targets cpus rotation claims f =
  let tg = Alloc_policy.targets ~cpus ~rotation claims in
  let lookup id = List.assoc id tg in
  f tg lookup

let prop_bounded =
  QCheck.Test.make ~name:"targets within [0, desired]" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          List.for_all
            (fun (id, v) ->
              let c = List.find (fun c -> c.Alloc_policy.space = id) claims in
              v >= 0 && v <= c.Alloc_policy.desired)
            tg))

let prop_work_conserving =
  QCheck.Test.make ~name:"work conserving: leftovers only when all sated"
    ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg lookup ->
          let given = List.fold_left (fun a (_, v) -> a + v) 0 tg in
          let total_desired =
            List.fold_left (fun a c -> a + c.Alloc_policy.desired) 0 claims
          in
          ignore lookup;
          given = min cpus total_desired))

let prop_every_space_listed =
  QCheck.Test.make ~name:"every claim appears exactly once" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          List.sort compare (List.map fst tg)
          = List.sort compare (List.map (fun c -> c.Alloc_policy.space) claims)))

let prop_priority_dominance =
  QCheck.Test.make ~name:"lower priority gets nothing while higher starves"
    ~count:500
    QCheck.(pair (int_range 0 6) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg _ ->
          (* if any high-priority space is unsatisfied, every strictly
             lower-priority space must have 0 *)
          List.for_all
            (fun (id_hi, v_hi) ->
              let hi = List.find (fun c -> c.Alloc_policy.space = id_hi) claims in
              if v_hi >= hi.Alloc_policy.desired then true
              else
                List.for_all
                  (fun (id_lo, v_lo) ->
                    let lo =
                      List.find (fun c -> c.Alloc_policy.space = id_lo) claims
                    in
                    lo.Alloc_policy.priority >= hi.Alloc_policy.priority
                    || v_lo = 0)
                  tg)
            tg))

let prop_even_division =
  QCheck.Test.make ~name:"equal claimants differ by at most one" ~count:500
    QCheck.(pair (int_range 0 8) claims_arb)
    (fun (cpus, claims) ->
      with_targets cpus 0 claims (fun tg lookup ->
          ignore tg;
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  if
                    a.Alloc_policy.space <> b.Alloc_policy.space
                    && a.Alloc_policy.priority = b.Alloc_policy.priority
                    && a.Alloc_policy.desired = b.Alloc_policy.desired
                  then
                    abs (lookup a.Alloc_policy.space - lookup b.Alloc_policy.space)
                    <= 1
                  else true)
                claims)
            claims))

let prop_rotation_is_fair =
  QCheck.Test.make ~name:"rotation cycles the remainder across periods"
    ~count:200
    QCheck.(int_range 1 5)
    (fun n ->
      (* n equal claimants, n+1 processors: one extra rotates *)
      let claims =
        List.init n (fun i ->
            { Alloc_policy.space = i; priority = 0; desired = 2 })
      in
      let cpus = min (2 * n) (n + 1) in
      let totals = Array.make n 0 in
      for r = 0 to (4 * n) - 1 do
        List.iter
          (fun (id, v) -> totals.(id) <- totals.(id) + v)
          (Alloc_policy.targets ~cpus ~rotation:r claims)
      done;
      let mn = Array.fold_left min max_int totals in
      let mx = Array.fold_left max min_int totals in
      mx - mn <= 4 (* each space gets the remainder equally often *))

(* The array core, through [targets], against the list oracle in
   [Alloc_policy_oracle]: mixed priorities, zero desires, equal-desire
   ties, rotations up to three full cycles and up to 128 processors, with
   the claims in random order. *)
let oracle_case_gen =
  QCheck.Gen.(
    let* n = int_range 0 16 in
    let* ids = shuffle_l (List.init n (fun i -> 3 * i)) in
    let claim id =
      map2
        (fun priority desired -> { Alloc_policy.space = id; priority; desired })
        (int_range 0 3)
        (oneof [ int_range 0 4; int_range 0 64 ])
    in
    let* claims = flatten_l (List.map claim ids) in
    let* cpus = int_range 0 128 in
    let* rotation = int_range 0 (3 * n) in
    return (cpus, rotation, claims))

let oracle_case_arb =
  QCheck.make oracle_case_gen ~print:(fun (cpus, rotation, cs) ->
      Printf.sprintf "cpus=%d rotation=%d [%s]" cpus rotation
        (String.concat ";"
           (List.map
              (fun c ->
                Printf.sprintf "(id=%d,p=%d,d=%d)" c.Alloc_policy.space
                  c.Alloc_policy.priority c.Alloc_policy.desired)
              cs)))

let prop_matches_list_oracle =
  QCheck.Test.make ~name:"array core matches the list oracle" ~count:2000
    oracle_case_arb (fun (cpus, rotation, claims) ->
      let by_id l = List.sort compare l in
      by_id (Alloc_policy.targets ~cpus ~rotation claims)
      = by_id (Alloc_policy_oracle.targets ~cpus ~rotation claims))

let policy_unit_tests =
  [
    Alcotest.test_case "even split of 6 between two hungry spaces" `Quick
      (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 0; desired = 6 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "three each (1)" 3 (List.assoc 1 tg);
        check Alcotest.int "three each (2)" 3 (List.assoc 2 tg));
    Alcotest.test_case "unused share redistributes" `Quick (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 0; desired = 1 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "small keeps 1" 1 (List.assoc 1 tg);
        check Alcotest.int "big gets 5" 5 (List.assoc 2 tg));
    Alcotest.test_case "priority group served first" `Quick (fun () ->
        let claims =
          [
            { Alloc_policy.space = 1; priority = 10; desired = 4 };
            { Alloc_policy.space = 2; priority = 0; desired = 6 };
          ]
        in
        let tg = Alloc_policy.targets ~cpus:6 ~rotation:0 claims in
        check Alcotest.int "high gets its 4" 4 (List.assoc 1 tg);
        check Alcotest.int "low gets leftovers" 2 (List.assoc 2 tg));
    Alcotest.test_case "duplicate ids rejected" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Alloc_policy.targets: duplicate space ids")
          (fun () ->
            ignore
              (Alloc_policy.targets ~cpus:2 ~rotation:0
                 [
                   { Alloc_policy.space = 1; priority = 0; desired = 1 };
                   { Alloc_policy.space = 1; priority = 0; desired = 1 };
                 ])));
    qtest prop_bounded;
    qtest prop_work_conserving;
    qtest prop_every_space_listed;
    qtest prop_priority_dominance;
    qtest prop_even_division;
    qtest prop_rotation_is_fair;
    qtest prop_matches_list_oracle;
    Alcotest.test_case "a reused scratch follows changing claims" `Quick
      (fun () ->
        (* The sort order a scratch remembers must not leak between
           solves: each solve in a sequence on one scratch matches the
           list oracle. *)
        let sc = Alloc_policy.scratch () in
        let rng = Random.State.make [| 7 |] in
        for _ = 1 to 300 do
          let n = Random.State.int rng 10 in
          let claims =
            List.init n (fun i ->
                {
                  Alloc_policy.space = i;
                  priority = Random.State.int rng 3;
                  desired = Random.State.int rng 6;
                })
          in
          let cpus = Random.State.int rng 20 in
          let rotation = Random.State.int rng 10 in
          Alloc_policy.set_count sc n;
          List.iteri
            (fun i c ->
              Alloc_policy.set_claim sc i ~space:c.Alloc_policy.space
                ~priority:c.Alloc_policy.priority
                ~desired:c.Alloc_policy.desired)
            claims;
          Alloc_policy.solve sc ~cpus ~rotation;
          let solved =
            List.mapi
              (fun i c -> (c.Alloc_policy.space, Alloc_policy.target sc i))
              claims
          in
          check
            Alcotest.(list (pair int int))
            "same targets"
            (List.sort compare
               (Alloc_policy_oracle.targets ~cpus ~rotation claims))
            (List.sort compare solved)
        done);
  ]

let () =
  Alcotest.run "kernel"
    [
      ("native", native_tests);
      ("explicit", explicit_tests);
      ("extensions", extension_tests);
      ("allocator_pass", allocator_pass_tests);
      ("alloc_policy", policy_unit_tests);
    ]
