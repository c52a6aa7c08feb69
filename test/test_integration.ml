(* End-to-end shape tests: the orderings and crossovers the paper reports
   must hold in the reproduction.  Workload sizes are reduced so the whole
   suite stays fast; the bench harness runs the full-size versions. *)

module Time = Sa_engine.Time
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Nbody = Sa_workload.Nbody
module E = Sa_metrics.Experiments

let check = Alcotest.check

let small_params = { Nbody.default_params with n_bodies = 120; steps = 3 }

let latency_shape_tests =
  [
    Alcotest.test_case "Table 4 ordering: FT < SA << Topaz << Ultrix" `Quick
      (fun () ->
        let rows = E.table4 ~iters:50 () in
        let get name =
          let r =
            List.find (fun r -> r.E.system = name) rows
          in
          (r.E.null_fork_us, r.E.signal_wait_us)
        in
        let ft_nf, ft_sw = get "FastThreads on Topaz threads" in
        let sa_nf, sa_sw = get "FastThreads on Scheduler Activations" in
        let kt_nf, kt_sw = get "Topaz threads" in
        let up_nf, up_sw = get "Ultrix processes" in
        check Alcotest.bool "nf order" true
          (ft_nf < sa_nf && sa_nf *. 10.0 < kt_nf && kt_nf *. 5.0 < up_nf);
        check Alcotest.bool "sw order" true
          (ft_sw < sa_sw && sa_sw *. 5.0 < kt_sw && kt_sw < up_sw));
    Alcotest.test_case "Table 4 absolute values match the paper" `Quick
      (fun () ->
        let rows = E.table4 ~iters:50 () in
        List.iter
          (fun r ->
            (match r.E.paper_null_fork with
            | Some p ->
                check (Alcotest.float 1.0)
                  (r.E.system ^ " null fork")
                  p r.E.null_fork_us
            | None -> ());
            match r.E.paper_signal_wait with
            | Some p ->
                check (Alcotest.float 1.0)
                  (r.E.system ^ " signal wait")
                  p r.E.signal_wait_us
            | None -> ())
          rows);
  ]

let figure1_shape_tests =
  [
    Alcotest.test_case "Figure 1 shape" `Slow (fun () ->
        let series = E.figure1 ~params:small_params () in
        let find name =
          (List.find (fun s -> s.E.series = name) series).E.points
        in
        let topaz = find "Topaz threads" in
        let orig = find "orig FastThreads" in
        let new_ft = find "new FastThreads" in
        let at pts p =
          (List.find (fun pt -> pt.E.processors = p) pts).E.speedup
        in
        (* user-level systems scale; Topaz flattens *)
        check Alcotest.bool "new FT scales" true
          (at new_ft 6 > 3.0 && at new_ft 6 > 2.0 *. at new_ft 2);
        check Alcotest.bool "orig FT scales" true (at orig 6 > 3.0);
        check Alcotest.bool "Topaz flattens" true
          (at topaz 6 < at topaz 3 *. 1.3 && at topaz 6 < 2.5);
        check Alcotest.bool "Topaz below user level at 6" true
          (at topaz 6 < at new_ft 6 /. 1.5);
        (* near 1 processor everyone is at or below sequential *)
        check Alcotest.bool "no superlinear at 1" true
          (at topaz 1 < 1.0 && at orig 1 <= 1.02 && at new_ft 1 <= 1.02);
        (* monotone non-decreasing for the user-level systems *)
        let monotone pts =
          let rec go = function
            | a :: (b :: _ as rest) ->
                a.E.speedup <= b.E.speedup +. 0.15 && go rest
            | _ -> true
          in
          go pts
        in
        check Alcotest.bool "new FT monotone" true (monotone new_ft);
        check Alcotest.bool "orig FT monotone" true (monotone orig));
  ]

let figure2_shape_tests =
  [
    Alcotest.test_case "Figure 2 shape" `Slow (fun () ->
        let series = E.figure2 ~params:Nbody.default_params () in
        let find name =
          (List.find (fun s -> s.E.io_series = name) series).E.io_points
        in
        let at pts pct =
          (List.find (fun p -> p.E.memory_percent = pct) pts).E.exec_time_s
        in
        let topaz = find "Topaz threads" in
        let orig = find "orig FastThreads" in
        let new_ft = find "new FastThreads" in
        (* at 100% memory the user-level systems beat Topaz *)
        check Alcotest.bool "new FT beats Topaz at 100%" true
          (at new_ft 100 < at topaz 100);
        (* below 100% new FT is the fastest of the three; at 100% original
           FT edges it out, by under 2% *)
        check Alcotest.bool "new FT within 2% of orig FT at 100%" true
          (at new_ft 100 < 1.02 *. at orig 100);
        List.iter
          (fun pct ->
            check Alcotest.bool
              (Printf.sprintf "new FT fastest at %d%%" pct)
              true
              (at new_ft pct < at orig pct && at new_ft pct < at topaz pct))
          [ 90; 80; 70; 60; 50; 40 ];
        (* orig FT degrades the most: by 40% memory it is the slowest *)
        check Alcotest.bool "orig FT worst at 40%" true
          (at orig 40 > at new_ft 40 && at orig 40 > at topaz 40);
        check Alcotest.bool "orig FT degrades steeply" true
          (at orig 40 > 2.0 *. at orig 100);
        (* new FT and Topaz degrade much less *)
        check Alcotest.bool "new FT mild degradation" true
          (at new_ft 40 < 2.5 *. at new_ft 100))
  ]

let table5_shape_tests =
  [
    Alcotest.test_case "Table 5: SA dominates under multiprogramming" `Slow
      (fun () ->
        let rows = E.table5 ~params:Nbody.default_params () in
        let get name =
          (List.find (fun r -> r.E.mp_system = name) rows).E.mp_speedup
        in
        let sa = get "new FastThreads" in
        let orig = get "orig FastThreads" in
        let topaz = get "Topaz threads" in
        check Alcotest.bool "sa wins clearly" true
          (sa > orig +. 0.4 && sa > topaz +. 0.4);
        check Alcotest.bool "sa near its share" true (sa > 2.0 && sa <= 3.0);
        check Alcotest.bool "others degraded" true (orig < 2.2 && topaz < 2.2));
  ]

let upcall_tests =
  [
    Alcotest.test_case "upcall performance (S5.2)" `Quick (fun () ->
        let rows = E.upcall_performance ~iters:50 () in
        let get prefix =
          (List.find
             (fun r ->
               String.length r.E.u_config >= String.length prefix
               && String.sub r.E.u_config 0 (String.length prefix) = prefix)
             rows)
            .E.u_signal_wait_us
        in
        let untuned = get "Scheduler activations (untuned" in
        let tuned = get "Scheduler activations (tuned" in
        let topaz = get "Topaz kernel threads" in
        check Alcotest.bool "factor ~5 worse than Topaz" true
          (untuned /. topaz > 4.0 && untuned /. topaz < 7.0);
        check Alcotest.bool "tuned commensurate with Topaz" true
          (tuned /. topaz < 1.3));
  ]

let determinism_tests =
  [
    Alcotest.test_case "same seed, same trajectory" `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 60; steps = 2 } in
        let prep = Nbody.prepare p in
        let run () =
          let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
          let job =
            System.submit sys ~backend:`Fastthreads_on_sa ~name:"nb"
              prep.Nbody.program
          in
          System.run sys;
          (Option.get (System.elapsed job), Kernel.stats (System.kernel sys))
        in
        let e1, s1 = run () in
        let e2, s2 = run () in
        check Alcotest.int "elapsed identical" e1 e2;
        check Alcotest.int "same upcall count" s1.Kernel.upcalls
          s2.Kernel.upcalls;
        check Alcotest.int "same preemptions" s1.Kernel.preemptions
          s2.Kernel.preemptions);
    Alcotest.test_case "invariants hold after a mixed run" `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 60; steps = 2 } in
        let prep = Nbody.prepare p in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
        let j1 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"sa-job"
            prep.Nbody.program
        in
        let j2 =
          System.submit sys ~backend:`Topaz_kthreads ~name:"kt-job"
            prep.Nbody.program
        in
        System.run sys;
        check Alcotest.bool "both done" true
          (System.finished j1 && System.finished j2);
        Kernel.check_invariants (System.kernel sys));
  ]

let ablation_tests =
  [
    Alcotest.test_case "explicit-flag strategy costs what S5.1 says" `Quick
      (fun () ->
        let rows = E.ablation_critical_sections ~iters:50 () in
        let get label_prefix =
          (List.find
             (fun r ->
               String.length r.E.a_label >= String.length label_prefix
               && String.sub r.E.a_label 0 (String.length label_prefix)
                  = label_prefix)
             rows)
            .E.a_value
        in
        check (Alcotest.float 1.0) "null fork flagged" 49.0
          (get "Null Fork, explicit flag");
        check (Alcotest.float 1.0) "signal wait flagged" 48.0
          (get "Signal-Wait, explicit flag"));
    Alcotest.test_case "activation pooling saves allocation cost" `Quick
      (fun () ->
        let rows = E.ablation_activation_pooling ~iters:50 () in
        match rows with
        | [ { E.a_value = pooled; _ }; { E.a_value = fresh; _ } ] ->
            check Alcotest.bool "fresh is slower" true (fresh > pooled +. 100.0)
        | _ -> Alcotest.fail "expected two rows");
  ]

let tracing_tests =
  let module Trace_export = Sa_engine.Trace_export in
  let module J = Json_check in
  [
    Alcotest.test_case "chrome export of a run parses and has upcall spans"
      `Quick (fun () ->
        let p = { Nbody.default_params with n_bodies = 60; steps = 2 } in
        let prep = Nbody.prepare p in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
        let buf = Buffer.create 65536 in
        let w = Trace_export.create ~out:(Buffer.add_string buf) in
        Sa_engine.Trace.add_sink
          (Sa_engine.Sim.trace (System.sim sys))
          (Trace_export.feed w);
        let j1 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"sa-job"
            prep.Nbody.program
        in
        let j2 =
          System.submit sys ~backend:`Topaz_kthreads ~name:"kt-job"
            prep.Nbody.program
        in
        System.run sys;
        Trace_export.close w;
        check Alcotest.bool "both done" true
          (System.finished j1 && System.finished j2);
        let v = J.parse (Buffer.contents buf) in
        let events = J.arr (Option.get (J.member "traceEvents" v)) in
        let names = List.filter_map (J.str_member "name") events in
        check Alcotest.bool "add-processor span" true
          (List.mem "upcall:add-processor" names);
        check Alcotest.bool "some counter track" true
          (List.exists (fun e -> J.str_member "ph" e = Some "C") events);
        check Alcotest.bool "processors-per-space counter" true
          (List.exists
             (fun n ->
               String.length n >= 6 && String.sub n 0 6 = "procs:")
             names);
        (* spans close in pairs; entities still blocked when the run ends
           may leave a trailing open span, which trace viewers tolerate *)
        let count ?name ph =
          List.length
            (List.filter
               (fun e ->
                 J.str_member "ph" e = Some ph
                 && match name with
                    | None -> true
                    | Some n -> J.str_member "name" e = Some n)
               events)
        in
        check Alcotest.int "balanced B/E" (count "B") (count "E");
        let upcall_b =
          count ~name:"upcall:add-processor" "b"
          + count ~name:"upcall:activation-blocked" "b"
          + count ~name:"upcall:activation-unblocked" "b"
          + count ~name:"upcall:processor-preempted" "b"
        in
        let upcall_e =
          count ~name:"upcall:add-processor" "e"
          + count ~name:"upcall:activation-blocked" "e"
          + count ~name:"upcall:activation-unblocked" "e"
          + count ~name:"upcall:processor-preempted" "e"
        in
        check Alcotest.int "upcall spans balance exactly" upcall_b upcall_e;
        check Alcotest.bool "no span end without a begin" true
          (count "e" <= count "b"));
  ]

let () =
  Alcotest.run "integration"
    [
      ("latency", latency_shape_tests);
      ("figure1", figure1_shape_tests);
      ("figure2", figure2_shape_tests);
      ("table5", table5_shape_tests);
      ("upcalls", upcall_tests);
      ("determinism", determinism_tests);
      ("ablations", ablation_tests);
      ("tracing", tracing_tests);
    ]
