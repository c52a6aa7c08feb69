(* sa_sim: command-line driver for the scheduler-activations simulation.

   Subcommands:
     run      run the N-body application on a chosen threading backend
     latency  run a latency microbenchmark (null-fork / signal-wait / upcall)
     report   regenerate the paper's tables and figures
     trace    run a small workload with the kernel/upcall trace streamed live
     chaos    run seeded fault-injection campaigns with invariant checking
     cluster  run the serving workload across a multi-machine cluster
     explore  search the schedule space; record, replay and shrink .sched files *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Trace_export = Sa_engine.Trace_export
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Nbody = Sa_workload.Nbody
module Latency = Sa_workload.Latency
module Recorder = Sa_workload.Recorder
module E = Sa_metrics.Experiments
module R = Sa_metrics.Report

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

type backend_choice = Sa | Orig_ft | Topaz | Ultrix

let backend_conv =
  let parse = function
    | "sa" | "new-ft" -> Ok Sa
    | "orig-ft" | "ft-kt" -> Ok Orig_ft
    | "topaz" -> Ok Topaz
    | "ultrix" -> Ok Ultrix
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S (sa|orig-ft|topaz|ultrix)" s))
  in
  let print ppf = function
    | Sa -> Format.pp_print_string ppf "sa"
    | Orig_ft -> Format.pp_print_string ppf "orig-ft"
    | Topaz -> Format.pp_print_string ppf "topaz"
    | Ultrix -> Format.pp_print_string ppf "ultrix"
  in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Sa
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:
          "Threading backend: $(b,sa) (FastThreads on scheduler activations), \
           $(b,orig-ft) (FastThreads on kernel threads), $(b,topaz) (kernel \
           threads directly), $(b,ultrix) (heavyweight processes).")

let cpus_arg =
  Arg.(
    value & opt int 6
    & info [ "cpus" ] ~docv:"N" ~doc:"Number of simulated processors.")

let kconfig_of = function
  | Sa -> Kconfig.default
  | Orig_ft | Topaz | Ultrix -> Kconfig.native

let system_backend cpus = function
  | Sa -> `Fastthreads_on_sa
  | Orig_ft -> `Fastthreads_on_kthreads cpus
  | Topaz -> `Topaz_kthreads
  | Ultrix -> `Ultrix_processes

(* The [--inject] names of chaos, cluster and explore.  An unknown name is
   a domain error (exit 2), not a command-line parse error (exit 124). *)
let kinds_of_names names =
  List.map
    (fun n ->
      match Sa_fault.Injector.kind_of_name n with
      | Some k -> k
      | None ->
          Printf.eprintf "unknown injector kind %S\n" n;
          exit 2)
    names

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let bodies =
    Arg.(
      value & opt int Nbody.default_params.Nbody.n_bodies
      & info [ "bodies" ] ~docv:"N" ~doc:"N-body problem size.")
  in
  let steps =
    Arg.(
      value & opt int Nbody.default_params.Nbody.steps
      & info [ "steps" ] ~docv:"N" ~doc:"Simulation timesteps.")
  in
  let memory =
    Arg.(
      value & opt int 100
      & info [ "memory" ] ~docv:"PCT"
          ~doc:
            "Percentage of the data set the buffer cache holds (the x-axis \
             of Figure 2).  Misses block in the kernel for 50 ms.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Multiprogramming level: identical copies of the application.")
  in
  let parallelism =
    Arg.(
      value & opt (some int) None
      & info [ "parallelism" ] ~docv:"N"
          ~doc:"Cap the application's parallelism at N processors.")
  in
  let seed =
    Arg.(
      value & opt int Nbody.default_params.Nbody.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload random seed.")
  in
  let timeline_flag =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Render an ASCII processor-occupancy timeline after the run.")
  in
  let action backend cpus bodies steps memory jobs parallelism seed timeline =
    let params =
      { Nbody.default_params with Nbody.n_bodies = bodies; steps; seed }
    in
    let prep = Nbody.prepare params in
    let sys = System.create ~cpus ~kconfig:(kconfig_of backend) () in
    let tl =
      if timeline then
        Some (Sa_metrics.Timeline.attach sys ~resolution:(Time.ms 2))
      else None
    in
    let cache_capacity = Nbody.cache_capacity prep ~percent:memory in
    let submit i =
      System.submit sys
        ~backend:(system_backend (Option.value ~default:cpus parallelism) backend)
        ~name:(Printf.sprintf "nbody-%d" i)
        ~cache_capacity ?parallelism prep.Nbody.program
    in
    let js = List.init (max 1 jobs) submit in
    System.run sys;
    let seq_s = Time.span_to_ms prep.Nbody.seq_time /. 1000.0 in
    Printf.printf "workload: %d bodies, %d steps, %d tasks, %d interactions\n"
      bodies steps prep.Nbody.tasks prep.Nbody.total_interactions;
    Printf.printf "sequential time: %.3f s\n" seq_s;
    List.iteri
      (fun i j ->
        match System.elapsed j with
        | Some d ->
            let el = Time.span_to_ms d /. 1000.0 in
            Printf.printf "job %d: %.3f s  (speedup %.2f)\n" i el (seq_s /. el)
        | None -> Printf.printf "job %d: did not finish\n" i)
      js;
    let st = Kernel.stats (System.kernel sys) in
    Printf.printf
      "kernel: %d upcalls, %d preemptions, %d reallocations, %d kernel blocks, \
       %d dispatches, %d timeslices\n"
      st.Kernel.upcalls st.Kernel.preemptions st.Kernel.reallocations
      st.Kernel.io_blocks st.Kernel.kt_dispatches st.Kernel.kt_timeslices;
    List.iter
      (fun j ->
        match System.uthread_stats j with
        | Some s ->
            Printf.printf
              "%s: %d forks, %d dispatches, %d steals, %d user blocks, %d \
               kernel blocks, %d CS recoveries, %.1f us spent spinning\n"
              (System.job_name j) s.Sa_uthread.Ft_core.forks
              s.Sa_uthread.Ft_core.dispatches s.Sa_uthread.Ft_core.steals
              s.Sa_uthread.Ft_core.ublocks s.Sa_uthread.Ft_core.kblocks
              s.Sa_uthread.Ft_core.cs_recoveries
              (float_of_int s.Sa_uthread.Ft_core.cs_spin_ns /. 1000.0)
        | None -> ())
      js;
    match tl with
    | Some tl ->
        print_newline ();
        print_endline "processor occupancy (letter = address-space initial):";
        Sa_metrics.Timeline.render tl Format.std_formatter
    | None -> ()
  in
  let term =
    Term.(
      const action $ backend_arg $ cpus_arg $ bodies $ steps $ memory $ jobs
      $ parallelism $ seed $ timeline_flag)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the parallel N-body application on a threading backend.")
    term

(* ------------------------------------------------------------------ *)
(* latency                                                             *)
(* ------------------------------------------------------------------ *)

let latency_cmd =
  let bench_conv =
    let parse = function
      | "null-fork" -> Ok `Null_fork
      | "signal-wait" -> Ok `Signal_wait
      | "upcall" -> Ok `Upcall
      | s -> Error (`Msg (Printf.sprintf "unknown benchmark %S" s))
    in
    let print ppf = function
      | `Null_fork -> Format.pp_print_string ppf "null-fork"
      | `Signal_wait -> Format.pp_print_string ppf "signal-wait"
      | `Upcall -> Format.pp_print_string ppf "upcall"
    in
    Arg.conv (parse, print)
  in
  let bench =
    Arg.(
      value & opt bench_conv `Null_fork
      & info [ "bench" ] ~docv:"BENCH"
          ~doc:"One of $(b,null-fork), $(b,signal-wait), $(b,upcall).")
  in
  let iters =
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc:"Iterations.")
  in
  let action backend bench iters =
    let kconfig =
      { (kconfig_of backend) with Kconfig.daemons = false }
    in
    let sys = System.create ~cpus:1 ~kconfig () in
    let r = Recorder.create () in
    let prog, read, label =
      match bench with
      | `Null_fork ->
          (Latency.null_fork ~iters (), Latency.null_fork_latency, "Null Fork")
      | `Signal_wait ->
          ( Latency.signal_wait ~iters,
            Latency.signal_wait_latency,
            "Signal-Wait" )
      | `Upcall ->
          ( Latency.upcall_signal_wait ~iters,
            Latency.upcall_signal_wait_latency,
            "Signal-Wait through the kernel" )
    in
    let _job =
      System.submit sys
        ~backend:(system_backend 1 backend)
        ~name:"bench" ~observer:(Recorder.observer r) prog
    in
    System.run sys;
    Printf.printf "%s: %.1f usec\n" label (read r)
  in
  let term = Term.(const action $ backend_arg $ bench $ iters) in
  Cmd.v
    (Cmd.info "latency" ~doc:"Run a Table 1/4 latency microbenchmark.")
    term

(* ------------------------------------------------------------------ *)
(* sor                                                                 *)
(* ------------------------------------------------------------------ *)

let sor_cmd =
  let grid =
    Arg.(
      value & opt int 96
      & info [ "grid" ] ~docv:"N" ~doc:"Grid dimension (N x N).")
  in
  let bands =
    Arg.(
      value & opt int 12
      & info [ "bands" ] ~docv:"N" ~doc:"Row bands (tasks) per half-sweep.")
  in
  let action backend cpus grid bands =
    let module Sw = Sa_workload.Sor_workload in
    let prep =
      Sw.prepare
        { Sw.default_params with Sw.grid_rows = grid; grid_cols = grid; bands }
    in
    Printf.printf "SOR %dx%d converged in %d iterations (delta %.2e)\n" grid
      grid prep.Sw.iterations prep.Sw.final_delta;
    let sys = System.create ~cpus ~kconfig:(kconfig_of backend) () in
    let job =
      System.submit sys
        ~backend:(system_backend cpus backend)
        ~name:"sor" prep.Sw.program
    in
    System.run sys;
    let seq = Time.span_to_ms prep.Sw.seq_time in
    match System.elapsed job with
    | Some d ->
        Printf.printf "elapsed %.1f ms (sequential %.1f ms, speedup %.2f)\n"
          (Time.span_to_ms d) seq
          (seq /. Time.span_to_ms d)
    | None -> print_endline "did not finish"
  in
  let term = Term.(const action $ backend_arg $ cpus_arg $ grid $ bands) in
  Cmd.v
    (Cmd.info "sor" ~doc:"Run the red-black SOR grid solver workload.")
    term

(* ------------------------------------------------------------------ *)
(* server                                                              *)
(* ------------------------------------------------------------------ *)

let server_cmd =
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Number of requests.")
  in
  let action backend cpus requests =
    let module Server = Sa_workload.Server in
    let params = { Server.default_params with Server.requests } in
    let prog = Server.program params in
    let sys = System.create ~cpus ~kconfig:(kconfig_of backend) () in
    let r = Recorder.create () in
    let _job =
      System.submit sys
        ~backend:(system_backend cpus backend)
        ~name:"server" ~observer:(Recorder.observer r) prog
    in
    System.run sys;
    let s = Server.summarize r ~requests ~slo:max_int in
    Printf.printf
      "%d requests: mean %.1f ms, p50 %.1f, p95 %.1f, p99 %.1f, max %.1f; \
       makespan %.0f ms\n"
      s.Server.ts_completed (s.Server.ts_mean_us /. 1000.)
      (s.Server.ts_p50_us /. 1000.) (s.Server.ts_p95_us /. 1000.)
      (s.Server.ts_p99_us /. 1000.) (s.Server.ts_max_us /. 1000.)
      s.Server.ts_makespan_ms
  in
  let term = Term.(const action $ backend_arg $ cpus_arg $ requests) in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Run the open-arrival server workload and report tail latency.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Sa_workload.Server in
  let d = Server.default_mt_params in
  let tenants =
    Arg.(
      value & opt int d.Server.mt_tenants
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Number of tenants (address spaces); tenant $(i,i) draws the \
             $(i,i) mod 3rd class of interactive / bursty / batch.")
  in
  let requests =
    Arg.(
      value & opt int d.Server.mt_requests
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per tenant.")
  in
  let seed =
    Arg.(
      value & opt int d.Server.mt_seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Workload seed.  Each tenant's arrivals and I/O draws depend \
             only on (seed, tenant index), so runs are reproducible.")
  in
  let serve_cpus =
    Arg.(
      value & opt int 64
      & info [ "cpus" ] ~docv:"N" ~doc:"Number of simulated processors.")
  in
  let action cpus tenants requests seed =
    let params =
      {
        Server.mt_tenants = tenants;
        mt_requests = requests;
        mt_classes = Server.default_classes;
        mt_seed = seed;
        mt_cache_blocks = 0;
      }
    in
    let s = E.serve ~params ~cpus () in
    R.print_serve ~title:"Multi-tenant serving: per-tenant SLO report" s
  in
  let term = Term.(const action $ serve_cpus $ tenants $ requests $ seed) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant serving scenario: N tenant address spaces \
          with open-loop (Poisson + burst) arrivals and fan-out request \
          handling compete for the machine through the space-sharing \
          allocator; reports per-tenant tail latency against each class's \
          SLO plus allocator grant/preemption counts.")
    term

(* ------------------------------------------------------------------ *)
(* cluster                                                             *)
(* ------------------------------------------------------------------ *)

let cluster_cmd =
  let module Cluster = Sa_cluster.Cluster in
  let module Injector = Sa_fault.Injector in
  let d = Cluster.default_params in
  let machines_arg =
    Arg.(
      value & opt int d.Cluster.machines
      & info [ "machines" ] ~docv:"N"
          ~doc:"Machines in the cluster (each its own kernel).")
  in
  let cpus_arg =
    Arg.(
      value & opt int d.Cluster.cpus
      & info [ "cpus" ] ~docv:"N" ~doc:"Processors per machine.")
  in
  let tenants_arg =
    Arg.(
      value & opt int d.Cluster.tenants
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Tenant address spaces, spread over the first N-1 machines so \
             the cluster allocator has an imbalance to fix.")
  in
  let requests_arg =
    Arg.(
      value & opt int d.Cluster.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per tenant.")
  in
  let seed_arg =
    Arg.(
      value & opt int d.Cluster.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Workload seed; the whole run is a pure function of it.")
  in
  let cache_blocks_arg =
    Arg.(
      value & opt int d.Cluster.cache_blocks
      & info [ "cache-blocks" ] ~docv:"N"
          ~doc:
            "Per-tenant block universe; each tenant prewarms only its home \
             machine's slice, so out-of-slice reads probe peers over the \
             net.  0 disables cache reads entirely.")
  in
  let jitter_arg =
    Arg.(
      value & opt int d.Cluster.net_jitter_us
      & info [ "jitter-us" ] ~docv:"US"
          ~doc:"Uniform extra network delay in [0, US] per message.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "inject" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated injector kinds (as for $(b,sa_sim chaos)); \
             $(b,machine-crash) and $(b,net-partition) act on the cluster, \
             the single-machine kinds act on machine 0.  Default: none.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Fault-injector seed.")
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Render a per-machine processor-occupancy chart (rows prefixed \
             $(b,m0:), $(b,m1:), ...).")
  in
  let action machines cpus tenants requests seed cache_blocks jitter kinds
      chaos_seed timeline =
    let params =
      {
        Cluster.machines;
        cpus;
        tenants;
        requests;
        seed;
        cache_blocks;
        net_jitter_us = jitter;
      }
    in
    let cl = Cluster.create params in
    let timelines =
      if timeline then
        Array.map
          (fun sys -> Sa_metrics.Timeline.attach sys ~resolution:(Time.ms 2))
          (Cluster.systems cl)
      else [||]
    in
    let injector =
      match kinds with
      | None | Some [] -> None
      | Some names ->
          let kinds = kinds_of_names names in
          let hooks =
            {
              Injector.ch_machines = machines;
              ch_crash = (fun m -> Cluster.crash_machine cl m);
              ch_partition = (fun a b ~hold -> Cluster.partition cl a b ~hold);
              ch_active = (fun () -> Cluster.active cl);
            }
          in
          Some
            (Injector.attach ~kinds ~cluster:hooks ~seed:chaos_seed
               (Cluster.systems cl).(0))
    in
    Cluster.run cl;
    R.print_cluster ~title:"Cluster serving: multi-machine report"
      (Cluster.summary cl);
    (match injector with
    | None -> ()
    | Some inj ->
        let counts =
          List.filter (fun (_, n) -> n > 0) (Injector.injected inj)
        in
        Printf.printf "injected:%s\n"
          (if counts = [] then " nothing"
           else
             String.concat ""
               (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) counts)));
    if timeline then
      Array.iteri
        (fun i tl ->
          Sa_metrics.Timeline.render
            ~label:(if machines > 1 then Printf.sprintf "m%d:" i else "")
            tl Format.std_formatter)
        timelines
  in
  let term =
    Term.(
      const action $ machines_arg $ cpus_arg $ tenants_arg $ requests_arg
      $ seed_arg $ cache_blocks_arg $ jitter_arg $ inject_arg
      $ chaos_seed_arg $ timeline_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the multi-tenant serving workload across a simulated cluster: \
          one kernel per machine over a modeled network, with a \
          cluster-level allocator migrating address spaces toward idle \
          machines and buffer-cache misses resolving from peers' caches.  \
          Optional chaos ($(b,machine-crash), $(b,net-partition)) exercises \
          evacuation and disk fallback.")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let what =
    Arg.(
      value
      & pos_all string [ "all" ]
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiments to run: table1, table4, table5, figure1, figure2, \
             upcall, ablations, or all.")
  in
  let action what =
    let rec dispatch = function
      | "table1" -> R.print_latency_table ~title:"Table 1" (E.table1 ())
      | "table4" -> R.print_latency_table ~title:"Table 4" (E.table4 ())
      | "table5" -> R.print_multiprog ~title:"Table 5" (E.table5 ())
      | "figure1" -> R.print_speedup_series ~title:"Figure 1" (E.figure1 ())
      | "figure2" -> R.print_exec_time_series ~title:"Figure 2" (E.figure2 ())
      | "upcall" -> R.print_upcalls ~title:"Upcall performance" (E.upcall_performance ())
      | "ablations" ->
          R.print_ablation ~title:"Critical sections"
            (E.ablation_critical_sections ());
          R.print_ablation ~title:"Hysteresis"
            (E.ablation_hysteresis ~spins_ms:[ 0; 1; 5; 20 ] ());
          R.print_ablation ~title:"Activation pooling"
            (E.ablation_activation_pooling ());
          R.print_ablation ~title:"Remainder rotation"
            (E.ablation_remainder_rotation ())
      | "all" ->
          List.iter dispatch
            [ "table1"; "table4"; "figure1"; "figure2"; "table5"; "upcall"; "ablations" ]
      | other -> Printf.eprintf "unknown experiment %S\n" other
    in
    List.iter dispatch what
  in
  let term = Term.(const action $ what) in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures.")
    term

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let millis =
    Arg.(
      value & opt int 0
      & info [ "for" ] ~docv:"MS"
          ~doc:
            "Simulated milliseconds to trace.  0 (the default) traces until \
             the workload finishes.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("chrome", `Chrome) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (one line per record) or $(b,chrome) \
             (Chrome trace-event JSON, loadable in Perfetto or \
             chrome://tracing).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let action backend cpus millis format out =
    let sys = System.create ~cpus ~kconfig:(kconfig_of backend) () in
    let tr = Sim.trace (System.sim sys) in
    (* The stream is written as records are emitted, so the export is not
       bounded by the trace ring's capacity. *)
    let finish =
      match format with
      | `Text -> (
          match out with
          | None ->
              Trace.set_live tr (Some Format.std_formatter);
              fun () -> ()
          | Some file ->
              let oc = open_out file in
              let ppf = Format.formatter_of_out_channel oc in
              Trace.set_live tr (Some ppf);
              fun () ->
                Format.pp_print_flush ppf ();
                close_out oc)
      | `Chrome ->
          let oc, close_oc =
            match out with
            | None -> (stdout, fun () -> ())
            | Some file ->
                let oc = open_out file in
                (oc, fun () -> close_out oc)
          in
          let w = Trace_export.create ~out:(output_string oc) in
          Trace.add_sink tr (Trace_export.feed w);
          fun () ->
            Trace_export.close w;
            flush oc;
            close_oc ()
    in
    let params = { Nbody.default_params with Nbody.n_bodies = 40; steps = 2 } in
    let prep = Nbody.prepare params in
    let job =
      System.submit sys
        ~backend:(system_backend cpus backend)
        ~name:"traced"
        ~cache_capacity:(Nbody.cache_capacity prep ~percent:60)
        prep.Nbody.program
    in
    if millis <= 0 then
      Sim.run_while (System.sim sys) (fun () -> not (System.finished job))
    else
      Sim.run
        ~until:(Time.add (Sim.now (System.sim sys)) (Time.ms millis))
        (System.sim sys);
    finish ()
  in
  let term =
    Term.(const action $ backend_arg $ cpus_arg $ millis $ format_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small N-body workload with the kernel and upcall trace \
          streamed to stdout (text) or exported as Chrome trace JSON.")
    term

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Campaign = Sa_fault.Campaign in
  let module Injector = Sa_fault.Injector in
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"First seed of the sweep.")
  in
  let mode_conv =
    let parse = function
      | "both" -> Ok `Both
      | "native" -> Ok `Native
      | "explicit" -> Ok `Explicit
      | s -> Error (`Msg (Printf.sprintf "unknown mode %S (both|native|explicit)" s))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with `Both -> "both" | `Native -> "native" | `Explicit -> "explicit")
    in
    Arg.conv (parse, print)
  in
  let mode_arg =
    Arg.(
      value & opt mode_conv `Both
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Kernel personality: $(b,both), $(b,native) or $(b,explicit).")
  in
  let kinds_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "inject" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated injector kinds: $(b,preempt), $(b,io-faults), \
             $(b,daemon-storm), $(b,priority-flap), $(b,space-churn), \
             $(b,demand-drop), $(b,machine-crash), $(b,net-partition).  \
             Default: every survivable kind ($(b,demand-drop) is a \
             deliberate bug seed and must be named explicitly; the two \
             cluster kinds only act under $(b,sa_sim cluster)).")
  in
  let action cpus seeds base_seed mode kinds =
    let kinds =
      match kinds with
      | None -> Injector.survivable_kinds
      | Some names -> kinds_of_names names
    in
    let inject_flag =
      if kinds = Injector.survivable_kinds then ""
      else
        " --inject "
        ^ String.concat "," (List.map Injector.kind_name kinds)
    in
    let config = { Campaign.default with Campaign.cpus; kinds } in
    let modes =
      match mode with
      | `Both -> [ Kconfig.Explicit_allocation; Kconfig.Native_oblivious ]
      | `Native -> [ Kconfig.Native_oblivious ]
      | `Explicit -> [ Kconfig.Explicit_allocation ]
    in
    let results =
      Campaign.run_sweep ~config
        ~on_result:(fun r ->
          Format.printf "%a@." Campaign.pp_result r)
        ~modes
        ~seeds:(List.init seeds (fun i -> base_seed + i))
        ()
    in
    let failures = Campaign.failures results in
    Printf.printf "\n%d runs, %d clean, %d failures\n" (List.length results)
      (List.length results - List.length failures)
      (List.length failures);
    if failures <> [] then begin
      List.iter
        (fun r ->
          Printf.printf
            "replay: sa_sim chaos --seeds 1 --base-seed %d --mode %s --cpus \
             %d%s\n"
            r.Campaign.seed
            (Campaign.mode_name r.Campaign.mode)
            cpus inject_flag;
          match r.Campaign.outcome with
          | Campaign.Violation msg | Campaign.No_completion msg ->
              print_newline ();
              print_endline msg
          | Campaign.Completed _ -> ())
        failures;
      exit 1
    end
  in
  let term =
    Term.(
      const action $ cpus_arg $ seeds_arg $ base_seed_arg $ mode_arg
      $ kinds_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep seeded fault-injection campaigns (forced preemptions, lying \
          I/O, daemon storms, priority flaps, space churn) with runtime \
          invariant checking; any violation replays deterministically from \
          its seed.")
    term

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let explore_cmd =
  let module Search = Sa_explore.Search in
  let module Schedule = Sa_explore.Schedule in
  let module Chooser = Sa_explore.Chooser in
  let module Shrink = Sa_explore.Shrink in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("server", Search.Server); ("chaos", Search.Chaos) ])
          Search.Server
      & info [ "workload" ] ~docv:"W"
          ~doc:
            "Workload to explore: $(b,server) (open-arrival server under \
             fault injection) or $(b,chaos) (the PR-1 chaos campaign \
             workload).")
  in
  let schedules_arg =
    Arg.(
      value & opt int 25
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Perturbed schedules to try (stops at the first violation).")
  in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("walk", `Walk); ("pct", `Pct) ]) `Walk
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "Search strategy: $(b,walk) (uniform over same-instant \
             permutations) or $(b,pct) (PCT-style priorities plus --depth \
             change points).")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D" ~doc:"Change points for the PCT strategy.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Workload/kernel/injector seed of the explored configuration.")
  in
  let cpus_arg =
    Arg.(
      value & opt int 4
      & info [ "cpus" ] ~docv:"N" ~doc:"Number of simulated processors.")
  in
  let requests_arg =
    Arg.(
      value & opt int 40
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests in the server workload.")
  in
  let horizon_arg =
    Arg.(
      value & opt int 10_000
      & info [ "horizon-ms" ] ~docv:"MS"
          ~doc:"Simulated-time budget per run (milliseconds).")
  in
  let no_inject_arg =
    Arg.(
      value & flag
      & info [ "no-inject" ]
          ~doc:"Disable fault injection in the server workload.")
  in
  let inject_kinds_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "inject" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated injector kinds (as for $(b,sa_sim chaos)).  \
             Name $(b,demand-drop) here to seed a findable \
             lost-reallocation violation.  Default: every survivable kind.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-drive the run recorded in $(docv) (strict mode) and check \
             its digest instead of searching.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On a violation, ddmin the schedule's divergence set to a \
             minimal failing .sched and emit a Chrome trace of the minimal \
             run.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for emitted .sched and trace files.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Save the baseline (default-chooser) schedule to $(docv).")
  in
  let outcome_line (r : Search.run_result) =
    match r.Search.outcome with
    | Search.Completed -> "ok"
    | Search.Violation m -> "VIOLATION " ^ Shrink.violation_key m
    | Search.No_completion m ->
        "no-completion "
        ^ (match String.index_opt m '\n' with
          | Some i -> String.sub m 0 i
          | None -> m)
  in
  let schedule_meta spec strategy sseed (r : Search.run_result) =
    Search.meta_of_spec spec ~strategy
    @ [
        ("sseed", string_of_int sseed);
        ("digest", r.Search.digest);
        ("outcome", Search.outcome_name r.Search.outcome);
      ]
  in
  let do_replay file =
    let sched = Schedule.load file in
    let spec = Search.spec_of_meta sched.Schedule.meta in
    Printf.printf "replay %s: workload=%s seed=%d cpus=%d decisions=%d\n"
      file
      (Search.workload_name spec.Search.workload)
      spec.Search.seed spec.Search.cpus (Schedule.length sched);
    match Search.replay ~mode:Chooser.Strict spec sched with
    | r, consumed ->
        Printf.printf "outcome: %s\ndigest:  %s\n" (outcome_line r)
          r.Search.digest;
        if consumed <> Schedule.length sched then begin
          Printf.printf
            "replay FAILED: run consumed %d of %d recorded decisions\n"
            consumed (Schedule.length sched);
          exit 1
        end;
        (match Schedule.meta_find sched "digest" with
        | Some recorded when recorded = r.Search.digest ->
            print_endline
              "replay: digest matches the recorded run — deterministic"
        | Some recorded ->
            Printf.printf
              "replay FAILED: digest %s differs from recorded %s\n"
              r.Search.digest recorded;
            exit 1
        | None ->
            print_endline "replay: no recorded digest to compare (ok)")
    | exception Chooser.Divergence { at; reason } ->
        Printf.printf
          "replay FAILED: diverged at decision %d: %s\n\
           (schedule does not match this workload/build — edited or \
           corrupted file?)\n"
          at reason;
        exit 1
  in
  let do_explore spec strategy schedules do_shrink out save =
    Printf.printf "explore: workload=%s strategy=%s schedules=%d seed=%d \
                   cpus=%d inject=%b\n"
      (Search.workload_name spec.Search.workload)
      (Search.strategy_name strategy)
      schedules spec.Search.seed spec.Search.cpus spec.Search.inject;
    let report =
      Search.explore
        ~on_run:(fun i r ->
          Printf.printf "  #%03d %-14s digest=%s adjacencies=%d\n" i
            (Search.outcome_name r.Search.outcome)
            r.Search.digest
            (List.length r.Search.adjacencies))
        ~strategy ~schedules spec
    in
    let base = report.Search.baseline in
    Printf.printf "baseline: %s digest=%s decisions=%d (%d ordering picks)\n"
      (outcome_line base) base.Search.digest
      (Schedule.length report.Search.baseline_sched)
      (Schedule.picks report.Search.baseline_sched);
    (match save with
    | Some file ->
        Schedule.save file
          (Schedule.with_meta report.Search.baseline_sched
             (schedule_meta spec "default" spec.Search.seed base));
        Printf.printf "saved baseline schedule: %s\n" file
    | None -> ());
    Printf.printf
      "%d perturbed runs: %d violations, %d no-completions, %d distinct \
       digests\n"
      report.Search.runs report.Search.violations
      report.Search.no_completions report.Search.distinct_digests;
    Printf.printf "coverage: %d/%d Table-2 upcall adjacencies: %s\n"
      (List.length report.Search.coverage)
      Search.all_adjacencies
      (String.concat ", "
         (List.map
            (fun (a, b) -> Printf.sprintf "%s>%s" a b)
            report.Search.coverage));
    match report.Search.failing with
    | None -> Printf.printf "no violation found in %d schedules\n" report.Search.runs
    | Some (sseed, r, sched) ->
        let key =
          match r.Search.outcome with
          | Search.Violation m -> Shrink.violation_key m
          | _ -> assert false
        in
        Printf.printf "VIOLATION (strategy seed %d): %s\n" sseed key;
        let sched =
          Schedule.with_meta sched
            (schedule_meta spec (Search.strategy_name strategy) sseed r
            @ [ ("violation", key) ])
        in
        let failing_path = Filename.concat out "explore-failing.sched" in
        Schedule.save failing_path sched;
        Printf.printf "failing schedule: %s (%d decisions, %d divergences)\n"
          failing_path (Schedule.length sched)
          (List.length (Schedule.divergences sched));
        if do_shrink then begin
          match Shrink.shrink ~spec sched with
          | Error e ->
              Printf.printf "shrink FAILED: %s\n" e;
              exit 1
          | Ok s ->
              Printf.printf
                "shrunk: %d -> %d divergences (%d dropped) in %d test \
                 replays\n"
                (s.Shrink.kept + s.Shrink.dropped)
                s.Shrink.kept s.Shrink.dropped s.Shrink.tests;
              let minimal =
                Schedule.with_meta s.Shrink.schedule
                  (schedule_meta spec
                     (Search.strategy_name strategy ^ "+ddmin")
                     sseed s.Shrink.run
                  @ [ ("violation", s.Shrink.key) ])
              in
              let minimal_path =
                Filename.concat out "explore-minimal.sched"
              in
              Schedule.save minimal_path minimal;
              Printf.printf "minimal schedule: %s (%d divergences)\n"
                minimal_path
                (List.length (Schedule.divergences minimal));
              (* Cross-check: strict replay of the minimal schedule must
                 reproduce the violation bit-for-bit; stream it as a
                 Chrome trace while we are at it. *)
              let trace_path =
                Filename.concat out "explore-minimal.trace.json"
              in
              let oc = open_out trace_path in
              let w = Trace_export.create ~out:(output_string oc) in
              (match
                 Search.replay ~mode:Chooser.Strict
                   ~trace_sink:(Trace_export.feed w) spec minimal
               with
              | vr, _ ->
                  Trace_export.close w;
                  close_out oc;
                  Printf.printf "minimal-run trace: %s\n" trace_path;
                  if vr.Search.digest = s.Shrink.run.Search.digest then
                    Printf.printf
                      "verified: minimal schedule replays the same \
                       violation deterministically (digest %s)\n"
                      vr.Search.digest
                  else begin
                    Printf.printf
                      "verification FAILED: replay digest %s differs from \
                       %s\n"
                      vr.Search.digest s.Shrink.run.Search.digest;
                    exit 1
                  end
              | exception Chooser.Divergence { at; reason } ->
                  Trace_export.close w;
                  close_out oc;
                  Printf.printf
                    "verification FAILED: minimal schedule diverged at %d: \
                     %s\n"
                    at reason;
                  exit 1)
        end
  in
  let action workload schedules strategy depth seed cpus requests horizon_ms
      no_inject kinds replay_file do_shrink out save =
    match replay_file with
    | Some file -> do_replay file
    | None ->
        let inject_kinds =
          match kinds with
          | None -> Search.default_spec.Search.inject_kinds
          | Some names -> kinds_of_names names
        in
        let spec =
          {
            Search.workload;
            seed;
            cpus;
            requests;
            horizon = Time.ms horizon_ms;
            inject = not no_inject;
            inject_kinds;
          }
        in
        let strategy =
          match strategy with
          | `Walk -> Search.Walk
          | `Pct -> Search.Pct depth
        in
        do_explore spec strategy schedules do_shrink out save
  in
  let term =
    Term.(
      const action $ workload_arg $ schedules_arg $ strategy_arg $ depth_arg
      $ seed_arg $ cpus_arg $ requests_arg $ horizon_arg $ no_inject_arg
      $ inject_kinds_arg $ replay_arg $ shrink_arg $ out_arg
      $ save_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Search the schedule space of a seeded workload: every source of \
          schedule nondeterminism (same-instant event ordering, injector \
          draws, allocator rotation, I/O completion ordering) is a recorded \
          choice point.  Runs record to compact .sched files, replay \
          bit-for-bit, and a failing schedule is ddmin-shrunk to a minimal \
          deterministic reproducer.")
    term

let () =
  let info =
    Cmd.info "sa_sim" ~version:"1.0.0"
      ~doc:
        "Simulation of Scheduler Activations (Anderson, Bershad, Lazowska, \
         Levy; SOSP 1991)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            latency_cmd;
            sor_cmd;
            server_cmd;
            serve_cmd;
            cluster_cmd;
            report_cmd;
            trace_cmd;
            chaos_cmd;
            explore_cmd;
          ]))
