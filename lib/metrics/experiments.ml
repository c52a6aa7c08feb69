module Time = Sa_engine.Time
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module Cost_model = Sa_hw.Cost_model
module System = Sa.System
module Latency = Sa_workload.Latency
module Recorder = Sa_workload.Recorder
module Nbody = Sa_workload.Nbody
module Ft_core = Sa_uthread.Ft_core

let stamp_latency ?costs ?(name = "bench") kconfig backend prog read =
  let sys =
    System.create ~cpus:1 ?costs
      ~kconfig:{ kconfig with Kconfig.daemons = false }
      ()
  in
  let rec_ = Recorder.create () in
  let _job =
    System.submit sys ~backend ~name ~observer:(Recorder.observer rec_) prog
  in
  System.run sys;
  read rec_

(* Simulated seconds a finished job took. *)
let elapsed_s job =
  match System.elapsed job with
  | Some d -> Time.span_to_ms d /. 1000.0
  | None -> assert false

type latency_row = {
  system : string;
  null_fork_us : float;
  signal_wait_us : float;
  paper_null_fork : float option;
  paper_signal_wait : float option;
}

let run_latency ?(iters = 200) ?costs kconfig backend =
  let one prog read = stamp_latency ?costs kconfig backend prog read in
  ( one (Latency.null_fork ~iters ()) Latency.null_fork_latency,
    one (Latency.signal_wait ~iters) Latency.signal_wait_latency )

let table1 ?iters () =
  let rows =
    [
      ( "FastThreads on Topaz threads",
        Kconfig.native,
        `Fastthreads_on_kthreads 1,
        Some 34.0,
        Some 37.0 );
      ("Topaz threads", Kconfig.native, `Topaz_kthreads, Some 948.0, Some 441.0);
      ( "Ultrix processes",
        Kconfig.native,
        `Ultrix_processes,
        Some 11300.0,
        Some 1840.0 );
    ]
  in
  List.map
    (fun (system, kc, backend, pnf, psw) ->
      let nf, sw = run_latency ?iters kc backend in
      {
        system;
        null_fork_us = nf;
        signal_wait_us = sw;
        paper_null_fork = pnf;
        paper_signal_wait = psw;
      })
    rows

let table4 ?iters () =
  let nf, sw = run_latency ?iters Kconfig.default `Fastthreads_on_sa in
  let sa_row =
    {
      system = "FastThreads on Scheduler Activations";
      null_fork_us = nf;
      signal_wait_us = sw;
      paper_null_fork = Some 37.0;
      paper_signal_wait = Some 42.0;
    }
  in
  match table1 ?iters () with
  | ft :: rest -> ft :: sa_row :: rest
  | [] -> [ sa_row ]

(* ------------------------------------------------------------------ *)
(* N-body experiments                                                  *)
(* ------------------------------------------------------------------ *)

type speedup_point = { processors : int; speedup : float }
type speedup_series = { series : string; points : speedup_point list }

let seq_seconds prep = Time.span_to_ms prep.Nbody.seq_time /. 1000.0

let run_nbody ?costs ~kconfig ~cpus ~backend ?parallelism ?cache_capacity ?disk
    prep =
  let sys = System.create ~cpus ?costs ~kconfig () in
  let job =
    System.submit sys ~backend ~name:"nbody" ?parallelism ?cache_capacity ?disk
      prep.Nbody.program
  in
  System.run sys;
  elapsed_s job

let figure1 ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let seq = seq_seconds prep in
  let procs = [ 1; 2; 3; 4; 5; 6 ] in
  let series name f = { series = name; points = List.map f procs } in
  [
    series "Topaz threads" (fun p ->
        (* The kernel-thread application inherently spreads over every
           processor, so its machine is sized to p. *)
        let t =
          run_nbody ~kconfig:Kconfig.native ~cpus:p ~backend:`Topaz_kthreads
            prep
        in
        { processors = p; speedup = seq /. t });
    series "orig FastThreads" (fun p ->
        let t =
          run_nbody ~kconfig:Kconfig.native ~cpus:6
            ~backend:(`Fastthreads_on_kthreads p) prep
        in
        { processors = p; speedup = seq /. t });
    series "new FastThreads" (fun p ->
        let t =
          run_nbody ~kconfig:Kconfig.default ~cpus:6 ~backend:`Fastthreads_on_sa
            ~parallelism:p prep
        in
        { processors = p; speedup = seq /. t });
  ]

type exec_time_point = { memory_percent : int; exec_time_s : float }
type exec_time_series = { io_series : string; io_points : exec_time_point list }

let figure2 ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let percents = [ 100; 90; 80; 70; 60; 50; 40 ] in
  let series name f = { io_series = name; io_points = List.map f percents } in
  let point backend kconfig vps pct =
    let cache_capacity = Nbody.cache_capacity prep ~percent:pct in
    let backend =
      match backend with
      | `Orig_ft -> `Fastthreads_on_kthreads vps
      | `New_ft -> `Fastthreads_on_sa
      | `Topaz -> `Topaz_kthreads
    in
    let t = run_nbody ~kconfig ~cpus:6 ~backend ~cache_capacity prep in
    { memory_percent = pct; exec_time_s = t }
  in
  [
    series "Topaz threads" (point `Topaz Kconfig.native 6);
    series "orig FastThreads" (point `Orig_ft Kconfig.native 6);
    series "new FastThreads" (point `New_ft Kconfig.default 6);
  ]

type multiprog_row = {
  mp_system : string;
  mp_speedup : float;
  mp_paper : float option;
}

let table5 ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let seq = seq_seconds prep in
  let run kconfig backend =
    let sys = System.create ~cpus:6 ~kconfig () in
    let j1 = System.submit sys ~backend ~name:"nbody-1" prep.Nbody.program in
    let j2 = System.submit sys ~backend ~name:"nbody-2" prep.Nbody.program in
    System.run sys;
    let avg = (elapsed_s j1 +. elapsed_s j2) /. 2.0 in
    seq /. avg
  in
  [
    {
      mp_system = "Topaz threads";
      mp_speedup = run Kconfig.native `Topaz_kthreads;
      mp_paper = Some 1.29;
    };
    {
      mp_system = "orig FastThreads";
      mp_speedup = run Kconfig.native (`Fastthreads_on_kthreads 6);
      mp_paper = Some 1.26;
    };
    {
      mp_system = "new FastThreads";
      mp_speedup = run Kconfig.default `Fastthreads_on_sa;
      mp_paper = Some 2.45;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Upcall performance (Section 5.2)                                    *)
(* ------------------------------------------------------------------ *)

type upcall_row = {
  u_config : string;
  u_signal_wait_us : float;
  u_paper : float option;
}

let upcall_performance ?(iters = 100) () =
  let run ?costs kconfig backend =
    stamp_latency ?costs ~name:"upcall-bench" kconfig backend
      (Latency.upcall_signal_wait ~iters)
      Latency.upcall_signal_wait_latency
  in
  let tuned =
    { Cost_model.firefly_cvax with Cost_model.upcall_untuned_factor = 1.0 }
  in
  [
    {
      u_config = "Scheduler activations (untuned, as built)";
      u_signal_wait_us = run Kconfig.default `Fastthreads_on_sa;
      u_paper = Some 2400.0;
    };
    {
      u_config = "Scheduler activations (tuned projection)";
      u_signal_wait_us = run ~costs:tuned Kconfig.default `Fastthreads_on_sa;
      u_paper = None;
    };
    {
      u_config = "Topaz kernel threads (reference)";
      u_signal_wait_us = run Kconfig.native `Topaz_kthreads;
      u_paper = Some 441.0;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type ablation_row = { a_label : string; a_value : float; a_unit : string }

let ablation_critical_sections ?(iters = 200) () =
  let run costs = run_latency ~iters ~costs Kconfig.default `Fastthreads_on_sa in
  let nf_c, sw_c = run Cost_model.firefly_cvax in
  (* An explicit flag set and cleared around every critical section: the
     Null-Fork cycle crosses six thread-system critical sections (fork 2,
     join 1, finish 1, two dispatches) and the Signal-Wait half-round
     three, reproducing 49/48 us (S5.1). *)
  let nf_f, sw_f =
    run { Cost_model.firefly_cvax with Cost_model.ut_critical_flag = Time.us 2 }
  in
  [
    { a_label = "Null Fork, copy-sections (paper 37)"; a_value = nf_c; a_unit = "us" };
    { a_label = "Null Fork, explicit flag (paper 49)"; a_value = nf_f; a_unit = "us" };
    { a_label = "Signal-Wait, copy-sections (paper 42)"; a_value = sw_c; a_unit = "us" };
    { a_label = "Signal-Wait, explicit flag (paper 48)"; a_value = sw_f; a_unit = "us" };
  ]

let ablation_hysteresis ?(params = Nbody.default_params) ~spins_ms () =
  let prep = Nbody.prepare params in
  List.concat_map
    (fun ms ->
      let costs =
        { Cost_model.firefly_cvax with idle_spin = Time.ms ms }
      in
      let sys = System.create ~cpus:6 ~costs ~kconfig:Kconfig.default () in
      let job =
        System.submit sys ~backend:`Fastthreads_on_sa ~name:"nbody"
          prep.Nbody.program
      in
      System.run sys;
      let stats = Kernel.stats (System.kernel sys) in
      [
        {
          a_label = Printf.sprintf "hysteresis %2d ms: run time" ms;
          a_value = elapsed_s job;
          a_unit = "s";
        };
        {
          a_label = Printf.sprintf "hysteresis %2d ms: reallocations" ms;
          a_value = float_of_int stats.Kernel.reallocations;
          a_unit = "";
        };
      ])
    spins_ms

let ablation_activation_pooling ?(iters = 100) () =
  let run pooling =
    stamp_latency ~name:"pool-bench"
      { Kconfig.default with activation_pooling = pooling }
      `Fastthreads_on_sa
      (Latency.upcall_signal_wait ~iters)
      Latency.upcall_signal_wait_latency
  in
  [
    {
      a_label = "kernel Signal-Wait, activation pool on";
      a_value = run true;
      a_unit = "us";
    };
    {
      a_label = "kernel Signal-Wait, pool off (fresh allocation per upcall)";
      a_value = run false;
      a_unit = "us";
    };
  ]

let ablation_remainder_rotation ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let run rotate =
    (* Two jobs on a 5-processor machine: 5 / 2 leaves one contested
       processor. *)
    let kconfig = { Kconfig.default with rotate_remainder = rotate } in
    let sys = System.create ~cpus:5 ~kconfig () in
    let j1 =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"job-1"
        prep.Nbody.program
    in
    let j2 =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"job-2"
        prep.Nbody.program
    in
    System.run sys;
    (elapsed_s j1, elapsed_s j2)
  in
  let r1_on, r2_on = run true in
  let r1_off, r2_off = run false in
  [
    { a_label = "rotation on:  job 1"; a_value = r1_on; a_unit = "s" };
    { a_label = "rotation on:  job 2"; a_value = r2_on; a_unit = "s" };
    {
      a_label = "rotation on:  unfairness |j1-j2|/avg";
      a_value = 2.0 *. abs_float (r1_on -. r2_on) /. (r1_on +. r2_on);
      a_unit = "";
    };
    { a_label = "rotation off: job 1"; a_value = r1_off; a_unit = "s" };
    { a_label = "rotation off: job 2"; a_value = r2_off; a_unit = "s" };
    {
      a_label = "rotation off: unfairness |j1-j2|/avg";
      a_value = 2.0 *. abs_float (r1_off -. r2_off) /. (r1_off +. r2_off);
      a_unit = "";
    };
  ]

(* Figure 2 under disk queueing: one FIFO server with a 16 ms service time
   replaces the fixed 50 ms block. *)
let figure2_disk_contention ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let disk = Time.ms 16 in
  let percents = [ 100; 80; 60; 40 ] in
  let series name f = { io_series = name; io_points = List.map f percents } in
  let point backend kconfig pct =
    let cache_capacity = Nbody.cache_capacity prep ~percent:pct in
    {
      memory_percent = pct;
      exec_time_s =
        run_nbody ~kconfig ~cpus:6 ~backend ~cache_capacity ~disk prep;
    }
  in
  [
    series "Topaz threads" (point `Topaz_kthreads Kconfig.native);
    series "orig FastThreads"
      (point (`Fastthreads_on_kthreads 6) Kconfig.native);
    series "new FastThreads" (point `Fastthreads_on_sa Kconfig.default);
  ]

let allocator_fairness ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let run cpus =
    let sys = System.create ~cpus ~kconfig:Kconfig.default () in
    let j1 =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"job-1"
        prep.Nbody.program
    in
    let j2 =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"job-2"
        prep.Nbody.program
    in
    System.run sys;
    let k = System.kernel sys in
    ( Kernel.space_cpu_seconds k (System.space j1),
      Kernel.space_cpu_seconds k (System.space j2) )
  in
  let e1, e2 = run 6 in
  let o1, o2 = run 5 in
  [
    { a_label = "6 CPUs: job-1 processor-seconds"; a_value = e1; a_unit = "cpu-s" };
    { a_label = "6 CPUs: job-2 processor-seconds"; a_value = e2; a_unit = "cpu-s" };
    {
      a_label = "6 CPUs: share imbalance |1-2|/avg";
      a_value = 2.0 *. abs_float (e1 -. e2) /. (e1 +. e2);
      a_unit = "";
    };
    { a_label = "5 CPUs: job-1 processor-seconds"; a_value = o1; a_unit = "cpu-s" };
    { a_label = "5 CPUs: job-2 processor-seconds"; a_value = o2; a_unit = "cpu-s" };
    {
      a_label = "5 CPUs: share imbalance |1-2|/avg (rotation)";
      a_value = 2.0 *. abs_float (o1 -. o2) /. (o1 +. o2);
      a_unit = "";
    };
  ]

let space_priority ?(params = Nbody.default_params) () =
  let prep = Nbody.prepare params in
  let sys = System.create ~cpus:6 ~kconfig:Kconfig.default () in
  let hi =
    System.submit sys ~backend:`Fastthreads_on_sa ~name:"high"
      ~space_priority:5 prep.Nbody.program
  in
  let lo =
    System.submit sys ~backend:`Fastthreads_on_sa ~name:"low"
      ~space_priority:0 prep.Nbody.program
  in
  System.run sys;
  let seq = seq_seconds prep in
  [
    { a_label = "high-priority job: run time"; a_value = elapsed_s hi; a_unit = "s" };
    { a_label = "high-priority job: speedup"; a_value = seq /. elapsed_s hi; a_unit = "" };
    { a_label = "low-priority  job: run time"; a_value = elapsed_s lo; a_unit = "s" };
    { a_label = "low-priority  job: speedup"; a_value = seq /. elapsed_s lo; a_unit = "" };
  ]

(* ------------------------------------------------------------------ *)
(* Server latency (intro scenario)                                     *)
(* ------------------------------------------------------------------ *)

type server_row = {
  s_system : string;
  s_mean_us : float;
  s_p95_us : float;
  s_p99_us : float;
}

let server_latency ?(params = Sa_workload.Server.default_params) ?(cpus = 4)
    () =
  let prog = Sa_workload.Server.program params in
  let run name kconfig backend =
    let sys = System.create ~cpus ~kconfig () in
    let rec_ = Recorder.create () in
    let _job =
      System.submit sys ~backend ~name:"server"
        ~observer:(Recorder.observer rec_) prog
    in
    System.run sys;
    let s =
      Sa_workload.Server.summarize rec_
        ~requests:params.Sa_workload.Server.requests ~slo:max_int
    in
    {
      s_system = name;
      s_mean_us = s.Sa_workload.Server.ts_mean_us;
      s_p95_us = s.Sa_workload.Server.ts_p95_us;
      s_p99_us = s.Sa_workload.Server.ts_p99_us;
    }
  in
  [
    run "Topaz threads" Kconfig.native `Topaz_kthreads;
    run "orig FastThreads" Kconfig.native (`Fastthreads_on_kthreads cpus);
    run "new FastThreads" Kconfig.default `Fastthreads_on_sa;
  ]

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving with tail-latency SLOs                         *)
(* ------------------------------------------------------------------ *)

type serve_tenant_row = {
  v_tenant : string;
  v_class : string;
  v_completed : int;
  v_mean_us : float;
  v_p50_us : float;
  v_p99_us : float;
  v_p999_us : float;
  v_max_us : float;
  v_slo_ms : float;
  v_violations : int;
  v_violation_frac : float;
  v_makespan_ms : float;
  v_grants : int;
  v_preempts : int;
  v_cpu_seconds : float;
  v_program_steps : int;  (* interpreter ops executed for this tenant *)
  v_charge_segments : int;  (* logical charge requests *)
  v_charge_batches : int;  (* charge events actually issued *)
}

type serve_summary = {
  v_cpus : int;
  v_tenant_count : int;
  v_requests_total : int;
  v_rows : serve_tenant_row list;
  v_upcalls : int;
  v_preemptions : int;
  v_reallocations : int;
  v_elapsed_ms : float;
}

let serve ?(params = Sa_workload.Server.default_mt_params) ?(cpus = 64)
    ?(tracing = true) () =
  let module Server = Sa_workload.Server in
  let sys = System.create ~cpus () in
  if not tracing then
    Sa_engine.Trace.set_recording (Sa_engine.Sim.trace (System.sim sys)) false;
  let tenants =
    List.init params.Server.mt_tenants (fun i ->
        let cls = Server.tenant_class params i in
        let r = Recorder.create () in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa
            ~name:(Server.tenant_name params i)
            ~space_priority:cls.Server.tc_priority
            ~observer:(Recorder.observer r)
            (Server.tenant_program params i)
        in
        (i, cls, r, job))
  in
  System.run sys;
  let kernel = System.kernel sys in
  let rows =
    List.map
      (fun (i, cls, r, job) ->
        let s =
          Server.summarize r ~requests:params.Server.mt_requests
            ~slo:cls.Server.tc_slo
        in
        let sp = System.space job in
        let ft =
          match System.uthread_stats job with
          | Some st -> st
          | None -> failwith "serve: tenant without uthread stats"
        in
        {
          v_tenant = Server.tenant_name params i;
          v_class = cls.Server.tc_class;
          v_completed = s.Server.ts_completed;
          v_mean_us = s.Server.ts_mean_us;
          v_p50_us = s.Server.ts_p50_us;
          v_p99_us = s.Server.ts_p99_us;
          v_p999_us = s.Server.ts_p999_us;
          v_max_us = s.Server.ts_max_us;
          v_slo_ms = s.Server.ts_slo_ms;
          v_violations = s.Server.ts_violations;
          v_violation_frac = s.Server.ts_violation_frac;
          v_makespan_ms = s.Server.ts_makespan_ms;
          v_grants = Kernel.space_grants sp;
          v_preempts = Kernel.space_preempts sp;
          v_cpu_seconds = Kernel.space_cpu_seconds kernel sp;
          v_program_steps = ft.Ft_core.program_steps;
          v_charge_segments = ft.Ft_core.charge_segments;
          v_charge_batches = ft.Ft_core.charge_batches;
        })
      tenants
  in
  let st = Kernel.stats kernel in
  let elapsed_ms =
    List.fold_left
      (fun acc (_, _, _, job) ->
        match System.elapsed job with
        | Some d -> Stdlib.max acc (Time.span_to_ms d)
        | None -> acc)
      0.0 tenants
  in
  {
    v_cpus = cpus;
    v_tenant_count = params.Server.mt_tenants;
    v_requests_total = params.Server.mt_tenants * params.Server.mt_requests;
    v_rows = rows;
    v_upcalls = st.Kernel.upcalls;
    v_preemptions = st.Kernel.preemptions;
    v_reallocations = st.Kernel.reallocations;
    v_elapsed_ms = elapsed_ms;
  }

(* ------------------------------------------------------------------ *)
(* Preemption protocol comparison (Section 6)                          *)
(* ------------------------------------------------------------------ *)

let preemption_protocol () =
  let module P = Sa_program.Program in
  let module B = P.Build in
  (* incumbent: ~400 ms of work on every processor, in [chunk]-sized pieces
     (dispatch boundaries are the voluntary-release points) *)
  let incumbent ~cooperative chunk =
    let n = Time.ms 400 / chunk in
    let body =
      let open B in
      repeat n (fun _ ->
          let* () = compute chunk in
          (* a cooperative incumbent passes through its scheduler (a safe
             point where warnings are honoured) between work chunks *)
          if cooperative then yield else return ())
    in
    B.to_program
      (let open B in
       let* t1 = fork (B.to_program body) in
       let* t2 = fork (B.to_program body) in
       let* () = join t1 in
       join t2)
  in
  let claimant = B.to_program B.(let* () = stamp 0 in compute (Time.ms 1)) in
  let run ?(cooperative = false) kconfig chunk =
    let kconfig = { kconfig with Kconfig.daemons = false } in
    let sys = System.create ~cpus:2 ~kconfig () in
    let _low =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"incumbent"
        (incumbent ~cooperative chunk)
    in
    (* let the incumbent take both processors *)
    System.run_span sys (Time.ms 20);
    let t0 = Sa_engine.Sim.now (System.sim sys) in
    let first = ref None in
    let _high =
      System.submit sys ~backend:`Fastthreads_on_sa ~name:"claimant"
        ~space_priority:5
        ~observer:(fun _ time -> if !first = None then first := Some time)
        claimant
    in
    System.run sys;
    match !first with
    | Some t -> Time.span_to_ms (Time.diff t t0)
    | None -> nan
  in
  let immediate = run Kconfig.default (Time.ms 100) in
  let warned_coarse =
    run { Kconfig.default with preempt_warning = Some (Time.ms 20) } (Time.ms 100)
  in
  let warned_fine =
    run ~cooperative:true
      { Kconfig.default with preempt_warning = Some (Time.ms 20) }
      (Time.ms 1)
  in
  [
    {
      a_label = "immediate stop-and-upcall (the paper): grant latency";
      a_value = immediate;
      a_unit = "ms";
    };
    {
      a_label = "warning protocol, uncooperative incumbent (full grace)";
      a_value = warned_coarse;
      a_unit = "ms";
    };
    {
      a_label = "warning protocol, cooperative incumbent (fine tasks)";
      a_value = warned_fine;
      a_unit = "ms";
    };
  ]

(* ------------------------------------------------------------------ *)
(* 2020s retrospective                                                 *)
(* ------------------------------------------------------------------ *)

let modern_retrospective () =
  let costs = Cost_model.modern_x86 in
  let latency backend kconfig =
    stamp_latency ~costs kconfig backend
      (Latency.null_fork ~iters:200 ~proc:costs.Cost_model.procedure_call ())
      Latency.null_fork_latency
  in
  let ft = latency (`Fastthreads_on_kthreads 1) Kconfig.native in
  let sa = latency `Fastthreads_on_sa Kconfig.default in
  let kt = latency `Topaz_kthreads Kconfig.native in
  (* finer-grained N-body: per-interaction cost scaled 1000x down, so task
     sizes shrink from ~2 ms to ~2 us *)
  let params =
    {
      Nbody.default_params with
      Nbody.per_interaction = Time.ns 12;
      tree_build_unit = Time.ns 5;
      reduction_cs = Time.ns 80;
      hit_cost = Cost_model.modern_x86.Cost_model.procedure_call;
    }
  in
  let prep = Nbody.prepare params in
  let speedup costs kconfig backend =
    seq_seconds prep /. run_nbody ~costs ~kconfig ~cpus:6 ~backend prep
  in
  let kt_speedup = speedup costs Kconfig.native `Topaz_kthreads in
  let sa_speedup =
    speedup
      { costs with Cost_model.upcall_untuned_factor = 1.0 }
      Kconfig.default `Fastthreads_on_sa
  in
  [
    { a_label = "Null Fork, user-level threads (2020s)"; a_value = ft; a_unit = "us" };
    { a_label = "Null Fork, scheduler activations (2020s)"; a_value = sa; a_unit = "us" };
    { a_label = "Null Fork, kernel threads (2020s)"; a_value = kt; a_unit = "us" };
    {
      a_label = "kernel/user latency ratio (paper's 1991 ratio: 28x)";
      a_value = kt /. ft;
      a_unit = "x";
    };
    {
      a_label = "N-body 6P speedup (2us tasks): kernel threads";
      a_value = kt_speedup;
      a_unit = "x";
    };
    {
      a_label = "N-body 6P speedup (2us tasks): scheduler activations";
      a_value = sa_speedup;
      a_unit = "x";
    };
  ]
