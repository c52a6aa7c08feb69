(* Benchmark harness.

   Two layers:

   1. The paper harness: regenerates every table and figure of the paper's
      evaluation section (Tables 1/4/5, Figures 1/2, the Section 5.2 upcall
      measurements) plus the design-choice ablations, printing measured
      values next to the published ones.  These run in simulated time and
      are deterministic.  Each experiment is one [Report.section]; with
      --json the selected sections are emitted as one JSON object on
      stdout (machine-readable, for recording BENCH_*.json trajectories
      across commits), otherwise as text.

   2. Bechamel wall-clock micro-benchmarks: one Test.make per paper table /
      figure (measuring the cost of regenerating it) and a group for the
      simulator's own hot paths (event queue, processor segments, octree
      build, buffer cache).  These are wall-clock measurements and stay
      text-only.

   Usage:
     bench/main.exe                 run the full paper harness (default)
     bench/main.exe table1 figure2  run selected experiments
     bench/main.exe micro           run the Bechamel micro-benchmarks
     bench/main.exe micro --record  write engine-gate baselines (MICRO_BASELINE.txt)
     bench/main.exe micro --check   fail if any gated benchmark regressed >5x
     bench/main.exe all             paper harness + micro-benchmarks
     bench/main.exe scale           32/64-CPU, ~10k-thread fork-join stress
     bench/main.exe serve           24-tenant serving with per-tenant SLOs
     bench/main.exe cluster         3-machine cluster serving run
     bench/main.exe --json [NAMES]  paper harness (or NAMES, mixed freely) as JSON

   scale, serve and cluster are outside the default set and report host
   wall time on stderr.  Serve and cluster JSON is byte-reproducible;
   scale's rows also carry wall time.  An unknown name exits 2. *)

module E = Sa_metrics.Experiments
module R = Sa_metrics.Report
module Nbody = Sa_workload.Nbody

(* ------------------------------------------------------------------ *)
(* Paper experiments                                                   *)
(* ------------------------------------------------------------------ *)

(* A registry entry: [run] computes the rows and [section] describes them. *)
let entry name title section run =
  (name, fun () -> section ~name ~title (run ()))

let paper : (string * (unit -> R.section)) list =
  [
    entry "table1" "Table 1: Thread Operation Latencies (usec)" R.latency
      E.table1;
    entry "table4"
      "Table 4: Thread Operation Latencies (usec), with Scheduler Activations"
      R.latency E.table4;
    entry "figure1"
      "Figure 1: Speedup of N-Body Application vs. Number of Processors, \
       100% of Memory Available"
      R.speedup E.figure1;
    entry "figure2"
      "Figure 2: Execution Time of N-Body Application vs. Amount of \
       Available Memory, 6 Processors"
      R.exec_time E.figure2;
    entry "table5"
      "Table 5: Speedup for N-Body Application, Multiprogramming Level = 2, \
       6 Processors, 100% of Memory Available"
      R.multiprog E.table5;
    entry "upcall"
      "Section 5.2: Upcall Performance (Signal-Wait through the kernel)"
      R.upcalls E.upcall_performance;
    entry "ablation-critical"
      "Ablation (S5.1/S4.3): critical-section marking strategy, latency \
       impact"
      R.ablation E.ablation_critical_sections;
    entry "ablation-hysteresis"
      "Ablation (S4.2): idle-processor hysteresis before reallocation"
      R.ablation
      (E.ablation_hysteresis ~spins_ms:[ 0; 1; 5; 20 ]);
    entry "ablation-pool"
      "Ablation (S4.3): discarded-scheduler-activation recycling" R.ablation
      E.ablation_activation_pooling;
    entry "ablation-rotation"
      "Ablation (S4.1): time-slicing the remainder processor between equal \
       jobs (5 CPUs, 2 jobs)"
      R.ablation E.ablation_remainder_rotation;
    entry "ablation-disk"
      "Ablation (S5.3): Figure 2 with a queued disk (contention) instead of \
       the fixed 50 ms block"
      R.exec_time E.figure2_disk_contention;
    entry "server"
      "Extension: open-arrival server response times (4 CPUs, 200 requests, \
       80% do 20 ms I/O)"
      R.server E.server_latency;
    entry "ablation-warning"
      "Related-work comparison (S6): immediate stop-and-upcall vs the \
       Psyche/Symunix warning protocol (high-priority grant latency)"
      R.ablation E.preemption_protocol;
    entry "retrospective"
      "Retrospective: the same systems under 2020s costs (ns-scale user \
       ops, us-scale kernel ops, NVMe I/O) and 1000x finer-grained tasks"
      R.ablation E.modern_retrospective;
    entry "ablation-fairness"
      "Ablation (S4.1): allocator fairness in processor-seconds" R.ablation
      E.allocator_fairness;
    entry "ablation-priority"
      "Ablation (S4.1): address-space priorities in the allocator" R.ablation
      E.space_priority;
  ]

(* ------------------------------------------------------------------ *)
(* Scale mode: large machines, many threads                            *)
(* ------------------------------------------------------------------ *)

(* Not a paper experiment: a fork-join stress run on 32/64-processor
   machines with ~10k threads, exercising the kernel paths that must stay
   O(1) (dispatch tables, allocation cursor, idle census) and the
   user-level ready queues.  Deterministic in simulated time apart from
   the two wall-clock fields, which are also reported on stderr. *)

let scale_configs = [ (32, 10_000); (64, 10_000) ]

let scale_title =
  "Scale: fork-join stress, FastThreads on Scheduler Activations (32/64 \
   CPUs, ~10k threads)"

let scale_one ~cpus ~threads =
  let module Time = Sa_engine.Time in
  let module System = Sa.System in
  let module Kernel = Sa_kernel.Kernel in
  let module Program = Sa_program.Program in
  let module Ft_core = Sa_uthread.Ft_core in
  let sys = System.create ~cpus () in
  (* Two-level fan-out: the root forks one branch per processor, each
     branch forks its share of leaves, so forking itself runs in
     parallel.  Leaves yield mid-compute to exercise the queue
     disciplines. *)
  let branches = cpus in
  let per_branch = threads / branches in
  let leaf =
    Program.Build.(
      to_program
        (let* () = compute (Time.us 20) in
         let* () = yield in
         compute (Time.us 20)))
  in
  let branch =
    Program.Build.(to_program (repeat per_branch (fun _ -> fork_unit leaf)))
  in
  let prog =
    Program.Build.(to_program (repeat branches (fun _ -> fork_unit branch)))
  in
  let t0 = Unix.gettimeofday () in
  let job = System.submit sys ~backend:`Fastthreads_on_sa ~name:"scale" prog in
  System.run sys;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let elapsed =
    match System.elapsed job with Some e -> e | None -> assert false
  in
  let st = Kernel.stats (System.kernel sys) in
  let ft =
    match System.uthread_stats job with Some s -> s | None -> assert false
  in
  let makespan_ms = Time.span_to_ms elapsed in
  let completed = ft.Ft_core.completions in
  let events = Sa_engine.Sim.events (System.sim sys) in
  let events_per_s_wall = float_of_int events /. (wall_ms /. 1e3) in
  Printf.eprintf
    "scale: %d cpus, %d threads: %.1f ms simulated, %.0f ms wall, %d events \
     (%.2fM events/s wall)\n\
     %!"
    cpus completed makespan_ms wall_ms events (events_per_s_wall /. 1e6);
  R.Obj
    [
      ("cpus", Int cpus);
      (* threads forked, the root included *)
      ("threads", Int completed);
      (* simulated span, submit -> last completion *)
      ("makespan_ms", Float makespan_ms);
      ("throughput_per_s", Float (float_of_int completed /. (makespan_ms /. 1e3)));
      ("steals", Int ft.Ft_core.steals);
      ("upcalls", Int st.Kernel.upcalls);
      ("dispatches", Int ft.Ft_core.dispatches);
      ("reallocations", Int st.Kernel.reallocations);
      (* engine events fired (deterministic per schedule) *)
      ("events_total", Int events);
      (* host wall clock for the run (machine-dependent) *)
      ("wall_ms", Float wall_ms);
      ("events_per_s_wall", Float events_per_s_wall);
      ("program_steps", Int ft.Ft_core.program_steps);
      (* logical charge requests, and the charge events actually issued *)
      ("charge_segments", Int ft.Ft_core.charge_segments);
      ("charge_batches", Int ft.Ft_core.charge_batches);
      (* simulated ns burnt spinning on held cells *)
      ("cs_spin_ns", Int ft.Ft_core.cs_spin_ns);
      (* Section 3.3 critical-section recoveries *)
      ("cs_recoveries", Int ft.Ft_core.cs_recoveries);
    ]

let run_scale () =
  List.map (fun (cpus, threads) -> scale_one ~cpus ~threads) scale_configs

let scale_section ~name ~title rows =
  { R.name; kind = "scale"; title; data = R.Arr rows }

(* ------------------------------------------------------------------ *)
(* Serve mode: multi-tenant serving with tail-latency SLOs             *)
(* ------------------------------------------------------------------ *)

(* Pinned configuration: 24 tenants (8 of each class) on 64 processors —
   enough offered load that the space-sharing allocator must preempt, so
   the per-class SLO-violation split (priority-1 interactive tenants
   protected, priority-0 bursty/batch tenants absorbing the contention)
   is visible in the trajectory.  Deterministic: same seed, same JSON. *)

let serve_params =
  {
    Sa_workload.Server.mt_tenants = 24;
    mt_requests = 200;
    mt_classes = Sa_workload.Server.default_classes;
    mt_seed = 11;
    mt_cache_blocks = 0;
  }

let serve_cpus = 64

let serve_title =
  "Serve: multi-tenant serving, 24 tenants x 200 requests, 64 CPUs, \
   per-tenant tail latency vs SLO"

let run_serve () =
  let t0 = Unix.gettimeofday () in
  let s = E.serve ~params:serve_params ~cpus:serve_cpus ~tracing:false () in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Printf.eprintf "serve: %d tenants, %d cpus: %.1f ms simulated, %.0f ms wall\n%!"
    s.E.v_tenant_count s.E.v_cpus s.E.v_elapsed_ms wall_ms;
  s

(* ------------------------------------------------------------------ *)
(* Cluster mode: multi-machine serving over the modeled network        *)
(* ------------------------------------------------------------------ *)

(* Pinned configuration: 3 machines x 8 CPUs, 12 tenants placed with the
   deliberate skew Cluster.create applies (machine 2 starts empty), small
   per-tenant block universes so out-of-slice reads probe peers.  The
   trajectory must show at least one allocator migration and one remote
   cache hit — that is what BENCH_cluster.json pins. *)

module Cluster = Sa_cluster.Cluster

let cluster_params =
  {
    Cluster.default_params with
    Cluster.machines = 3;
    cpus = 8;
    tenants = 12;
    requests = 80;
    seed = 11;
    cache_blocks = 48;
  }

let cluster_title =
  "Cluster: 3 machines x 8 CPUs, 12 tenants x 80 requests, rebalancing \
   allocator + remote cache fetches"

let run_cluster () =
  let t0 = Unix.gettimeofday () in
  let cl = Cluster.create cluster_params in
  Cluster.run cl;
  let s = Cluster.summary cl in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Printf.eprintf
    "cluster: %d machines x %d cpus, %d tenants: %.1f ms simulated, %.0f ms \
     wall\n\
     %!"
    s.Cluster.cl_machines s.Cluster.cl_cpus s.Cluster.cl_tenants
    s.Cluster.cl_elapsed_ms wall_ms;
  s

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (wall clock)                              *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* One Test.make per paper table/figure: wall-clock cost of regenerating the
   artifact (smaller workloads so a quota fits several runs). *)
let paper_tests =
  let small = { Nbody.default_params with n_bodies = 60; steps = 2 } in
  Test.make_grouped ~name:"paper"
    [
      Test.make ~name:"table1" (Staged.stage (fun () -> E.table1 ~iters:20 ()));
      Test.make ~name:"table4" (Staged.stage (fun () -> E.table4 ~iters:20 ()));
      Test.make ~name:"table5"
        (Staged.stage (fun () -> E.table5 ~params:small ()));
      Test.make ~name:"figure1"
        (Staged.stage (fun () -> E.figure1 ~params:small ()));
      Test.make ~name:"figure2"
        (Staged.stage (fun () -> E.figure2 ~params:small ()));
      Test.make ~name:"upcall"
        (Staged.stage (fun () -> E.upcall_performance ~iters:20 ()));
    ]

let simulator_tests =
  let module Sim = Sa_engine.Sim in
  let module Time = Sa_engine.Time in
  let module Cpu = Sa_hw.Cpu in
  let module Buffer_cache = Sa_hw.Buffer_cache in
  Test.make_grouped ~name:"simulator"
    [
      Test.make ~name:"sim event cascade x1000"
        (Staged.stage (fun () ->
             let sim = Sim.create () in
             let n = ref 0 in
             let rec tick () =
               incr n;
               if !n < 1000 then ignore (Sim.schedule_after sim ~delay:10 tick)
             in
             ignore (Sim.schedule_after sim ~delay:10 tick);
             Sim.run sim));
      Test.make ~name:"cpu segment cycle x1000"
        (Staged.stage (fun () ->
             let sim = Sim.create () in
             let cpu = Cpu.create sim 0 in
             let n = ref 0 in
             let occupant = Cpu.Occupant { space = 0; detail = "bench" } in
             let rec seg () =
               incr n;
               if !n < 1000 then Cpu.begin_work cpu ~occupant ~length:(Time.us 1) seg
             in
             Cpu.begin_work cpu ~occupant ~length:(Time.us 1) seg;
             Sim.run sim));
      (* The idle-hysteresis path: 1000 empty slice boundaries, each
         re-armed inside the CPU, with no trace sink as in workload runs. *)
      Test.make ~name:"cpu spin boundary x1000"
        (Staged.stage (fun () ->
             let sim = Sim.create () in
             let cpu = Cpu.create sim 0 in
             let occupant = Cpu.Occupant { space = 0; detail = "bench" } in
             Cpu.begin_spin cpu ~occupant ~slice:(Time.us 1)
               ~length:(Time.us 1000)
               ~poll:(fun () -> false)
               ignore;
             Sim.run sim));
      (* The same spin with 64 other events pending at distinct instants
         past its end, the depth serve keeps: what each empty boundary's
         re-arm and firing cost in a populated event queue. *)
      Test.make ~name:"cpu spin boundary depth 64 x1000"
        (Staged.stage (fun () ->
             let sim = Sim.create () in
             for i = 1 to 64 do
               let at = Time.of_ns (Time.ms 2 + (i * 7_919)) in
               ignore (Sim.schedule sim ~at ignore)
             done;
             let cpu = Cpu.create sim 0 in
             let occupant = Cpu.Occupant { space = 0; detail = "bench" } in
             Cpu.begin_spin cpu ~occupant ~slice:(Time.us 1)
               ~length:(Time.us 1000)
               ~poll:(fun () -> false)
               ignore;
             Sim.run ~until:(Time.of_ns (Time.ms 1)) sim));
      Test.make ~name:"buffer cache access x1000"
        (Staged.stage (fun () ->
             let c = Buffer_cache.create ~capacity:64 in
             for i = 0 to 999 do
               match Buffer_cache.access c (i * 31 mod 128) with
               | Buffer_cache.Miss -> Buffer_cache.fill c (i * 31 mod 128)
               | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ()
             done));
      (* The whole Barnes-Hut run the N-body workload is costed from:
         Plummer bodies, seven tree builds and force phases, programs. *)
      Test.make ~name:"nbody prepare n=300"
        (Staged.stage (fun () ->
             ignore (Sa_workload.Nbody.prepare Sa_workload.Nbody.default_params)));
      Test.make ~name:"octree build n=500"
        (Staged.stage
           (let rng = Sa_engine.Rng.create 7 in
            let bodies = Barneshut.Nbody_sim.plummer rng ~n:500 in
            fun () -> ignore (Barneshut.Octree.build bodies)));
      Test.make ~name:"octree force n=500"
        (Staged.stage
           (let rng = Sa_engine.Rng.create 7 in
            let bodies = Barneshut.Nbody_sim.plummer rng ~n:500 in
            let tree = Barneshut.Octree.build bodies in
            fun () ->
              ignore
                (Barneshut.Octree.force_on tree ~theta:0.7 ~eps:0.05 bodies.(0))));
    ]

(* The event queue measured on the access patterns the simulator actually
   generates: monotone seqs, time advancing, cancel-heavy timer traffic.
   Most adds open an instant of their own (over 90% in serve, cluster and
   the N-body runs, about 90 pending in serve), which the distinct-instants
   row reproduces; the others keep a few events per instant, as fork-join
   does.  The steady-state variants reuse one queue across runs so the slab
   is warm — that is the configuration whose regressions matter. *)
let calq_bench =
  let module Calq = Sa_engine.Calq in
  Test.make_grouped ~name:"calq"
    [
      Test.make ~name:"add+pop cold x1000"
        (Staged.stage (fun () ->
             let q = Calq.create 0 in
             for i = 0 to 999 do
               ignore (Calq.add q ~key:(i * 7919 mod 1000) ~seq:i i)
             done;
             let rec drain () =
               match Calq.pop q with Some _ -> drain () | None -> ()
             in
             drain ()));
      Test.make ~name:"steady add+pop x1000"
        (Staged.stage
           (let q = Calq.create 0 in
            let seq = ref 0 in
            fun () ->
              (* key = seq/4: time advances with ~4 events per instant,
                 the simulator's same-instant FIFO fast path. *)
              for _ = 1 to 1000 do
                ignore (Calq.add q ~key:(!seq lsr 2) ~seq:!seq !seq);
                incr seq;
                ignore (Calq.pop_exn q)
              done));
      Test.make ~name:"steady distinct instants depth 64 x1000"
        (Staged.stage
           (let q = Calq.create 0 in
            let seq = ref 0 in
            let next () =
              (* A fresh key 1-10 us past the last pop. *)
              let key = Calq.last_key q + 1_000 + (!seq * 7_919 mod 9_000) in
              ignore (Calq.add q ~key ~seq:!seq !seq);
              incr seq
            in
            for _ = 1 to 64 do
              next ()
            done;
            fun () ->
              for _ = 1 to 1000 do
                ignore (Calq.pop_exn q);
                next ()
              done));
      Test.make ~name:"steady add+cancel churn x1000"
        (Staged.stage
           (let q = Calq.create 0 in
            let seq = ref 0 in
            fun () ->
              (* 3 of 4 timers cancelled before firing, like the kernel's
                 quantum timers under frequent rescheduling. *)
              for i = 0 to 999 do
                let h = Calq.add q ~key:(!seq lsr 2) ~seq:!seq !seq in
                incr seq;
                if i land 3 <> 0 then Calq.cancel q h
                else ignore (Calq.pop_exn q)
              done));
    ]

(* The compiled-program interpreter measured in isolation: arena-compile
   cost (with fork-child memoization over one shared leaf, and over the
   distinct leaves of a forkjoin root), the flat step loop's dispatch over
   an accumulate-and-yield body, and the sync-op fast path (uncontended
   acquire/release).  These interpreter runs are pinned to one CPU so the
   numbers track per-op interpreter overhead, not scheduling.  The spawn
   run forks 1,000 leaves onto 4 CPUs: the thread lifecycle (TCB
   creation, dispatch, steals, exit), whose per-fork allocation is the
   cost it tracks.  Gated by [micro --check] alongside the engine
   groups. *)
let program_bench =
  let module Program = Sa_program.Program in
  let module Time = Sa_engine.Time in
  let module System = Sa.System in
  let leaf =
    Program.Build.(
      to_program
        (let* () = compute (Time.us 1) in
         let* () = yield in
         compute (Time.us 1)))
  in
  (* A fresh value per call: [compile] returns its previous arena for the
     same program value, which would time a cache hit. *)
  let fanout () =
    Program.Build.(to_program (repeat 64 (fun _ -> fork_unit leaf)))
  in
  (* The root [perf]'s forkjoin submits on 64 CPUs: 64 branches, each
     forking its own leaf 156 times.  128 distinct shared children, twice
     the compile memo's capacity, so the memo must keep each child while
     it is still being forked or the arena triples. *)
  let forkjoin () =
    let branch _ =
      let leaf =
        Program.Build.(
          to_program
            (let* () = compute (Time.us 1) in
             let* () = yield in
             compute (Time.us 1)))
      in
      Program.Build.(to_program (repeat 156 (fun _ -> fork_unit leaf)))
    in
    Program.Build.(to_program (iter_list (List.init 64 branch) fork_unit))
  in
  let stepper =
    Program.Build.(
      to_program
        (repeat 250 (fun _ ->
             let* () = compute (Time.ns 100) in
             yield)))
  in
  let locker =
    let m = Program.Mutex.create ~name:"bench" () in
    Program.Build.(
      to_program
        (repeat 250 (fun _ -> critical m (compute (Time.ns 100)))))
  in
  let spawn =
    Program.Build.(to_program (repeat 1000 (fun _ -> fork_unit leaf)))
  in
  (* Fork 4000 children keeping their ids, then join them in fork order:
     each join finds its child in O(1).  A per-join scan of the forker's
     bindings makes this quadratic and fails the gate. *)
  let join_by_id =
    Program.Build.(
      to_program
        (let rec go i tids =
           if i = 4000 then iter_list (List.rev tids) join
           else
             let* tid = fork leaf in
             go (i + 1) (tid :: tids)
         in
         go 0 []))
  in
  let run_one ?(cpus = 1) prog () =
    let sys = System.create ~cpus () in
    ignore (System.submit sys ~backend:`Fastthreads_on_sa ~name:"micro" prog);
    System.run sys
  in
  Test.make_grouped ~name:"program"
    [
      Test.make ~name:"compile fanout-64"
        (Staged.stage (fun () -> ignore (Program.compile (fanout ()))));
      Test.make ~name:"compile forkjoin-64"
        (Staged.stage (fun () -> ignore (Program.compile (forkjoin ()))));
      Test.make ~name:"step dispatch yield x250"
        (Staged.stage (run_one stepper));
      Test.make ~name:"sync fast path x250" (Staged.stage (run_one locker));
      Test.make ~name:"fork-join spawn x1000"
        (Staged.stage (run_one ~cpus:4 spawn));
      Test.make ~name:"fork-join by id x4000"
        (Staged.stage (run_one ~cpus:4 join_by_id));
    ]

(* One processor-allocator pass on a settled 64-CPU machine whose 24
   address spaces each want 4 processors: every space already holds its
   target, so the pass moves nothing.  It should cost O(spaces); a return
   to per-pass policy lists or per-space scans of all 64 slots multiplies
   it past the gate.  Gated by [micro --check]. *)
let kernel_bench () =
  let module Kernel = Sa_kernel.Kernel in
  let module Kconfig = Sa_kernel.Kconfig in
  let module Sim = Sa_engine.Sim in
  let module Time = Sa_engine.Time in
  let sim = Sim.create () in
  let machine = Sa_hw.Machine.create sim ~cpus:64 in
  let k =
    Kernel.create sim machine Sa_hw.Cost_model.firefly_cvax
      { Kconfig.default with Kconfig.daemons = false }
  in
  for i = 0 to 23 do
    let handler delivery =
      let act = delivery.Kernel.uc_activation in
      let rec spin () = Kernel.sa_charge k act (Time.ms 1) spin in
      spin ()
    in
    let sp =
      Kernel.new_sa_space k ~name:(Printf.sprintf "s%d" i)
        ~on_upcall:handler ()
    in
    Kernel.sa_add_more_processors k sp 4
  done;
  Sim.run ~until:(Time.of_ns (Time.ms 5)) sim;
  Kernel.reallocate_now k;
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"realloc pass 24 spaces x 64 cpus"
        (Staged.stage (fun () -> Kernel.reallocate_now k));
    ]

let micro_estimates test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.sort compare
    (Hashtbl.fold
       (fun name result acc ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> (name, est) :: acc
         | Some _ | None -> acc)
       results [])

let run_micro () =
  print_newline ();
  print_endline (String.make 78 '-');
  print_endline "Bechamel micro-benchmarks (wall clock, ns per run)";
  print_endline (String.make 78 '-');
  List.iter
    (fun test ->
      List.iter
        (fun (name, est) -> Printf.printf "%-44s %14.1f ns/run\n" name est)
        (micro_estimates test))
    [ paper_tests; simulator_tests; calq_bench; program_bench; kernel_bench () ]

(* ------------------------------------------------------------------ *)
(* Micro regression gate                                               *)
(* ------------------------------------------------------------------ *)

(* [micro --record] writes per-benchmark ns/run baselines for the engine
   groups, each the median of three passes so that one noisy pass cannot
   set a row; [micro --check] re-measures once and fails (exit 1) when any
   gated benchmark exceeds its baseline by the tolerance, or has
   disappeared.
   Wall clock on shared CI runners is noisy, so the multiplier is wide:
   the gate exists to catch order-of-magnitude regressions — an
   accidental O(n) scan or a per-event allocation storm on the hot path —
   not single-digit drift. *)
let micro_gate_tolerance = 5.0
let micro_gate_file = "bench/MICRO_BASELINE.txt"

(* Hot-path groups only (engine, interpreter, allocator pass): the
   paper-table group re-runs whole simulations and its variance comes from
   workload content, which the digest gate already pins byte-for-byte. *)
let micro_gate_estimates () =
  micro_estimates simulator_tests
  @ micro_estimates calq_bench
  @ micro_estimates program_bench
  @ micro_estimates (kernel_bench ())
  |> List.sort compare

let micro_record () =
  let passes = List.init 3 (fun _ -> micro_gate_estimates ()) in
  let ests =
    List.map
      (fun (name, _) ->
        let runs =
          List.sort compare (List.filter_map (List.assoc_opt name) passes)
        in
        (name, List.nth runs (List.length runs / 2)))
      (List.hd passes)
  in
  let oc = open_out micro_gate_file in
  output_string oc
    "# Micro-benchmark baselines (ns/run), written by `bench/main.exe micro \
     --record`.\n";
  Printf.fprintf oc
    "# `micro --check` fails when a benchmark exceeds its baseline by more \
     than %.0fx\n\
     # (or vanishes); re-record on a quiet machine after intentional engine \
     changes.\n"
    micro_gate_tolerance;
  List.iter (fun (n, e) -> Printf.fprintf oc "%s\t%.1f\n" n e) ests;
  close_out oc;
  Printf.printf "recorded %d baselines to %s\n" (List.length ests)
    micro_gate_file

let micro_check () =
  let baselines =
    let ic = open_in micro_gate_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | "" -> go acc
      | line when line.[0] = '#' -> go acc
      | line -> (
          match String.index_opt line '\t' with
          | Some i ->
              let name = String.sub line 0 i in
              let v =
                float_of_string
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              go ((name, v) :: acc)
          | None -> go acc)
    in
    go []
  in
  let ests = micro_gate_estimates () in
  let failed = ref 0 in
  Printf.printf "%-44s %12s %12s %8s  gate\n" "benchmark" "baseline"
    "measured" "ratio";
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name ests with
      | None ->
          incr failed;
          Printf.printf "%-44s %12.1f %12s %8s  MISSING\n" name base "-" "-"
      | Some est ->
          let ratio = est /. base in
          let ok = ratio <= micro_gate_tolerance in
          if not ok then incr failed;
          Printf.printf "%-44s %12.1f %12.1f %7.2fx  %s\n" name base est
            ratio
            (if ok then "ok" else "FAIL"))
    baselines;
  if !failed > 0 then begin
    Printf.printf "%d micro-gate failure(s) (tolerance %.0fx)\n" !failed
      micro_gate_tolerance;
    exit 1
  end
  else
    Printf.printf "micro gate clean: %d benchmarks within %.0fx of baseline\n"
      (List.length baselines) micro_gate_tolerance


(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Every section the harness can run; [paper] is the default set. *)
let registry =
  paper
  @ [
      entry "serve" serve_title R.serve run_serve;
      entry "cluster" cluster_title R.cluster run_cluster;
      entry "scale" scale_title scale_section run_scale;
    ]

(* What a command-line name stands for: registry sections, or [None] for
   the micro-benchmarks, which have no JSON form. *)
let lookup ~json name =
  let paper = List.map (fun (_, run) -> Some run) paper in
  match name with
  | "paper" -> paper
  | "all" -> if json then paper else paper @ [ None ]
  | "micro" when not json -> [ None ]
  | name -> (
      match List.assoc_opt name registry with
      | Some run -> [ Some run ]
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s, paper, %sall\n" name
            (String.concat ", " (List.map fst registry))
            (if json then "" else "micro, ");
          exit 2)

let () =
  (* A roomier minor heap (2M words = 16 MB) keeps short-lived per-event
     values — closures, trace details, list spines — from being promoted
     mid-run; space_overhead 200 halves major-GC work on what does
     survive.  This shapes wall-clock numbers only, never simulated
     results. *)
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 2 * 1024 * 1024;
      space_overhead = 200;
    };
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  match List.filter (fun a -> a <> "--json") args with
  | [ "micro"; "--record" ] when not json -> micro_record ()
  | [ "micro"; "--check" ] when not json -> micro_check ()
  | names ->
      let steps =
        List.concat_map (lookup ~json) (if names = [] then [ "paper" ] else names)
      in
      if json then
        print_string (R.json (List.filter_map (Option.map (fun run -> run ())) steps))
      else
        List.iter
          (function
            | Some run -> print_string (R.text (run ())) | None -> run_micro ())
          steps
