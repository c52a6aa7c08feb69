(* Benchmark harness.

   Two layers:

   1. The paper harness: regenerates every table and figure of the paper's
      evaluation section (Tables 1/4/5, Figures 1/2, the Section 5.2 upcall
      measurements) plus the design-choice ablations, printing measured
      values next to the published ones.  These run in simulated time and
      are deterministic.  With --json the same results are emitted as one
      JSON object on stdout (machine-readable, for recording BENCH_*.json
      trajectories across commits).

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
     bench/main.exe --json [NAMES]  paper harness (or NAMES) as JSON
     bench/main.exe --json scale    scale stress as JSON (wall time on stderr)
     bench/main.exe --json serve    serving SLO report as JSON (deterministic)
     bench/main.exe cluster         3-machine cluster serving run
     bench/main.exe --json cluster  cluster run as JSON (deterministic) *)

module E = Sa_metrics.Experiments
module R = Sa_metrics.Report
module Nbody = Sa_workload.Nbody

(* ------------------------------------------------------------------ *)
(* Paper experiments as typed results                                  *)
(* ------------------------------------------------------------------ *)

type result =
  | Latency of E.latency_row list
  | Speedup of E.speedup_series list
  | Exec_time of E.exec_time_series list
  | Multiprog of E.multiprog_row list
  | Upcalls of E.upcall_row list
  | Ablation of E.ablation_row list
  | Server of E.server_row list

let experiments : (string * string * (unit -> result)) list =
  [
    ( "table1",
      "Table 1: Thread Operation Latencies (usec)",
      fun () -> Latency (E.table1 ()) );
    ( "table4",
      "Table 4: Thread Operation Latencies (usec), with Scheduler Activations",
      fun () -> Latency (E.table4 ()) );
    ( "figure1",
      "Figure 1: Speedup of N-Body Application vs. Number of Processors, \
       100% of Memory Available",
      fun () -> Speedup (E.figure1 ()) );
    ( "figure2",
      "Figure 2: Execution Time of N-Body Application vs. Amount of \
       Available Memory, 6 Processors",
      fun () -> Exec_time (E.figure2 ()) );
    ( "table5",
      "Table 5: Speedup for N-Body Application, Multiprogramming Level = 2, \
       6 Processors, 100% of Memory Available",
      fun () -> Multiprog (E.table5 ()) );
    ( "upcall",
      "Section 5.2: Upcall Performance (Signal-Wait through the kernel)",
      fun () -> Upcalls (E.upcall_performance ()) );
    ( "ablation-critical",
      "Ablation (S5.1/S4.3): critical-section marking strategy, latency \
       impact",
      fun () -> Ablation (E.ablation_critical_sections ()) );
    ( "ablation-hysteresis",
      "Ablation (S4.2): idle-processor hysteresis before reallocation",
      fun () -> Ablation (E.ablation_hysteresis ~spins_ms:[ 0; 1; 5; 20 ] ())
    );
    ( "ablation-pool",
      "Ablation (S4.3): discarded-scheduler-activation recycling",
      fun () -> Ablation (E.ablation_activation_pooling ()) );
    ( "ablation-rotation",
      "Ablation (S4.1): time-slicing the remainder processor between equal \
       jobs (5 CPUs, 2 jobs)",
      fun () -> Ablation (E.ablation_remainder_rotation ()) );
    ( "ablation-disk",
      "Ablation (S5.3): Figure 2 with a queued disk (contention) instead of \
       the fixed 50 ms block",
      fun () -> Exec_time (E.figure2_disk_contention ()) );
    ( "server",
      "Extension: open-arrival server response times (4 CPUs, 200 requests, \
       80% do 20 ms I/O)",
      fun () -> Server (E.server_latency ()) );
    ( "ablation-warning",
      "Related-work comparison (S6): immediate stop-and-upcall vs the \
       Psyche/Symunix warning protocol (high-priority grant latency)",
      fun () -> Ablation (E.preemption_protocol ()) );
    ( "retrospective",
      "Retrospective: the same systems under 2020s costs (ns-scale user \
       ops, us-scale kernel ops, NVMe I/O) and 1000x finer-grained tasks",
      fun () -> Ablation (E.modern_retrospective ()) );
    ( "ablation-fairness",
      "Ablation (S4.1): allocator fairness in processor-seconds",
      fun () -> Ablation (E.allocator_fairness ()) );
    ( "ablation-priority",
      "Ablation (S4.1): address-space priorities in the allocator",
      fun () -> Ablation (E.space_priority ()) );
  ]

let print_result ~title = function
  | Latency rows -> R.print_latency_table ~title rows
  | Speedup series -> R.print_speedup_series ~title series
  | Exec_time series -> R.print_exec_time_series ~title series
  | Multiprog rows -> R.print_multiprog ~title rows
  | Upcalls rows -> R.print_upcalls ~title rows
  | Ablation rows -> R.print_ablation ~title rows
  | Server rows -> R.print_server ~title rows

(* ------------------------------------------------------------------ *)
(* JSON encoding (hand-rolled: the vocabulary is a handful of rows)    *)
(* ------------------------------------------------------------------ *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf v =
  if Float.is_nan v || Float.abs v = Float.infinity then
    Buffer.add_string buf "null"
  else Buffer.add_string buf (Printf.sprintf "%.6g" v)

let add_fields buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, add_v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_v buf)
    fields;
  Buffer.add_char buf '}'

let add_list buf add_item items =
  Buffer.add_char buf '[';
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      add_item buf item)
    items;
  Buffer.add_char buf ']'

(* Value adders for [add_fields]. *)
let str s buf = add_json_string buf s
let fl v buf = add_float buf v
let int n buf = Buffer.add_string buf (string_of_int n)
let bool v buf = Buffer.add_string buf (if v then "true" else "false")

let fl_opt v buf =
  match v with None -> Buffer.add_string buf "null" | Some v -> add_float buf v

(* Print one JSON document of [(mode, kind, title, data)] sections, each
   as ["<mode>":{"kind":..,"title":..,"data":..}]. *)
let print_sections sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (mode, kind, title, data) ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_json_string buf mode;
      Buffer.add_char buf ':';
      add_fields buf [ ("kind", str kind); ("title", str title); ("data", data) ])
    sections;
  Buffer.add_string buf "\n}\n";
  print_string (Buffer.contents buf)

let add_result buf result =
  match result with
  | Latency rows ->
      add_list buf
        (fun buf (r : E.latency_row) ->
          add_fields buf
            [
              ("system", str r.system);
              ("null_fork_us", fl r.null_fork_us);
              ("signal_wait_us", fl r.signal_wait_us);
              ("paper_null_fork", fl_opt r.paper_null_fork);
              ("paper_signal_wait", fl_opt r.paper_signal_wait);
            ])
        rows
  | Speedup series ->
      add_list buf
        (fun buf (s : E.speedup_series) ->
          add_fields buf
            [
              ("series", str s.series);
              ( "points",
                fun buf ->
                  add_list buf
                    (fun buf (p : E.speedup_point) ->
                      add_fields buf
                        [
                          ("processors", int p.processors);
                          ("speedup", fl p.speedup);
                        ])
                    s.points );
            ])
        series
  | Exec_time series ->
      add_list buf
        (fun buf (s : E.exec_time_series) ->
          add_fields buf
            [
              ("series", str s.io_series);
              ( "points",
                fun buf ->
                  add_list buf
                    (fun buf (p : E.exec_time_point) ->
                      add_fields buf
                        [
                          ("memory_percent", int p.memory_percent);
                          ("exec_time_s", fl p.exec_time_s);
                        ])
                    s.io_points );
            ])
        series
  | Multiprog rows ->
      add_list buf
        (fun buf (r : E.multiprog_row) ->
          add_fields buf
            [
              ("system", str r.mp_system);
              ("speedup", fl r.mp_speedup);
              ("paper", fl_opt r.mp_paper);
            ])
        rows
  | Upcalls rows ->
      add_list buf
        (fun buf (r : E.upcall_row) ->
          add_fields buf
            [
              ("config", str r.u_config);
              ("signal_wait_us", fl r.u_signal_wait_us);
              ("paper", fl_opt r.u_paper);
            ])
        rows
  | Ablation rows ->
      add_list buf
        (fun buf (r : E.ablation_row) ->
          add_fields buf
            [
              ("label", str r.a_label);
              ("value", fl r.a_value);
              ("unit", str r.a_unit);
            ])
        rows
  | Server rows ->
      add_list buf
        (fun buf (r : E.server_row) ->
          add_fields buf
            [
              ("system", str r.s_system);
              ("mean_us", fl r.s_mean_us);
              ("p95_us", fl r.s_p95_us);
              ("p99_us", fl r.s_p99_us);
            ])
        rows

let result_kind = function
  | Latency _ -> "latency"
  | Speedup _ -> "speedup"
  | Exec_time _ -> "exec-time"
  | Multiprog _ -> "multiprog"
  | Upcalls _ -> "upcalls"
  | Ablation _ -> "ablation"
  | Server _ -> "server"

let print_json selected =
  print_sections
    (List.map
       (fun (name, title, run) ->
         let result = run () in
         (name, result_kind result, title, fun buf -> add_result buf result))
       selected)

(* ------------------------------------------------------------------ *)
(* Scale mode: large machines, many threads                            *)
(* ------------------------------------------------------------------ *)

(* Not a paper experiment: a fork-join stress run on 32/64-processor
   machines with ~10k threads, exercising the kernel paths that must stay
   O(1) (dispatch tables, allocation cursor, idle census) and the
   user-level ready queues.  Deterministic in simulated time; wall-clock
   is reported on stderr so the JSON stays reproducible. *)

type scale_row = {
  sc_cpus : int;
  sc_threads : int;  (* threads forked (the root included) *)
  sc_makespan_ms : float;  (* simulated span, submit -> last completion *)
  sc_throughput : float;  (* completions per simulated second *)
  sc_steals : int;
  sc_upcalls : int;
  sc_dispatches : int;
  sc_reallocations : int;
  sc_events : int;  (* engine events fired (deterministic per schedule) *)
  sc_wall_ms : float;  (* host wall-clock for the run (machine-dependent) *)
  sc_events_per_s_wall : float;  (* engine event throughput against wall *)
  sc_program_steps : int;  (* interpreter operations executed *)
  sc_charge_segments : int;  (* logical charge requests *)
  sc_charge_batches : int;  (* charge events actually issued *)
  sc_spin_ns : int;  (* simulated ns burnt spinning on held cells *)
  sc_recoveries : int;  (* Section 3.3 critical-section recoveries *)
}

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
  (* Throughput run: nothing reads the trace, so recording it would only
     tax the measurement. *)
  Sa_engine.Trace.set_recording (Sa_engine.Sim.trace (System.sim sys)) false;
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
  {
    sc_cpus = cpus;
    sc_threads = completed;
    sc_makespan_ms = makespan_ms;
    sc_throughput = float_of_int completed /. (makespan_ms /. 1e3);
    sc_steals = ft.Ft_core.steals;
    sc_upcalls = st.Kernel.upcalls;
    sc_dispatches = ft.Ft_core.dispatches;
    sc_reallocations = st.Kernel.reallocations;
    sc_events = events;
    sc_wall_ms = wall_ms;
    sc_events_per_s_wall = events_per_s_wall;
    sc_program_steps = ft.Ft_core.program_steps;
    sc_charge_segments = ft.Ft_core.charge_segments;
    sc_charge_batches = ft.Ft_core.charge_batches;
    sc_spin_ns = ft.Ft_core.cs_spin_ns;
    sc_recoveries = ft.Ft_core.cs_recoveries;
  }

let run_scale () =
  List.map (fun (cpus, threads) -> scale_one ~cpus ~threads) scale_configs

let print_scale_json rows =
  print_sections
    [
      ( "scale",
        "scale",
        scale_title,
        fun buf ->
          add_list buf
            (fun buf r ->
              add_fields buf
                [
                  ("cpus", int r.sc_cpus);
                  ("threads", int r.sc_threads);
                  ("makespan_ms", fl r.sc_makespan_ms);
                  ("throughput_per_s", fl r.sc_throughput);
                  ("steals", int r.sc_steals);
                  ("upcalls", int r.sc_upcalls);
                  ("dispatches", int r.sc_dispatches);
                  ("reallocations", int r.sc_reallocations);
                  ("events_total", int r.sc_events);
                  ("wall_ms", fl r.sc_wall_ms);
                  ("events_per_s_wall", fl r.sc_events_per_s_wall);
                  ("program_steps", int r.sc_program_steps);
                  ("charge_segments", int r.sc_charge_segments);
                  ("charge_batches", int r.sc_charge_batches);
                  ("cs_spin_ns", int r.sc_spin_ns);
                  ("cs_recoveries", int r.sc_recoveries);
                ])
            rows );
    ]

let print_scale_text rows =
  Printf.printf "\n%s\n%s\n" scale_title (String.make 78 '-');
  Printf.printf "%6s %8s %12s %14s %8s %8s %10s %7s %9s %8s %11s %9s %9s %7s\n"
    "cpus" "threads" "makespan_ms" "thr/sim-sec" "steals" "upcalls"
    "dispatches" "realloc" "events" "wall_ms" "ev/s-wall" "steps" "segments"
    "batch%";
  List.iter
    (fun r ->
      Printf.printf
        "%6d %8d %12.2f %14.0f %8d %8d %10d %7d %9d %8.1f %11.0f %9d %9d %7.1f\n"
        r.sc_cpus r.sc_threads r.sc_makespan_ms r.sc_throughput r.sc_steals
        r.sc_upcalls r.sc_dispatches r.sc_reallocations r.sc_events r.sc_wall_ms
        r.sc_events_per_s_wall r.sc_program_steps r.sc_charge_segments
        (100.
        *. float_of_int r.sc_charge_batches
        /. float_of_int (max 1 r.sc_charge_segments)))
    rows

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

let print_serve_json (s : E.serve_summary) =
  print_sections
    [
      ( "serve",
        "serve",
        serve_title,
        fun buf ->
          add_fields buf
            [
              ("cpus", int s.E.v_cpus);
              ("tenants", int s.E.v_tenant_count);
              ("requests_total", int s.E.v_requests_total);
              ("upcalls", int s.E.v_upcalls);
              ("preemptions", int s.E.v_preemptions);
              ("reallocations", int s.E.v_reallocations);
              ("elapsed_ms", fl s.E.v_elapsed_ms);
              ( "per_tenant",
                fun buf ->
                  add_list buf
                    (fun buf (r : E.serve_tenant_row) ->
                      add_fields buf
                        [
                          ("tenant", str r.E.v_tenant);
                          ("class", str r.E.v_class);
                          ("completed", int r.E.v_completed);
                          ("mean_us", fl r.E.v_mean_us);
                          ("p50_us", fl r.E.v_p50_us);
                          ("p99_us", fl r.E.v_p99_us);
                          ("p999_us", fl r.E.v_p999_us);
                          ("max_us", fl r.E.v_max_us);
                          ("slo_ms", fl r.E.v_slo_ms);
                          ("violations", int r.E.v_violations);
                          ("violation_frac", fl r.E.v_violation_frac);
                          ("makespan_ms", fl r.E.v_makespan_ms);
                          ("grants", int r.E.v_grants);
                          ("preempts", int r.E.v_preempts);
                          ("cpu_seconds", fl r.E.v_cpu_seconds);
                          ("program_steps", int r.E.v_program_steps);
                          ("charge_segments", int r.E.v_charge_segments);
                          ("charge_batches", int r.E.v_charge_batches);
                        ])
                    s.E.v_rows );
            ] );
    ]

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

let print_cluster_json (s : Cluster.summary) =
  print_sections
    [
      ( "cluster",
        "cluster",
        cluster_title,
        fun buf ->
          add_fields buf
            [
              ("machines", int s.Cluster.cl_machines);
              ("cpus_per_machine", int s.Cluster.cl_cpus);
              ("tenants", int s.Cluster.cl_tenants);
              ("requests_total", int s.Cluster.cl_requests_total);
              ("migrations", int s.Cluster.cl_migrations);
              ("evacuations", int s.Cluster.cl_evacuations);
              ("crashes", int s.Cluster.cl_crashes);
              ("partitions", int s.Cluster.cl_partitions);
              ("remote_hits", int s.Cluster.cl_remote_hits);
              ("remote_fallbacks", int s.Cluster.cl_remote_fallbacks);
              ("net_messages", int s.Cluster.cl_net.Sa_cluster.Net.messages);
              ("net_bytes", int s.Cluster.cl_net.Sa_cluster.Net.bytes);
              ("net_drops", int s.Cluster.cl_net.Sa_cluster.Net.drops);
              ( "alloc_summaries",
                int s.Cluster.cl_alloc.Sa_cluster.Cluster_alloc.summaries );
              ( "alloc_commands",
                int s.Cluster.cl_alloc.Sa_cluster.Cluster_alloc.commands );
              ( "alloc_rebalances",
                int s.Cluster.cl_alloc.Sa_cluster.Cluster_alloc.rebalances );
              ("elapsed_ms", fl s.Cluster.cl_elapsed_ms);
              ("completed_all", bool s.Cluster.cl_completed_all);
              ( "per_machine",
                fun buf ->
                  add_list buf
                    (fun buf (r : Cluster.machine_row) ->
                      add_fields buf
                        [
                          ("machine", int r.Cluster.m_id);
                          ("alive", bool r.Cluster.m_alive);
                          ("tenants_final", int r.Cluster.m_tenants_final);
                          ("upcalls", int r.Cluster.m_upcalls);
                          ("preemptions", int r.Cluster.m_preemptions);
                          ("reallocations", int r.Cluster.m_reallocations);
                          ("migs_in", int r.Cluster.m_migs_in);
                          ("migs_out", int r.Cluster.m_migs_out);
                          ("remote_hits", int r.Cluster.m_remote_hits);
                          ( "remote_fallbacks",
                            int r.Cluster.m_remote_fallbacks );
                          ("util", fl r.Cluster.m_util);
                        ])
                    s.Cluster.cl_machine_rows );
              ( "per_tenant",
                fun buf ->
                  add_list buf
                    (fun buf (r : Cluster.tenant_row) ->
                      add_fields buf
                        [
                          ("tenant", int r.Cluster.c_tenant);
                          ("class", str r.Cluster.c_class);
                          ("home0", int r.Cluster.c_home0);
                          ("home", int r.Cluster.c_home);
                          ("completed", int r.Cluster.c_completed);
                          ("p50_us", fl r.Cluster.c_p50_us);
                          ("p99_us", fl r.Cluster.c_p99_us);
                          ("p999_us", fl r.Cluster.c_p999_us);
                          ("violations", int r.Cluster.c_violations);
                          ("slo_ms", fl r.Cluster.c_slo_ms);
                        ])
                    s.Cluster.cl_tenant_rows );
            ] );
    ]

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
         re-armed inside the CPU, traced off as in workload runs. *)
      Test.make ~name:"cpu spin boundary x1000"
        (Staged.stage (fun () ->
             let sim = Sim.create () in
             Sa_engine.Trace.set_recording (Sim.trace sim) false;
             let cpu = Cpu.create sim 0 in
             let occupant = Cpu.Occupant { space = 0; detail = "bench" } in
             Cpu.begin_spin cpu ~occupant ~slice:(Time.us 1)
               ~length:(Time.us 1000)
               ~poll:(fun () -> false)
               ignore;
             Sim.run sim));
      Test.make ~name:"buffer cache access x1000"
        (Staged.stage (fun () ->
             let c = Buffer_cache.create ~capacity:64 in
             for i = 0 to 999 do
               match Buffer_cache.access c (i * 31 mod 128) with
               | Buffer_cache.Miss -> Buffer_cache.fill c (i * 31 mod 128)
               | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ()
             done));
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

(* The calendar queue measured on the access patterns the simulator
   actually generates: monotone seqs, time mostly advancing, a few events
   per instant, cancel-heavy timer traffic.  The steady-state variants
   reuse one queue across runs so the slab is warm — that is the
   configuration whose regressions matter. *)
let calq_bench =
  let module Calq = Sa_engine.Calq in
  Test.make_grouped ~name:"calq"
    [
      Test.make ~name:"add+pop cold x1000"
        (Staged.stage (fun () ->
             let q = Calq.create () in
             for i = 0 to 999 do
               ignore (Calq.add q ~key:(i * 7919 mod 1000) ~seq:i i)
             done;
             let rec drain () =
               match Calq.pop q with Some _ -> drain () | None -> ()
             in
             drain ()));
      Test.make ~name:"steady add+pop x1000"
        (Staged.stage
           (let q = Calq.create () in
            let seq = ref 0 in
            fun () ->
              (* key = seq/4: time advances with ~4 events per instant,
                 the simulator's same-instant FIFO fast path. *)
              for _ = 1 to 1000 do
                ignore (Calq.add q ~key:(!seq lsr 2) ~seq:!seq !seq);
                incr seq;
                ignore (Calq.pop_exn q)
              done));
      Test.make ~name:"steady add+cancel churn x1000"
        (Staged.stage
           (let q = Calq.create () in
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
   cost (with fork-child memoization over a shared leaf), the flat step
   loop's dispatch over an accumulate-and-yield body, and the sync-op fast
   path (uncontended acquire/release).  These interpreter runs are pinned
   to one CPU so the numbers track per-op interpreter overhead, not
   scheduling.  The spawn run forks 1,000 leaves onto 4 CPUs: the thread
   lifecycle (TCB creation, dispatch, steals, exit), whose per-fork
   allocation is the cost it tracks.  Gated by [micro --check] alongside
   the engine groups. *)
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
  let fanout =
    Program.Build.(to_program (repeat 64 (fun _ -> fork_unit leaf)))
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
  let run_one ?(cpus = 1) prog () =
    let sys = System.create ~cpus () in
    Sa_engine.Trace.set_recording (Sa_engine.Sim.trace (System.sim sys)) false;
    ignore (System.submit sys ~backend:`Fastthreads_on_sa ~name:"micro" prog);
    System.run sys
  in
  Test.make_grouped ~name:"program"
    [
      Test.make ~name:"compile fanout-64"
        (Staged.stage (fun () -> ignore (Program.compile fanout)));
      Test.make ~name:"step dispatch yield x250"
        (Staged.stage (run_one stepper));
      Test.make ~name:"sync fast path x250" (Staged.stage (run_one locker));
      Test.make ~name:"fork-join spawn x1000"
        (Staged.stage (run_one ~cpus:4 spawn));
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
  Sa_engine.Trace.set_recording (Sim.trace sim) false;
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
        ~client:{ Kernel.on_upcall = handler } ()
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
   groups; [micro --check] re-measures and fails (exit 1) when any gated
   benchmark exceeds its baseline by the tolerance, or has disappeared.
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
  let ests = micro_gate_estimates () in
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

let run_paper () =
  List.iter (fun (_, title, run) -> print_result ~title (run ())) experiments

let find_experiment name =
  List.find_opt (fun (n, _, _) -> n = name) experiments

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
  let args = List.filter (fun a -> a <> "--json") args in
  if json then begin
    match args with
    | [ "scale" ] -> print_scale_json (run_scale ())
    | [ "serve" ] -> print_serve_json (run_serve ())
    | [ "cluster" ] -> print_cluster_json (run_cluster ())
    | _ ->
    let selected =
      match args with
      | [] | [ "paper" ] | [ "all" ] -> experiments
      | names ->
          List.map
            (fun name ->
              match find_experiment name with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %S; known: %s\n" name
                    (String.concat ", "
                       (List.map (fun (n, _, _) -> n) experiments));
                  exit 2)
            names
    in
    print_json selected
  end
  else
    match args with
    | [] -> run_paper ()
    | [ "micro"; "--record" ] -> micro_record ()
    | [ "micro"; "--check" ] -> micro_check ()
    | args ->
        List.iter
          (fun a ->
            match a with
            | "all" ->
                run_paper ();
                run_micro ()
            | "paper" -> run_paper ()
            | "micro" -> run_micro ()
            | "scale" -> print_scale_text (run_scale ())
            | "serve" ->
                R.print_serve ~title:serve_title (run_serve ())
            | "cluster" ->
                R.print_cluster ~title:cluster_title (run_cluster ())
            | name -> (
                match find_experiment name with
                | Some (_, title, run) -> print_result ~title (run ())
                | None ->
                    Printf.eprintf
                      "unknown experiment %S; known: %s, paper, micro, all\n"
                      name
                      (String.concat ", "
                         (List.map (fun (n, _, _) -> n) experiments));
                    exit 2))
          args
