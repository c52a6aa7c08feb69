(** Experiment runners: one per table and figure of the paper's evaluation
    (Section 5), plus the ablations motivated by Sections 4.1–4.3.

    Every runner builds fresh simulated systems, executes the workloads,
    and returns structured results carrying both the measured value and the
    paper's published value where one exists.  All runs are deterministic. *)

module Time = Sa_engine.Time

val stamp_latency :
  ?costs:Sa_hw.Cost_model.t ->
  ?name:string ->
  Sa_kernel.Kconfig.t ->
  Sa.System.backend ->
  Sa_program.Program.t ->
  (Sa_workload.Recorder.t -> 'a) ->
  'a
(** [stamp_latency kconfig backend prog read] runs one latency benchmark
    as in the paper's Table 1 methodology: [prog] runs as job [name]
    (default ["bench"]) on a one-processor system under [costs] (default
    {!Sa_hw.Cost_model.firefly_cvax}) and [kconfig] with the kernel daemons
    silenced, and [read] turns the recorded stamps into the result. *)

type latency_row = {
  system : string;
  null_fork_us : float;
  signal_wait_us : float;
  paper_null_fork : float option;
  paper_signal_wait : float option;
}

val table1 : ?iters:int -> unit -> latency_row list
(** Table 1: FastThreads on Topaz threads / Topaz threads / Ultrix
    processes, on one processor. *)

val table4 : ?iters:int -> unit -> latency_row list
(** Table 4: Table 1 plus FastThreads on Scheduler Activations. *)

type speedup_point = { processors : int; speedup : float }

type speedup_series = { series : string; points : speedup_point list }

val figure1 : ?params:Sa_workload.Nbody.params -> unit -> speedup_series list
(** Figure 1: N-body speedup vs number of processors (1–6), 100% memory,
    for Topaz threads, original FastThreads and new FastThreads. *)

type exec_time_point = { memory_percent : int; exec_time_s : float }

type exec_time_series = { io_series : string; io_points : exec_time_point list }

val figure2 : ?params:Sa_workload.Nbody.params -> unit -> exec_time_series list
(** Figure 2: N-body execution time vs % of memory available, 6 processors. *)

type multiprog_row = {
  mp_system : string;
  mp_speedup : float;
  mp_paper : float option;
}

val table5 : ?params:Sa_workload.Nbody.params -> unit -> multiprog_row list
(** Table 5: per-job speedup with two N-body jobs multiprogrammed on six
    processors (maximum possible: 3.0). *)

type upcall_row = { u_config : string; u_signal_wait_us : float; u_paper : float option }

val upcall_performance : ?iters:int -> unit -> upcall_row list
(** Section 5.2: Signal-Wait forced through the kernel on scheduler
    activations — untuned (paper: 2.4 ms) and tuned (commensurate with
    Topaz kernel threads, 441 us), plus the Topaz reference. *)

type ablation_row = { a_label : string; a_value : float; a_unit : string }

val ablation_critical_sections : ?iters:int -> unit -> ablation_row list
(** Section 5.1: latency benchmarks with critical sections marked by
    copies (the preset's zero [ut_critical_flag]) vs an explicit flag
    charged 2 us per crossing (paper: Null Fork 49 us, Signal-Wait
    48 us). *)

val ablation_hysteresis :
  ?params:Sa_workload.Nbody.params -> spins_ms:int list -> unit -> ablation_row list
(** Section 4.2: idle-processor hysteresis vs processor re-allocations and
    run time. *)

val ablation_activation_pooling :
  ?iters:int -> unit -> ablation_row list
(** Section 4.3: discarded-activation recycling on/off, measured on the
    upcall-intensive kernel Signal-Wait. *)

val ablation_remainder_rotation :
  ?params:Sa_workload.Nbody.params -> unit -> ablation_row list
(** Section 4.1: time-slicing of the leftover processor when the division
    is uneven — fairness between two jobs on an odd machine. *)

val figure2_disk_contention :
  ?params:Sa_workload.Nbody.params -> unit -> exec_time_series list
(** Figure 2 re-run with a queued disk instead of the paper's fixed 50 ms
    block, validating its remark that results were "qualitatively similar
    when we took contention for the disk into account": the ordering
    (original FastThreads worst, modified FastThreads best) must survive
    disk queueing. *)

val allocator_fairness :
  ?params:Sa_workload.Nbody.params -> unit -> ablation_row list
(** Two identical scheduler-activation jobs on six processors: integrated
    processor-seconds received by each address space (Section 4.1's
    space-sharing should split them nearly evenly), with remainder rotation
    on a five-processor machine as the uneven case. *)

val space_priority : ?params:Sa_workload.Nbody.params -> unit -> ablation_row list
(** Section 4.1: the allocator respects address-space priorities — a
    high-priority job receives its full demand while an equal-demand
    low-priority job gets the leftovers. *)

type server_row = {
  s_system : string;
  s_mean_us : float;
  s_p95_us : float;
  s_p99_us : float;
}

val server_latency :
  ?params:Sa_workload.Server.params -> ?cpus:int -> unit -> server_row list
(** Open-arrival server: response-time statistics per threading backend.
    Original FastThreads loses a virtual processor to every kernel block
    (listener waits and handler I/O alike), so its tail latency inflates;
    scheduler activations keep every processor busy. *)

type serve_tenant_row = {
  v_tenant : string;  (** e.g. ["t03-interactive"] *)
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
  v_grants : int;  (** processors granted to this tenant's address space *)
  v_preempts : int;  (** processors preempted from it *)
  v_cpu_seconds : float;
  v_program_steps : int;  (** interpreter operations executed *)
  v_charge_segments : int;  (** logical charge requests *)
  v_charge_batches : int;  (** charge events actually issued *)
}

type serve_summary = {
  v_cpus : int;
  v_tenant_count : int;
  v_requests_total : int;
  v_rows : serve_tenant_row list;
  v_upcalls : int;
  v_preemptions : int;
  v_reallocations : int;
  v_elapsed_ms : float;  (** slowest tenant's wall-clock *)
}

val serve :
  ?params:Sa_workload.Server.mt_params ->
  ?cpus:int ->
  ?tracing:bool ->
  unit ->
  serve_summary
(** Multi-tenant serving under scheduler activations: every tenant is an
    address space running {!Sa_workload.Server.tenant_program} on the
    FastThreads-on-SA backend, all competing for [cpus] (default 64)
    through the space-sharing allocator.  Reports per-tenant tail latency
    against each class's SLO plus the allocator's per-tenant grant and
    preemption counts.  Deterministic in [params.mt_seed].  [tracing]
    (default [true]) sets the trace's recording switch; no sink is
    registered, so either way nothing is traced and results are
    identical. *)

val preemption_protocol : unit -> ablation_row list
(** Section 6 comparison: how long a newly arrived high-priority job waits
    for its first processor under (a) the paper's immediate stop-and-upcall,
    (b) the Psyche/Symunix warning protocol against an uncooperative
    (coarse-grained) incumbent — the full grace period, i.e. the priority
    violation — and (c) the warning protocol against a cooperative
    fine-grained incumbent. *)

val modern_retrospective : unit -> ablation_row list
(** 2020s retrospective: the same systems under {!Sa_hw.Cost_model.modern_x86}
    (nanosecond user-level operations, microsecond kernel threads, 100 us
    NVMe I/O) and a proportionally finer-grained N-body workload.  The
    paper's central ratio — user-level thread management is 1–2 orders of
    magnitude cheaper than kernel threads — has {e grown} since 1991, and
    the Figure 1 shape (kernel threads flatten, user-level systems scale)
    reappears at the finer granularity. *)
