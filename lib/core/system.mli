(** Top-level facade: a simulated Firefly-class multiprocessor, its kernel,
    and the jobs running on it.

    A {!t} bundles one simulation clock, one machine, and one kernel.  Jobs
    — thread programs plus a threading backend — are submitted to it and
    run concurrently under the kernel's processor management.  The four
    backends are the four systems compared throughout the paper's
    evaluation:

    - [`Fastthreads_on_sa] — modified FastThreads on scheduler activations
      (requires a kernel in [Explicit_allocation] mode);
    - [`Fastthreads_on_kthreads vps] — original FastThreads multiplexed on
      [vps] Topaz kernel threads;
    - [`Topaz_kthreads] — every program thread is a kernel thread;
    - [`Ultrix_processes] — every program thread is a heavyweight process.

    Example:
    {[
      let sys = System.create ~cpus:6 () in
      let job =
        System.submit sys ~backend:`Fastthreads_on_sa ~name:"app" program
      in
      System.run sys;
      match System.elapsed job with Some d -> ... | None -> ...
    ]} *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Program = Sa_program.Program
module Kernel = Sa_kernel.Kernel

type backend =
  [ `Fastthreads_on_sa
  | `Fastthreads_on_kthreads of int
  | `Topaz_kthreads
  | `Ultrix_processes ]

val backend_name : backend -> string

type t

val create :
  ?cpus:int ->
  ?costs:Sa_hw.Cost_model.t ->
  ?kconfig:Sa_kernel.Kconfig.t ->
  unit ->
  t
(** A fresh system: [cpus] processors (default 6, the Firefly), the given
    cost model (default {!Sa_hw.Cost_model.firefly_cvax}) and kernel
    configuration (default {!Sa_kernel.Kconfig.default}: explicit
    allocation, untuned upcalls, daemons on). *)

val create_on : machine_id:int -> ids:int ref -> ?cpus:int -> Sim.t -> t
(** Like {!create} with the default costs and configuration, but as one
    machine of a cluster: the caller supplies the shared simulation clock,
    a machine id, and one id [ref] shared by every kernel so
    space/activation ids stay globally unique under migration.  The caller
    drives the clock itself ({!Sim.run_while} or {!run} on any member). *)

val sim : t -> Sim.t
val kernel : t -> Kernel.t
val machine : t -> Sa_hw.Machine.t
val costs : t -> Sa_hw.Cost_model.t

type job

val submit :
  t ->
  backend:backend ->
  name:string ->
  ?cache_capacity:int ->
  ?prewarm_cache:bool ->
  ?disk:Time.span ->
  ?parallelism:int ->
  ?space_priority:int ->
  ?observer:(int -> Time.t -> unit) ->
  Program.t ->
  job
(** Create an address space with the chosen backend and start the program's
    main thread in it.  [cache_capacity], when given, attaches a buffer
    cache of that many blocks to the job's address space;
    [prewarm_cache] (default true) pre-fills it so there are no cold
    misses.  [disk], when given, is the service time of an I/O device
    attached to the job: cache misses queue on its one FIFO server instead
    of blocking in the kernel for the fixed miss latency.  [parallelism]
    caps the processors a scheduler-activation space requests (ignored by
    the other backends, whose parallelism is set by the VP count or the
    machine size).  To stream the run as
    Chrome trace JSON, add [Sa_engine.Trace_export.feed w] as a sink on
    the system's trace ({!Sa_engine.Trace.add_sink}) before submitting. *)

val job_name : job -> string
val finished : job -> bool
val completion_time : job -> Time.t option

val elapsed : job -> Time.span option
(** Simulated time from submission to the last thread's completion. *)

val jobs : t -> job list
(** The jobs submitted to this system, in submission order — also after a
    cluster has migrated one of their spaces to another machine (the
    kernel alone records where a space lives:
    {!Sa_kernel.Kernel.space_home}). *)

val active : t -> bool
(** Is any job submitted to this system still unfinished? *)

val ft_core_state : job -> Sa_uthread.Ft_core.state option
(** The FastThreads core of a [`Fastthreads_*] job ([None] for jobs run
    directly on kernel threads).  Gives auditors access to ground-truth
    thread states and ready-queue contents. *)

val uthread_stats : job -> Sa_uthread.Ft_core.stats option
(** Thread-package statistics, for the two FastThreads backends. *)

val ft_sa : job -> Sa_uthread.Ft_sa.t option
(** The scheduler-activation package behind a [`Fastthreads_on_sa] job
    (cluster migration needs the handle to re-point its kernel). *)

val cache : job -> Sa_hw.Buffer_cache.t option

val space : job -> Kernel.space
(** The kernel address space backing this job (for allocator statistics
    such as {!Sa_kernel.Kernel.space_cpu_seconds}). *)

val run : ?horizon:Time.span -> t -> unit
(** Drive the simulation until every submitted job has finished.  Raises
    [Failure] if the horizon (default 30 simulated minutes) passes first —
    that means a scheduling bug, since all workloads terminate. *)

val run_span : t -> Time.span -> unit
(** Advance the simulation by a fixed span regardless of job state. *)
