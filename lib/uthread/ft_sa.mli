(** Modified FastThreads: the user-level thread package on scheduler
    activations (Sections 3–4).

    The kernel vectors every scheduling event to the upcall handler in this
    module (Table 2); the handler updates the ready lists, performs
    critical-section recovery for threads stopped mid-section (Section 3.3),
    and decides what each granted processor runs next.  The package notifies
    the kernel only of the transitions that can change processor-allocation
    decisions (Table 3): when runnable threads exceed processors, and when a
    processor has idled through its hysteresis period.

    That period (Section 4.2, [Cost_model.idle_spin]) is one
    {!Sa_kernel.Kernel.sa_spin}: the processor spins in 100 us slices,
    checking the ready-thread and recovery counters at each boundary, and
    returns to the manager as soon as one shows work.  Empty boundaries
    re-arm inside the processor and allocate nothing. *)

type t

val create :
  Sa_kernel.Kernel.t ->
  name:string ->
  ?priority:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  ?max_procs:int ->
  ?observer:(int -> Sa_engine.Time.t -> unit) ->
  ?on_done:(unit -> unit) ->
  Sa_program.Program.t ->
  t
(** Build a scheduler-activation address space running modified FastThreads,
    make the program its main thread and request a first processor; the
    initial upcall starts execution.  [max_procs] caps how many processors
    the space ever asks the kernel for (default: all of them) — the knob
    behind the speedup-vs-processors sweep of Figure 1.  Raises
    [Invalid_argument] if the kernel is in native mode. *)

val core : t -> Ft_core.state
val space : t -> Sa_kernel.Kernel.space

(** {1 Cluster migration}

    Every downcall goes to {!Sa_kernel.Kernel.space_home} of the space, so
    a space that [Kernel.attach_space] registers on another kernel talks to
    that kernel from then on; the package holds no kernel of its own. *)

val nudge_demand : t -> unit
(** Re-issue the Table-3 add-more-processors downcall from current runnable
    count (capped at [max_procs]).  Used after a migration lands: the
    detach zeroed the space's desire, and only wakeups — not already-ready
    threads — would otherwise restore it. *)
