(** The simulated operating-system kernel.

    One [Kernel.t] manages the machine's processors for a set of address
    spaces.  Two personalities (chosen by {!Kconfig.mode}):

    - {b Native_oblivious} — unmodified Topaz.  Kernel threads from every
      address space share one global priority/FIFO run queue; processors
      time-slice among them obliviously; a waking higher-priority thread
      preempts whichever processor its wakeup interrupt happens to hit.

    - {b Explicit_allocation} — the paper's kernel.  A space-sharing
      processor allocator (Section 4.1) divides processors evenly among
      address spaces that want them, respecting priorities, redistributing
      unwanted shares and optionally time-slicing an uneven remainder.
      Scheduler-activation address spaces receive all scheduling events as
      upcalls (Table 2) and notify the kernel through two downcalls
      (Table 3); kernel-thread address spaces are scheduled from per-space
      queues on their granted processors.

    Kernel-thread bodies drive their {!kthread} through the [kt_*]
    functions (charge work, block, exit...).  Scheduler-activation spaces
    register an upcall handler ([new_sa_space ~on_upcall]) and drive their
    activations through the [sa_*] functions. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Cpu = Sa_hw.Cpu

type t
type space
type activation

val create :
  ?ids:int ref ->
  Sa_engine.Sim.t ->
  Sa_hw.Machine.t ->
  Sa_hw.Cost_model.t ->
  Kconfig.t ->
  t
(** Build a kernel.  If [config.daemons] is set, the periodic kernel daemon
    address space is created immediately.  [ids] is the space/activation id
    counter; cluster runs share one [ref] across all kernels so ids stay
    globally unique under migration (default: a private counter — identical
    single-machine behavior). *)

val sim : t -> Sa_engine.Sim.t
val machine : t -> Sa_hw.Machine.t
val costs : t -> Sa_hw.Cost_model.t
val config : t -> Kconfig.t

(** {1 Address spaces} *)

val new_kthread_space : t -> name:string -> ?priority:int -> unit -> space
(** An address space whose threads are kernel threads (priority default 0;
    higher runs first). *)

type upcall_delivery = {
  uc_activation : activation;
  uc_cpu : Sa_hw.Cpu.t;
  uc_events : Upcall.event list;  (** oldest first; never empty *)
}

val new_sa_space :
  t -> name:string -> ?priority:int -> on_upcall:(upcall_delivery -> unit) ->
  unit -> space
(** A scheduler-activation address space.  [on_upcall] is the user-level
    thread system's fixed upcall entry point.  When invoked, the activation
    is running on [uc_cpu] and the upcall-delivery cost has already been
    charged; the handler continues execution by charging work via
    {!sa_charge} and must eventually either run forever, block, or return
    the processor with {!sa_cpu_idle}.  Raises [Invalid_argument] under
    [Native_oblivious] mode. *)

val space_id : space -> int
val space_name : space -> string

val space_home : space -> t
(** The kernel the space is registered with: the one that created it, or
    the last to {!attach_space} it.  A space in transit still names the
    kernel it was detached from. *)

val space_assigned : space -> int
(** Processors currently granted (explicit mode). *)

val space_desired : space -> int

(** {1 Kernel threads} *)

type kthread
(** A kernel thread, handed to its body when first dispatched.  The body
    drives it through the [kt_*] functions below.  Every continuation runs
    when the thread next holds a processor; preemption and rescheduling in
    between are transparent. *)

val spawn_kthread :
  t -> space -> name:string -> body:(kthread -> unit) -> unit -> unit
(** Create a kernel thread; it becomes ready immediately and its body runs
    once first dispatched. *)

val kt_charge : t -> kthread -> Time.span -> (unit -> unit) -> unit
(** Execute work on the thread's current processor, then continue. *)

val kt_spin :
  t ->
  kthread ->
  slice:Time.span ->
  length:Time.span ->
  poll:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [kt_spin t kt ~slice ~length ~poll k]: the kernel-thread twin of
    {!sa_spin}.  Run [length] of work on the current processor as one
    {!Sa_hw.Cpu.begin_spin}, calling [poll] at every [slice] boundary, and
    continue with [k] once [poll] reports work or the spin is used up.  It
    fires the same events, in the same order, as a chain of [slice]-long
    {!kt_charge}s whose continuations poll.  A spin preempted by a quantum
    expiry or a wakeup is saved like any segment; once the thread is
    dispatched again, on whatever processor, it finishes the interrupted
    slice there and spins on there for the unspent length. *)

val kt_block_for : t -> kthread -> Time.span -> (unit -> unit) -> unit
(** Block in the kernel (e.g. I/O) for the given span. *)

val kt_block_on :
  t -> kthread -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit
(** Block until woken: [register wake] stores the wake function with
    whoever will call it (lock release, condition signal...). *)

val kt_yield : t -> kthread -> (unit -> unit) -> unit
(** Relinquish the processor to the next ready thread. *)

val kt_exit : t -> kthread -> unit
(** Terminate this kernel thread. *)

(** {1 Scheduler-activation services (downcalls and execution)} *)

val activation_id : activation -> int
val activation_space : activation -> space

val cpu_activation : t -> int -> activation option
(** The activation running on processor [cpu] (explicit mode), if any: the
    kernel's half of the binding, which the user level pairs with the
    processor each of its threads runs on. *)

val sa_charge :
  ?repair:(unit -> unit) ->
  t ->
  activation ->
  Time.span ->
  (unit -> unit) ->
  unit
(** Execute user-level work in the activation's context on its current
    processor.  If the processor is preempted mid-segment, the unfinished
    remainder is wrapped in a {!Upcall.user_ctx} and reported per Table 2;
    the continuation then runs only when the user level re-charges that
    context.

    [repair] marks the segment as {e thread-manager} work (a scheduling
    decision, an idle scan): such work is idempotent, so on preemption the
    kernel calls [repair] — which must restore user-level data structures
    to a re-derivable state, e.g. push a half-dispatched thread back on its
    ready list — and discards the interrupted context instead of reporting
    it.  This mirrors Section 3.1's treatment of preemptions that catch the
    thread manager rather than a user thread. *)

val sa_spin :
  t ->
  activation ->
  slice:Time.span ->
  length:Time.span ->
  poll:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** The Section 4.2 idle spin: run [length] of thread-manager work on the
    activation's processor as one {!Sa_hw.Cpu.begin_spin}, calling [poll]
    at every [slice] boundary, and continue with [k] once [poll] reports
    work or the spin is used up.  The spin re-arms inside the CPU between
    boundaries — no round trip through the kernel per slice — yet fires the
    same events, in the same order, as a chain of per-slice {!sa_charge}
    manager segments.  Like those, a preempted spin is repaired (there is
    nothing to restore) and its context discarded. *)

val sa_block_io : t -> activation -> io:Time.span -> (unit -> unit) -> unit
(** The user-level thread running in this activation enters the kernel and
    blocks for [io].  The caller must have charged the kernel-trap cost in
    the thread's preceding segment; the kernel then emits an
    [Activation_blocked] upcall on the same processor (fresh activation) so
    the user level can run another thread, and, when the I/O completes,
    emits [Activation_unblocked] carrying the continuation as a saved
    context.  The continuation runs only when the user level resumes it. *)

val sa_block_kernel :
  t ->
  activation ->
  register:((unit -> unit) -> unit) ->
  (unit -> unit) ->
  unit
(** Like {!sa_block_io} but the wakeup is driven externally: [register wake]
    hands the wake function to whoever will eventually call it (used for
    kernel-level synchronization such as the upcall-performance benchmark of
    Section 5.2, and for coalesced buffer-cache fills). *)

val sa_add_more_processors : t -> space -> int -> unit
(** Downcall (Table 3): the space has more runnable threads than
    processors; request this many additional processors. *)

val sa_request_preempt : t -> space -> cpu:int -> unit
(** Section 3.1's priority extension: ask the kernel to interrupt one of
    this space's own processors (e.g. because it runs a lower-priority
    thread than one that just became ready).  The stopped context comes
    back as a [Processor_preempted] event in an upcall on that processor.
    A no-op if the processor is no longer owned by the space by the time
    the interrupt fires. *)

val sa_cpu_idle : t -> activation -> unit
(** Downcall (Table 3): the user level has no work for this processor.  The
    activation is discarded (to the recycle pool) and the processor returns
    to the allocator. *)

val sa_return_activation : t -> int -> unit
(** Recycle a discarded activation id (after the user level has extracted
    the thread context it carried).  A repeated return is a no-op while the
    activation sits in the recycle pool; with pooling off the first return
    drops it, and a repeat raises [Invalid_argument] as for an unknown id. *)

(** {1 Introspection & statistics} *)

type stats = private {
  mutable upcalls : int;
  mutable upcall_events : int;
  mutable preemptions : int;  (** processor preemptions (explicit mode) *)
  mutable reallocations : int;  (** allocator decisions that moved processors *)
  mutable io_blocks : int;
  mutable kt_dispatches : int;
  mutable kt_timeslices : int;  (** quantum-expiry preemptions (native mode) *)
  mutable daemon_wakeups : int;
  mutable io_faults : int;
      (** injected I/O faults (delays + transient errors) *)
  mutable io_retries : int;
      (** completions re-attempted after a transient error *)
  mutable spurious_fired : int;  (** spurious completion interrupts injected *)
  mutable spurious_dropped : int;
      (** duplicate completions absorbed by the guard *)
  mutable chaos_preempts : int;  (** forced preemptions via {!chaos_preempt} *)
}

val stats : t -> stats
(** A snapshot of the kernel's counters. *)

val space_upcalls : space -> int

val space_grants : space -> int
(** Processors the allocator has granted to this space over the run
    (explicit mode; the initial grant counts). *)

val space_preempts : space -> int
(** Processors the allocator has reclaimed from this space over the run
    (explicit mode), warnings included once forced. *)

val check_invariants : t -> unit
(** Raises [Failure] if a kernel invariant is violated, most importantly
    Section 3.1's: for every scheduler-activation address space, the number
    of running activations in the activation table equals the number of
    processors assigned to it (explicit mode, where each space must also
    own exactly the processors it is assigned).  Also audits the recycle
    pool (free and distinct entries only) and placement against the slot
    table, both ways for kernel threads: every running activation sits on
    the slot it claims, and a kernel thread is running on processor [c]
    exactly when it is slot [c]'s thread — the checks the chaos campaigns
    lean on to catch a context resumed twice or left behind. *)

(** {1 Fault injection (chaos testing)}

    These entry points let a deterministic fault injector drive the kernel
    through adversarial schedules.  They are ordinary simulation events:
    calling them from anywhere other than the event loop is unsupported. *)

val set_io_fault_injector :
  t -> (unit -> Sa_hw.Io_device.fault option) option -> unit
(** Install (or clear) a hook consulted at each nominal I/O completion
    instant ({!sa_block_io} and [kt_block_for] wakeups).  Returning
    [Some f] injects fault [f]: [Fault_delay d] makes the completion
    interrupt arrive [d] late; [Fault_transient_error] fails the operation
    and the kernel retries it with exponential backoff (200 us doubling,
    capped at 10 ms).  [None] lets the completion proceed.  Every blocked
    thread still wakes exactly once. *)

val io_inflight_count : t -> int
(** Timed I/O completions currently outstanding. *)

val set_chaos_realloc_drop : t -> bool -> unit
(** Arm (or disarm) a lost-reallocation-request fault: the next deferred
    reallocation pass is silently discarded instead of running.  Demand
    raised before the dropped pass stays unserved until a later event
    re-triggers the allocator — in a busy system the loss is usually
    absorbed, but near quiescence it starves a space, which the
    work-conservation invariant ([Fault.Invariant]) detects.  Used by the
    fault injector's [demand-drop] kind. *)

val chaos_spurious_completion : t -> pick:int -> bool
(** Fire one outstanding I/O completion early — a spurious completion
    interrupt.  The guarded wakeup absorbs the real completion when it
    later arrives, so the blocked thread wakes exactly once (early).
    [pick] indexes the in-flight requests sorted by id, keeping the choice
    a pure function of the caller's seed.  [false] if nothing in flight. *)

val chaos_preempt : t -> cpu:int -> bool
(** Forcibly preempt whatever holds [cpu] at this instant — mid-upcall,
    mid-critical-section, wherever the event landed.  Explicit mode
    reclaims the processor from its owning space through the standard
    preemption path (upcall events, Section 3.3 recovery) and re-runs the
    allocator; native mode bounces the running kernel thread through the
    global run queue.  [false] if the processor held nothing preemptible. *)

val reallocate_now : t -> unit
(** Run one processor-allocator pass synchronously, outside the usual
    coalesced deferral (explicit mode; a no-op otherwise).  A pass costs
    O(spaces) and allocates nothing when no processor moves; for
    benchmarks and tests of the allocator itself. *)

val set_space_priority : t -> space -> int -> unit
(** Change a space's allocation priority (higher wins).  In explicit mode
    the allocator re-runs; used by the chaos injector to flap priorities. *)

val free_cpus : t -> int
(** Processors currently owned by no space (explicit mode). *)

val dump : t -> Format.formatter -> unit
(** Human-readable snapshot of processors, run queues and kernel threads
    (diagnostics).  The [kthreads:] line counts ready and blocked threads,
    exited ones as [dead], and every thread spawned as [total]; the
    runnable threads follow, newest first. *)

val space_cpu_seconds : t -> space -> float
(** Integral of processors owned by this space from its creation to now,
    in processor-seconds (explicit-allocation mode; 0.0 otherwise), kept
    exactly in integer nanoseconds.  The fairness measure for allocator
    experiments. *)

val find_space : t -> int -> space option
(** Look an address space up by id (as reported in {!Sa_hw.Cpu.occupant}). *)

val swap_out_manager : t -> space -> unit
(** Section 3.1: mark the user-level thread manager's pages as paged out.
    The next upcall to this space would itself page fault, so the kernel
    delays it by one page-in before delivering. *)

val debug_stop : t -> activation -> unit
(** Section 4.4: the debugger stops an activation.  Its execution freezes on
    a "logical processor" — crucially {e without} generating any upcall, so
    the user-level thread system cannot observe the debugger's presence.
    Raises [Invalid_argument] if the activation is not currently running. *)

val debug_resume : t -> activation -> unit
(** Resume a debugger-stopped activation exactly where it froze. *)

(** {1 Cluster migration}

    Moving a scheduler-activation address space between two kernels that
    share one simulation (and one id counter — see {!create}).  The source
    drains the space through the standard Table-2 preemption upcalls; the
    package carries the space record and every activation record it owns;
    the target re-registers it and the first grant delivers the backlog. *)

type migration
(** A space in transit: detached from its source kernel, not yet attached
    anywhere.  Wakeups arriving mid-flight queue on the space and are
    delivered after attach. *)

val detach_space : t -> space -> migration
(** Reclaim all of the space's processors (each interrupted context becomes
    a [Processor_preempted] event in its pending queue), unregister it, and
    remove its activation records from this kernel's tables.  Raises
    [Invalid_argument] for kernel-thread spaces or spaces not registered
    here. *)

val attach_space : t -> migration -> unit
(** Register a detached space on this kernel, re-point its home, re-index
    its activation records, and trigger a reallocation pass so the pending
    backlog is delivered with the first grant. *)

val migration_act_count : migration -> int
(** Resident activation records in transit — the size proxy for the modeled
    state-transfer cost. *)

val sa_cpu_warned : t -> activation -> bool
(** Under the warning protocol ({!Kconfig.preempt_warning}): is a
    preemption warning outstanding on this activation's processor? *)

val sa_respond_warning : t -> activation -> unit
(** Voluntarily relinquish a warned processor at a safe point (Section 6's
    Psyche/Symunix cooperation).  Like {!sa_cpu_idle} but the space's demand
    is unchanged — the processor was taken, not returned as unneeded. *)
