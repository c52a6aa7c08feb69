(** Simulated-time cost model.

    All durations the simulation charges for thread-management operations,
    kernel entry, upcalls and devices live here.  The defaults
    ({!firefly_cvax}) are calibrated against the published measurements for
    the DEC SRC Firefly (CVAX) in the paper: procedure call 7 us, kernel trap
    19 us, and the Table 1 / Table 4 operation latencies. *)

type span = Sa_engine.Time.span

type t = {
  procedure_call : span;  (** 7 us on the Firefly *)
  kernel_trap : span;  (** 19 us: user/kernel boundary crossing *)
  (* FastThreads user-level operation paths.  The Null-Fork benchmark
     decomposes as [ut_fork + ut_schedule + procedure_call + ut_finish];
     Signal-Wait as [ut_signal + ut_wait]. *)
  ut_fork : span;  (** create TCB + stack, enqueue on ready list *)
  ut_schedule : span;  (** dequeue + user-level context switch *)
  ut_finish : span;  (** thread teardown, wake joiners *)
  ut_signal : span;
  ut_wait : span;
  ut_join : span;  (** join bookkeeping on the parent side *)
  ut_lock : span;  (** uncontended user-level lock acquire *)
  ut_unlock : span;
  ut_block_on_lock : span;  (** user-level block when lock is held *)
  ut_yield : span;
  ut_sa_busy_accounting : span;
      (** extra work per fork/finish under scheduler activations: maintain
          the busy-thread count and decide whether to notify the kernel
          (the 3 us Null-Fork degradation of Section 5.1) *)
  ut_sa_resume_check : span;
      (** extra work on the signal path under scheduler activations: check
          whether a preempted thread is being resumed (the additional 2 us
          Signal-Wait degradation of Section 5.1) *)
  ut_critical_flag : span;
      (** charged per thread-system critical-section crossing.  Zero in
          both presets: the paper marks critical sections by keeping
          post-processed copies of them, which costs nothing in the common
          case (Section 4.3).  A nonzero value models setting and clearing
          an explicit flag around every section instead (Section 5.1) *)
  (* Topaz kernel threads. *)
  kt_fork : span;  (** parent-side thread-creation syscall *)
  kt_join : span;
  kt_exit : span;
  kt_signal : span;
  kt_wait : span;
  kt_context_switch : span;  (** kernel dispatch of a ready kernel thread *)
  kt_block : span;  (** enter kernel and block (I/O, contended lock) *)
  kt_unblock : span;  (** interrupt-side wakeup processing *)
  kt_wake : span;  (** wake a kernel thread blocked on a sync object *)
  (* Ultrix-like processes. *)
  up_fork : span;
  up_join : span;
  up_exit : span;
  up_signal : span;
  up_wait : span;
  (* Scheduler-activation kernel machinery. *)
  upcall : span;  (** deliver one upcall (create/reuse activation, switch to
                      user level) in a tuned implementation *)
  upcall_untuned_factor : float;
      (** multiplier the kernel applies to [upcall] on every delivery.  The
          presets model the paper's untuned Modula-2+ prototype (Section
          5.2 reports ~5x Topaz); [1.0] is a tuned kernel *)
  activation_fresh_alloc : span;
      (** extra cost to allocate activation data structures when the recycle
          pool is empty or disabled (Section 4.3) *)
  preempt_interrupt : span;  (** IPI + stop + save context of a processor *)
  (* Devices and policy constants. *)
  io_latency : span;  (** 50 ms: buffer-cache miss / page-fault service *)
  time_slice : span;  (** native-Topaz scheduling quantum *)
  daemon_period : span;  (** Topaz kernel daemons wake this often *)
  daemon_burst : span;  (** ... and run for this long *)
  idle_spin : span;  (** hysteresis: idle VP spins before notifying kernel *)
}

val firefly_cvax : t
(** Defaults calibrated to the paper's Firefly measurements. *)

val modern_x86 : t
(** A retrospective preset with contemporary magnitudes (nanosecond
    procedure calls, ~600 ns syscalls, microsecond kernel-thread
    operations, 100 us NVMe "disk", 4 ms scheduling quantum).  The paper's
    central ratio — user-level thread operations are one to two orders of
    magnitude cheaper than kernel ones — is {e larger} today than in 1991,
    which the retrospective experiment demonstrates. *)

val pp : Format.formatter -> t -> unit
