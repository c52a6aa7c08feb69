(** Kernel configuration. *)

(** Which kernel we are simulating:

    - [Native_oblivious] — unmodified Topaz: one global run queue of kernel
      threads scheduled obliviously of address spaces, round-robin
      time-slicing, priority preemption on wakeup.  Scheduler-activation
      address spaces cannot be created in this mode.
    - [Explicit_allocation] — the paper's modified kernel: a space-sharing
      processor allocator assigns whole processors to address spaces;
      scheduler-activation spaces receive upcalls; kernel-thread spaces are
      scheduled from per-space queues on their granted processors (Section
      4.1's binary-compatibility path). *)
type mode = Native_oblivious | Explicit_allocation

type t = {
  mode : mode;
  activation_pooling : bool;
      (** recycle discarded scheduler activations (Section 4.3); when off,
          every upcall pays [activation_fresh_alloc] *)
  daemons : bool;
      (** run the periodic Topaz kernel daemon threads (Section 5.3) *)
  rotate_remainder : bool;
      (** time-slice leftover processors among equally deserving address
          spaces when the division is uneven (Section 4.1) *)
  preempt_warning : Sa_engine.Time.span option;
      (** [None] (the paper's design): reallocation stops an activation
          immediately and reports its context in an upcall.  [Some grace]
          emulates the Psyche/Symunix protocol the related-work section
          contrasts: the kernel only {e warns} the address space and waits
          up to [grace] for it to relinquish voluntarily, forcing the stop
          at the deadline — which is precisely how that design "violates
          the semantics of address space priorities" (Section 6) *)
  seed : int;  (** seed for the kernel's random stream (native-mode
                   interrupt CPU choice) *)
}

val default : t
(** [Explicit_allocation], pooling on, daemons on, remainder rotation on,
    seed 42. *)

val native : t
(** [Native_oblivious] variant of {!default}, for the Topaz and original
    FastThreads baselines. *)
