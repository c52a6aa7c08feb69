(** FastThreads core: the user-level thread package shared by both
    substrates.

    This module holds everything that is identical whether the package runs
    on Topaz kernel threads (original FastThreads, {!Ft_kt}) or on scheduler
    activations (modified FastThreads, {!Ft_sa}): thread control blocks,
    per-processor LIFO ready lists with stealing ({!Deque}), user-level locks /
    condition variables / semaphores, the low-level critical-section
    protocol of Sections 3.3 and 4.3, the buffer cache glue, and the one
    interpreter that executes {!Sa_program.Program} values while charging
    the cost model: every thread's program is compiled
    ({!Program.compile}) and run by a pc-indexed step loop that batches
    consecutive compute charges into single [Sim] events, forcing lazy
    [op_dyn] continuations when execution reaches them.  Substrate
    differences are injected through a {!driver} record. *)

module Time = Sa_engine.Time
module Program = Sa_program.Program
module Cost_model = Sa_hw.Cost_model

type tcb
(** User-level thread control block. *)

val tcb_id : tcb -> int
(** Thread id: [1] for the first thread of a state, then consecutive;
    never reused. *)

val no_tcb : tcb
(** A TCB that is no state's thread (id [0]): the filler for a table of
    threads, so that an empty slot costs no option block. *)

type tstate = Embryo | Ready | Running | Blocked_user | Blocked_kernel | Done

val tcb_state : tcb -> tstate
val tcb_in_cs : tcb -> bool
val tcb_binding : tcb -> int
(** Index of the virtual processor / processor the thread last ran on. *)

val tcb_priority : tcb -> int
(** User-level priority (0 default; higher runs first).  Set by the
    [Set_priority] operation; children inherit the forker's priority. *)

(** Low-level spin-lock cell protecting one scheduler data structure (a
    ready list or a synchronization object). *)
type cs_cell

val cell_owner : cs_cell -> int option
(** [None] while the cell is free (also while only a lease covers it,
    {!lease_cell}), else the [owner] that locked it: a thread id, or
    [-(idx+1)] for processor [idx]'s scheduler. *)

type stats = {
  mutable forks : int;
  mutable completions : int;
  mutable dispatches : int;
  mutable steals : int;
  mutable ublocks : int;  (** user-level blocks (locks, conditions) *)
  mutable kblocks : int;  (** kernel-level blocks (I/O, cache miss) *)
  mutable cs_spin_ns : int;  (** simulated time burnt spinning on held cells *)
  mutable cs_recoveries : int;
      (** preempted-in-critical-section continuations (Section 3.3) *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable remote_fills : int;
      (** misses serviced from a peer machine's cache over the network
          (cluster runs; see {!set_remote_fill}) *)
  mutable program_steps : int;
      (** program operations executed, including the wait-wakeup
          re-acquire step; [Dynamic] markers and [op_dyn] continuation
          boundaries are not steps *)
  mutable charge_segments : int;
      (** logical charge requests issued by the interpreter (compute spans,
          op costs, contended-acquire block paths; spin slices excluded) *)
  mutable charge_batches : int;
      (** [d.charge] events actually issued; the flat interpreter coalesces
          consecutive compute segments into the next op's charge, so
          [charge_segments / charge_batches] is the batching ratio
          (1 would mean one event per charge) *)
}

type state

val create_state :
  queues:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  unit ->
  state
(** [queues] is the number of per-processor ready lists (= maximum virtual
    processors for the kernel-thread substrate, = physical processors for
    the activation substrate).  [io_dev], when given, services buffer-cache miss fills (so disk contention is
    modelled); otherwise each miss blocks for the cost model's fixed I/O
    latency, the paper's simplification. *)

val stats : state -> stats

val live_threads : state -> int
val ready_threads : state -> int
val runnable_threads : state -> int
(** Ready + running + embryo: the demand figure reported to the processor
    allocator. *)

val finished : state -> bool
(** All threads have completed. *)

val trace_ready : state -> Sa_engine.Sim.t -> string -> unit
(** [trace_ready s sim name] records {!ready_threads} on the
    ["ready:"^name] counter track of [sim]'s trace, if its [Uthread]
    category is enabled.  Both substrates call it when a thread becomes
    ready and when the scheduler loop picks one. *)

val state_counts : state -> (tstate * int) list
(** Thread-count per state (diagnostics), over every thread the state has
    created: finished threads count as [Done]. *)

val threads_in : state -> tstate -> tcb list
(** The threads currently in a state, in tid order.  A finished thread's
    TCB is retired when it exits, so [threads_in s Done] is empty. *)

val io_device : state -> Sa_hw.Io_device.t option
(** The device servicing this state's cache misses, if one was attached. *)

val set_remote_fill :
  state -> (int -> ((unit -> unit) -> unit) option) option -> unit
(** Install (or clear) the cluster's remote-fetch resolver, consulted on
    every cache miss before the disk path.  [resolver block] returns
    [Some register] when a peer machine can serve the block — the thread
    then kernel-blocks and [register wake] delivers the fetched block —
    or [None] to fall through to the disk.  Default: none (standalone
    behaviour, bit-identical). *)

val queued_tids : state -> int list
(** Thread ids currently sitting in the ready deques, in queue order.
    Every entry should be a [Ready] thread and appear at most once — the
    invariant the chaos campaigns audit against {!state_counts}. *)

(** Substrate capabilities injected by {!Ft_kt} / {!Ft_sa}.  ['v] is the
    substrate's vessel — what runs the scheduler loop on one processor: a
    kernel thread (its operations and idle-spin callbacks), or an
    activation. *)
type 'v driver = {
  costs : Cost_model.t;
  sa_accounting : bool;
      (** charge the busy-count bookkeeping / resume-check overheads that
          the activation substrate adds (Section 5.1) *)
  sim : Sa_engine.Sim.t;  (** the simulator the vessels run on *)
  charge : tcb -> Time.span -> (unit -> unit) -> unit;
      (** run a thread work segment on the thread's current vessel *)
  block_io : tcb -> Time.span -> (unit -> unit) -> unit;
      (** thread enters the kernel and blocks for the span; continuation
          runs when the thread next executes *)
  block_kernel :
    tcb -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
      (** kernel block with externally driven wakeup *)
  thread_stopped : tcb -> unit;
      (** the thread just stopped (blocked or finished); the vessel it was
          on must find new work *)
  work_created : state -> tcb -> unit;
      (** [tcb] was made ready: substrate may notify the processor
          allocator, and under activations may ask the kernel to interrupt a
          processor running lower-priority work (Section 3.1) *)
  all_done : unit -> unit;  (** the last thread completed *)
  on_stamp : int -> unit;  (** measurement marker callback *)
  sched_charge :
    'v -> Time.span -> repair:(unit -> unit) -> (unit -> unit) -> unit;
      (** charge scheduler work (a spin slice, a dispatch) on the vessel.
          If the kernel preempts it, [repair] runs instead of the
          continuation (activations; a kernel thread just resumes) *)
  picked : 'v -> tcb -> unit;
      (** the scheduler loop took [tcb] for the vessel *)
  unpicked : 'v -> tcb -> unit;
      (** a preempted dispatch put [tcb] back on its ready list *)
  idle : 'v -> int -> unit;
      (** the loop found no thread for the vessel of that index *)
}

(** {1 Thread lifecycle} *)

val new_thread : state -> 'v driver -> Program.t -> tcb
(** Allocate a TCB in [Embryo] state (not yet on any ready list) with the
    next thread id, its program compiled and linked against the state's
    sync objects. *)

val set_resume : tcb -> (unit -> unit) -> unit
(** Install the continuation run when the thread is next dispatched (used by
    the activation substrate to wire kernel-saved contexts back in). *)

val mark_kernel_blocked : state -> tcb -> unit
(** Record that the thread is now blocked in the kernel.  The interpreter
    marks this before charging the kernel-entry path; a substrate must
    re-mark at the actual block point because a preemption inside the entry
    path re-dispatches the thread as [Running]. *)

val make_ready : state -> 'v driver -> at:int -> tcb -> unit
(** Push onto the front of ready list [at] and fire [work_created].
    Preempted threads re-enter at the front too; a yielding thread goes to
    the back so its peers run first. *)

val pop_own : state -> int -> tcb option
(** Next thread for vessel [index]: the front of its own ready list.  Once
    any thread has a non-zero priority, the best priority across all lists
    instead; ties prefer the own list, the front-most there, else the
    back-most on the other list.  Does not lock — {!schedule} holds the
    list's cell. *)

val steal_from : state -> victim:int -> tcb option
(** Take the back (oldest) thread of [victim]'s ready list, or its
    back-most best-priority thread once priorities are in use. *)

val run_thread : state -> index:int -> tcb -> unit
(** Bind the thread to vessel [index] and resume its program.  The caller
    must have charged dispatch overhead already. *)

val schedule : state -> 'v driver -> 'v -> index:int -> unit
(** The one user-level scheduler loop, run by vessel [v] on processor
    [index] whenever it is free (Section 4.2).  It locks the own ready
    list's cell, spinning through [sched_charge] while it is held, pops
    the own list or unlocks and runs {!steal}, reports the pick through
    [picked], and runs the thread.  The dispatch cost rides in the
    thread's charge accumulator when the thread sits at an op boundary
    (the cell is then released under a {!lease_cell}); otherwise it is
    charged as its own [sched_charge] segment, whose repair unlocks the
    cell, reports [unpicked] and puts the thread back at the front of the
    own list.  With nothing anywhere it calls [idle]. *)

val idle_pass_is_empty : state -> Sa_engine.Sim.t -> index:int -> bool
(** Whether a {!schedule} pass on vessel [index] would now end in [idle]
    having changed nothing any later event reads: no thread is ready, no
    chooser is installed (so no steal probe is a recorded choice), and the
    own list's cell can be taken at once — it is neither held nor leased to
    another owner until now or later.  A vessel idling in a spin polls this
    at each slice boundary in place of a pass; [false] means run one.
    Allocates nothing. *)

(** {1 Critical-section cells} *)

val queue_cell : state -> int -> cs_cell
(** The cell protecting ready list [i]. *)

val try_lock_cell : state -> cs_cell -> owner:int -> bool
(** Probe [cell]: fails while it has an owner, or while a live lease by
    someone else covers the current instant ({!lease_cell}).  [owner] is a
    thread id or [-(idx+1)] for processor [idx]; [0] marks a free cell, so
    [~owner:0] raises [Invalid_argument].  Allocates nothing. *)

val unlock_cell : cs_cell -> unit

val lease_cell : state -> cs_cell -> holder:int -> span:Time.span -> unit
(** Release [cell] but keep it unavailable to every owner except [holder]
    for [span] from now.  {!schedule} uses this in place of the unlock that
    would have followed a dispatch-cost charge event: other processors'
    probes see the same contention window as if the dispatcher had held
    the cell across that event, while the dispatched thread itself passes
    through (its next merged charge covers the window). *)

val set_clock : state -> (unit -> Time.t) -> unit
(** Install the simulated-time source consulted by cell-lease probes.
    Substrates call this once at create time. *)

val steal : state -> Sa_engine.Sim.t -> thief:int -> (cs_cell * tcb) option
(** The one steal sweep for vessel [thief]: probe the other ready lists in
    rotation order [(thief + attempt) mod queues], each probe a
    ["steal-victim"] {!Sa_engine.Sim.pick} choice point, skipping victims
    whose cell is held.  The first steal ({!steal_from}) is counted and
    returned with the victim's cell, still held by [thief].  [None] when
    every probe fails.  With no chooser installed, empty lists are passed
    over unprobed, and a sweep with no ready thread ends at once; no
    caller can tell either from probing every list. *)

(** {1 Interpreter} *)

val resume_preempted :
  state ->
  'v driver ->
  at:int ->
  tcb ->
  remaining:Time.span ->
  resume:(unit -> unit) ->
  (unit -> unit) ->
  unit
(** [resume_preempted s d ~at tcb ~remaining ~resume k] handles a thread
    context returned by the kernel after a preemption: if the thread was
    inside a critical section, continue it immediately on the current vessel
    until the section exit and only then put it on the ready list (recovery,
    Section 3.3); otherwise make it ready to re-charge its unfinished
    segment later.  [at] is the vessel index handling the event; [k] runs
    once the context has been dealt with (after the recovery continuation,
    if one was needed). *)

