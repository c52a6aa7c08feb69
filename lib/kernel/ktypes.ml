(* Shared kernel state.  Every kernel layer operates on the one mutable
   [t] defined here; this module owns the record types, the id-indexed
   lookup tables and per-state counters that keep censuses O(1), and the
   small helpers that read or update state without making scheduling
   decisions.  The layers stacked on top (each behind its own .mli):

     Io_path    - I/O completion delivery: fault hooks, retry backoff,
                  guarded fire-once wakeups (PR 1's chaos contract)
     Kt_sched   - the oblivious kernel-thread scheduler (Section 2.2):
                  run queues, dispatch, time-slicing, the kt_ops record
     Sa_upcall  - Table-2 event vectoring, activation pool/recycling,
                  critical-section recovery glue (Sections 3.1-3.3)
     Allocator  - the space-sharing processor allocator driving the pure
                  Alloc_policy (Section 4.1)
     Kernel     - thin facade re-exporting the public surface

   Dispatch paths re-trigger the allocator and vice versa; that cross-layer
   recursion is broken by the late-bound [reevaluate_ref]/[schedule_pass_ref]
   below, installed once by [Allocator.install] at kernel creation. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model

(* The counters {!Kernel.stats} reports; only the kernel writes them. *)
type stats = {
  mutable upcalls : int;
  mutable upcall_events : int;
  mutable preemptions : int;
  mutable reallocations : int;
  mutable io_blocks : int;
  mutable kt_dispatches : int;
  mutable kt_timeslices : int;
  mutable daemon_wakeups : int;
  mutable io_faults : int;
  mutable io_retries : int;
  mutable spurious_fired : int;
  mutable spurious_dropped : int;
  mutable chaos_preempts : int;
}

type kt_state = K_ready | K_running of int (* cpu id *) | K_blocked | K_dead

type kt_ops = {
  kt_charge : Time.span -> (unit -> unit) -> unit;
  kt_block_for : Time.span -> (unit -> unit) -> unit;
  kt_block_on : register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
  kt_yield : (unit -> unit) -> unit;
  kt_exit : unit -> unit;
  kt_now : unit -> Time.t;
  kt_self : unit -> int;
  kt_cpu : unit -> int;
}

type act_state =
  | A_running of int (* cpu id *)
  | A_blocked
  | A_stopped  (* context reported to the user level, awaiting recycling *)
  | A_free  (* in the recycle pool *)

type io_fault = Io_delay of Time.span | Io_transient_error

type kthread = {
  kt_id : int;
  kt_sp : space;
  kt_name : string;
  kt_occ : Cpu.occupant;  (* cached: charged on every segment *)
  kt_prio : int;
  kt_random_wake : bool;
      (* native-mode daemons: the wakeup interrupt lands on an arbitrary
         processor, preempting its occupant even if another is idle *)
  mutable kt_state : kt_state;
  mutable kt_resume : unit -> unit;
  mutable kt_pending_cost : Time.span;  (* charged at next dispatch *)
}

and activation = {
  act_id : int;
  act_sp : space;
  (* Cached occupant records, one per segment label the SA machinery
     charges with: building one per segment showed up in profiles. *)
  act_occ_uthread : Cpu.occupant;
  act_occ_manager : Cpu.occupant;
  act_occ_upcall : Cpu.occupant;
  mutable act_state : act_state;
  mutable act_charge_k : unit -> unit;
      (* continuation of the activation's in-flight charging segment; read
         and cleared by [act_charge_done] when the segment completes *)
  mutable act_charge_done : unit -> unit;
      (* preallocated completion wrapper (clears [act_repair], runs
         [act_charge_k]): charging a segment allocates nothing *)
  mutable act_repair : (unit -> unit) option;
      (* set while the activation runs a user-level *manager* segment
         (dispatch decision, idle spin): on preemption the kernel calls this
         repair action and silently discards the activation instead of
         reporting a Processor_preempted context — the manager's work is
         idempotent and is simply re-derived (Section 3.1's "if a preempted
         processor was in the idle loop, no action is necessary") *)
}

and kt_space_state = {
  local_runq : kthread Queue.t;
  mutable kt_runnable : int;
}

and sa_space_state = {
  client : sa_client;
  mutable pending : Upcall.event list;  (* newest first *)
  mutable pool : activation list;
  mutable running_acts : int;
  mutable blocked_acts : int;
}

and space_kind = Kthreads of kt_space_state | Sa of sa_space_state

and space = {
  sp_id : int;
  sp_name : string;
  mutable sp_home : t;
      (* the kernel this space is currently registered with.  Always the
         creating kernel on a single machine; cluster migration re-points it
         at the target kernel, and deferred notifications (I/O wakeups
         scheduled before the move) resolve it at fire time so they reach
         the space wherever it now lives *)
  mutable sp_prio : int;
  sp_kind : space_kind;
  mutable sp_desired : int;
  mutable sp_assigned : int;
  mutable sp_upcalls : int;
  mutable sp_granted : int;  (* processors granted by the allocator *)
  mutable sp_preempted : int;  (* processors reclaimed by the allocator *)
  mutable sp_manager_swapped : bool;
      (* Section 3.1: the pages holding the user-level thread manager may
         themselves be paged out; the next upcall must first fault them in
         ("the kernel must check for this, and when it occurs, delay the
         subsequent upcall until the page fault completes") *)
  sp_alloc_track : Sa_engine.Stats.Weighted.t;
      (* integral of processors owned over time (explicit mode) *)
  mutable sp_target : int;
      (* processors the last allocator pass assigned this space; written
         for every registered space at the start of each pass *)
}

and sa_client = { on_upcall : upcall_delivery -> unit }

and upcall_delivery = {
  uc_activation : activation;
  uc_cpu : Cpu.t;
  uc_events : Upcall.event list;
}

and slot = {
  slot_cpu : Cpu.t;
  mutable slot_owner : space option;  (* explicit mode *)
  mutable slot_kt : kthread option;
  mutable slot_act : activation option;
  mutable slot_delivery : Upcall.event list option;
      (* events of an upcall whose delivery segment is still charging on
         this processor; requeued, not lost, if the processor is preempted
         before the user level receives them *)
  mutable slot_quantum : Sim.handle;
      (* pending quantum-expiry timer; {!Sim.null_handle} when unarmed.  The
         timer callback is the preallocated [slot_q_fire] closure — re-arming
         a quantum writes these fields instead of allocating. *)
  mutable slot_q_gen : int;  (* slot_gen captured when the quantum was armed *)
  mutable slot_q_ktid : int;  (* kt_id the quantum was armed for *)
  mutable slot_q_fire : unit -> unit;
  mutable slot_gen : int;
  mutable slot_warned : bool;
      (* a Psyche/Symunix-style preemption warning is outstanding on this
         processor (Kconfig.preempt_warning); cleared whenever the owner
         lets go of it ([release_slot]: idle return, warning response,
         forced deadline or any other preemption), so a grant never hands
         a space a warning it was not given *)
}

and t = {
  sim : Sim.t;
  machine : Machine.t;
  costs : Cost_model.t;
  cfg : Kconfig.t;
  rng : Rng.t;
  slots : slot array;
  acts : (int, activation) Hashtbl.t;
  kthreads : (int, kthread) Hashtbl.t;  (* by kt_id; never removed *)
  mutable kt_ready_n : int;
  mutable kt_running_n : int;
  mutable kt_blocked_n : int;
  mutable kt_dead_n : int;
      (* per-state census maintained by [set_kt_state]; dumps and invariant
         audits read these instead of filtering a thread list *)
  mutable spaces : space list;  (* newest first; allocator pass order *)
  spaces_by_id : (int, space) Hashtbl.t;
      (* removed only by cluster migration ([Kernel.detach_space]) *)
  mutable runqs : (int * kthread Queue.t) list;  (* native: prio desc *)
  ids : int ref;
      (* id counter for spaces, activations, kthreads and I/O requests.
         Normally private to this kernel; a cluster shares one counter
         across all its kernels so ids stay globally unique and id-indexed
         client tables remain valid across space migration *)
  mutable realloc_pending : bool;
  mutable sched_pass_pending : bool;
  mutable rotation : int;
  mutable rotation_timer : Sim.handle option;
  alloc_scratch : Alloc_policy.scratch;
      (* the policy's inputs, targets and sort order, reused by every
         allocator pass so a pass allocates nothing *)
  stats : stats;
  mutable st_grants : int;  (* processors granted, all spaces *)
  mutable chaos_realloc_drop : bool;
      (* armed by the fault injector: the next deferred reallocation pass
         is silently discarded, modelling a lost reallocation request *)
  mutable io_fault_hook : (unit -> io_fault option) option;
  io_inflight : (int, unit -> unit) Hashtbl.t;
      (* outstanding I/O completions by request id, each a guarded
         fire-at-most-once closure; the chaos injector fires one early to
         model a spurious completion interrupt *)
  debug_frozen : (int, Cpu.preempted option) Hashtbl.t;
      (* debugger-stopped activations (Section 4.4): frozen context per
         activation id, invisible to the user level *)
}

let sim t = t.sim
let machine t = t.machine
let costs t = t.costs
let config t = t.cfg
let space_id sp = sp.sp_id
let space_name sp = sp.sp_name
let space_assigned sp = sp.sp_assigned
let space_desired sp = sp.sp_desired
let space_upcalls sp = sp.sp_upcalls
let space_grants sp = sp.sp_granted
let space_preempts sp = sp.sp_preempted
let kthread_id kt = kt.kt_id
let kthread_space kt = kt.kt_sp
let activation_id act = act.act_id
let activation_space act = act.act_sp

let same_space a b = a.sp_id = b.sp_id

(* All sp_assigned changes go through here so the ownership integral stays
   consistent. *)
let set_assigned t sp v =
  sp.sp_assigned <- v;
  (let tr = Sim.trace t.sim in
   if Trace.enabled tr Trace.Kernel then
     Trace.counter tr ~time:(Sim.now t.sim) Trace.Kernel
       ("procs:" ^ sp.sp_name) (float_of_int v));
  Sa_engine.Stats.Weighted.update sp.sp_alloc_track ~at:(Sim.now t.sim)
    ~level:(float_of_int v)

let slot_owned_by slot sp =
  match slot.slot_owner with Some o -> same_space o sp | None -> false

(* Every release of an owned processor goes through here, so a freed slot
   carries no preemption warning into its next grant. *)
let release_slot slot =
  slot.slot_owner <- None;
  slot.slot_warned <- false

let fresh_id t =
  incr t.ids;
  !(t.ids)

let tracef t fmt =
  Trace.emitf (Sim.trace t.sim) ~time:(Sim.now t.sim) Trace.Kernel fmt

let upcall_tracef t fmt =
  Trace.emitf (Sim.trace t.sim) ~time:(Sim.now t.sim) Trace.Upcall fmt

(* Structured-trace helpers.  All emitters check the category's enable bit
   first, so these cost one branch when the category is off. *)
let ktrace t = Sim.trace t.sim

let trace_instant t ?cpu ?space ?act ?detail cat name =
  Trace.instant (ktrace t) ~time:(Sim.now t.sim) ?cpu ?space ?act ?detail cat
    name

let trace_counter t cat name v =
  Trace.counter (ktrace t) ~time:(Sim.now t.sim) cat name v

(* Downcalls (Table 3) appear as instants on the trace; they share the
   Upcall category so enabling it captures the whole SA protocol. *)
let trace_downcall t ?cpu ?space ?act name =
  trace_instant t ?cpu ?space ?act Trace.Upcall ("downcall:" ^ name)

let defer t f = ignore (Sim.schedule_after t.sim ~delay:0 f)

let upcall_cost t =
  if t.cfg.Kconfig.tuned_upcalls then t.costs.Cost_model.upcall
  else
    int_of_float
      (float_of_int t.costs.Cost_model.upcall
      *. t.costs.Cost_model.upcall_untuned_factor)

let ncpus t = Machine.cpu_count t.machine

(* ------------------------------------------------------------------ *)
(* Kernel-thread census                                                *)
(* ------------------------------------------------------------------ *)

let kt_count_bump t st d =
  match st with
  | K_ready -> t.kt_ready_n <- t.kt_ready_n + d
  | K_running _ -> t.kt_running_n <- t.kt_running_n + d
  | K_blocked -> t.kt_blocked_n <- t.kt_blocked_n + d
  | K_dead -> t.kt_dead_n <- t.kt_dead_n + d

(* Every kt_state transition goes through here so the census counters stay
   exact without ever walking the thread table. *)
let set_kt_state t kt st =
  kt_count_bump t kt.kt_state (-1);
  kt_count_bump t st 1;
  kt.kt_state <- st

let register_kthread t kt =
  Hashtbl.replace t.kthreads kt.kt_id kt;
  kt_count_bump t kt.kt_state 1

let kthread_count t = Hashtbl.length t.kthreads

let register_space t sp =
  t.spaces <- sp :: t.spaces;
  Hashtbl.replace t.spaces_by_id sp.sp_id sp

(* Cluster migration only: pull a space out of this kernel's books.  The
   space record itself stays live — it is about to be re-registered on a
   peer kernel. *)
let unregister_space t sp =
  t.spaces <- List.filter (fun s -> not (same_space s sp)) t.spaces;
  Hashtbl.remove t.spaces_by_id sp.sp_id

(* ------------------------------------------------------------------ *)
(* Slot helpers                                                        *)
(* ------------------------------------------------------------------ *)

let kt_occupant kt = kt.kt_occ

(* Build the cached occupants at record creation. *)
let make_kt_occ ~sp ~name = Cpu.Occupant { space = sp.sp_id; detail = name }
let make_act_occ sp detail = Cpu.Occupant { space = sp.sp_id; detail }

let slot_of_cpu t cpu_id = t.slots.(cpu_id)

(* Sentinel for [slot_q_fire]-not-yet-built.  A named closure, not [ignore]:
   [ignore] is the [%ignore] primitive and eta-expands to a distinct closure
   at every use site, so identity tests against it are meaningless. *)
let quantum_fire_unset : unit -> unit = fun () -> ()

let cancel_quantum t slot =
  Sim.cancel t.sim slot.slot_quantum;
  slot.slot_quantum <- Sim.null_handle

let kt_runnable_delta sp d =
  match sp.sp_kind with
  | Kthreads k -> k.kt_runnable <- k.kt_runnable + d
  | Sa _ -> ()

let charge_on_slot slot ~occupant ~cost k =
  Cpu.begin_work slot.slot_cpu ~occupant ~length:cost k

(* Save a preempted kernel thread's machine state: when next dispatched it
   re-charges the unfinished remainder of the interrupted segment. *)
let save_kt_context t kt (p : Cpu.preempted) =
  kt.kt_resume <-
    (fun () ->
      match kt.kt_state with
      | K_running cpu_id ->
          charge_on_slot (slot_of_cpu t cpu_id) ~occupant:(kt_occupant kt)
            ~cost:p.Cpu.remaining p.Cpu.resume
      | K_ready | K_blocked | K_dead -> failwith "resume of non-running kt")

(* Late-bound to break recursion between dispatch paths and the allocator;
   Allocator.install fills these in before the first space exists. *)
let reevaluate_ref : (t -> unit) ref = ref (fun _ -> ())
let schedule_pass_ref : (t -> unit) ref = ref (fun _ -> ())
let reevaluate t = !reevaluate_ref t
let schedule_pass t = !schedule_pass_ref t
