(* The simulated kernel (interface and contract in kernel.mli).  One module
   over one mutable [t], in sections:

     State        - record types, id-indexed lookup tables of live
                    entities, and small helpers that read or update state
                    without making scheduling decisions
     I/O          - I/O completion delivery: fault hooks, retry backoff,
                    guarded fire-once wakeups (the chaos contract)
     KT scheduler - the oblivious kernel-thread scheduler (Section 2.2):
                    run queues, dispatch, time-slicing, the kt_* operations
     Activations  - Table-2 event vectoring, activation pool/recycling,
                    critical-section recovery glue, the Table-3 downcalls
                    and debugger support (Sections 3.1-3.3, 4.4)
     Allocator    - the space-sharing processor allocator driving the pure
                    Alloc_policy (Section 4.1)

   then creation, introspection and cluster migration.

   Dispatch paths re-trigger the allocator and vice versa.  Those back
   edges go through two closures each kernel builds once in [create]
   ([realloc_pass], [sched_pass]): [reevaluate] and [schedule_pass] defer
   them, so an early section can request a pass that a later one
   defines. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model
module Io_device = Sa_hw.Io_device

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* The counters [stats] reports; only the kernel writes them. *)
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

type act_state =
  | A_running of int (* cpu id *)
  | A_blocked
  | A_stopped  (* context reported to the user level, awaiting recycling *)
  | A_free  (* in the recycle pool *)

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
  on_upcall : upcall_delivery -> unit;
  mutable pending : Upcall.event list;  (* newest first *)
  mutable pool : activation list;
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
  mutable sp_owned_ns : Time.span;
      (* processor-nanoseconds owned up to [sp_owned_since] *)
  mutable sp_owned_since : Time.t;  (* last change of [sp_assigned] *)
  mutable sp_target : int;
      (* processors the last allocator pass assigned this space; written
         for every registered space at the start of each pass *)
}

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
  kthreads : (int, kthread) Hashtbl.t;
      (* live kernel threads by kt_id; [kt_exit] removes its caller *)
  mutable kt_exited : int;  (* kernel threads that have exited *)
  mutable spaces : space list;  (* newest first; allocator pass order *)
  spaces_by_id : (int, space) Hashtbl.t;
      (* removed only by cluster migration ([detach_space]) *)
  mutable runqs : (int * kthread Queue.t) list;  (* native: prio desc *)
  ids : int ref;
      (* id counter for spaces, activations, kthreads and I/O requests.
         Normally private to this kernel; a cluster shares one counter
         across all its kernels so ids stay globally unique and id-indexed
         client tables remain valid across space migration *)
  mutable realloc_pending : bool;
  mutable sched_pass_pending : bool;
  realloc_pass : unit -> unit;
  sched_pass : unit -> unit;
      (* the deferred allocator pass and native dispatch sweep behind
         [reevaluate]/[schedule_pass], built once in [create] so that
         requesting a pass allocates no closure *)
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
  mutable io_fault_hook : (unit -> Io_device.fault option) option;
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
let space_home sp = sp.sp_home
let space_assigned sp = sp.sp_assigned
let space_desired sp = sp.sp_desired
let space_upcalls sp = sp.sp_upcalls
let space_grants sp = sp.sp_granted
let space_preempts sp = sp.sp_preempted
let activation_id act = act.act_id
let activation_space act = act.act_sp
let cpu_activation t cpu = t.slots.(cpu).slot_act

let same_space a b = a.sp_id = b.sp_id

(* Processor-nanoseconds [sp] has owned by [now]. *)
let owned_ns sp now =
  sp.sp_owned_ns + (sp.sp_assigned * Time.diff now sp.sp_owned_since)

(* All sp_assigned changes go through here so the ownership integral stays
   consistent. *)
let set_assigned t sp v =
  let now = Sim.now t.sim in
  sp.sp_owned_ns <- owned_ns sp now;
  sp.sp_owned_since <- now;
  sp.sp_assigned <- v;
  let tr = Sim.trace t.sim in
  if Trace.enabled tr Trace.Kernel then
    Trace.counter tr ~time:now Trace.Kernel ("procs:" ^ sp.sp_name)
      (float_of_int v)

let slot_owned_by slot sp =
  match slot.slot_owner with Some o -> same_space o sp | None -> false

(* Every processor an owner gives up or loses goes back to the allocator
   through here, so a freed slot carries no preemption warning into its
   next grant. *)
let release_slot t slot sp =
  slot.slot_owner <- None;
  slot.slot_warned <- false;
  set_assigned t sp (sp.sp_assigned - 1)

let fresh_id t =
  incr t.ids;
  !(t.ids)

let tracef t fmt =
  Trace.emitf (Sim.trace t.sim) ~time:(Sim.now t.sim) Trace.Kernel fmt

let upcall_tracef t fmt =
  Trace.emitf (Sim.trace t.sim) ~time:(Sim.now t.sim) Trace.Upcall fmt

(* Structured-trace helpers.  Every emitter checks the category's enable
   bit before it records anything, but its arguments are built first: a
   [tracef] still applies them to [Format.ikfprintf], and [trace_instant]
   boxes each optional one.  Callers on a hot path therefore test
   [kernel_traced] (or [Trace.enabled]) themselves, so tracing off costs
   them one branch and no allocation. *)
let ktrace t = Sim.trace t.sim

let kernel_traced t = Trace.enabled (ktrace t) Trace.Kernel

let trace_instant t ?cpu ?space ?act ?detail cat name =
  Trace.instant (ktrace t) ~time:(Sim.now t.sim) ?cpu ?space ?act ?detail cat
    name

let trace_counter t cat name v =
  Trace.counter (ktrace t) ~time:(Sim.now t.sim) cat name v

(* Downcalls (Table 3) appear as instants on the trace; they share the
   Upcall category so enabling it captures the whole SA protocol.  The ids
   are plain ints ([Trace.no_id] for none) and the name is built after the
   enable test, so an untraced downcall allocates nothing. *)
let trace_downcall t ~cpu ~space ~act name =
  let tr = ktrace t in
  if Trace.enabled tr Trace.Upcall then
    Trace.instant tr ~time:(Sim.now t.sim) ~cpu ~space ~act Trace.Upcall
      ("downcall:" ^ name)

let defer t f = ignore (Sim.schedule_after t.sim ~delay:0 f)

(* Coalesced request for an explicit-mode reallocation pass. *)
let reevaluate t =
  if not t.realloc_pending then begin
    t.realloc_pending <- true;
    defer t t.realloc_pass
  end

(* Coalesced request for a native-mode dispatch sweep. *)
let schedule_pass t =
  if not t.sched_pass_pending then begin
    t.sched_pass_pending <- true;
    defer t t.sched_pass
  end

(* A processor its owner has no work for returns to the allocator and
   idles in the kernel until its next grant. *)
let return_idle_cpu t slot sp =
  release_slot t slot sp;
  Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle;
  reevaluate t

let upcall_cost t =
  int_of_float
    (float_of_int t.costs.Cost_model.upcall
    *. t.costs.Cost_model.upcall_untuned_factor)

let ncpus t = Machine.cpu_count t.machine

let register_space t sp =
  t.spaces <- sp :: t.spaces;
  Hashtbl.replace t.spaces_by_id sp.sp_id sp

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

(* The slot of the processor [kt] holds. *)
let kt_slot t kt =
  match kt.kt_state with
  | K_running cpu_id -> slot_of_cpu t cpu_id
  | K_ready | K_blocked | K_dead ->
      failwith (Printf.sprintf "kthread %s used ops while not running" kt.kt_name)

(* Save a preempted kernel thread's machine state: when next dispatched it
   re-charges the unfinished remainder of the interrupted segment. *)
let save_kt_context t kt (p : Cpu.preempted) =
  kt.kt_resume <-
    (fun () ->
      match kt.kt_state with
      | K_running cpu_id ->
          charge_on_slot (slot_of_cpu t cpu_id) ~occupant:kt.kt_occ
            ~cost:p.Cpu.remaining p.Cpu.resume
      | K_ready | K_blocked | K_dead -> failwith "resume of non-running kt")

(* ------------------------------------------------------------------ *)
(* I/O completion                                                      *)
(* ------------------------------------------------------------------ *)

(* Every blocking I/O in either kernel personality funnels through
   [schedule_io_completion]. *)

let set_io_fault_injector t hook = t.io_fault_hook <- hook
let io_inflight_count t = Hashtbl.length t.io_inflight

(* Retry backoff for transiently failed I/O completions: doubling from the
   floor, capped so a fault streak cannot push a wakeup past the horizon. *)
let io_backoff_floor = Time.us 200
let io_backoff_cap = Time.ms 10

(* Chaos-aware I/O completion.  The wake closure is guarded to fire at most
   once: a spurious completion injected early absorbs the real completion
   later (and vice versa) instead of waking the same thread twice, which
   would trip the blocked-state checks downstream.  The fault hook is
   consulted at each nominal completion instant; transient errors retry
   with exponential backoff, delays just postpone the interrupt. *)
let schedule_io_completion t ~io wake =
  let id = fresh_id t in
  let fired = ref false in
  let fire () =
    if !fired then t.stats.spurious_dropped <- t.stats.spurious_dropped + 1
    else begin
      fired := true;
      Hashtbl.remove t.io_inflight id;
      wake ()
    end
  in
  Hashtbl.replace t.io_inflight id fire;
  let rec attempt ~delay ~backoff =
    ignore
      (Sim.schedule_after t.sim ~delay (fun () ->
           if !fired then
             t.stats.spurious_dropped <- t.stats.spurious_dropped + 1
           else
             let fault =
               match t.io_fault_hook with None -> None | Some h -> h ()
             in
             match fault with
             | None ->
                 (* An explorer may let other same-instant events (upcalls,
                    preemptions, spurious completions) go ahead of the
                    wakeup. *)
                 Sim.defer_hops t.sim ~site:"io-complete" fire
             | Some (Io_device.Fault_delay extra) ->
                 t.stats.io_faults <- t.stats.io_faults + 1;
                 attempt ~delay:extra ~backoff
             | Some Io_device.Fault_transient_error ->
                 t.stats.io_faults <- t.stats.io_faults + 1;
                 t.stats.io_retries <- t.stats.io_retries + 1;
                 attempt ~delay:backoff
                   ~backoff:(min (backoff * 2) io_backoff_cap)))
  in
  attempt ~delay:io ~backoff:io_backoff_floor

(* Fire an outstanding I/O completion early — a spurious completion
   interrupt.  [pick] selects among the in-flight requests (sorted by id so
   the choice depends only on the caller's seed).  Returns false if nothing
   was in flight.  Chaos-only: the sort is off the default hot path. *)
let chaos_spurious_completion t ~pick =
  let n = Hashtbl.length t.io_inflight in
  if n = 0 then false
  else begin
    let keys =
      List.sort compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.io_inflight [])
    in
    let idx = ((pick mod n) + n) mod n in
    (* The injector's victim choice is itself a schedule decision: an
       installed chooser may redirect it to any other in-flight request. *)
    let idx = Sim.pick t.sim ~site:"io-spurious" ~arity:n ~default:idx in
    let id = List.nth keys idx in
    let fire = Hashtbl.find t.io_inflight id in
    t.stats.spurious_fired <- t.stats.spurious_fired + 1;
    tracef t "chaos: spurious completion of I/O request %d" id;
    fire ();
    true
  end

(* ------------------------------------------------------------------ *)
(* Kernel-thread scheduler                                             *)
(* ------------------------------------------------------------------ *)

(* "Oblivious" because nothing here consults user-level state: under
   native Topaz the kernel time-slices whatever is runnable; under explicit
   allocation it time-slices within the processors the allocator granted to
   the space. *)

let runq_for t prio =
  match List.assoc_opt prio t.runqs with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      t.runqs <-
        List.sort (fun (a, _) (b, _) -> compare b a) ((prio, q) :: t.runqs);
      q

let runq_depth t =
  List.fold_left (fun n (_, q) -> n + Queue.length q) 0 t.runqs

(* Counter track for the native global run queue.  The depth fold only runs
   when the category is recorded. *)
let trace_runq t =
  if Trace.enabled (ktrace t) Trace.Kernel then
    trace_counter t Trace.Kernel "runq:native" (float_of_int (runq_depth t))

let runq_push t kt =
  Queue.add kt (runq_for t kt.kt_prio);
  trace_runq t

let runq_pop t =
  let rec go = function
    | [] -> None
    | (_, q) :: rest -> (
        match Queue.take_opt q with Some kt -> Some kt | None -> go rest)
  in
  match go t.runqs with
  | Some kt ->
      trace_runq t;
      Some kt
  | None -> None

let runq_head_prio t =
  let rec go = function
    | [] -> None
    | (prio, q) :: rest -> if Queue.is_empty q then go rest else Some prio
  in
  go t.runqs

(* Update a kernel-thread space's demand signal (explicit mode) from its
   runnable count; the kernel derives this from internal data structures
   for binary-compatible address spaces (Section 4.1). *)
let refresh_kt_desired t sp =
  match sp.sp_kind with
  | Kthreads k ->
      let d = Int.min k.kt_runnable (ncpus t) in
      if d <> sp.sp_desired then begin
        sp.sp_desired <- d;
        if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then reevaluate t
      end
  | Sa _ -> ()

let local_runq sp =
  match sp.sp_kind with
  | Kthreads k -> k.local_runq
  | Sa _ -> invalid_arg "kernel thread in an SA space"

(* A ready kernel thread waits on the global priority queues under native
   Topaz and on its space's own FIFO under explicit allocation.  These three
   functions are the only ones that choose between the two. *)
let kt_enqueue t kt =
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious -> runq_push t kt
  | Kconfig.Explicit_allocation -> Queue.add kt (local_runq kt.kt_sp)

(* The next ready kernel thread for [slot]'s processor: under explicit
   allocation, one of its owner's. *)
let kt_take t slot =
  match (t.cfg.Kconfig.mode, slot.slot_owner) with
  | Kconfig.Native_oblivious, _ -> runq_pop t
  | Kconfig.Explicit_allocation, Some sp -> Queue.take_opt (local_runq sp)
  | Kconfig.Explicit_allocation, None -> None

(* Whether a peer that may take [kt]'s processor at quantum end is waiting:
   one of sufficient priority anywhere under native mode, any of its own
   space's under explicit allocation. *)
let kt_contender t kt =
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious -> (
      match runq_head_prio t with Some p -> p >= kt.kt_prio | None -> false)
  | Kconfig.Explicit_allocation -> not (Queue.is_empty (local_runq kt.kt_sp))

(* Stop [kt] on [slot] and put it back on its ready queue with its
   interrupted segment saved.  Every caller runs in its own event, when a
   kernel thread holding a processor always has a segment in flight.  An
   interrupted [kt_spin] resumes its unspent length on whichever processor
   [kt] holds once the slice's remainder has run there, not on [slot]. *)
let kt_bump t slot kt =
  (match
     Cpu.preempt slot.slot_cpu ~resume_on:(fun () -> (kt_slot t kt).slot_cpu)
   with
  | Some p -> save_kt_context t kt p
  | None -> failwith "kt_bump: running kthread has no segment in flight");
  cancel_quantum t slot;
  slot.slot_kt <- None;
  kt.kt_state <- K_ready;
  kt_enqueue t kt

let rec dispatch_kt_on t slot kt =
  slot.slot_kt <- Some kt;
  slot.slot_gen <- slot.slot_gen + 1;
  kt.kt_state <- K_running (Cpu.id slot.slot_cpu);
  t.stats.kt_dispatches <- t.stats.kt_dispatches + 1;
  let cost = t.costs.Cost_model.kt_context_switch + kt.kt_pending_cost in
  kt.kt_pending_cost <- 0;
  (* Kernel threads time-slice in both kernels: globally under native
     Topaz, within the address space's granted processors under explicit
     allocation (the paper hands those processors "to the original Topaz
     thread scheduler", Section 4.1). *)
  arm_quantum t slot kt;
  (* Capture the saved continuation now: if this dispatch segment is itself
     preempted, save_kt_context will overwrite [kt_resume], and reading it
     lazily at completion would chase our own wrapper forever. *)
  let resume = kt.kt_resume in
  kt.kt_resume <- (fun () -> failwith "kthread resumed without dispatch");
  charge_on_slot slot ~occupant:kt.kt_occ ~cost resume

and arm_quantum t slot kt =
  cancel_quantum t slot;
  (* The timer callback is one closure per slot, built on first use; re-arms
     only rewrite the armed-for fields.  The dispatch hot path runs this once
     per kthread dispatch, so the Some/closure pair it used to allocate was
     measurable in the scale benchmark. *)
  if slot.slot_q_fire == quantum_fire_unset then
    slot.slot_q_fire <- (fun () -> quantum_fire t slot);
  slot.slot_q_gen <- slot.slot_gen;
  slot.slot_q_ktid <- kt.kt_id;
  slot.slot_quantum <-
    Sim.schedule_after t.sim ~delay:t.costs.Cost_model.time_slice
      slot.slot_q_fire

and quantum_fire t slot =
  slot.slot_quantum <- Sim.null_handle;
  match slot.slot_kt with
  | Some kt when slot.slot_gen = slot.slot_q_gen && kt.kt_id = slot.slot_q_ktid ->
      if kt_contender t kt then timeslice_preempt t slot kt
      else arm_quantum t slot kt
  | _ -> ()

(* The quantum has fired, so [kt_bump]'s cancel finds no timer. *)
and timeslice_preempt t slot kt =
  t.stats.kt_timeslices <- t.stats.kt_timeslices + 1;
  if kernel_traced t then
    tracef t "timeslice: preempt kt%d (%s) on cpu%d" kt.kt_id kt.kt_name
      (Cpu.id slot.slot_cpu);
  kt_bump t slot kt;
  dispatch_next t slot

(* Give [slot]'s free processor the next ready kernel thread, or idle it in
   the kernel. *)
and dispatch_next t slot =
  if not (Cpu.is_busy slot.slot_cpu) then
    match kt_take t slot with
    | Some kt -> dispatch_kt_on t slot kt
    | None ->
        slot.slot_kt <- None;
        Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle

(* An interrupt (a daemon's wakeup, or chaos) takes [slot] from the kernel
   thread running there and gives it to the next ready one. *)
let kt_preempt t slot kt =
  t.stats.preemptions <- t.stats.preemptions + 1;
  kt_bump t slot kt;
  dispatch_next t slot

(* A processor freed by a kernel thread: find it new work, or under
   explicit allocation return it to the allocator. *)
let kt_cpu_released t slot =
  match (t.cfg.Kconfig.mode, slot.slot_owner) with
  | Kconfig.Native_oblivious, _ -> dispatch_next t slot
  | Kconfig.Explicit_allocation, Some ({ sp_kind = Kthreads _; _ } as sp) -> (
      match kt_take t slot with
      | Some kt -> dispatch_kt_on t slot kt
      | None -> return_idle_cpu t slot sp)
  | Kconfig.Explicit_allocation, (Some { sp_kind = Sa _; _ } | None) ->
      reevaluate t

(* Make a kernel thread runnable and get it a processor if one is due. *)
let make_ready t kt =
  (match kt.kt_state with
  | K_dead -> failwith "make_ready: dead kthread"
  | K_running _ -> failwith "make_ready: already running"
  | K_ready | K_blocked -> ());
  kt.kt_state <- K_ready;
  kt_runnable_delta kt.kt_sp 1;
  kt_enqueue t kt;
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious ->
      if kt.kt_random_wake then begin
        (* The wakeup interrupt fires on an arbitrary processor and the
           woken higher-priority thread runs there at once — even if some
           other processor is idle.  This is the native-Topaz obliviousness
           the paper contrasts with explicit allocation (Section 5.3). *)
        t.stats.daemon_wakeups <- t.stats.daemon_wakeups + 1;
        let slot = t.slots.(Rng.int t.rng (ncpus t)) in
        defer t (fun () ->
            match slot.slot_kt with
            | Some victim when victim.kt_prio < kt.kt_prio ->
                kt_preempt t slot victim
            | Some _ | None -> schedule_pass t)
      end
      else schedule_pass t
  | Kconfig.Explicit_allocation ->
      refresh_kt_desired t kt.kt_sp;
      (* If the space has a granted processor sitting idle, use it. *)
      defer t (fun () ->
          Array.iter
            (fun slot ->
              if
                slot_owned_by slot kt.kt_sp
                && slot.slot_kt = None
                && not (Cpu.is_busy slot.slot_cpu)
              then
                match kt_take t slot with
                | Some kt' -> dispatch_kt_on t slot kt'
                | None -> ())
            t.slots)

let kt_leave_cpu t kt =
  let slot = kt_slot t kt in
  cancel_quantum t slot;
  slot.slot_kt <- None;
  slot

(* Block or exit: [kt] leaves its processor and stops being runnable. *)
let kt_stop t kt resume st =
  kt.kt_resume <- resume;
  kt_runnable_delta kt.kt_sp (-1);
  let slot = kt_leave_cpu t kt in
  kt.kt_state <- st;
  refresh_kt_desired t kt.kt_sp;
  slot

(* The kernel-thread operations.  Each continuation runs when [kt] next
   holds a processor. *)
let kt_charge t kt cost k =
  charge_on_slot (kt_slot t kt) ~occupant:kt.kt_occ ~cost k

let kt_spin t kt ~slice ~length ~poll k =
  Cpu.begin_spin (kt_slot t kt).slot_cpu ~occupant:kt.kt_occ ~slice ~length
    ~poll k

let kt_block_for t kt span k =
  let slot = kt_stop t kt k K_blocked in
  t.stats.io_blocks <- t.stats.io_blocks + 1;
  Trace.span_begin (ktrace t) ~time:(Sim.now t.sim) ~space:kt.kt_sp.sp_id
    ~act:kt.kt_id Trace.Kernel "io-block";
  schedule_io_completion t ~io:span (fun () ->
      Trace.span_end (ktrace t) ~time:(Sim.now t.sim) ~space:kt.kt_sp.sp_id
        ~act:kt.kt_id Trace.Kernel "io-block";
      kt.kt_pending_cost <- kt.kt_pending_cost + t.costs.Cost_model.kt_unblock;
      make_ready t kt);
  kt_cpu_released t slot

let kt_block_on t kt ~register k =
  let slot = kt_stop t kt k K_blocked in
  register (fun () ->
      match kt.kt_state with
      | K_blocked ->
          kt.kt_pending_cost <-
            kt.kt_pending_cost + t.costs.Cost_model.kt_unblock;
          make_ready t kt
      | K_ready | K_running _ | K_dead ->
          failwith "wake of non-blocked kthread");
  kt_cpu_released t slot

let kt_yield t kt k =
  kt.kt_resume <- k;
  let slot = kt_leave_cpu t kt in
  kt.kt_state <- K_ready;
  kt_enqueue t kt;
  kt_cpu_released t slot

let kt_exit t kt =
  let slot = kt_stop t kt (fun () -> failwith "resumed dead kthread") K_dead in
  Hashtbl.remove t.kthreads kt.kt_id;
  t.kt_exited <- t.kt_exited + 1;
  kt_cpu_released t slot

let spawn_kthread_gen t sp ~name ~prio ~random_wake ~body () =
  (match sp.sp_kind with
  | Kthreads _ -> ()
  | Sa _ -> invalid_arg "spawn_kthread: SA space");
  let kt =
    {
      kt_id = fresh_id t;
      kt_sp = sp;
      kt_name = name;
      kt_occ = Cpu.Occupant { space = sp.sp_id; detail = name };
      kt_prio = prio;
      kt_random_wake = random_wake;
      kt_state = K_blocked;
      kt_resume = (fun () -> ());
      kt_pending_cost = 0;
    }
  in
  kt.kt_resume <- (fun () -> body kt);
  Hashtbl.replace t.kthreads kt.kt_id kt;
  make_ready t kt

let spawn_kthread t sp ~name ~body () =
  spawn_kthread_gen t sp ~name ~prio:sp.sp_prio ~random_wake:false ~body ()

(* Native-mode dispatch sweep, the pass behind [schedule_pass]: give every
   idle processor a look at the global queue. *)
let sched_pass t =
  t.sched_pass_pending <- false;
  if t.cfg.Kconfig.mode = Kconfig.Native_oblivious then
    Array.iter
      (fun slot ->
        if (not (Cpu.is_busy slot.slot_cpu)) && slot.slot_kt = None then
          dispatch_next t slot)
      t.slots

(* ------------------------------------------------------------------ *)
(* Scheduler activations                                               *)
(* ------------------------------------------------------------------ *)

let sa_fields sp =
  match sp.sp_kind with
  | Sa s -> s
  | Kthreads _ -> invalid_arg "not an SA space"

let make_act_occ sp detail = Cpu.Occupant { space = sp.sp_id; detail }

let alloc_activation t sp =
  let s = sa_fields sp in
  match s.pool with
  | act :: rest when t.cfg.Kconfig.activation_pooling ->
      s.pool <- rest;
      act.act_state <- A_stopped;
      (act, 0)
  | _ :: _ | [] ->
      let act =
        {
          act_id = fresh_id t;
          act_sp = sp;
          act_occ_uthread = make_act_occ sp "uthread";
          act_occ_manager = make_act_occ sp "manager";
          act_occ_upcall = make_act_occ sp "upcall";
          act_state = A_stopped;
          act_charge_k = ignore;
          act_charge_done = ignore;
          act_repair = None;
        }
      in
      act.act_charge_done <-
        (fun () ->
          let k = act.act_charge_k in
          act.act_charge_k <- ignore;
          act.act_repair <- None;
          k ());
      Hashtbl.replace t.acts act.act_id act;
      (act, t.costs.Cost_model.activation_fresh_alloc)

(* An activation the user level will not resume goes back to the pool
   (Section 4.3), or is dropped when pooling is off. *)
let free_activation t act =
  act.act_state <- A_free;
  act.act_charge_k <- ignore;
  act.act_repair <- None;
  if t.cfg.Kconfig.activation_pooling then begin
    let s = sa_fields act.act_sp in
    s.pool <- act :: s.pool
  end
  else Hashtbl.remove t.acts act.act_id

let upcall_traced t = Trace.enabled (ktrace t) Trace.Upcall

(* One span per Table-2 event carried by an upcall, open until the user
   level receives the delivery (or it is requeued by a preemption).  Spans
   are keyed by the delivering activation's id, so a preempted delivery
   cannot corrupt the nesting of the per-CPU tracks. *)
let trace_event_span t sp act edge ev =
  let emit = match edge with `B -> Trace.span_begin | `E -> Trace.span_end in
  emit (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id ~act:act.act_id
    ~detail:(Format.asprintf "%a" Upcall.pp_event ev)
    Trace.Upcall
    ("upcall:" ^ Upcall.event_name ev)

(* Deliver an upcall on [slot] (no in-flight segment) with a fresh or
   recycled activation.  [extra_cost] accounts for the interrupt that freed
   the processor, if any. *)
let deliver_upcall t slot sp ~extra_cost events =
  assert (events <> []);
  let s = sa_fields sp in
  let act, alloc_cost = alloc_activation t sp in
  act.act_state <- A_running (Cpu.id slot.slot_cpu);
  slot.slot_act <- Some act;
  slot.slot_kt <- None;
  t.stats.upcalls <- t.stats.upcalls + 1;
  t.stats.upcall_events <- t.stats.upcall_events + List.length events;
  sp.sp_upcalls <- sp.sp_upcalls + 1;
  if upcall_traced t then
    upcall_tracef t "upcall to %s on cpu%d act%d: %s" sp.sp_name
      (Cpu.id slot.slot_cpu) act.act_id
      (String.concat ", "
         (List.map (Format.asprintf "%a" Upcall.pp_event) events));
  if upcall_traced t then List.iter (trace_event_span t sp act `B) events;
  (* Section 3.1: if the thread manager's pages are swapped out, the upcall
     would immediately page fault; fault them in first, delaying delivery by
     one I/O. *)
  let fault_cost =
    if sp.sp_manager_swapped then begin
      sp.sp_manager_swapped <- false;
      t.costs.Cost_model.io_latency
    end
    else 0
  in
  let cost = upcall_cost t + alloc_cost + extra_cost + fault_cost in
  slot.slot_delivery <- Some events;
  charge_on_slot slot ~occupant:act.act_occ_upcall ~cost (fun () ->
      slot.slot_delivery <- None;
      if upcall_traced t then
        List.iter (trace_event_span t sp act `E) (List.rev events);
      s.on_upcall
        { uc_activation = act; uc_cpu = slot.slot_cpu; uc_events = events })

(* Take the space's queued Table-2 events, oldest first. *)
let drain_pending sp =
  let s = sa_fields sp in
  let events = List.rev s.pending in
  s.pending <- [];
  events

(* Stop the activation running on [slot] (if any).  Three cases:
   - an upcall delivery was in flight: requeue its undelivered events;
   - a manager segment was running: invoke its repair action;
   - a user thread was running: wrap the interrupted computation as a
     Processor_preempted event carrying the saved context. *)
let stop_activation_on t slot =
  let preempted =
    match slot.slot_act with
    | Some victim when Hashtbl.mem t.debug_frozen victim.act_id ->
        (* debugger-frozen: the saved context lives in the freeze table *)
        let ctx = Hashtbl.find t.debug_frozen victim.act_id in
        Hashtbl.remove t.debug_frozen victim.act_id;
        ctx
    | Some _ | None -> Cpu.preempt slot.slot_cpu
  in
  match slot.slot_act with
  | None -> []
  | Some victim -> (
      let s = sa_fields victim.act_sp in
      slot.slot_act <- None;
      match slot.slot_delivery with
      | Some events ->
          (* The user level never saw these events; put them back. *)
          slot.slot_delivery <- None;
          List.iter
            (fun ev ->
              Trace.span_end (ktrace t) ~time:(Sim.now t.sim)
                ~space:victim.act_sp.sp_id ~act:victim.act_id
                ~detail:"requeued" Trace.Upcall
                ("upcall:" ^ Upcall.event_name ev))
            (List.rev events);
          s.pending <- List.rev_append events s.pending;
          free_activation t victim;
          []
      | None -> (
          match victim.act_repair with
          | Some repair ->
              free_activation t victim;
              repair ();
              []
          | None ->
              victim.act_state <- A_stopped;
              let ctx =
                match preempted with
                | Some p ->
                    (* If the interrupted segment was charged through
                       [sa_charge], its resume is the victim's shared
                       completion wrapper, whose continuation slot the
                       pooled record may reuse before this context is
                       redispatched.  Detach the real continuation now —
                       preemption is cold, the allocation is fine here. *)
                    let resume =
                      if p.Cpu.resume == victim.act_charge_done then begin
                        let k = victim.act_charge_k in
                        victim.act_charge_k <- ignore;
                        k
                      end
                      else p.Cpu.resume
                    in
                    { Upcall.remaining = p.Cpu.remaining; resume }
                | None -> { Upcall.remaining = 0; resume = (fun () -> ()) }
              in
              [ Upcall.Processor_preempted { act = victim.act_id; ctx } ]))

(* Interrupt [slot]'s processor and deliver the space's pending events,
   plus the interrupted context as a Processor_preempted event, in one
   upcall on it: the space keeps the processor. *)
let interrupt_and_deliver t slot sp =
  let extra = stop_activation_on t slot in
  let events =
    match drain_pending sp @ extra with
    | [] -> [ Upcall.Add_processor ]
    | events -> events
  in
  deliver_upcall t slot sp ~extra_cost:t.costs.Cost_model.preempt_interrupt
    events

(* Notify an SA space of pending events by borrowing one of its own
   processors — the paper's I/O-completion dance. *)
let notify_sa t sp =
  let s = sa_fields sp in
  if s.pending <> [] then begin
    let slot_opt =
      Array.fold_left
        (fun acc slot ->
          match acc with
          | Some _ -> acc
          | None -> if slot_owned_by slot sp then Some slot else None)
        None t.slots
    in
    match slot_opt with
    | Some slot -> interrupt_and_deliver t slot sp
    | None ->
        (* The space has no processor: it needs one to receive the
           notification ("the kernel must allocate one to do the upcall").
           Raise demand; the allocator will deliver events with the grant. *)
        if sp.sp_desired < 1 then sp.sp_desired <- 1;
        reevaluate t
  end

let sa_charge ?repair t act cost k =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      act.act_repair <- repair;
      let occupant =
        match repair with
        | Some _ -> act.act_occ_manager
        | None -> act.act_occ_uthread
      in
      act.act_charge_k <- k;
      charge_on_slot slot ~occupant ~cost act.act_charge_done
  | A_blocked | A_stopped | A_free ->
      failwith "sa_charge: activation not running"

(* Idle spinning is manager work whose interruption loses nothing. *)
let spin_repair = Some (fun () -> ())

let sa_spin t act ~slice ~length ~poll k =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      act.act_repair <- spin_repair;
      act.act_charge_k <- k;
      Cpu.begin_spin slot.slot_cpu ~occupant:act.act_occ_manager ~slice
        ~length ~poll act.act_charge_done
  | A_blocked | A_stopped | A_free ->
      failwith "sa_spin: activation not running"

(* Block the user-level thread running in [act].  The caller has already
   charged the kernel-trap cost as part of the thread's last segment, so the
   transition itself is instantaneous: the activation blocks and a fresh
   activation immediately notifies the user level on the same processor. *)
let sa_block_common t act ~arrange_wakeup k =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      let sp = act.act_sp in
      let s = sa_fields sp in
      act.act_state <- A_blocked;
      act.act_repair <- None;
      slot.slot_act <- None;
      t.stats.io_blocks <- t.stats.io_blocks + 1;
      Trace.span_begin (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id
        ~act:act.act_id Trace.Kernel "io-block";
      arrange_wakeup (fun () ->
          (match act.act_state with
          | A_blocked -> ()
          | A_running _ | A_stopped | A_free ->
              failwith "sa wakeup: activation not blocked");
          Trace.span_end (ktrace t) ~time:(Sim.now t.sim) ~space:sp.sp_id
            ~act:act.act_id Trace.Kernel "io-block";
          (* The kernel never resumes the thread directly: it reports
             Activation_unblocked with the saved user context. *)
          act.act_state <- A_stopped;
          s.pending <-
            Upcall.Activation_unblocked
              { act = act.act_id; ctx = { Upcall.remaining = 0; resume = k } }
            :: s.pending;
          (* Deferred: the waker may be user code in the middle of its own
             segment-completion; interrupting processors is only sound from
             the event loop, when every processor's state is quiescent.
             [sp_home] is resolved inside the closure: the space may have
             migrated to another kernel between block and wakeup. *)
          defer t (fun () -> notify_sa sp.sp_home sp));
      deliver_upcall t slot sp ~extra_cost:0
        [ Upcall.Activation_blocked { act = act.act_id } ]
  | A_blocked | A_stopped | A_free ->
      failwith "sa_block: activation not running"

let sa_block_io t act ~io k =
  sa_block_common t act k ~arrange_wakeup:(fun wake ->
      schedule_io_completion t ~io wake)

let sa_block_kernel t act ~register k =
  sa_block_common t act k ~arrange_wakeup:register

(* Section 3.1's priority extension: the user level, which knows exactly
   which of its threads runs on each of its processors, may ask the kernel
   to interrupt one of its own processors so a higher-priority thread can
   take it.  The stop is delivered as a Processor_preempted event in an
   upcall on the same processor. *)
let sa_request_preempt t sp ~cpu =
  if cpu < 0 || cpu >= ncpus t then invalid_arg "sa_request_preempt: cpu";
  trace_downcall t ~cpu ~space:sp.sp_id ~act:Trace.no_id "preempt-processor";
  defer t (fun () ->
      let slot = slot_of_cpu t cpu in
      if slot_owned_by slot sp then begin
        match sp.sp_kind with
        | Sa _ -> interrupt_and_deliver t slot sp
        | Kthreads _ -> ()
      end)

let sa_add_more_processors t sp n =
  if n < 0 then invalid_arg "sa_add_more_processors";
  trace_downcall t ~cpu:Trace.no_id ~space:sp.sp_id ~act:Trace.no_id
    "add-more-processors";
  let want = min (ncpus t) (sp.sp_assigned + n) in
  if want > sp.sp_desired then begin
    sp.sp_desired <- want;
    if kernel_traced t then
      tracef t "%s requests %d more processors (desired=%d)" sp.sp_name n
        sp.sp_desired;
    reevaluate t
  end

(* Table 3's voluntary returns: the activation running on [slot] is
   recycled and the processor goes back to the allocator. *)
let sa_give_back t act slot downcall =
  let sp = act.act_sp in
  trace_downcall t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id
    ~act:act.act_id downcall;
  free_activation t act;
  slot.slot_act <- None;
  return_idle_cpu t slot sp

let sa_cpu_idle t act =
  match act.act_state with
  | A_running cpu_id ->
      let sp = act.act_sp in
      sa_give_back t act (slot_of_cpu t cpu_id) "this-processor-is-idle";
      sp.sp_desired <- min sp.sp_desired sp.sp_assigned;
      if kernel_traced t then
        tracef t "%s returns cpu%d (idle)" sp.sp_name cpu_id
  | A_blocked | A_stopped | A_free -> failwith "sa_cpu_idle: not running"

(* The warning side of the Psyche/Symunix protocol: the user level polls at
   safe points and relinquishes voluntarily. *)
let sa_cpu_warned t act =
  match act.act_state with
  | A_running cpu_id -> (slot_of_cpu t cpu_id).slot_warned
  | A_blocked | A_stopped | A_free -> false

let sa_respond_warning t act =
  match act.act_state with
  | A_running cpu_id ->
      let slot = slot_of_cpu t cpu_id in
      if not slot.slot_warned then
        invalid_arg "sa_respond_warning: no warning outstanding";
      sa_give_back t act slot "respond-warning";
      tracef t "%s responds to warning, releases cpu%d" act.act_sp.sp_name
        cpu_id
  | A_blocked | A_stopped | A_free ->
      invalid_arg "sa_respond_warning: activation not running"

let sa_return_activation t act_id =
  match Hashtbl.find_opt t.acts act_id with
  | None -> invalid_arg "sa_return_activation: unknown activation"
  | Some act -> (
      trace_downcall t ~cpu:Trace.no_id ~space:act.act_sp.sp_id ~act:act_id
        "return-activation";
      match act.act_state with
      | A_stopped -> free_activation t act
      | A_free -> ()  (* already in the pool (bulk returns may repeat) *)
      | A_running _ | A_blocked ->
          failwith "sa_return_activation: activation still in use")

let swap_out_manager _t sp =
  match sp.sp_kind with
  | Sa _ -> sp.sp_manager_swapped <- true
  | Kthreads _ -> invalid_arg "swap_out_manager: not an SA space"

(* Debugger support (Section 4.4).  A debugged activation is moved to a
   "logical processor": its execution freezes but no upcall is generated —
   transparency demands the thread system not observe the debugger's
   stops. *)
let debug_stop t act =
  match act.act_state with
  | A_running cpu_id ->
      if Hashtbl.mem t.debug_frozen act.act_id then
        invalid_arg "debug_stop: already stopped";
      let slot = slot_of_cpu t cpu_id in
      let ctx = Cpu.preempt slot.slot_cpu in
      Hashtbl.replace t.debug_frozen act.act_id ctx;
      tracef t "debugger stops act%d (logical processor; no upcall)"
        act.act_id
  | A_blocked | A_stopped | A_free ->
      invalid_arg "debug_stop: activation not running"

let debug_resume t act =
  match Hashtbl.find_opt t.debug_frozen act.act_id with
  | None -> invalid_arg "debug_resume: activation not stopped"
  | Some ctx -> (
      Hashtbl.remove t.debug_frozen act.act_id;
      tracef t "debugger resumes act%d" act.act_id;
      match (act.act_state, ctx) with
      | A_running cpu_id, Some p ->
          let slot = slot_of_cpu t cpu_id in
          charge_on_slot slot ~occupant:act.act_occ_uthread
            ~cost:p.Cpu.remaining p.Cpu.resume
      | A_running _, None -> ()
      | (A_blocked | A_stopped | A_free), _ ->
          invalid_arg "debug_resume: activation no longer running")

(* ------------------------------------------------------------------ *)
(* Allocator                                                           *)
(* ------------------------------------------------------------------ *)

(* The policy itself is the pure, property-tested Alloc_policy module; this
   section feeds it every space's priority and demand, then moves
   processors: phase 1 reclaims above-target processors (optionally via
   the Psyche/Symunix warning protocol), phase 2 grants free processors to
   below-target spaces. *)

let set_chaos_realloc_drop t armed = t.chaos_realloc_drop <- armed

(* Load every space's claim into the kernel's policy scratch (position i
   is the i-th space of [spaces]), solve, and store the targets back into
   [sp_target].  Top-level recursion over the list, no closures: a pass
   allocates nothing. *)
let rec load_claims sc i = function
  | [] -> ()
  | sp :: rest ->
      Alloc_policy.set_claim sc i ~space:sp.sp_id ~priority:sp.sp_prio
        ~desired:sp.sp_desired;
      load_claims sc (i + 1) rest

let rec store_targets sc i = function
  | [] -> ()
  | sp :: rest ->
      sp.sp_target <- Alloc_policy.target sc i;
      store_targets sc (i + 1) rest

let compute_targets t =
  let n = List.length t.spaces in
  (* The remainder rotation is a schedule decision: an installed chooser may
     advance it by up to one full cycle, permuting which equal-desire space
     receives the leftover processor this pass. *)
  let rotation =
    if n >= 2 then
      t.rotation + Sim.pick t.sim ~site:"alloc-rotation" ~arity:n ~default:0
    else t.rotation
  in
  let sc = t.alloc_scratch in
  Alloc_policy.set_count sc n;
  load_claims sc 0 t.spaces;
  Alloc_policy.solve sc ~cpus:(ncpus t) ~rotation;
  store_targets sc 0 t.spaces

(* Immediately reclaim [slot] from [sp]: the interrupted context becomes a
   Processor_preempted event in the space's pending queue.  Used by the
   reallocation pass and by cluster migration ([detach_space]). *)
let preempt_slot_now t sp slot =
  t.stats.preemptions <- t.stats.preemptions + 1;
  sp.sp_preempted <- sp.sp_preempted + 1;
  if kernel_traced t then begin
    tracef t "allocator: preempt cpu%d from %s" (Cpu.id slot.slot_cpu)
      sp.sp_name;
    trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
      "alloc:preempt"
  end;
  match sp.sp_kind with
  | Sa s ->
      let events = stop_activation_on t slot in
      s.pending <- List.rev_append events s.pending;
      release_slot t slot sp;
      (* Tell the old space, on another of its processors — or with its
         next grant if it has none left (the paper delays it too).  The
         notification resolves [sp_home] at fire time: a migrating space's
         preemption events must chase it to its new kernel. *)
      defer t (fun () -> notify_sa sp.sp_home sp)
  | Kthreads _ ->
      (* A processor without a kernel thread is idle, with no quantum armed. *)
      (match slot.slot_kt with Some kt -> kt_bump t slot kt | None -> ());
      release_slot t slot sp

(* Chaos: forcibly preempt whatever holds [cpu], exactly as the allocator
   or a native wakeup interrupt would, at an adversarial instant.  Explicit
   mode reclaims the processor from its owning space (the allocator then
   re-runs and typically hands it back, exercising the full preempt/upcall/
   regrant path, including mid-critical-section recovery); native mode
   bounces the running kernel thread through the global run queue.
   Returns false if the processor held nothing preemptible. *)
let chaos_preempt t ~cpu =
  if cpu < 0 || cpu >= ncpus t then invalid_arg "chaos_preempt: cpu";
  let slot = slot_of_cpu t cpu in
  match t.cfg.Kconfig.mode with
  | Kconfig.Explicit_allocation -> (
      match slot.slot_owner with
      | Some sp ->
          t.stats.chaos_preempts <- t.stats.chaos_preempts + 1;
          tracef t "chaos: forced preemption of cpu%d from %s" cpu sp.sp_name;
          preempt_slot_now t sp slot;
          reevaluate t;
          true
      | None -> false)
  | Kconfig.Native_oblivious -> (
      match slot.slot_kt with
      | Some kt ->
          t.stats.chaos_preempts <- t.stats.chaos_preempts + 1;
          tracef t "chaos: forced preemption of cpu%d from kt%d (%s)" cpu
            kt.kt_id kt.kt_name;
          kt_preempt t slot kt;
          true
      | None -> false)

let set_space_priority t sp prio =
  if prio < 0 then invalid_arg "set_space_priority: negative priority";
  if prio <> sp.sp_prio then begin
    sp.sp_prio <- prio;
    tracef t "%s priority set to %d" sp.sp_name prio;
    if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then reevaluate t
  end

let warned_count t sp =
  let n = ref 0 in
  for i = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(i) in
    if slot_owned_by slot sp && slot.slot_warned then incr n
  done;
  !n

let preempt_cpu_from t sp =
  let slot_opt =
    Array.fold_left
      (fun acc slot ->
        if slot_owned_by slot sp && not slot.slot_warned then Some slot
        else acc)
      None t.slots
  in
  match slot_opt with
  | None -> ()
  | Some slot -> (
      match (sp.sp_kind, t.cfg.Kconfig.preempt_warning) with
      | Sa _, Some grace ->
          (* Psyche/Symunix protocol: warn and wait; force at the
             deadline.  The claimant's grant is delayed for the duration —
             the priority violation Section 6 describes. *)
          slot.slot_warned <- true;
          tracef t "allocator: warn %s on cpu%d (grace %a)" sp.sp_name
            (Cpu.id slot.slot_cpu) Time.pp_span grace;
          ignore
            (Sim.schedule_after t.sim ~delay:grace (fun () ->
                 if slot_owned_by slot sp && slot.slot_warned then begin
                   preempt_slot_now t sp slot;
                   reevaluate t
                 end))
      | (Sa _ | Kthreads _), _ -> preempt_slot_now t sp slot)

let grant_cpu_to t slot sp =
  assert (not slot.slot_warned);
  slot.slot_owner <- Some sp;
  sp.sp_granted <- sp.sp_granted + 1;
  t.st_grants <- t.st_grants + 1;
  set_assigned t sp (sp.sp_assigned + 1);
  if kernel_traced t then begin
    tracef t "allocator: grant cpu%d to %s" (Cpu.id slot.slot_cpu)
      sp.sp_name;
    trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
      "alloc:grant"
  end;
  match sp.sp_kind with
  | Sa _ ->
      let events = Upcall.Add_processor :: drain_pending sp in
      deliver_upcall t slot sp ~extra_cost:0 events
  | Kthreads _ -> dispatch_next t slot

(* Phase 1 for one space above its target: reclaim the excess.
   Outstanding warnings count as reclaims in flight.  Returns the number of
   processors moved (warned or preempted). *)
let reclaim_excess t sp =
  let in_flight = ref (warned_count t sp) in
  let moved = ref 0 in
  while
    sp.sp_assigned - warned_count t sp > sp.sp_target
    && !in_flight < sp.sp_assigned
  do
    preempt_cpu_from t sp;
    incr in_flight;
    incr moved
  done;
  !moved

(* A space at or below its target cannot be over it, whatever its
   warnings: skip it without counting them. *)
let rec reclaim t moved = function
  | [] -> moved
  | sp :: rest ->
      let moved =
        if sp.sp_assigned > sp.sp_target then moved + reclaim_excess t sp
        else moved
      in
      reclaim t moved rest

(* The first slot at or after [i] that is unowned and not busy, or the
   slot count. *)
let rec next_free t i =
  if i >= Array.length t.slots then i
  else
    let slot = t.slots.(i) in
    match slot.slot_owner with
    | None when not (Cpu.is_busy slot.slot_cpu) -> i
    | None | Some _ -> next_free t (i + 1)

(* Phase 2: grant free processors to below-target spaces, oldest space
   first for determinism ([spaces] is newest first, so the older tail is
   served before the head).  [cursor] walks the slot table in cpu-id order
   across all spaces: granting only mutates the granted slot synchronously
   (begin_work schedules its completion, it does not run it), so a slot
   passed over stays unusable for the rest of the pass.  Returns the
   cursor and adds the grants to [st_grants]. *)
let rec grant_oldest_first t cursor = function
  | [] -> cursor
  | sp :: older -> fill t sp (grant_oldest_first t cursor older)

and fill t sp cursor =
  if sp.sp_assigned >= sp.sp_target then cursor
  else
    let i = next_free t cursor in
    if i >= Array.length t.slots then i
    else begin
      grant_cpu_to t t.slots.(i) sp;
      fill t sp (i + 1)
    end

let rec contested = function
  | [] -> false
  | sp :: rest -> sp.sp_desired > sp.sp_target || contested rest

let reallocate_now t =
  if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then begin
    compute_targets t;
    let grants = t.st_grants in
    let reclaimed = reclaim t 0 t.spaces in
    ignore (grant_oldest_first t 0 t.spaces : int);
    if reclaimed > 0 || t.st_grants > grants then
      t.stats.reallocations <- t.stats.reallocations + 1;
    (* Rotate an uneven remainder after a quantum (Section 4.1). *)
    if
      t.cfg.Kconfig.rotate_remainder && t.rotation_timer = None
      && contested t.spaces
    then
      t.rotation_timer <-
        Some
          (Sim.schedule_after t.sim ~delay:t.costs.Cost_model.time_slice
             (fun () ->
               t.rotation_timer <- None;
               t.rotation <- t.rotation + 1;
               reevaluate t))
  end

(* The deferred pass behind [reevaluate]. *)
let realloc_pass t =
  t.realloc_pending <- false;
  if t.chaos_realloc_drop then begin
    (* A lost reallocation request: demand raised before this pass stays
       unserved until some later event re-triggers the allocator. *)
    t.chaos_realloc_drop <- false;
    tracef t "chaos: reallocation pass dropped"
  end
  else reallocate_now t

(* ------------------------------------------------------------------ *)
(* Spaces & creation                                                   *)
(* ------------------------------------------------------------------ *)

let new_space t ~name ~priority kind =
  let sp =
    {
      sp_id = fresh_id t;
      sp_name = name;
      sp_home = t;
      sp_prio = priority;
      sp_kind = kind;
      sp_desired = 0;
      sp_assigned = 0;
      sp_upcalls = 0;
      sp_granted = 0;
      sp_preempted = 0;
      sp_manager_swapped = false;
      sp_owned_ns = 0;
      sp_owned_since = Sim.now t.sim;
      sp_target = 0;
    }
  in
  register_space t sp;
  sp

let new_kthread_space t ~name ?(priority = 0) () =
  new_space t ~name ~priority
    (Kthreads { local_runq = Queue.create (); kt_runnable = 0 })

let new_sa_space t ~name ?(priority = 0) ~on_upcall () =
  if t.cfg.Kconfig.mode = Kconfig.Native_oblivious then
    invalid_arg "new_sa_space: kernel is in Native_oblivious mode";
  new_space t ~name ~priority
    (Sa { on_upcall; pending = []; pool = [] })

(* The periodic Topaz kernel daemons (Section 5.3): wake every
   [daemon_period], run for [daemon_burst], go back to sleep. *)
let start_daemons t =
  let sp = new_kthread_space t ~name:"topaz-daemons" ~priority:10 () in
  let period = t.costs.Cost_model.daemon_period in
  let burst = t.costs.Cost_model.daemon_burst in
  let body kt =
    let rec loop () =
      kt_block_for t kt period (fun () ->
          if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then
            t.stats.daemon_wakeups <- t.stats.daemon_wakeups + 1;
          kt_charge t kt burst loop)
    in
    loop ()
  in
  spawn_kthread_gen t sp ~name:"daemon" ~prio:10 ~random_wake:true ~body ()

let create ?ids sim machine costs cfg =
  let slots =
    Array.map
      (fun cpu ->
        {
          slot_cpu = cpu;
          slot_owner = None;
          slot_kt = None;
          slot_act = None;
          slot_delivery = None;
          slot_quantum = Sim.null_handle;
          slot_q_gen = 0;
          slot_q_ktid = -1;
          slot_q_fire = quantum_fire_unset;
          slot_gen = 0;
          slot_warned = false;
        })
      (Machine.cpus machine)
  in
  let rec t =
    {
      sim;
      machine;
      costs;
      cfg;
      rng = Rng.create cfg.Kconfig.seed;
      slots;
      acts = Hashtbl.create 64;
      kthreads = Hashtbl.create 64;
      kt_exited = 0;
      spaces = [];
      spaces_by_id = Hashtbl.create 16;
      runqs = [];
      ids = (match ids with Some r -> r | None -> ref 0);
      realloc_pending = false;
      sched_pass_pending = false;
      realloc_pass = (fun () -> realloc_pass t);
      sched_pass = (fun () -> sched_pass t);
      rotation = 0;
      rotation_timer = None;
      alloc_scratch = Alloc_policy.scratch ();
      stats =
        {
          upcalls = 0;
          upcall_events = 0;
          preemptions = 0;
          reallocations = 0;
          io_blocks = 0;
          kt_dispatches = 0;
          kt_timeslices = 0;
          daemon_wakeups = 0;
          io_faults = 0;
          io_retries = 0;
          spurious_fired = 0;
          spurious_dropped = 0;
          chaos_preempts = 0;
        };
      st_grants = 0;
      chaos_realloc_drop = false;
      io_fault_hook = None;
      io_inflight = Hashtbl.create 32;
      debug_frozen = Hashtbl.create 8;
    }
  in
  (* Expose the kernel's own draws (native-mode random wakeups) as choice
     points; with no chooser installed the hook is an identity. *)
  Rng.interpose t.rng
    (Some (fun default -> Sim.draw sim ~site:"kernel-rng" ~default));
  if cfg.Kconfig.daemons then start_daemons t;
  t

(* ------------------------------------------------------------------ *)
(* Stats & invariants                                                  *)
(* ------------------------------------------------------------------ *)

(* A copy, so callers hold a snapshot rather than the live counters. *)
let stats t = { t.stats with upcalls = t.stats.upcalls }

let dump t ppf =
  Array.iter
    (fun slot ->
      Format.fprintf ppf "%a owner=%s kt=%s act=%s quantum=%b@."
        Cpu.pp slot.slot_cpu
        (match slot.slot_owner with Some sp -> sp.sp_name | None -> "-")
        (match slot.slot_kt with
        | Some kt -> Printf.sprintf "kt%d(%s)" kt.kt_id kt.kt_name
        | None -> "-")
        (match slot.slot_act with
        | Some a -> Printf.sprintf "act%d" a.act_id
        | None -> "-")
        (not (slot.slot_quantum == Sim.null_handle)))
    t.slots;
  List.iter
    (fun (prio, q) ->
      Format.fprintf ppf "runq[prio=%d]: %d@." prio (Queue.length q))
    t.runqs;
  (* The table holds live threads only; exited ones are a count.  The
     runnable ones are listed newest first. *)
  let ready = ref 0 and blocked = ref 0 in
  let live =
    Hashtbl.fold
      (fun _ kt acc ->
        match kt.kt_state with
        | K_ready ->
            incr ready;
            kt :: acc
        | K_running _ -> kt :: acc
        | K_blocked ->
            incr blocked;
            acc
        | K_dead -> acc)
      t.kthreads []
    |> List.sort (fun a b -> compare b.kt_id a.kt_id)
  in
  Format.fprintf ppf "kthreads: ready=%d blocked=%d dead=%d total=%d@." !ready
    !blocked t.kt_exited
    (Hashtbl.length t.kthreads + t.kt_exited);
  List.iter
    (fun kt ->
      Format.fprintf ppf "  live kt%d %s state=%s pending=%a@." kt.kt_id
        kt.kt_name
        (match kt.kt_state with
        | K_ready -> "ready"
        | K_running c -> Printf.sprintf "running@%d" c
        | K_blocked -> "blocked"
        | K_dead -> "dead")
        Time.pp_span kt.kt_pending_cost)
    live

let find_space t id = Hashtbl.find_opt t.spaces_by_id id

let space_cpu_seconds t sp = float_of_int (owned_ns sp (Sim.now t.sim)) /. 1e9

let free_cpus t =
  Array.fold_left
    (fun n slot -> if slot.slot_owner = None then n + 1 else n)
    0 t.slots

let check_invariants t =
  List.iter
    (fun sp ->
      let owned =
        Array.fold_left
          (fun n slot -> if slot_owned_by slot sp then n + 1 else n)
          0 t.slots
      in
      if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then begin
        if owned <> sp.sp_assigned then
          failwith
            (Printf.sprintf "invariant: %s owns %d cpus but assigned=%d"
               sp.sp_name owned sp.sp_assigned);
        match sp.sp_kind with
        | Sa _ ->
            (* Section 3.1: as many running activations as processors. *)
            let running =
              Hashtbl.fold
                (fun _ act n ->
                  match act.act_state with
                  | A_running _ when same_space act.act_sp sp -> n + 1
                  | A_running _ | A_blocked | A_stopped | A_free -> n)
                t.acts 0
            in
            if running <> sp.sp_assigned then
              failwith
                (Printf.sprintf
                   "invariant: %s has %d running activations, %d processors"
                   sp.sp_name running sp.sp_assigned)
        | Kthreads _ -> ()
      end)
    t.spaces;
  Array.iter
    (fun slot ->
      match slot.slot_act with
      | Some act -> (
          (match slot.slot_owner with
          | Some sp when same_space sp act.act_sp -> ()
          | Some _ | None ->
              failwith "invariant: activation on slot not owned by its space");
          match act.act_state with
          | A_running cpu_id when cpu_id = Cpu.id slot.slot_cpu -> ()
          | A_running _ | A_blocked | A_stopped | A_free ->
              failwith "invariant: slot activation not running here")
      | None -> ())
    t.slots;
  (* Kernel-thread placement, both ways: a kernel thread is running on a
     processor exactly when that processor's slot holds it. *)
  Array.iter
    (fun slot ->
      match slot.slot_kt with
      | Some kt -> (
          match kt.kt_state with
          | K_running cpu_id when cpu_id = Cpu.id slot.slot_cpu -> ()
          | K_running _ | K_ready | K_blocked | K_dead ->
              failwith
                (Printf.sprintf "invariant: cpu%d holds kt%d, not running there"
                   (Cpu.id slot.slot_cpu) kt.kt_id))
      | None -> ())
    t.slots;
  Hashtbl.iter
    (fun _ kt ->
      match kt.kt_state with
      | K_running cpu_id -> (
          match (slot_of_cpu t cpu_id).slot_kt with
          | Some k when k.kt_id = kt.kt_id -> ()
          | Some _ | None ->
              failwith
                (Printf.sprintf
                   "invariant: kt%d claims cpu%d but the slot disagrees"
                   kt.kt_id cpu_id))
      | K_ready | K_blocked | K_dead -> ())
    t.kthreads;
  (* The recycle pool must hold only free, distinct activations — a
     double-free shows up here no matter which path corrupted it. *)
  List.iter
    (fun sp ->
      match sp.sp_kind with
      | Sa s ->
          let seen = Hashtbl.create 16 in
          List.iter
            (fun act ->
              (match act.act_state with
              | A_free -> ()
              | A_running _ | A_blocked | A_stopped ->
                  failwith
                    (Printf.sprintf "invariant: pooled act%d is not free"
                       act.act_id));
              if Hashtbl.mem seen act.act_id then
                failwith
                  (Printf.sprintf "invariant: act%d pooled twice" act.act_id);
              Hashtbl.replace seen act.act_id ())
            s.pool
      | Kthreads _ -> ())
    t.spaces;
  (* Every running activation must sit on the slot it claims. *)
  Hashtbl.iter
    (fun _ act ->
      match act.act_state with
      | A_running cpu_id -> (
          let slot = slot_of_cpu t cpu_id in
          match slot.slot_act with
          | Some a when a.act_id = act.act_id -> ()
          | Some _ | None ->
              failwith
                (Printf.sprintf
                   "invariant: act%d claims cpu%d but the slot disagrees"
                   act.act_id cpu_id))
      | A_blocked | A_stopped | A_free -> ())
    t.acts

(* ------------------------------------------------------------------ *)
(* Cluster migration                                                   *)
(* ------------------------------------------------------------------ *)

(* A space in transit between kernels: the space record itself plus every
   activation record that belongs to it (blocked ones carry saved thread
   contexts; stopped/free ones are the recycle pool's backing store).
   Shared ids ([create ?ids]) keep the records globally unique, so the
   target kernel can index them without translation. *)
type migration = { mig_space : space; mig_acts : activation list }

let migration_act_count m = List.length m.mig_acts

let detach_space t sp =
  (match sp.sp_kind with
  | Sa _ -> ()
  | Kthreads _ -> invalid_arg "detach_space: only SA spaces migrate");
  if not (Hashtbl.mem t.spaces_by_id sp.sp_id) then
    invalid_arg "detach_space: space not registered here";
  (* Reclaim every processor the space holds.  Each interrupted context
     becomes a Processor_preempted event in the space's pending queue (the
     Table-2 drain) and travels with the migration; the deferred
     notifications chase [sp_home] and so deliver on the target. *)
  Array.iter
    (fun slot -> if slot_owned_by slot sp then preempt_slot_now t sp slot)
    t.slots;
  (* Pull the space out of this kernel's books.  The record stays live: it
     is about to be re-registered on a peer kernel. *)
  t.spaces <- List.filter (fun s -> not (same_space s sp)) t.spaces;
  Hashtbl.remove t.spaces_by_id sp.sp_id;
  sp.sp_desired <- 0;
  let acts =
    Hashtbl.fold
      (fun _ act acc -> if same_space act.act_sp sp then act :: acc else acc)
      t.acts []
    |> List.sort (fun a b -> compare a.act_id b.act_id)
  in
  List.iter (fun act -> Hashtbl.remove t.acts act.act_id) acts;
  tracef t "cluster: detach %s (%d activation records)" sp.sp_name
    (List.length acts);
  reevaluate t;
  { mig_space = sp; mig_acts = acts }

let attach_space t m =
  let sp = m.mig_space in
  if Hashtbl.mem t.spaces_by_id sp.sp_id then
    invalid_arg "attach_space: space id already registered here";
  register_space t sp;
  sp.sp_home <- t;
  List.iter (fun act -> Hashtbl.replace t.acts act.act_id act) m.mig_acts;
  tracef t "cluster: attach %s (%d activation records)" sp.sp_name
    (List.length m.mig_acts);
  (* The drained contexts (and any wakeups that landed mid-flight) are
     sitting in the pending queue; make sure the space gets a processor to
     receive them — the first grant delivers Add_processor plus the whole
     backlog through the normal path. *)
  (match sp.sp_kind with
  | Sa s -> if s.pending <> [] && sp.sp_desired < 1 then sp.sp_desired <- 1
  | Kthreads _ -> ());
  reevaluate t
