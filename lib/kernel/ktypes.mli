(** Shared kernel state: the mutable [t] every kernel layer operates on,
    with id-indexed lookup tables and per-state counters so censuses and
    space lookups are O(1).  All record types are concrete — the layers
    ({!Io_path}, {!Kt_sched}, {!Sa_upcall}, {!Allocator}) pattern-match on
    them freely; the {!Kernel} facade re-exports the public subset with
    type equations so client code is unaware of the split. *)

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
  | A_stopped  (** context reported to the user level, awaiting recycling *)
  | A_free  (** in the recycle pool *)

type io_fault = Io_delay of Time.span | Io_transient_error

type kthread = {
  kt_id : int;
  kt_sp : space;
  kt_name : string;
  kt_occ : Cpu.occupant;  (** cached: charged on every segment *)
  kt_prio : int;
  kt_random_wake : bool;
  mutable kt_state : kt_state;
  mutable kt_resume : unit -> unit;
  mutable kt_pending_cost : Time.span;
}

and activation = {
  act_id : int;
  act_sp : space;
  act_occ_uthread : Cpu.occupant;  (** cached per-label occupants: *)
  act_occ_manager : Cpu.occupant;  (** building one per charged segment *)
  act_occ_upcall : Cpu.occupant;  (** showed up in profiles *)
  mutable act_state : act_state;
  mutable act_charge_k : unit -> unit;
  mutable act_charge_done : unit -> unit;
  mutable act_repair : (unit -> unit) option;
}

and kt_space_state = {
  local_runq : kthread Queue.t;
  mutable kt_runnable : int;
}

and sa_space_state = {
  client : sa_client;
  mutable pending : Upcall.event list;  (** newest first *)
  mutable pool : activation list;
  mutable running_acts : int;
  mutable blocked_acts : int;
}

and space_kind = Kthreads of kt_space_state | Sa of sa_space_state

and space = {
  sp_id : int;
  sp_name : string;
  mutable sp_home : t;
      (** the kernel currently hosting this space; cluster migration
          re-points it, and deferred notifications resolve it at fire time *)
  mutable sp_prio : int;
  sp_kind : space_kind;
  mutable sp_desired : int;
  mutable sp_assigned : int;
  mutable sp_upcalls : int;
  mutable sp_granted : int;  (** processors granted by the allocator *)
  mutable sp_preempted : int;  (** processors reclaimed by the allocator *)
  mutable sp_manager_swapped : bool;
  sp_alloc_track : Sa_engine.Stats.Weighted.t;
  mutable sp_target : int;
      (** processors the last allocator pass assigned (explicit mode) *)
}

and sa_client = { on_upcall : upcall_delivery -> unit }

and upcall_delivery = {
  uc_activation : activation;
  uc_cpu : Cpu.t;
  uc_events : Upcall.event list;
}

and slot = {
  slot_cpu : Cpu.t;
  mutable slot_owner : space option;
  mutable slot_kt : kthread option;
  mutable slot_act : activation option;
  mutable slot_delivery : Upcall.event list option;
  mutable slot_quantum : Sim.handle;
  mutable slot_q_gen : int;
  mutable slot_q_ktid : int;
  mutable slot_q_fire : unit -> unit;
  mutable slot_gen : int;
  mutable slot_warned : bool;
      (** a preemption warning is outstanding; cleared by {!release_slot} *)
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
  mutable kt_ready_n : int;
  mutable kt_running_n : int;
  mutable kt_blocked_n : int;
  mutable kt_dead_n : int;
  mutable spaces : space list;
  spaces_by_id : (int, space) Hashtbl.t;
  mutable runqs : (int * kthread Queue.t) list;
  ids : int ref;
      (** id counter; shared across a cluster's kernels so space/activation
          ids stay globally unique under migration *)
  mutable realloc_pending : bool;
  mutable sched_pass_pending : bool;
  mutable rotation : int;
  mutable rotation_timer : Sim.handle option;
  alloc_scratch : Alloc_policy.scratch;
  stats : stats;
  mutable st_grants : int;
  mutable chaos_realloc_drop : bool;
  mutable io_fault_hook : (unit -> io_fault option) option;
  io_inflight : (int, unit -> unit) Hashtbl.t;
  debug_frozen : (int, Cpu.preempted option) Hashtbl.t;
}

(** {1 Accessors} *)

val sim : t -> Sim.t
val machine : t -> Machine.t
val costs : t -> Cost_model.t
val config : t -> Kconfig.t
val space_id : space -> int
val space_name : space -> string
val space_assigned : space -> int
val space_desired : space -> int
val space_upcalls : space -> int
val space_grants : space -> int
val space_preempts : space -> int
val kthread_id : kthread -> int
val kthread_space : kthread -> space
val activation_id : activation -> int
val activation_space : activation -> space
val same_space : space -> space -> bool

(** {1 State updates} *)

val set_assigned : t -> space -> int -> unit
(** All [sp_assigned] changes go through here so the ownership integral
    and the trace counter stay consistent. *)

val slot_owned_by : slot -> space -> bool

val release_slot : slot -> unit
(** Clear the slot's owner and any outstanding preemption warning.  Every
    release of an owned processor goes through here. *)

val fresh_id : t -> int

val set_kt_state : t -> kthread -> kt_state -> unit
(** The only legal way to change [kt_state]: maintains the per-state
    census counters ([kt_ready_n] …) at the transition site. *)

val register_kthread : t -> kthread -> unit
(** Enter a freshly spawned kthread into the id table and the census. *)

val kthread_count : t -> int

val register_space : t -> space -> unit
(** Prepend to [spaces] (newest first — the allocator's pass order) and
    index by id for O(1) [find_space]. *)

val unregister_space : t -> space -> unit
(** Cluster migration only: remove the space from [spaces] and the id
    index.  The record stays live for re-registration on a peer kernel. *)

(** {1 Tracing} *)

val tracef : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
val upcall_tracef : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
val ktrace : t -> Trace.t

val trace_instant :
  t ->
  ?cpu:int ->
  ?space:int ->
  ?act:int ->
  ?detail:string ->
  Trace.category ->
  string ->
  unit

val trace_counter : t -> Trace.category -> string -> float -> unit
val trace_downcall : t -> ?cpu:int -> ?space:int -> ?act:int -> string -> unit

(** {1 Small helpers} *)

val defer : t -> (unit -> unit) -> unit
val upcall_cost : t -> Time.span
val ncpus : t -> int
val kt_occupant : kthread -> Cpu.occupant
val make_kt_occ : sp:space -> name:string -> Cpu.occupant
val make_act_occ : space -> string -> Cpu.occupant
val slot_of_cpu : t -> int -> slot
val quantum_fire_unset : unit -> unit
(** Sentinel marking [slot_q_fire] as not yet built (identity-tested; a
    named closure because [ignore] eta-expands per use site). *)

val cancel_quantum : t -> slot -> unit
val kt_runnable_delta : space -> int -> unit

val charge_on_slot :
  slot -> occupant:Cpu.occupant -> cost:Time.span -> (unit -> unit) -> unit

val save_kt_context : t -> kthread -> Cpu.preempted -> unit

(** {1 Late-bound allocator entry points}

    Dispatch paths re-trigger the allocator and the allocator re-triggers
    dispatch; the recursion is broken by these refs, installed once by
    {!Allocator.install} before any space exists. *)

val reevaluate_ref : (t -> unit) ref
val schedule_pass_ref : (t -> unit) ref

val reevaluate : t -> unit
(** Coalesced request for an explicit-mode reallocation pass. *)

val schedule_pass : t -> unit
(** Coalesced request for a native-mode dispatch sweep. *)
