(** Scheduler activations (Sections 3.1-3.3): Table-2 upcall vectoring,
    the activation recycle pool, delivery-segment requeueing and
    manager-segment repair (critical-section recovery glue), the Table-3
    downcalls, and Section 4.4 debugger support. *)

open Ktypes
module Time = Sa_engine.Time

(** {1 Mechanism shared with the Allocator} *)

val sa_fields : space -> sa_space_state
(** @raise Invalid_argument on a kthread space. *)

val deliver_upcall :
  t -> slot -> space -> extra_cost:Time.span -> Upcall.event list -> unit
(** Deliver [events] on [slot] with a fresh or recycled activation.
    [extra_cost] accounts for the interrupt that freed the processor. *)

val drain_pending : space -> Upcall.event list
(** Take the space's queued Table-2 events, oldest first. *)

val stop_activation_on : t -> slot -> Upcall.event list
(** Stop the activation running on [slot] (if any): requeue an in-flight
    delivery, run a manager segment's repair action, or wrap the
    interrupted user thread as a [Processor_preempted] event. *)

val notify_sa : t -> space -> unit
(** Deliver the space's pending events by borrowing one of its own
    processors, or raise demand if it has none. *)

(** {1 Traps from the user level} *)

val sa_charge :
  ?repair:(unit -> unit) ->
  t ->
  activation ->
  Time.span ->
  (unit -> unit) ->
  unit

val sa_spin :
  t ->
  activation ->
  slice:Time.span ->
  length:Time.span ->
  poll:(unit -> bool) ->
  (unit -> unit) ->
  unit

val sa_block_io : t -> activation -> io:Time.span -> (unit -> unit) -> unit

val sa_block_kernel :
  t -> activation -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit

(** {1 Downcalls (Table 3)} *)

val sa_request_preempt : t -> space -> cpu:int -> unit
val sa_add_more_processors : t -> space -> int -> unit
val sa_cpu_idle : t -> activation -> unit
val sa_cpu_warned : t -> activation -> bool
val sa_respond_warning : t -> activation -> unit
val sa_return_activation : t -> int -> unit
val swap_out_manager : t -> space -> unit

(** {1 Debugger support (Section 4.4)} *)

val debug_stop : t -> activation -> unit
val debug_resume : t -> activation -> unit
