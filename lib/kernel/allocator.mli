(** The space-sharing processor allocator (Section 4.1): drives the pure
    {!Alloc_policy} over every space's priority and demand, reclaims
    above-target processors (optionally through the Psyche/Symunix warning
    protocol) and grants free ones below-target, with the remainder
    rotation of Section 4.1.  Passes are coalesced behind the late-bound
    {!Ktypes.reevaluate}/{!Ktypes.schedule_pass} entry points, which
    {!install} fills in.

    A pass loads every space's claim into the kernel's reusable
    [alloc_scratch], runs the policy's array core, and writes
    each space's target into its [sp_target] field; the two phases then
    read [sp_target] directly. *)

open Ktypes

val install : unit -> unit
(** Bind {!Ktypes.reevaluate_ref} and {!Ktypes.schedule_pass_ref} to the
    coalesced reallocation / native dispatch passes.  Idempotent;
    [Kernel.create] calls it before any space exists. *)

val set_chaos_realloc_drop : t -> bool -> unit
(** Arm (or disarm) the injector's lost-reallocation fault: the next
    deferred pass is silently discarded. *)

val set_space_priority : t -> space -> int -> unit
val chaos_preempt : t -> cpu:int -> bool

val preempt_slot_now : t -> space -> slot -> unit
(** Immediately reclaim [slot] from [sp]: the interrupted context becomes a
    [Processor_preempted] event in the space's pending queue.  Used by the
    reallocation pass and by cluster migration ([Kernel.detach_space]). *)

val do_reallocate : t -> unit
(** One allocator pass, now (explicit mode; a no-op otherwise).  Its cost
    is O(spaces) when every space already holds its target, and a pass
    that moves nothing allocates nothing.  Otherwise each space above its
    target adds O(cpus) (warnings are counted only for those), each
    processor reclaimed adds O(cpus), and granting adds one O(cpus) scan
    of the slot table shared by all below-target spaces. *)
