(** A simulated processor.

    A CPU is either idle or executing a single {e work segment}: a span of
    simulated compute time with a completion continuation.  The scheduling
    layers above charge every cost — application compute, thread-package
    bookkeeping, kernel traps, upcall delivery — as segments, so overhead
    consumes processor time exactly as it would on real hardware.

    A busy CPU can be {!preempt}ed, which cancels the pending completion and
    hands the caller the unfinished remainder (span + continuation); saving
    that pair {e is} the simulated register state of the interrupted
    context. *)

type id = int

type t

type occupant =
  | Nobody
  | Kernel_idle  (** kernel idle loop *)
  | Occupant of { space : int; detail : string }
      (** running on behalf of address space [space]; [detail] is a
          human-readable label for traces *)

type preempted = {
  elapsed : Sa_engine.Time.span;  (** work completed before the interrupt *)
  remaining : Sa_engine.Time.span;  (** work left to run *)
  resume : unit -> unit;  (** continuation to invoke after re-charging
                              [remaining] on some CPU *)
}

val create : Sa_engine.Sim.t -> id -> t
val id : t -> id
val is_busy : t -> bool
(** A segment or spin is in flight.  The only record of it: {!Machine}
    keeps no copy. *)

val occupant : t -> occupant

val set_occupant : t -> occupant -> unit
(** Label the CPU without starting a segment (used for idle bookkeeping). *)

val begin_work :
  t -> occupant:occupant -> length:Sa_engine.Time.span -> (unit -> unit) -> unit
(** [begin_work cpu ~occupant ~length k] starts a segment.  The CPU must be
    idle (raises [Invalid_argument] otherwise).  After [length] of simulated
    time, the CPU becomes idle and [k ()] runs.  A zero [length] completes
    via the event queue, preserving FIFO ordering. *)

val begin_spin :
  t ->
  occupant:occupant ->
  slice:Sa_engine.Time.span ->
  length:Sa_engine.Time.span ->
  poll:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [begin_spin cpu ~occupant ~slice ~length ~poll k] starts a spin: one
    segment that runs [length] of simulated time in slices of [slice] (the
    last one shorter if [slice] does not divide [length]).  At each slice
    boundary it calls [poll ()]; when that reports work, or the spin is used
    up, the CPU becomes idle and [k ()] runs, as after {!begin_work}.  An
    empty boundary re-arms the next slice inside the CPU, making exactly
    the record updates, [Cpu] trace spans and single [Sim.schedule_after]
    that a segment end plus a new {!begin_work} of that slice would — so
    {!busy_time}, {!segment_count}, traces and every event's [(time, seq)]
    key match a chain of per-slice segments — without returning to the
    caller.  The CPU must be idle and [slice] and [length] positive (raises
    [Invalid_argument] otherwise). *)

val preempt : ?resume_on:(unit -> t) -> t -> preempted option
(** Stop the current segment immediately.  [None] if the CPU was idle.  The
    CPU is idle afterwards; the caller owns the returned context.  For a
    spin, [elapsed] and [remaining] are those of the interrupted slice, and
    [resume] takes that slice's boundary and then spins on for the unspent
    length — so a stopped and resumed spin ends where it would have,
    shifted by the stop.  The rest of the spin runs on [resume_on ()],
    asked when [resume] runs (by default this CPU): a context that may be
    redispatched elsewhere, like a preempted kernel thread's, names the
    processor it then holds. *)

val busy_time : t -> Sa_engine.Time.span
(** Total simulated time this CPU has spent executing segments (completed
    work only; an in-flight segment contributes once finished or
    preempted). *)

val segment_count : t -> int
(** Number of segments started. *)

val pp : Format.formatter -> t -> unit
