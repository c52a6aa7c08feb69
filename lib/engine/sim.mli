(** Discrete-event simulation driver.

    A [Sim.t] owns the simulated clock and the pending-event queue.  Events
    scheduled for the same instant fire in scheduling order (FIFO), which
    makes runs fully deterministic.  Event callbacks may schedule and cancel
    further events. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val null_handle : handle
(** A handle naming no event: {!cancel} on it is a no-op.  Lets callers
    keep a [handle] field without an option box. *)

val create : unit -> t
(** Fresh simulation at time {!Time.zero}, with a fresh {!Trace.t}. *)

val now : t -> Time.t
(** Current simulated time. *)

val trace : t -> Trace.t

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule sim ~at f] arranges for [f ()] to run at instant [at].  Raises
    [Invalid_argument] if [at] is in the past. *)

val schedule_after : t -> delay:Time.span -> (unit -> unit) -> handle
(** [schedule_after sim ~delay f] schedules [f] at [now + delay].  A negative
    [delay] is an error; [delay = 0] fires after currently-queued events for
    this instant. *)

val schedule_tick : t -> period:Time.span -> (unit -> unit) -> handle
(** [schedule_tick sim ~period f] is [schedule_after sim ~delay:period f]:
    the same instant, the same place in same-instant order, the same
    handle behaviour.  It is cheaper for a tick re-armed at a fixed period:
    all ticks of one period share a FIFO lane of the event queue, where
    adding, firing and cancelling one is O(1).  Raises [Invalid_argument]
    if [period] is negative. *)

val cancel : t -> handle -> unit
(** Cancel a pending event.  Idempotent; harmless if already fired. *)

val pending : t -> int
(** Number of live scheduled events. *)

val step : t -> bool
(** Fire the next event, advancing the clock.  [false] if none pending. *)

val run : ?until:Time.t -> t -> unit
(** Fire events in order until the queue is empty, or until the next event
    would fire after [until] (the clock is then left at the last fired
    event's time). *)

val run_for : t -> Time.span -> unit
(** [run_for sim d] is [run ~until:(now + d) sim]. *)

val run_while : t -> (unit -> bool) -> unit
(** Fire events while the predicate holds and events remain.  Used to drive
    a simulation populated with perpetual periodic activity (e.g. kernel
    daemons) until a workload-completion condition. *)

exception Stalled of string

val stall : t -> string -> 'a
(** Abort the simulation, reporting a deadlock or invariant violation.  The
    message carried by {!Stalled} is suffixed with the current clock, the
    pending-event count and the same-instant counter, so a failure report is
    enough to locate the stall in a deterministic replay. *)

val events : t -> int
(** Total events fired since creation (the throughput numerator reported by
    [bench scale]).  Deterministic: a digest-identical schedule fires the
    same number of events. *)

val same_instant_count : t -> int
(** Events fired at the current instant since the clock last advanced (the
    counter guarded by {!set_same_instant_limit}). *)

val set_same_instant_limit : t -> int -> unit
(** Livelock guard: if more than this many events fire without the clock
    advancing (default 200,000), the simulation raises {!Stalled} — a
    zero-delay event loop would otherwise hang the process while simulated
    time stands still. *)

(** {1 Choice points}

    Every source of schedule nondeterminism in the system funnels through a
    single optional {!chooser}, so exploration tools can record, replay and
    perturb the full decision sequence of a run.  With no chooser installed
    ({!set_chooser}[ t None], the default) every choice point returns its
    [default] and the run is bit-for-bit identical to the pre-chooser
    behaviour. *)

type chooser = {
  ch_pick : site:string -> arity:int -> default:int -> int;
      (** [ch_pick ~site ~arity ~default] selects one of [arity >= 2]
          alternatives at the named choice point; [default] reproduces the
          unperturbed behaviour.  Out-of-range results are treated as
          [default]. *)
  ch_draw : site:string -> default:int64 -> int64;
      (** [ch_draw ~site ~default] may override a raw 64-bit random draw;
          [default] is the value the underlying generator produced. *)
}

val set_chooser : t -> chooser option -> unit
(** Install (or clear) the chooser.  While installed, same-instant event
    ordering in {!step} is routed through [ch_pick] at site ["sim-order"]
    (candidates in FIFO order, so choice 0 is today's behaviour), and
    components consult {!pick}/{!draw} at their own sites. *)

val chooser : t -> chooser option

val pick : t -> site:string -> arity:int -> default:int -> int
(** [pick t ~site ~arity ~default] consults the installed chooser, or
    returns [default] if none (or if the chooser's answer is out of range).
    Raises [Invalid_argument] if [arity <= 0]. *)

val draw : t -> site:string -> default:int64 -> int64
(** [draw t ~site ~default] consults the installed chooser's [ch_draw], or
    returns [default] if none. *)

val defer_hops : t -> site:string -> (unit -> unit) -> unit
(** [defer_hops t ~site k] runs [k] after 0–2 zero-delay events, the count
    a {!pick} at [site] chooses (arity 3, default 0), so an explorer can
    order [k] behind other events of the same instant.  With no chooser
    [k] runs at once. *)
