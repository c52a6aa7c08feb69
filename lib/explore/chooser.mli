(** Strategy choosers over the engine's choice points.

    A {!Sa_engine.Sim.chooser} answers every choice point of a run: the
    same-instant event ordering in the simulator ([sim-order]), the kernel's
    allocator rotation ([alloc-rotation]), the same-instant deferral of I/O
    completions and cluster network deliveries ([io-complete],
    [net-deliver], both through {!Sa_engine.Sim.defer_hops}),
    spurious-completion targeting ([io-spurious]), FastThreads steal
    victims ([steal-victim]), the kernel's own RNG draws ([kernel-rng]),
    network jitter ([net-jitter]) and the fault injector's streams
    ([inject:<kind>]).  This module provides the search strategies and the
    record/replay combinators built over that interface. *)

module Sim = Sa_engine.Sim

val default : Sim.chooser
(** Answers every choice point with its default — a run under [default] is
    bit-for-bit identical to a run with no chooser installed. *)

val random_walk : seed:int -> unit -> Sim.chooser
(** Seeded random walk: every ordering pick is uniform over its
    alternatives, and each interposed RNG draw is re-randomized with
    probability 0.2.  Perturbed draws move injector and kernel-RNG timing —
    the coarse-timing axis same-instant reordering cannot reach. *)

val pct : seed:int -> depth:int -> length:int -> Sim.chooser
(** PCT-style bounded search.  Each site receives a seeded priority
    displacement (0 with probability 0.7, else 1–2) applied to every pick
    at that site, and [depth] change points are drawn uniformly from
    [\[0, length)] (pick indices, estimated from a probe run): at a change
    point the pick is fully random.  Most of the run thus follows a single
    systematic skew of the FIFO order, with [depth] adversarial switches —
    the analogue of PCT's random thread priorities plus [d] priority-change
    points, biased toward the upcall/critical-section races a purely
    uniform walk rarely assembles.  RNG draws keep their defaults. *)

(** {1 Recording} *)

type recording

val recording : ?inner:Sim.chooser -> unit -> recording * Sim.chooser
(** [recording ~inner ()] wraps [inner] (default {!default}) so that every
    consulted choice point is appended to a decision log.  Out-of-range
    answers from [inner] are normalized to the default before being
    recorded, so a recorded schedule always replays verbatim. *)

val recorded : recording -> Schedule.t
(** The decisions logged so far, in consultation order (no metadata). *)

(** {1 Replay} *)

type replay_mode =
  | Strict
      (** any mismatch between the schedule and the run's actual choice
          points raises {!Divergence} — used to cross-check a replay *)
  | Lenient
      (** on mismatch, fall back to defaults for the rest of the run — used
          by the shrinker, whose masked replays legitimately change the
          downstream decision sequence *)

exception Divergence of { at : int; reason : string }

val replaying :
  ?mode:replay_mode ->
  ?active:(int -> bool) ->
  Schedule.t ->
  Sim.chooser * (unit -> int)
(** [replaying sched] re-drives a run from its recorded decisions,
    returning the chooser and a function reporting how many decisions have
    been consumed.  Decision [i] is applied only when [active i] (default
    always); an inactive decision is consumed but answered with the run's
    own default, which is how the shrinker masks divergences.  In [Strict]
    mode (the default) a site/arity mismatch, or running past the end of
    the schedule, raises {!Divergence}. *)
