(** Chaos campaign driver: seeded sweeps of randomized workloads under
    fault injection, in both kernel personalities.

    Each seed deterministically generates a small multiprogrammed
    workload (lock-heavy, I/O-heavy and cache-reading threads across two
    address spaces), attaches the {!Invariant} checker (auditing every
    simulated millisecond) and the {!Injector}, and runs to completion
    under a horizon.  A campaign passes when every seed completes with zero
    invariant violations; a failing seed reproduces the identical
    trajectory when rerun alone. *)

module Time = Sa_engine.Time
module Kconfig = Sa_kernel.Kconfig

type config = {
  cpus : int;  (** default 4 *)
  horizon : Time.span;  (** simulated-time budget per seed (default 10 s) *)
  kinds : Injector.kind list;
      (** injected fault kinds (default {!Injector.survivable_kinds}) *)
}

val default : config

type outcome =
  | Completed of Time.span
      (** all jobs finished; payload is the simulated makespan *)
  | Violation of string
      (** {!Sa_engine.Sim.Stalled} — an invariant violation or livelock,
          with the full diagnostic dump *)
  | No_completion of string
      (** the horizon passed with unfinished jobs (lost work) *)

type result = {
  seed : int;
  mode : Kconfig.mode;
  outcome : outcome;
  audits : int;  (** invariant audits performed *)
  injected : (string * int) list;  (** injected events by kind *)
  kstats : Sa_kernel.Kernel.stats;
}

val mode_name : Kconfig.mode -> string

val check :
  kinds:Injector.kind list option ->
  label:string ->
  seed:int ->
  horizon:Time.span ->
  Sa.System.t ->
  outcome * int * (string * int) list
(** The one checked run, over a system whose jobs are already submitted:
    attach the {!Invariant} checker (auditing every simulated millisecond,
    [label] naming the run in diagnostics), then, when [kinds] is [Some],
    an {!Injector} of those kinds; run under [horizon]; classify the run
    ([Completed] with the makespan over every job, {!Sa_engine.Sim.Stalled}
    as [Violation], [Failure] as [No_completion]); detach the injector.
    Returns the outcome, the audits performed and the injected events by
    kind ([[]] without an injector).  [seed] seeds the injector and is
    printed in the checker's replay line. *)

val run_seed :
  ?config:config ->
  ?on_system:(Sa.System.t -> unit) ->
  mode:Kconfig.mode ->
  int ->
  result
(** Run one seed.  The entire trajectory — workload shape, injection
    schedule, scheduling decisions — is a pure function of
    [(seed, mode, config)].  [on_system] (default a no-op) observes the
    freshly created system before jobs are submitted or hooks attached —
    schedule exploration uses it to install a chooser and trace sinks that
    see the whole run. *)

val run_sweep :
  ?config:config ->
  ?on_result:(result -> unit) ->
  modes:Kconfig.mode list ->
  seeds:int list ->
  unit ->
  result list
(** Run every (mode, seed) pair, calling [on_result] after each (for
    progress output).  Results are returned in execution order. *)

val failures : result list -> result list
(** The results that did not complete cleanly. *)

val pp_result : Format.formatter -> result -> unit
(** One-line summary: mode, seed, outcome, injection counts. *)
