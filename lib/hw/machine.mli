(** The simulated multiprocessor: a fixed set of {!Cpu}s sharing a clock,
    modelled on the six-processor CVAX Firefly.  Each CPU alone knows
    whether it is busy ({!Cpu.is_busy}) and how long it has been
    ({!Cpu.busy_time}); the machine only sums over them. *)

type t

val create : ?id:int -> Sa_engine.Sim.t -> cpus:int -> t
(** Raises [Invalid_argument] if [cpus <= 0].  [id] names the machine
    within a cluster (default 0 for standalone runs). *)

val sim : t -> Sa_engine.Sim.t

val id : t -> int
(** Machine identity within a cluster ([0] when standalone). *)

val cpu_count : t -> int
val cpu : t -> Cpu.id -> Cpu.t
val cpus : t -> Cpu.t array

val total_busy_time : t -> Sa_engine.Time.span
(** Sum of completed busy time over all CPUs. *)

val utilization : t -> upto:Sa_engine.Time.t -> float
(** Mean fraction of CPUs busy over [0, upto]. *)

val pp : Format.formatter -> t -> unit
