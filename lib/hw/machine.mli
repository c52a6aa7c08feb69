(** The simulated multiprocessor: a fixed set of {!Cpu}s sharing a clock,
    modelled on the six-processor CVAX Firefly. *)

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

val idle_cpus : t -> Cpu.t list
(** CPUs with no segment in flight, in id order.  Allocates only the
    result cells — nothing when every CPU is busy. *)

val busy_count : t -> int
(** CPUs with a segment in flight, from an idle count maintained at the
    busy-transition sites — O(1). *)

val total_busy_time : t -> Sa_engine.Time.span
(** Sum of completed busy time over all CPUs. *)

val utilization : t -> upto:Sa_engine.Time.t -> float
(** Mean fraction of CPUs busy over [0, upto]. *)

val pp : Format.formatter -> t -> unit
