(** The cluster-level processor allocator: the paper's space-sharing policy
    lifted one level up, from processors-between-spaces to
    spaces-between-machines.

    Every machine runs a tick every 2 ms.  Non-coordinator machines send a
    load summary (their runnable-thread count) over the {!Net} to the
    coordinator — the lowest-numbered machine currently alive.  On its own
    tick the coordinator compares the freshest summaries it holds (its own
    load it reads locally): if the spread between the most- and
    least-loaded machines exceeds 8 runnable threads, it sends a rebalance
    command to the overloaded machine, which migrates one address space
    toward the idle one.  A summary is 64 bytes on the wire, a command 32.

    Summaries carry the load as of send time, so the coordinator acts on
    slightly stale information — exactly the distributed-consensus cost the
    network model is there to expose.  Lost messages (partition, crash) are
    counted and simply mean a stale view until the next period. *)

type hooks = {
  h_alive : int -> bool;  (** is machine [m] up? *)
  h_load : int -> int;  (** current runnable-thread load of machine [m] *)
  h_active : unit -> bool;  (** keep ticking while this holds *)
  h_migrate_one : src:int -> dst:int -> bool;
      (** migrate one space from [src] to [dst]; [false] if nothing
          eligible *)
}

type t

val start : Sa_engine.Sim.t -> Net.t -> hooks -> t
(** Install the periodic ticks on every machine.  Ticks stop (the
    simulation drains) once [h_active] turns false. *)

type stats = {
  summaries : int;  (** load summaries sent *)
  summary_drops : int;  (** summaries lost to partitions/offline peers *)
  commands : int;  (** rebalance commands issued *)
  command_drops : int;
  rebalances : int;  (** commands that actually started a migration *)
}

val stats : t -> stats
