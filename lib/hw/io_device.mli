(** Block I/O device: one server over a FIFO queue, with a constant
    service time.  Requests queue, so contention lengthens effective
    latency.  The paper notes its measurements were "qualitatively similar
    when we took contention for the disk into account" — the disk ablation
    uses this device to check the same holds here.

    The paper's own simplification ("threads that miss in the cache simply
    block in the kernel for 50 msec", §5.3) is not a device: the kernel
    models that fixed block for every run that attaches none. *)

type fault =
  | Fault_delay of Sa_engine.Time.span
      (** the completion interrupt is late by this much *)
  | Fault_transient_error
      (** the transfer failed; the device re-services the request after an
          exponential backoff (100 us doubling, capped at 10 ms) *)

type t

val create : Sa_engine.Sim.t -> service_time:Sa_engine.Time.span -> t

val set_fault_hook : t -> (unit -> fault option) option -> unit
(** Install (or clear) a fault hook, consulted once per nominal completion
    instant.  Returning [Some f] injects fault [f] into that completion;
    [None] lets it proceed.  Used by the chaos injector. *)

val retries : t -> int
(** Completions re-serviced after a transient error. *)

val faults : t -> int
(** Total faults injected (delays plus transient errors). *)

val submit : t -> (unit -> unit) -> unit
(** [submit t k] issues a request; [k ()] runs at completion time.  When a
    fault hook is installed, the hook is consulted at each nominal
    completion instant and may delay or transiently fail the request; the
    device retries with backoff, so every request still completes exactly
    once. *)

val completed : t -> int

val mean_latency : t -> float
(** Mean request latency in microseconds (0 if none completed). *)
