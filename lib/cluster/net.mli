(** The modeled cluster interconnect: a full mesh of point-to-point links
    between machines sharing one simulation clock.

    Each directed link has a fixed propagation latency, a bandwidth modeled
    as a serialization delay per byte (messages queue behind each other on
    the sender side), and optional bounded uniform jitter.  Delivery on a
    link is FIFO even under jitter: a message never overtakes one sent
    earlier on the same link.

    All nondeterminism flows through named {!Sa_engine.Sim} choice points
    with identity defaults, so a run without a chooser is bit-for-bit
    deterministic and a schedule explorer can perturb delivery:

    - ["net-jitter"] — a {!Sa_engine.Sim.draw} feeding the per-link jitter
      RNG (drawn only when [jitter_us > 0]);
    - ["net-deliver"] — each delivery runs its handler through
      {!Sa_engine.Sim.defer_hops}, whose pick (arity 3, default 0) chooses
      how many extra same-instant defer hops it takes first.

    Links can be cut for a while ({!partition}) and whole machines taken
    offline ({!set_offline}); sends on a cut or offline path are dropped
    (counted, and reported to the sender as [false]). *)

type t

val create :
  ?latency:Sa_engine.Time.span ->
  ?ns_per_byte:int ->
  ?jitter_us:int ->
  ?seed:int ->
  Sa_engine.Sim.t ->
  machines:int ->
  t
(** A full mesh over [machines] nodes.  Defaults: 50 us propagation
    latency, 1 ns/byte serialization (~1 GB/s), no jitter, seed 0.
    Raises [Invalid_argument] if [machines <= 0] or [ns_per_byte < 0]. *)

val machines : t -> int

val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> bool
(** [send t ~src ~dst ~bytes k] puts a [bytes]-long message on the
    [src -> dst] link; [k] runs at the (FIFO-ordered) delivery instant.
    Returns [false] — and counts a drop, never calling [k] — if either
    endpoint is offline or the link is partitioned right now.  Raises
    [Invalid_argument] on a bad machine id, [src = dst], or negative
    [bytes]. *)

val partition : t -> a:int -> b:int -> until:Sa_engine.Time.t -> unit
(** Cut both directions of the [a <-> b] link until the given instant
    (extends, never shortens, an existing cut).  Messages already in
    flight still deliver; new sends drop. *)

val set_offline : t -> int -> bool -> unit
(** Mark a machine offline (every link touching it drops) or back online. *)

val offline : t -> int -> bool

val reachable : t -> src:int -> dst:int -> bool
(** Would a {!send} succeed right now? *)

type stats = { messages : int; bytes : int; drops : int }

val stats : t -> stats
(** Aggregate over every link. *)
