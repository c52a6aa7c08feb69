(** Simulated time.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation; {!span} is a (possibly negative) duration in the
    same unit.  Nanosecond granularity is fine enough to express the paper's
    cost model (procedure call 7 us, kernel trap 19 us) with sub-microsecond
    components while keeping arithmetic exact. *)

type t = private int
(** An absolute simulated instant, in nanoseconds. *)

type span = int
(** A duration in nanoseconds. *)

val zero : t
(** Simulation start. *)

val of_ns : int -> t
(** [of_ns n] is the instant [n] nanoseconds after start.  Raises
    [Invalid_argument] if [n] is negative. *)

val to_ns : t -> int

val add : t -> span -> t
(** [add t d] is the instant [d] after [t].  Raises [Invalid_argument] if the
    result would be negative. *)

val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Duration constructors} *)

val ns : int -> span
val us : int -> span
val ms : int -> span
val s : int -> span

val us_f : float -> span
(** [us_f x] is [x] microseconds rounded to the nearest nanosecond. *)

(** {1 Duration readers} *)

val span_to_us : span -> float
val span_to_ms : span -> float
val to_ms : t -> float

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit, e.g. ["17.250us"] or ["2.400ms"]. *)

val pp_span : Format.formatter -> span -> unit
