(** Structured simulation tracing.

    Components emit typed trace records tagged with a category and,
    optionally, the hardware/kernel entities involved (processor, address
    space, activation).  A trace is a dispatcher: each record is built and
    handed to the registered sinks ({!add_sink}) — the Chrome trace-event
    exporter in {!Trace_export}, the text {!printer}, explore's coverage
    sink — or, when nothing listens, never built at all.  There is no
    buffer.  Tracing off the hot path costs one array load: every emitter
    checks a per-category bit that is set only while {!set_recording} is on,
    the category is enabled and at least one sink is registered, before it
    does any formatting or allocation. *)

type category =
  | Sim  (** engine-level events *)
  | Cpu  (** dispatch / interrupt / idle transitions *)
  | Kernel  (** syscalls, blocking, allocator decisions *)
  | Upcall  (** scheduler-activation upcalls and downcalls *)
  | Uthread  (** user-level thread operations *)
  | Workload  (** application-level progress *)

val category_name : category -> string

(** What a record denotes.  Spans nest per processor track; records carrying
    no processor ([cpu = -1]) are exported as asynchronous spans keyed by
    activation id. *)
type kind =
  | Instant  (** a point event *)
  | Span_begin  (** opens the span [name] *)
  | Span_end  (** closes the most recent open span [name] *)
  | Counter of float  (** the counter [name] now holds this value *)

type record = {
  time : Time.t;
  category : category;
  kind : kind;
  name : string;  (** span/counter/marker name; [""] for free-form text *)
  cpu : int;  (** processor id, or [-1] when not bound to one *)
  space : int;  (** address-space id, or [-1] *)
  act : int;  (** activation (or kernel-thread) id, or [-1] *)
  message : string;  (** free-form detail *)
}

val no_id : int
(** [-1]: the distinguished "no entity" value of the id fields. *)

type t

val create : unit -> t
(** A trace with every category enabled, recording on and no sinks. *)

val enable : t -> category -> bool -> unit
(** Toggle a category.  All categories start enabled. *)

val set_recording : t -> bool -> unit
(** Master recording switch, [true] at creation.  When off, {!enabled} is
    [false] for every category even while sinks are registered. *)

val add_sink : t -> (record -> unit) -> unit
(** Register a sink, called with every enabled record as it is emitted.
    Sinks fire in registration order. *)

val printer : Format.formatter -> record -> unit
(** A text sink: [Trace.add_sink t (Trace.printer ppf)] prints each record
    as one [\[time\] category message] line and flushes [ppf]. *)

val enabled : t -> category -> bool
(** [true] iff recording is on, [category] is enabled and at least one sink
    is registered — i.e. a record emitted now would reach someone.  Callers
    that build detail strings guard them with this. *)

val emitf :
  t ->
  time:Time.t ->
  category ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted free-form emission.  When the category is disabled the format
    arguments are consumed without any formatting or allocation, so this is
    safe on hot paths. *)

val instant :
  t ->
  time:Time.t ->
  ?cpu:int ->
  ?space:int ->
  ?act:int ->
  ?detail:string ->
  category ->
  string ->
  unit
(** [instant t ~time cat name] records a named point event. *)

val span_begin :
  t ->
  time:Time.t ->
  ?cpu:int ->
  ?space:int ->
  ?act:int ->
  ?detail:string ->
  category ->
  string ->
  unit
(** Open the span [name].  Spans on the same processor must nest: close
    them in reverse order of opening.  Spans with no processor are exported
    as asynchronous (overlap-tolerant) spans keyed by [act]. *)

val span_end :
  t ->
  time:Time.t ->
  ?cpu:int ->
  ?space:int ->
  ?act:int ->
  ?detail:string ->
  category ->
  string ->
  unit

val counter : t -> time:Time.t -> ?cpu:int -> category -> string -> float -> unit
(** [counter t ~time cat name v] records that the counter [name] holds [v]
    from [time] on. *)
