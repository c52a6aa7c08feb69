(** Serialized schedule decisions ([.sched] files).

    A schedule is the complete decision sequence of one run — every choice
    point the {!Sa_engine.Sim.chooser} was consulted at, in consultation
    order — plus a small key/value header (workload parameters, the run
    digest, the outcome).  Re-driving the same workload from a schedule
    reproduces the run exactly; see {!Chooser.replaying}.

    The file format is a line-oriented text format with an interned site
    table, so a schedule of thousands of decisions stays compact and
    diff-able:
    {v
    sa-sched 1
    m seed 42
    s 0 sim-order
    p 0 3 0 2
    d 1 1a2b 1a2b
    .
    v}
    [m] lines carry header metadata, [s] lines intern site names, [p] lines
    are {!Pick}s ([site arity default choice]), [d] lines are {!Draw}s
    ([site default value], hex), and the final ["."] guards against
    truncation. *)

type decision =
  | Pick of { site : string; arity : int; default : int; choice : int }
      (** an ordering choice among [arity] alternatives *)
  | Draw of { site : string; default : int64; value : int64 }
      (** a 64-bit RNG draw; [default] is what the generator produced,
          [value] what the run used *)

type t = {
  meta : (string * string) list;  (** ordered header key/value pairs *)
  decisions : decision array;
}

val empty : t

val length : t -> int
(** Number of decisions. *)

val picks : t -> int
(** Number of {!Pick} decisions. *)

val divergences : t -> int list
(** Indices of the decisions whose value differs from its default — where
    the run departed from the unperturbed schedule — ascending.  The
    shrinker minimizes this set. *)

val meta_find : t -> string -> string option

val with_meta : t -> (string * string) list -> t
(** Replace the header. *)

val save : string -> t -> unit
(** Write to a file.  Newlines in metadata values are replaced by spaces. *)

val load : string -> t
(** Parse a saved schedule.  Raises [Failure] with a line diagnostic on any
    malformed or truncated input. *)

val pp_decision : Format.formatter -> decision -> unit
