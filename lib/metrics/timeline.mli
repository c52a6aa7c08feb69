(** ASCII processor-occupancy timeline.

    Records which address space occupies each simulated processor at a fixed
    resolution and renders a Gantt-style chart — the quickest way to {e see}
    the space-sharing allocator move processors between jobs, daemons steal
    a slot, or original FastThreads lose processors to blocked virtual
    processors.

    {[
      let tl = Timeline.attach sys ~resolution:(Time.ms 5) in
      ... System.run sys ...
      Timeline.render tl Format.std_formatter
    ]} *)

type t

val attach : Sa.System.t -> resolution:Sa_engine.Time.span -> t
(** Start sampling.  Sampling stops by itself once the simulation goes
    quiet.  At most 4096 columns are retained in a ring — each sample past
    the cap overwrites the oldest in O(1). *)

val samples : t -> int
(** Columns currently held (at most 4096). *)

val render : ?label:string -> t -> Format.formatter -> unit
(** Print one row per processor; each column is one sample.  Cells show the
    first letter of the occupying address space's name ([.] for idle).
    Rows are at most 72 columns wide: past that, samples are strided.  [label]
    prefixes every row — cluster runs pass ["m2:"] so the per-machine
    charts stay tellable apart. *)
