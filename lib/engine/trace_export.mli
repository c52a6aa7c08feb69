(** Chrome trace-event (Perfetto-compatible) JSON export of {!Trace} records.

    The writer streams events as they are fed, so it acts as a
    {!Trace.add_sink} sink and sees the whole run.
    Output is the JSON object format [{"traceEvents": [...]}], loadable in
    Perfetto (ui.perfetto.dev) or [chrome://tracing].

    Track layout: records bound to a processor ([cpu >= 0]) land on one
    thread track per simulated CPU, using synchronous duration events
    (["ph":"B"/"E"]), which therefore must nest properly per CPU.  Records
    with no processor ([cpu = -1]) are exported as asynchronous nestable
    spans (["ph":"b"/"e"]) keyed by activation id, which may overlap freely
    — used for spans that migrate across CPUs, like I/O blocks and
    critical-section recovery.  Counters become ["ph":"C"] counter tracks,
    instants ["ph":"i"]. *)

type t

val create : out:(string -> unit) -> t
(** [create ~out] writes the stream header via [out] and returns a writer.
    [out] is called with successive chunks of JSON text. *)

val feed : t -> Trace.record -> unit
(** Append one record to the stream.  Suitable as a {!Trace.add_sink} sink:
    [Trace.add_sink tr (Trace_export.feed w)]. *)

val close : t -> unit
(** Terminate the JSON document.  Idempotent; [feed] after [close] is a
    no-op. *)
