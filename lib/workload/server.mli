(** An open-arrival server workload: the "system integration" scenario the
    paper's introduction motivates (threads as the vehicle for concurrency
    in servers).

    A listener thread blocks in the kernel waiting for the next request
    (exponentially distributed inter-arrival times) and forks one handler
    thread per request; a handler optionally performs kernel I/O (a disk or
    backend call) and then computes its response.  Response-time statistics
    fall out of the [Stamp] markers: request [i] stamps [2i] at arrival and
    [2i+1] at completion.

    The interesting comparison is tail latency: under original FastThreads
    the listener's kernel blocks and the handlers' I/O each pin a virtual
    processor, so requests queue behind lost processors; under scheduler
    activations every block returns its processor via an upcall. *)

type params = {
  requests : int;
  mean_interarrival : Sa_engine.Time.span;
  service_compute : Sa_engine.Time.span;
  io_probability : float;  (** fraction of requests performing kernel I/O *)
  io_latency : Sa_engine.Time.span;
  seed : int;
}

val default_params : params
(** 200 requests at 1 ms mean inter-arrival, 1 ms compute each, 80% of
    requests performing a 20 ms I/O — an offered I/O concurrency of ~16,
    far above a small machine's processor count, so systems that lose a
    processor per kernel block must queue. *)

val program : params -> Sa_program.Program.t
(** Deterministic in [params.seed]. *)

(** {1 Multi-tenant serving}

    The datacenter-scale extension of the scenario: N tenants, each an
    address space with its own handler pool, open-loop arrivals (Poisson
    base rate plus deterministic seeded bursts), request fan-out/fan-in
    across uthreads, all competing for the machine through the
    space-sharing allocator.  Per-tenant tail latency against an SLO is
    the figure of merit — the multiprogramming stress the paper's
    Table 5 poses with just two jobs, at serving scale. *)

type tenant_class = {
  tc_class : string;  (** class label, e.g. ["interactive"] *)
  tc_mean_interarrival : Sa_engine.Time.span;  (** Poisson base rate *)
  tc_burst_every : Sa_engine.Time.span;
      (** deterministic burst period; [0] disables bursts *)
  tc_burst_size : int;  (** near-simultaneous requests per burst *)
  tc_fan_out : int;  (** subrequest uthreads per request (fan-in joins) *)
  tc_service_compute : Sa_engine.Time.span;  (** compute per subrequest *)
  tc_io_probability : float;  (** per-subrequest chance of kernel I/O *)
  tc_io_latency : Sa_engine.Time.span;
  tc_slo : Sa_engine.Time.span;  (** per-request latency SLO *)
  tc_priority : int;  (** address-space allocation priority *)
}

val interactive_class : tenant_class
(** Fast, shallow requests with frequent small bursts and a tight SLO;
    allocation priority 1. *)

val bursty_class : tenant_class
(** Mid-weight requests arriving in large periodic clumps. *)

val batch_class : tenant_class
(** Heavy fan-out compute/I/O requests with a loose SLO. *)

val default_classes : tenant_class list
(** [interactive; bursty; batch], cycled across tenants. *)

type mt_params = {
  mt_tenants : int;
  mt_requests : int;  (** per tenant *)
  mt_classes : tenant_class list;  (** tenant [i] draws class [i mod len] *)
  mt_seed : int;
  mt_cache_blocks : int;
      (** block universe each subrequest draws one [cache_read] from; 0
          (the default) emits no cache reads and draws no extra randoms,
          keeping pre-existing trajectories bit-identical *)
}

val default_mt_params : mt_params
(** 6 tenants (two of each default class), 200 requests each, seed 11. *)

val tenant_class : mt_params -> int -> tenant_class
val tenant_name : mt_params -> int -> string
(** E.g. ["t03-interactive"]. *)

val tenant_program : mt_params -> int -> Sa_program.Program.t
(** The listener/handler program of tenant [i]: deterministic in
    [(mt_seed, i)] alone, so adding or removing other tenants never
    perturbs this tenant's arrivals or I/O coin flips.  Request [r]
    stamps [2r] at arrival and [2r+1] at completion (after fan-in). *)

(** {1 Response-time summary}

    One accounting path for every server run, single- or multi-tenant:
    arrival/completion stamp pairs feed one {!latency_histogram}. *)

type summary = {
  ts_completed : int;
  ts_mean_us : float;
  ts_p50_us : float;
  ts_p95_us : float;
  ts_p99_us : float;
  ts_p999_us : float;
  ts_max_us : float;
  ts_slo_ms : float;
  ts_violations : int;  (** completed requests with latency > SLO *)
  ts_violation_frac : float;
  ts_makespan_ms : float;  (** first arrival to last completion *)
}
(** Response times in µs.  Mean and maximum are exact; the percentiles
    are {!latency_histogram} values, within 0.8% of the exact ceil-rank
    order statistic. *)

val latency_histogram : unit -> Sa_engine.Stats.Log_histogram.t
(** The accumulator [summarize] uses: log-scale over [\[1 us, 100 s)]
    with 64 sub-buckets per octave (quantile error under 0.8%), O(1)
    memory in the request count. *)

val summarize :
  ?allow_incomplete:bool ->
  Recorder.t ->
  requests:int ->
  slo:Sa_engine.Time.span ->
  summary
(** Pair arrival/completion stamps into response times and report the
    tail against [slo] (runs without an SLO pass [max_int], so nothing
    counts as a violation).  Raises [Failure] if fewer than [requests]
    requests completed, unless [allow_incomplete:true] (default false),
    which instead returns the partial summary over the requests that did
    complete ([ts_completed] says how many) — chaotic or
    schedule-explored runs cut short by a violation can still report tail
    latency.  With zero completions the latency fields are [nan]. *)

type tenant_summary = summary
(** Former name of {!summary}, kept for the benchmark harness under
    [perf/]. *)

val summarize_tenant :
  ?allow_incomplete:bool ->
  Recorder.t ->
  requests:int ->
  slo:Sa_engine.Time.span ->
  summary
(** Former name of {!summarize}, kept for the benchmark harness under
    [perf/]. *)
