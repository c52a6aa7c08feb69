(** Multi-machine simulation: N independent machine+kernel stacks sharing
    one deterministic simulation clock, connected by a modeled {!Net}, with
    a rebalancer migrating address spaces between them.

    The workload is the PR-5 multi-tenant serving scenario spread across
    the cluster.  Tenants are placed with deliberate skew — tenant [i]
    starts on machine [i mod (machines - 1)], leaving the last machine
    empty — so the cluster allocator always has something to fix.

    {2 Rebalancer}

    The cluster-level processor allocator is the paper's space-sharing
    policy lifted one level up, from processors-between-spaces to
    spaces-between-machines.  Every machine runs a tick every 2 ms.
    Non-coordinator machines send a load summary (their runnable-thread
    count) over the {!Net} to the coordinator — the lowest-numbered machine
    currently alive.  On its own tick the coordinator compares the
    freshest summaries it holds (its own load it reads locally): if the
    spread between the most- and least-loaded machines exceeds 8 runnable
    threads, it sends a rebalance command to the overloaded machine, which
    migrates its busiest space toward the idle one.  A summary is 64 bytes
    on the wire, a command 32.  The summaries a decision used are
    consumed, and no new decision is taken for two periods, so the
    rebalancer does not re-act on load it already acted on.

    Summaries carry the load as of send time, so the coordinator acts on
    slightly stale information — exactly the distributed-consensus cost the
    network model is there to expose.  Lost messages (partition, crash)
    simply mean a stale view until the next period.  Ticks stop once every
    tenant has finished.

    {2 Migration}

    A space migrates by the Table-2 machinery it already has: every
    processor the source kernel granted it is reclaimed through the
    standard preemption upcall path ({!Sa_kernel.Kernel.detach_space}), the
    space plus its activation records travel over the net as a modeled
    state transfer (4096 bytes plus 512 per resident activation), and on
    arrival the package is re-registered on the target kernel
    ({!Sa_kernel.Kernel.attach_space}), which re-points the space's home:
    the user-level scheduler and the cluster's own placement queries read
    it from there ({!Sa_kernel.Kernel.space_home}).  Threads blocked in the
    source kernel at detach time complete there; their wakeups chase the
    space to its new home.

    {2 Remote buffer-cache fetches}

    Each tenant's buffer cache is pre-filled with its home machine's slice
    of the block universe.  A miss first probes the other machines (in
    deterministic rotation order from the current home): if a reachable
    peer holds the block, the fill is a request/response round trip over
    the net — microseconds instead of the 50 ms disk. If the peer dies or
    the link partitions mid-flight, the fetch falls back to the disk
    path. *)

module Time = Sa_engine.Time
module Net = Net

type params = {
  machines : int;
  cpus : int;  (** per machine *)
  tenants : int;
  requests : int;  (** per tenant *)
  seed : int;
  cache_blocks : int;
      (** per-tenant block universe; each tenant prewarms only its home
          machine's slice, so out-of-slice reads miss and probe peers *)
  net_jitter_us : int;
      (** uniform extra delay of 0 to [net_jitter_us] microseconds per
          message *)
}

val default_params : params
(** 4 machines x 16 CPUs, 12 tenants x 100 requests, seed 42, 64-block
    universes, no jitter.  The rest of the model is fixed: tenants draw
    their classes from {!Sa_workload.Server.default_classes}, links have
    50 us latency and cost 1 ns per byte, a remote fetch sends a 64-byte
    request and receives an 8 KiB block, a migration transfers 4096 bytes
    plus 512 per resident activation, a crashed machine's spaces begin
    their restore after 5 ms, and no trace sink is registered. *)

type t

val create : params -> t
(** Build the whole cluster: shared clock, one {!Sa.System} per machine
    (one shared id counter so space/activation ids stay globally unique),
    the net, the tenants (submitted in index order), the per-tenant
    remote-fetch resolvers, and the cluster allocator ticks.  Raises
    [Invalid_argument] on nonpositive machine/cpu/tenant counts. *)

val run : ?horizon:Time.span -> t -> unit
(** Drive the clock until every tenant finishes or the horizon (default 30
    simulated minutes) passes — unlike {!Sa.System.run} an expired horizon
    is not an error here, since chaos (crashes, partitions) can legally
    strand work; {!summary} reports partial results. *)

val active : t -> bool
(** Is any tenant still unfinished? *)

val sim : t -> Sa_engine.Sim.t
val net : t -> Net.t
val machines : t -> int
val systems : t -> Sa.System.t array
val alive : t -> int -> bool
(** Has machine [m] not crashed?  That is, is it online in {!net}? *)

val crash_machine : t -> int -> bool
(** Fail-stop the machine: mark it dead and offline, then re-home every
    resident unfinished space to the surviving machines (deterministic
    rotation) after a fixed 5 ms recovery latency plus the modeled
    state-restore time.  Returns [false] — and does nothing — if the
    machine is already dead or is the last one standing. *)

val partition : t -> int -> int -> hold:Time.span -> bool
(** Cut the link between two machines for [hold].  [false] on a bad or
    degenerate pair. *)

(** {1 Results} *)

type machine_row = {
  m_id : int;
  m_alive : bool;
  m_tenants_final : int;  (** tenants homed here at the end *)
  m_upcalls : int;
  m_preemptions : int;
  m_reallocations : int;
  m_migs_in : int;
  m_migs_out : int;
  m_remote_hits : int;  (** remote fetches resolved by a peer's cache *)
  m_remote_fallbacks : int;  (** remote fetches that fell back to disk *)
  m_util : float;
}

type tenant_row = {
  c_tenant : int;
  c_class : string;
  c_home0 : int;  (** initial placement *)
  c_home : int;  (** final home *)
  c_completed : int;
  c_p50_us : float;
  c_p99_us : float;
  c_p999_us : float;
  c_violations : int;
  c_slo_ms : float;
}

type summary = {
  cl_machines : int;
  cl_cpus : int;
  cl_tenants : int;
  cl_requests_total : int;  (** completed requests across all tenants *)
  cl_migrations : int;
      (** rebalancer-driven space migrations: the sum of [m_migs_out] *)
  cl_evacuations : int;  (** crash-driven re-homings *)
  cl_crashes : int;  (** dead machines *)
  cl_partitions : int;
  cl_remote_hits : int;
  cl_remote_fallbacks : int;
  cl_net : Net.stats;
  cl_alloc_summaries : int;  (** rebalancer load summaries sent *)
  cl_alloc_summary_drops : int;
      (** summaries lost to partitions or offline peers *)
  cl_alloc_commands : int;
      (** rebalance decisions; [cl_migrations] counts those that moved a
          space *)
  cl_machine_rows : machine_row list;
  cl_tenant_rows : tenant_row list;
  cl_elapsed_ms : float;
  cl_completed_all : bool;
}

val summary : t -> summary
