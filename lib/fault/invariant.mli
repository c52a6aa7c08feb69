(** Runtime invariant checker for chaos campaigns.

    A periodic audit event cross-checks the kernel and every FastThreads
    job against ground truth:

    - the kernel's own {!Sa_kernel.Kernel.check_invariants} (processor
      ownership, Section 3.1's running-activations = processors,
      recycle-pool consistency — no activation pooled twice — and the
      placement of every running activation and kernel thread on its
      processor's slot);
    - thread-count conservation per job: the per-state census of thread
      control blocks must agree with the package's live/ready counters,
      and every entry in a ready deque must be a Ready thread appearing at
      most once;
    - work conservation (explicit allocation): a space left wanting
      processors while processors sit free must be a transient — if it
      persists across consecutive audits, the allocator lost demand.

    A violation aborts the run by raising {!Sa_engine.Sim.Stalled} through
    {!Sa_engine.Sim.stall}, carrying a diagnostic dump — seed, label,
    violated check, kernel processor/run-queue snapshot, per-job census,
    plus the clock / pending-event count / same-instant counter appended
    by [stall] itself — sufficient to replay the run from the seed alone.

    Eventual completion is enforced by {!Sa.System.run}'s horizon, which
    the campaign driver reports as its own outcome. *)

type t

val attach : label:string -> seed:int -> Sa.System.t -> t
(** Start auditing once per simulated millisecond until all jobs finish.
    [label] names the campaign configuration in diagnostics. *)

val audits : t -> int
(** Audits completed so far. *)
