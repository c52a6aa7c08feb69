(** The parallel N-body application of Section 5.3.

    A real Barnes–Hut simulation ({!Barneshut}) is run ahead of time to
    obtain the per-body interaction counts of every timestep; the parallel
    workload then reproduces the paper's application structure with those
    genuine work sizes:

    - each timestep starts with a sequential tree-build phase on the main
      thread;
    - the force phase forks one thread per chunk of bodies; each task reads
      its bodies through the application-managed buffer cache (a miss
      blocks in the kernel for 50 ms), computes for a span proportional to
      its real interaction count, and briefly holds a shared reduction lock;
    - the main thread joins all tasks — the per-step barrier.

    The same program value runs on all four backends, which is what makes
    Figure 1 (speedup vs processors), Figure 2 (execution time vs cache
    size) and Table 5 (multiprogrammed speedup) comparable. *)

module Time = Sa_engine.Time

type params = {
  n_bodies : int;
  steps : int;
  chunk : int;  (** bodies per task *)
  per_interaction : Time.span;
      (** simulated compute per body–cell interaction (CVAX-era floating
          point) *)
  tree_build_unit : Time.span;
      (** sequential tree-build cost is [n * log2 n * tree_build_unit] *)
  reduction_cs : Time.span;
      (** span each task holds the shared reduction lock *)
  hit_cost : Time.span;
      (** cache-lookup cost charged in the analytic sequential baseline
          (must match the cost model the run uses: a procedure call) *)
  seed : int;
}

val default_params : params
(** 300 bodies, 6 steps, 1 body per task — sized so a full run is a few
    simulated seconds, like the paper's scaled-down Firefly problem.  Fixed
    for every run: one cache read per task, five bodies per cache block,
    and {!Barneshut.Nbody_sim.create}'s default [theta], [eps] and [dt]. *)

type prepared = {
  params : params;
  program : Sa_program.Program.t;
  seq_time : Time.span;
      (** analytic single-thread execution time of the same computation
          (no thread management, no locks): the speedup baseline *)
  blocks : int;  (** dataset size in cache blocks *)
  total_interactions : int;
  tasks : int;
}

val prepare : params -> prepared
(** Runs the real Barnes–Hut simulation to generate work profiles, then
    builds the parallel program.  Deterministic in [params.seed]. *)

val cache_capacity : prepared -> percent:int -> int
(** Buffer-cache capacity holding [percent]% of the dataset ("% available
    memory" in Figure 2).  At 100% the entire data set fits. *)
