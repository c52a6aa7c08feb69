(** Barnes–Hut N-body simulation: leapfrog (kick-drift-kick) integration
    over octree-computed forces, plus the diagnostics the tests use to check
    physical sanity. *)

type t

type step_profile = {
  tree_nodes : int;
  interactions : int array;  (** per-body interaction counts, the per-task
                                 work measure for the parallel workload *)
  total_interactions : int;
}

val create : ?theta:float -> ?eps:float -> ?dt:float -> Body.t array -> t
(** Defaults: [theta = 0.7], [eps = 0.05], [dt = 1e-3]. *)

val bodies : t -> Body.t array
val step : t -> step_profile
(** Advance one leapfrog step; returns the work profile of the force
    phase. *)

val run : t -> steps:int -> step_profile list
(** Profiles in step order. *)

val kinetic_energy : t -> float

val total_energy : t -> float
(** Kinetic plus the exact pairwise potential (O(N^2)); for diagnostics
    only. *)

val momentum : t -> Vec3.t

(** {1 Initial conditions} *)

val plummer : Sa_engine.Rng.t -> n:int -> Body.t array
(** Plummer-sphere model: the standard benchmark distribution for
    hierarchical N-body codes.  Total mass 1, virial-ish velocities. *)

val uniform_cube : Sa_engine.Rng.t -> n:int -> Body.t array
(** Uniform random positions in the unit cube, small random velocities. *)
