(** The Barnes–Hut octree [Barnes & Hut 86].

    Space is recursively divided into octants; each internal node stores the
    total mass and centre of mass of the bodies beneath it.  The force on a
    body is computed by walking the tree: a cell whose width [w] over
    distance [d] satisfies [w /. d < theta] is treated as a single point
    mass at its centre of mass, giving the O(N log N) behaviour. *)

type t

val build : Body.t array -> t
(** Build the tree over all bodies (computes the bounding cube).  Raises
    [Invalid_argument] on an empty array. *)

val mass : t -> float
(** Total mass in the tree. *)

val center_of_mass : t -> Vec3.t
val node_count : t -> int
val depth : t -> int

val contains_exactly : t -> Body.t array -> bool
(** Every body is in exactly one leaf (tree-partition invariant). *)

val force_on :
  t -> theta:float -> eps:float -> Body.t -> Vec3.t * int
(** [force_on tree ~theta ~eps b] is the gravitational acceleration on [b]
    (G = 1) and the number of body–cell interactions evaluated — the work
    measure used to cost the parallel workload.  [eps] is the Plummer
    softening length.  The body itself is skipped when encountered.  The
    walk's stack lives in the tree, so one tree must not be walked from
    two domains at once. *)
