(** Red-black successive over-relaxation (SOR) for Laplace's equation on a
    rectangular grid — the second real application substrate (grid solvers
    were the other canonical shared-memory benchmark of the paper's era).

    The grid holds a potential field with fixed (Dirichlet) boundary values;
    interior points relax towards the average of their four neighbours with
    over-relaxation factor omega.  Red-black ordering makes each half-sweep
    embarrassingly parallel by rows, which is what the parallel workload
    driver exploits. *)

type t

val create :
  rows:int -> cols:int -> ?boundary:(int -> int -> float) -> unit -> t
(** A [rows] x [cols] grid, interior initialised to zero.  [boundary]
    gives the fixed value at each edge cell (default: 1.0 on the top edge,
    0.0 elsewhere).  Raises [Invalid_argument] if either dimension is less
    than 3. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float

val sweep_color : t -> omega:float -> black:bool -> float
(** Relax every interior point of one colour ((row + col) parity); returns
    the maximum absolute update made.  One red + one black sweep is one SOR
    iteration. *)

val solve : t -> omega:float -> tol:float -> max_iters:int -> int * float
(** Iterate until the maximum update falls below [tol] (or [max_iters]);
    returns (iterations used, final maximum update). *)

val residual : t -> float
(** Maximum absolute Laplace residual |4 u(i,j) - sum of neighbours| over
    interior points; approaches 0 at the solution. *)

