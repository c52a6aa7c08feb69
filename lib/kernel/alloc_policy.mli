(** The processor-allocation policy of Section 4.1, as a pure function.

    "Space-shares processors while respecting priorities and guaranteeing
    that no processor idles if there is work to do.  Processors are divided
    evenly among address spaces; if some address spaces do not need all of
    the processors in their share, those processors are divided evenly among
    the remainder."

    Extracted from the kernel so the policy itself is property-testable.
    There is one implementation, an array core over a reusable {!scratch}:
    the kernel loads each address space's priority and demand into it,
    {!solve}s, and applies the targets mechanically; {!targets} is a
    list-in, list-out wrapper over the same core for tests and callers
    that do not care about allocation. *)

type claim = {
  space : int;  (** address-space id (unique) *)
  priority : int;  (** higher is served first *)
  desired : int;  (** processors the space can use right now *)
}

val targets : cpus:int -> rotation:int -> claim list -> (int * int) list
(** [targets ~cpus ~rotation claims] assigns each claiming space a
    processor count.  Guarantees (tested as properties):

    - no space receives more than it desires, nor a negative count;
    - the assignment is {e work-conserving}: processors are left over only
      when every desire is satisfied;
    - a higher-priority group is fully served (up to even division of what
      remains) before a lower one receives anything;
    - within a priority group the division is even: two spaces with equal
      desire differ by at most one processor;
    - an uneven remainder moves between equal claimants as [rotation]
      increases, so time-slicing the leftover is fair across periods.

    The result lists every claim's space id exactly once, in the order of
    [claims].  Raises [Invalid_argument] on negative [cpus], duplicate ids,
    or negative desires. *)

(** {1 The array core} *)

type scratch
(** Claims indexed by position [0 .. count-1], their targets, and the
    sorted visiting order.  After a {!set_count} that does not grow it, a
    solve allocates nothing. *)

val scratch : unit -> scratch
(** An empty scratch (count 0). *)

val set_count : scratch -> int -> unit
(** Set the number of claims.  Grows the arrays if needed (the only
    allocation); a changed count resets the remembered order. *)

val set_claim :
  scratch -> int -> space:int -> priority:int -> desired:int -> unit
(** Load the claim at a position.  Space ids must be distinct across the
    positions in use (not checked here).  Raises [Invalid_argument] on a
    negative desire or a position outside the count. *)

val solve : scratch -> cpus:int -> rotation:int -> unit
(** Compute every position's target, as {!targets} does.  The visiting
    order (priority descending, desire ascending, id ascending) is kept
    between calls and re-sorted by insertion, so a solve costs O(count)
    plus the number of claim pairs whose order changed since the previous
    one.  Equal-desire runs are rotated by index arithmetic, not by moving
    elements.  Raises [Invalid_argument] on negative [cpus]. *)

val target : scratch -> int -> int
(** The target the last {!solve} gave the claim at a position. *)
