(** Double-ended queue (amortised O(1) at both ends).

    The per-processor ready lists of FastThreads, and the one discipline
    they follow (Section 4.2, implemented in {!Ft_core}):
    - new, woken and preempted threads are pushed at the front of the
      owner's list, and the owner pops the front (last-in-first-out, for
      cache locality);
    - a yielding thread is pushed at the back, so its peers run first;
    - an idle processor steals from the back (oldest thread first),
      probing the other lists in rotation order after its own;
    - once any thread carries a non-zero priority, the owner takes the
      best priority across all lists instead (ties prefer its own list,
      front-most there, back-most elsewhere), and a thief takes the
      back-most best-priority thread of its victim
      ({!remove_first}/{!remove_last}). *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty deque.  Slots that hold no element hold
    [filler], so a popped element is never kept alive by the deque. *)

val is_empty : 'a t -> bool
val length : 'a t -> int
val push_front : 'a t -> 'a -> unit
val pop_front : 'a t -> 'a option
val push_back : 'a t -> 'a -> unit
val pop_back : 'a t -> 'a option
val to_list : 'a t -> 'a list
(** Front first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Front first, without building a list. *)

val remove_first : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the front-most element satisfying the predicate. *)

val remove_last : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the back-most element satisfying the predicate. *)
