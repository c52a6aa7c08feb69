(** Binary min-heap priority queue with lazy cancellation: the reference
    oracle that [test_engine]'s differential suite holds the simulator's
    calendar queue ([Sa_engine.Calq]) to, pop for pop.

    The queue stores elements with integer-pair priorities [(key, seq)]
    compared lexicographically: [key] for the firing time and [seq] for
    FIFO order among simultaneous events.
    [remove] marks an entry cancelled in amortized O(1); cancelled entries
    are skipped lazily by [pop], and the heap is compacted (live entries
    rebuilt in place, O(n)) once dead entries dominate, so a workload that
    cancels most of its timers cannot grow the heap without bound. *)

type 'a t

type 'a entry
(** A handle to an inserted element, usable for cancellation. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** [is_empty q] is [true] iff no live (non-cancelled) entries remain.
    May internally discard dead entries at the root. *)

val length : 'a t -> int
(** Number of live entries.  O(1). *)

val heap_size : 'a t -> int
(** Heap slots currently occupied, live or cancelled (for tests asserting
    compaction bounds). *)

val heap_capacity : 'a t -> int
(** Backing-array slots currently allocated (for tests asserting the
    shrink-on-drain bound). *)

val add : 'a t -> key:int -> seq:int -> 'a -> 'a entry
(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the live entry with the smallest priority, as
    [(key, seq, value)]. *)

val peek_key : 'a t -> (int * int) option
(** Priority of the entry [pop] would return, without removing it. *)

val pop_pick : 'a t -> pick:(int -> int) -> (int * int * 'a) option
(** [pop_pick q ~pick] removes and returns a live entry with the smallest
    [key], selected by [pick] among the [n >= 2] candidates sharing that key
    (listed in ascending [seq] order).  Candidate 0 is the entry {!pop}
    would return, so [pick = fun _ -> 0] reproduces {!pop}; out-of-range
    picks are clamped to 0.  [pick] is not consulted when only one candidate
    exists.  Candidates are collected by walking only the heap subtrees
    whose roots carry the minimal key, so the cost is proportional to the
    number of minimal-key entries, not the heap size — intended for
    schedule exploration, not the default hot path. *)

val remove : 'a t -> 'a entry -> unit
(** Cancels an entry.  Idempotent; no effect if already popped. *)

val entry_live : 'a entry -> bool
(** [entry_live e] is [true] if [e] has been neither popped nor cancelled. *)

val to_list : 'a t -> (int * int * 'a) list
(** Live entries in ascending priority order (for inspection; O(n log n)). *)
