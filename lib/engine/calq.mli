(** Event queue: the simulator's hot-path priority queue.  It keeps the
    name [Calq] so that call sites and the [calq/*] micro-gate rows do too.

    Elements carry integer-pair priorities [(key, seq)] compared
    lexicographically — the discrete-event core uses [key] for the ns
    firing time and [seq] for FIFO order among simultaneous events.  The
    pop sequence is the strict ascending [(key, seq)] order, for any seqs,
    monotone or not; a qcheck differential suite in [test/] holds it, byte
    for byte, to a reference queue kept there as the oracle.

    Layout: one flat binary min-heap whose entries carry their key and seq
    inline, over a slab of values.  Add and pop are O(log n) in the number
    of pending entries, whether or not their instants coincide.  The
    steady-state add/pop path allocates nothing: values live in a recycled
    slab and handles are generation-tagged immediate ints, so a stale
    handle held across its entry's death (and the slot's reuse) can never
    cancel the wrong event.

    Cancellation is lazy and O(1); dead entries are reclaimed when a pop
    reaches them or by an amortized sweep once they outnumber live ones, so
    cancel-heavy workloads cannot grow the queue without bound.

    Lanes: entries a caller adds in ascending [(key, seq)] order — ticks
    re-armed a fixed period after the current time — may go to a {e lane}
    ({!new_lane}, {!add_lane}) instead: a FIFO ring beside the heap, with
    O(1) add and cancel; a pop compares the heap root with each lane's
    head.  Pops, {!pop_pick}'s candidates, {!length},
    {!next_key}, handles and cancellation treat lane entries exactly as
    heap entries; only the cost differs. *)

type 'a t

type handle = int
(** A cancellation handle for an inserted element.  Immediate (never
    allocated) and generation-tagged: using it after the element has been
    popped or cancelled is a harmless no-op. *)

val nil_handle : handle
(** A handle that names no entry, ever: {!cancel} on it is a no-op and
    {!handle_live} is [false].  Lets callers keep a [handle] field without
    an option box. *)

val create : 'a -> 'a t
(** [create filler]: an empty queue whose free slots hold [filler], so a
    popped or cancelled value is never kept alive by the queue.  Pass a
    value that holds on to nothing. *)

val is_empty : 'a t -> bool
(** [true] iff no live (non-cancelled) entries remain.  O(1). *)

val length : 'a t -> int
(** Number of live entries.  O(1). *)

val add : 'a t -> key:int -> seq:int -> 'a -> handle
(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)].
    O(log n); [seq] need not be monotone, so an entry may be placed ahead
    of already-pending entries at the same [key]. *)

val new_lane : 'a t -> int
(** [new_lane q] adds an empty lane to [q] and returns its index (0, 1, …
    in creation order).  At most 8192 lanes per queue. *)

val add_lane : 'a t -> lane:int -> key:int -> seq:int -> 'a -> handle
(** [add_lane q ~lane ~key ~seq v] inserts [v] with priority [(key, seq)]
    at the tail of [lane], in O(1).  [(key, seq)] must be greater than
    that of the last entry added to the lane, unless every entry in it has
    been popped or cancelled (raises [Invalid_argument] otherwise, or if
    [lane] does not exist).  The handle is a handle like {!add}'s. *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the live entry with the smallest priority, as
    [(key, seq, value)]. *)

val pop_exn : 'a t -> 'a
(** Allocation-free [pop]: returns the value alone; read its key via
    {!last_key}.  Raises [Invalid_argument] if empty. *)

val last_key : 'a t -> int
(** Key of the most recently popped entry (any pop variant). *)

val next_key : 'a t -> int
(** Key of the entry a pop would return, or [max_int] if empty.
    Allocation-free (the [peek_key] of the hot path). *)

val peek_key : 'a t -> (int * int) option
(** Priority of the entry [pop] would return, without removing it. *)

val pop_pick : 'a t -> pick:(int -> int) -> (int * int * 'a) option
(** [pop_pick q ~pick] removes and returns a live entry with the smallest
    [key], selected by [pick] among the [n >= 2] candidates sharing that
    key (listed in ascending [seq] order).  Candidate 0 is the entry
    {!pop} would return, so [pick = fun _ -> 0] reproduces {!pop};
    out-of-range picks are clamped to 0.  [pick] is not consulted when
    only one candidate exists.  Candidates are gathered into a reusable
    scratch array — O(candidates), no per-pick allocation.  Intended for
    schedule exploration, not the default hot path. *)

val pop_pick_exn : 'a t -> pick:(int -> int) -> 'a
(** Allocation-free {!pop_pick}, mirroring {!pop_exn}. *)

val cancel : 'a t -> handle -> unit
(** Cancels an entry in O(1).  Idempotent; no effect if already popped,
    cancelled, or recycled. *)

val handle_live : 'a t -> handle -> bool
(** [true] if the handle's entry has been neither popped nor cancelled. *)

val to_list : 'a t -> (int * int * 'a) list
(** Live entries in ascending priority order (for inspection). *)

(**/**)

val slab_capacity : 'a t -> int
(** Heap entry slots currently allocated, live or free (for tests
    asserting reuse and sweep bounds). *)
