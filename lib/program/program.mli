(** Thread programs.

    A workload is expressed as a value of type {!t}: a continuation-passing
    description of what a thread does — compute for a while, take locks,
    wait on conditions, fork children, read cached blocks, block on I/O.
    Every threading backend (Topaz kernel threads, FastThreads on kernel
    threads, FastThreads on scheduler activations, Ultrix processes) runs
    the same program, charging its own costs for each operation; this is
    what makes the paper's cross-system comparisons apples-to-apples.
    {!compile} is the program's one reader: it lowers the tree into a
    {!Code.t} arena, and every backend steps that arena, so the rule for
    when a continuation is forced is the same everywhere.

    Synchronization objects ({!Mutex.t}, {!Cond.t}, {!Sem.t}) are pure
    identities: backends attach their own state to them.  A program value is
    reusable across runs and backends. *)

type span = Sa_engine.Time.span

type thread_id = int
(** Runtime identity of a spawned thread, scoped to one run. *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val id : t -> int
  val name : t -> string
end

module Cond : sig
  type t

  val create : ?name:string -> unit -> t
  val id : t -> int
  val name : t -> string
end

(** Counting semaphore (Birrell-style binary/counting event). *)
module Sem : sig
  type t

  val create : ?name:string -> initial:int -> unit -> t
  val id : t -> int
  val name : t -> string
  val initial : t -> int
end

type t =
  | Done
      (** thread exits *)
  | Compute of span * (unit -> t)
      (** execute [span] of pure application compute *)
  | Acquire of Mutex.t * (unit -> t)
  | Release of Mutex.t * (unit -> t)
  | Wait of Cond.t * Mutex.t * (unit -> t)
      (** atomically release the mutex and block; re-acquires on wakeup *)
  | Signal of Cond.t * (unit -> t)
  | Broadcast of Cond.t * (unit -> t)
  | Sem_p of Sem.t * (unit -> t)
  | Sem_v of Sem.t * (unit -> t)
  | Ksem_p of Sem.t * (unit -> t)
      (** P on a {e kernel-level} semaphore: synchronization is forced
          through the kernel even on user-level thread systems (the upcall
          performance benchmark of Section 5.2) *)
  | Ksem_v of Sem.t * (unit -> t)
  | Fork of t * (thread_id -> t)
      (** spawn a child running the given program *)
  | Join of thread_id * (unit -> t)
  | Io of span * (unit -> t)
      (** block in the kernel for [span] (device I/O) *)
  | Cache_read of int * (unit -> t)
      (** read a block through the address space's buffer cache; a miss
          blocks in the kernel for the configured I/O latency *)
  | Yield of (unit -> t)
  | Stamp of int * (unit -> t)
      (** zero-cost timestamp marker: the executing backend reports
          (marker, current simulated time) to its observer — the measurement
          hook for the latency benchmarks *)
  | Set_priority of int * (unit -> t)
      (** set the calling thread's priority (higher runs first).  A
          user-level scheduling feature: the FastThreads backends honour it
          in their ready lists and, under scheduler activations, ask the
          kernel to interrupt a processor running lower-priority work
          (Section 3.1); the kernel-thread backends ignore it — kernel
          threads are scheduled obliviously, which is the paper's point *)
  | Dynamic of t
      (** marks the wrapped program as {e force-dependent}: its
          continuations read or write host state (a future's cell, a work
          bag, a mailbox), so they must be forced at simulated execution
          time, never eagerly.  {!compile} compiles such a subtree one
          node at a time, each continuation behind a lazy [op_dyn] node
          that the backend forces only when execution reaches it, at zero
          simulated cost.  Pure-structure programs (spans and sync
          objects only in continuations) never need it. *)

(** Monadic builder for writing programs in direct style:
    {[
      let prog =
        Program.Build.(
          to_program
            (let* child = fork (compute (Time.us 100)) in
             let* () = join child in
             return ()))
    ]} *)
module Build : sig
  type 'a m

  val return : 'a -> 'a m
  val ( let* ) : 'a m -> ('a -> 'b m) -> 'b m
  val bind : 'a m -> ('a -> 'b m) -> 'b m
  val to_program : unit m -> t

  val compute : span -> unit m
  val acquire : Mutex.t -> unit m
  val release : Mutex.t -> unit m

  val critical : Mutex.t -> unit m -> unit m
  (** [critical m body] is acquire; body; release. *)

  val wait : Cond.t -> Mutex.t -> unit m
  val signal : Cond.t -> unit m
  val broadcast : Cond.t -> unit m
  val sem_p : Sem.t -> unit m
  val sem_v : Sem.t -> unit m
  val ksem_p : Sem.t -> unit m
  val ksem_v : Sem.t -> unit m
  val fork : t -> thread_id m
  val fork_unit : t -> unit m
  val join : thread_id -> unit m
  val io : span -> unit m
  val cache_read : int -> unit m
  val yield : unit m
  val stamp : int -> unit m
  val set_priority : int -> unit m

  val dynamic : 'a m -> 'a m
  (** Wrap the rest of the chain in a {!Dynamic} marker (see the
      constructor's doc): use at the head of any builder whose
      continuations consult or mutate host state. *)

  val repeat : int -> (int -> unit m) -> unit m
  (** [repeat n f] runs [f 0; f 1; ...; f (n-1)] in sequence. *)

  val iter_list : 'a list -> ('a -> unit m) -> unit m
  val when_ : bool -> unit m -> unit m
end

(** Compiled, arena-allocated flat representation: the program tree
    forced once into parallel int arrays (op tag + operands + next-pc), so
    backends run a pc-indexed step loop instead of rebuilding
    [(unit -> t)] continuations per operation.  Where eager forcing cannot
    be used the arena ends in an [op_dyn] node holding the unforced
    continuation.  Sync objects are interned to dense code-local indices
    resolved against backend state once at link time.  Built by
    {!compile}; the constructor API above stays the frontend, so workloads
    never see this type. *)
module Code : sig
  type program := t

  type t = {
    op : int array;  (** op tag, one of the [op_*] constants below *)
    a : int array;
        (** first operand: span (compute/io), sync-object index, cond index
            (wait), child entry pc (fork), join target ([>= 0] literal
            runtime tid, [< 0] is [-(slot+1)] resolved through the joining
            thread's own fork bindings), block (cache_read), marker id
            (stamp), priority, index into [konts] (dyn) *)
    b : int array;
        (** second operand: mutex index (wait), fork slot (fork; dyn when
            the continuation takes the forked child's id, else [-1]).  A
            fork's slot numbers it within its thread-straight-line region
            (0, 1, 2, ... in program order); each thread runs one region
            of its arena, so the slot indexes that thread's {!binds}. *)
    nx : int array;
        (** next pc ([-1] terminates; only [op_done] and [op_dyn] have
            [-1]) *)
    mutexes : Mutex.t array;  (** code-local mutex index -> object *)
    conds : Cond.t array;
    sems : Sem.t array;
    ksems : Sem.t array;
        (** kernel-semaphore index space, separate from [sems]: FastThreads
            keeps user and kernel semaphore state in separate tables (the
            kernel-thread backends resolve both spaces to one kernel
            table) *)
    konts : (thread_id -> program) array;
        (** the unforced continuations [op_dyn] nodes hold *)
  }

  (** Backends dispatch with a [match] on the raw tag (a jump table);
      these constants exist so they can assert the numbering at init. *)

  val op_done : int  (** = 0 *)

  val op_compute : int  (** = 1 *)

  val op_acquire : int  (** = 2 *)

  val op_release : int  (** = 3 *)

  val op_wait : int  (** = 4 *)

  val op_signal : int  (** = 5 *)

  val op_broadcast : int  (** = 6 *)

  val op_sem_p : int  (** = 7 *)

  val op_sem_v : int  (** = 8 *)

  val op_ksem_p : int  (** = 9 *)

  val op_ksem_v : int  (** = 10 *)

  val op_fork : int  (** = 11 *)

  val op_join : int  (** = 12 *)

  val op_io : int  (** = 13 *)

  val op_cache_read : int  (** = 14 *)

  val op_yield : int  (** = 15 *)

  val op_stamp : int  (** = 16 *)

  val op_set_priority : int  (** = 17 *)

  val op_dyn : int
  (** = 18: apply [konts.(a)] to the thread id bound at fork slot [b] (any
      id when [b = -1]), compile the result ({!compile}) and continue at
      its entry.  Backends flush pending charges first, so the forcing
      happens at exactly the simulated instant program order reaches it,
      and the node itself is not a program step. *)

  val length : t -> int

  type binds
  (** A thread's fork bindings in its current arena: an [int] array
      indexed by fork slot, holding the child id forked there or [0] (no
      thread's id) where that fork has not run; cells past the end are
      unbound.  Lookups are O(1) and allocate nothing.  Each thread starts
      with {!no_binds} and is reset to it after each [op_dyn]. *)

  val no_binds : binds
  (** The shared empty bindings. *)

  val bind : binds -> int -> thread_id -> binds
  (** [bind binds slot tid] records the child forked at [slot], in place
      when the array reaches [slot], else in a copy grown by doubling; the
      caller keeps the result.  Never writes into {!no_binds}. *)

  val join_target : binds -> int -> thread_id
  (** [join_target binds a] is the thread an [op_join] with operand [a]
      joins: [a] itself when [a >= 0], else the child bound at fork slot
      [-(a+1)], or [0] (no thread's id) when that fork has not run.
      Callers reject ids they do not know. *)

  val force : t -> int -> binds -> program
  (** [force code pc binds] forces the continuation of the [op_dyn] at
      [pc], passing the child bound at its fork slot. *)
end

val compile : ?budget:int -> t -> Code.t
(** Force the program tree into a {!Code.t} arena (root entry at pc 0).
    Given the physically same program and budget as the previous call in
    the same domain, it returns the previous arena, so jobs that submit
    one program value share one arena.  That one-entry cache is an
    ephemeron keyed on the program, so a cached arena never outlives its
    program.

    Total: every program compiles.  Fork continuations are forced
    symbolically with a per-site sentinel thread id; [Join] on a sentinel
    compiles to a fork-slot reference resolved at run time, in O(1),
    through the joining thread's own fork bindings.  Eager forcing stops at an
    [op_dyn] node holding the unforced continuation:
    - inside a [Dynamic] subtree, after every node;
    - after a fork, when code compiled with its sentinel in scope uses a
      child's id as data, joins it from another thread, or reaches a
      [Dynamic] node or one of the cases below: the earliest fork whose
      sentinel is in scope is the one left lazy, so a sentinel never
      reaches run time;
    - once the arena holds [budget] instructions (default 1M; bounds
      unbounded recursion — distinct subtrees are duplicated, physically
      shared fork children are compiled once);
    - where forcing a continuation raises: it raises again at run time,
      when execution reaches it ([Out_of_memory], [Stack_overflow] and
      [Assert_failure] are not deferred; they escape [compile]). *)

val null : t
(** The empty program (exits immediately). *)

val compute_only : span -> t
(** A thread that computes for [span] then exits. *)
