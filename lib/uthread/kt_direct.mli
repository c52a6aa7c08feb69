(** Programming directly with kernel-level execution contexts: every thread
    of the program is a Topaz kernel thread ([`Topaz]) or an Ultrix-like
    process ([`Ultrix]).  These are the two baseline columns of Tables 1
    and 4.

    Synchronization goes through the kernel: an uncontended application
    lock is a user-level test-and-set, but a contended one blocks the kernel
    thread (Section 5.3's discussion of Figure 1); condition variables and
    semaphores always trap, and user and kernel semaphore ops reach the same
    kernel semaphore.

    Each thread steps the program's compiled arena
    ({!Sa_program.Program.compile}) by pc, as the FastThreads backends do,
    but issues one kernel charge per operation with no batching.  An
    [op_dyn] continuation is forced when execution reaches it. *)

type flavor = [ `Topaz | `Ultrix ]

type t

val create :
  Sa_kernel.Kernel.t ->
  name:string ->
  flavor:flavor ->
  ?priority:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  ?observer:(int -> Sa_engine.Time.t -> unit) ->
  ?on_done:(unit -> unit) ->
  Sa_program.Program.t ->
  t
(** Build the address space and start the program's main thread in it.
    These threads have no user-level ready lists: the kernel schedules
    every one of them directly. *)

val space : t -> Sa_kernel.Kernel.space

(**/**)

type cursor
(** A running thread's place in its program. *)

val watch_cursors : t -> (cursor -> unit) -> unit
(** [watch_cursors t f] calls [f] with each thread's cursor when the
    thread starts.  A test hook: a finished thread's cursor must become
    garbage, as its record does, while the job is still held. *)
