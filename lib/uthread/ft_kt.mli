(** Original FastThreads: the user-level thread package multiplexed on Topaz
    kernel threads serving as virtual processors (Section 2).

    The package creates a fixed number of kernel threads; each runs the
    user-level scheduler loop, dispatching threads from the per-processor
    ready lists.  The kernel schedules these virtual processors obliviously:
    when a user-level thread blocks in the kernel, its virtual processor
    blocks with it and the physical processor is lost to the address space
    for the duration — the poor system integration that motivates scheduler
    activations. *)

type t

val create :
  Sa_kernel.Kernel.t ->
  name:string ->
  vps:int ->
  ?priority:int ->
  ?cache:Sa_hw.Buffer_cache.t ->
  ?io_dev:Sa_hw.Io_device.t ->
  ?observer:(int -> Sa_engine.Time.t -> unit) ->
  ?on_done:(unit -> unit) ->
  Sa_program.Program.t ->
  t
(** Build an address space running original FastThreads with [vps] virtual
    processors (kernel threads), make the program its main user-level
    thread and start the virtual processors.  [observer] receives [Stamp]
    markers; [on_done] fires when the last user-level thread completes. *)

val core : t -> Ft_core.state
val space : t -> Sa_kernel.Kernel.space
