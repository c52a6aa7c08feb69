(* The oblivious kernel-thread scheduler (Section 2.2): the native-mode
   global run queue, dispatch and time-slicing, the per-kthread capability
   record ([kt_ops]), and kthread spawning.  "Oblivious" because nothing
   here consults user-level state — under native Topaz the kernel
   time-slices whatever is runnable; under explicit allocation it
   time-slices within the processors the Allocator granted to the space. *)

open Ktypes
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model

(* ------------------------------------------------------------------ *)
(* Native-mode global run queue                                        *)
(* ------------------------------------------------------------------ *)

let runq_for t prio =
  match List.assoc_opt prio t.runqs with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      t.runqs <-
        List.sort (fun (a, _) (b, _) -> compare b a) ((prio, q) :: t.runqs);
      q

let runq_depth t =
  List.fold_left (fun n (_, q) -> n + Queue.length q) 0 t.runqs

(* Counter track for the native global run queue.  The depth fold only runs
   when the category is recorded. *)
let trace_runq t =
  if Trace.enabled (ktrace t) Trace.Kernel then
    trace_counter t Trace.Kernel "runq:native" (float_of_int (runq_depth t))

let runq_push t kt =
  Queue.add kt (runq_for t kt.kt_prio);
  trace_runq t

let runq_pop t =
  let rec go = function
    | [] -> None
    | (_, q) :: rest -> (
        match Queue.take_opt q with Some kt -> Some kt | None -> go rest)
  in
  match go t.runqs with
  | Some kt ->
      trace_runq t;
      Some kt
  | None -> None

let runq_head_prio t =
  let rec go = function
    | [] -> None
    | (prio, q) :: rest -> if Queue.is_empty q then go rest else Some prio
  in
  go t.runqs

(* Update a kernel-thread space's demand signal (explicit mode) from its
   runnable count; the kernel derives this from internal data structures
   for binary-compatible address spaces (Section 4.1). *)
let refresh_kt_desired t sp =
  match sp.sp_kind with
  | Kthreads k ->
      let d = min k.kt_runnable (ncpus t) in
      if d <> sp.sp_desired then begin
        sp.sp_desired <- d;
        if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then reevaluate t
      end
  | Sa _ -> ()

(* ------------------------------------------------------------------ *)
(* Kernel-thread dispatch                                              *)
(* ------------------------------------------------------------------ *)

let rec dispatch_kt_on t slot kt =
  slot.slot_kt <- Some kt;
  slot.slot_gen <- slot.slot_gen + 1;
  set_kt_state t kt (K_running (Cpu.id slot.slot_cpu));
  t.stats.kt_dispatches <- t.stats.kt_dispatches + 1;
  let cost = t.costs.Cost_model.kt_context_switch + kt.kt_pending_cost in
  kt.kt_pending_cost <- 0;
  (* Kernel threads time-slice in both kernels: globally under native
     Topaz, within the address space's granted processors under explicit
     allocation (the paper hands those processors "to the original Topaz
     thread scheduler", Section 4.1). *)
  arm_quantum t slot kt;
  (* Capture the saved continuation now: if this dispatch segment is itself
     preempted, save_kt_context will overwrite [kt_resume], and reading it
     lazily at completion would chase our own wrapper forever. *)
  let resume = kt.kt_resume in
  kt.kt_resume <- (fun () -> failwith "kthread resumed without dispatch");
  charge_on_slot slot ~occupant:(kt_occupant kt) ~cost resume

and arm_quantum t slot kt =
  cancel_quantum t slot;
  (* The timer callback is one closure per slot, built on first use; re-arms
     only rewrite the armed-for fields.  The dispatch hot path runs this once
     per kthread dispatch, so the Some/closure pair it used to allocate was
     measurable in the scale benchmark. *)
  if slot.slot_q_fire == quantum_fire_unset then
    slot.slot_q_fire <- (fun () -> quantum_fire t slot);
  slot.slot_q_gen <- slot.slot_gen;
  slot.slot_q_ktid <- kt.kt_id;
  slot.slot_quantum <-
    Sim.schedule_after t.sim ~delay:t.costs.Cost_model.time_slice
      slot.slot_q_fire

and quantum_fire t slot =
  slot.slot_quantum <- Sim.null_handle;
  match slot.slot_kt with
  | Some kt when slot.slot_gen = slot.slot_q_gen && kt.kt_id = slot.slot_q_ktid ->
      (* Preempt at quantum end only if a peer of sufficient priority waits:
         the global queue under native mode, the space's own queue under
         explicit allocation. *)
      let contender_waiting =
        match t.cfg.Kconfig.mode with
        | Kconfig.Native_oblivious -> (
            match runq_head_prio t with
            | Some p -> p >= kt.kt_prio
            | None -> false)
        | Kconfig.Explicit_allocation -> (
            match kt.kt_sp.sp_kind with
            | Kthreads k -> not (Queue.is_empty k.local_runq)
            | Sa _ -> false)
      in
      if contender_waiting then timeslice_preempt t slot kt
      else arm_quantum t slot kt
  | _ -> ()

and timeslice_preempt t slot kt =
  t.stats.kt_timeslices <- t.stats.kt_timeslices + 1;
  tracef t "timeslice: preempt kt%d (%s) on cpu%d" kt.kt_id kt.kt_name
    (Cpu.id slot.slot_cpu);
  (match Cpu.preempt slot.slot_cpu with
  | Some p -> save_kt_context t kt p
  | None -> ());
  slot.slot_kt <- None;
  set_kt_state t kt K_ready;
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious ->
      runq_push t kt;
      native_dispatch t slot
  | Kconfig.Explicit_allocation -> (
      match kt.kt_sp.sp_kind with
      | Kthreads k -> (
          Queue.add kt k.local_runq;
          match Queue.take_opt k.local_runq with
          | Some next -> dispatch_kt_on t slot next
          | None -> ())
      | Sa _ -> ())

and native_dispatch t slot =
  if not (Cpu.is_busy slot.slot_cpu) then begin
    match runq_pop t with
    | Some kt -> dispatch_kt_on t slot kt
    | None ->
        slot.slot_kt <- None;
        Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle
  end

(* A processor freed by a kernel thread: find it new work. *)
let kt_cpu_released t slot =
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious -> native_dispatch t slot
  | Kconfig.Explicit_allocation -> (
      match slot.slot_owner with
      | Some ({ sp_kind = Kthreads k; _ } as sp) -> (
          match Queue.take_opt k.local_runq with
          | Some kt -> dispatch_kt_on t slot kt
          | None ->
              (* No local work: return the processor to the allocator. *)
              release_slot slot;
              set_assigned t sp (sp.sp_assigned - 1);
              Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle;
              reevaluate t)
      | Some { sp_kind = Sa _; _ } | None -> reevaluate t)

(* Make a kernel thread runnable and get it a processor if one is due. *)
let make_ready t kt =
  (match kt.kt_state with
  | K_dead -> failwith "make_ready: dead kthread"
  | K_running _ -> failwith "make_ready: already running"
  | K_ready | K_blocked -> ());
  set_kt_state t kt K_ready;
  kt_runnable_delta kt.kt_sp 1;
  match t.cfg.Kconfig.mode with
  | Kconfig.Native_oblivious ->
      runq_push t kt;
      if kt.kt_random_wake then begin
        (* The wakeup interrupt fires on an arbitrary processor and the
           woken higher-priority thread runs there at once — even if some
           other processor is idle.  This is the native-Topaz obliviousness
           the paper contrasts with explicit allocation (Section 5.3). *)
        t.stats.daemon_wakeups <- t.stats.daemon_wakeups + 1;
        let slot = t.slots.(Rng.int t.rng (ncpus t)) in
        defer t (fun () ->
            match slot.slot_kt with
            | Some victim when victim.kt_prio < kt.kt_prio ->
                t.stats.preemptions <- t.stats.preemptions + 1;
                (match Cpu.preempt slot.slot_cpu with
                | Some p -> save_kt_context t victim p
                | None -> ());
                cancel_quantum t slot;
                slot.slot_kt <- None;
                set_kt_state t victim K_ready;
                runq_push t victim;
                native_dispatch t slot
            | Some _ | None -> schedule_pass t)
      end
      else schedule_pass t
  | Kconfig.Explicit_allocation -> (
      match kt.kt_sp.sp_kind with
      | Kthreads k ->
          Queue.add kt k.local_runq;
          refresh_kt_desired t kt.kt_sp;
          (* If the space has a granted processor sitting idle, use it. *)
          defer t (fun () ->
              Array.iter
                (fun slot ->
                  if
                    slot_owned_by slot kt.kt_sp
                    && slot.slot_kt = None
                    && not (Cpu.is_busy slot.slot_cpu)
                  then
                    match Queue.take_opt k.local_runq with
                    | Some kt' -> dispatch_kt_on t slot kt'
                    | None -> ())
                t.slots)
      | Sa _ -> failwith "make_ready: kthread in SA space")

(* The per-kthread capability record. *)
let ops_for t kt =
  let current_slot () =
    match kt.kt_state with
    | K_running cpu_id -> slot_of_cpu t cpu_id
    | K_ready | K_blocked | K_dead ->
        failwith
          (Printf.sprintf "kthread %s used ops while not running" kt.kt_name)
  in
  let leave_cpu () =
    let slot = current_slot () in
    cancel_quantum t slot;
    slot.slot_kt <- None;
    slot
  in
  {
    kt_charge =
      (fun cost k ->
        charge_on_slot (current_slot ()) ~occupant:(kt_occupant kt) ~cost k);
    kt_block_for =
      (fun span k ->
        kt.kt_resume <- k;
        kt_runnable_delta kt.kt_sp (-1);
        let slot = leave_cpu () in
        set_kt_state t kt K_blocked;
        refresh_kt_desired t kt.kt_sp;
        t.stats.io_blocks <- t.stats.io_blocks + 1;
        Trace.span_begin (ktrace t) ~time:(Sim.now t.sim)
          ~space:kt.kt_sp.sp_id ~act:kt.kt_id Trace.Kernel "io-block";
        Io_path.schedule_io_completion t ~io:span (fun () ->
            Trace.span_end (ktrace t) ~time:(Sim.now t.sim)
              ~space:kt.kt_sp.sp_id ~act:kt.kt_id Trace.Kernel "io-block";
            kt.kt_pending_cost <-
              kt.kt_pending_cost + t.costs.Cost_model.kt_unblock;
            make_ready t kt);
        kt_cpu_released t slot);
    kt_block_on =
      (fun ~register k ->
        kt.kt_resume <- k;
        kt_runnable_delta kt.kt_sp (-1);
        let slot = leave_cpu () in
        set_kt_state t kt K_blocked;
        refresh_kt_desired t kt.kt_sp;
        register (fun () ->
            match kt.kt_state with
            | K_blocked ->
                kt.kt_pending_cost <-
                  kt.kt_pending_cost + t.costs.Cost_model.kt_unblock;
                make_ready t kt
            | K_ready | K_running _ | K_dead ->
                failwith "wake of non-blocked kthread");
        kt_cpu_released t slot);
    kt_yield =
      (fun k ->
        kt.kt_resume <- k;
        let slot = leave_cpu () in
        set_kt_state t kt K_ready;
        (match t.cfg.Kconfig.mode with
        | Kconfig.Native_oblivious -> runq_push t kt
        | Kconfig.Explicit_allocation -> (
            match kt.kt_sp.sp_kind with
            | Kthreads ksp -> Queue.add kt ksp.local_runq
            | Sa _ -> failwith "yield: kthread in SA space"));
        kt_cpu_released t slot);
    kt_exit =
      (fun () ->
        kt.kt_resume <- (fun () -> failwith "resumed dead kthread");
        kt_runnable_delta kt.kt_sp (-1);
        let slot = leave_cpu () in
        set_kt_state t kt K_dead;
        refresh_kt_desired t kt.kt_sp;
        kt_cpu_released t slot);
    kt_now = (fun () -> Sim.now t.sim);
    kt_self = (fun () -> kt.kt_id);
    kt_cpu = (fun () -> Cpu.id (current_slot ()).slot_cpu);
  }

let spawn_kthread_gen t sp ~name ~prio ~random_wake ?(startup_cost = 0) ~body
    () =
  (match sp.sp_kind with
  | Kthreads _ -> ()
  | Sa _ -> invalid_arg "spawn_kthread: SA space");
  let kt =
    {
      kt_id = fresh_id t;
      kt_sp = sp;
      kt_name = name;
      kt_occ = make_kt_occ ~sp ~name;
      kt_prio = prio;
      kt_random_wake = random_wake;
      kt_state = K_blocked;
      kt_resume = (fun () -> ());
      kt_pending_cost = startup_cost;
    }
  in
  let ops = ops_for t kt in
  kt.kt_resume <- (fun () -> body ops);
  register_kthread t kt;
  make_ready t kt;
  kt

let spawn_kthread t sp ~name ?startup_cost ~body () =
  spawn_kthread_gen t sp ~name ~prio:sp.sp_prio ~random_wake:false
    ?startup_cost ~body ()

(* Native-mode dispatch sweep: give every idle processor a look at the
   global queue.  Coalesced behind [schedule_pass]. *)
let do_schedule_pass t =
  if t.cfg.Kconfig.mode = Kconfig.Native_oblivious then
    Array.iter
      (fun slot ->
        if (not (Cpu.is_busy slot.slot_cpu)) && slot.slot_kt = None then
          native_dispatch t slot)
      t.slots
