(* The space-sharing processor allocator (Section 4.1).  The policy itself
   is the pure, property-tested Alloc_policy module; this layer merely
   feeds it every space's priority and demand, then moves processors:
   phase 1 reclaims above-target processors (optionally via the
   Psyche/Symunix warning protocol), phase 2 grants free processors to
   below-target spaces.  Passes are coalesced behind the late-bound
   [Ktypes.reevaluate]/[Ktypes.schedule_pass], installed here by
   [install]. *)

open Ktypes
module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model

let set_chaos_realloc_drop t armed = t.chaos_realloc_drop <- armed

(* Load every space's claim into the kernel's policy scratch (position i
   is the i-th space of [spaces]), solve, and store the targets back into
   [sp_target].  Top-level recursion over the list, no closures: a pass
   allocates nothing. *)
let rec load_claims sc i = function
  | [] -> ()
  | sp :: rest ->
      Alloc_policy.set_claim sc i ~space:sp.sp_id ~priority:sp.sp_prio
        ~desired:sp.sp_desired;
      load_claims sc (i + 1) rest

let rec store_targets sc i = function
  | [] -> ()
  | sp :: rest ->
      sp.sp_target <- Alloc_policy.target sc i;
      store_targets sc (i + 1) rest

let compute_targets t =
  let n = List.length t.spaces in
  (* The remainder rotation is a schedule decision: an installed chooser may
     advance it by up to one full cycle, permuting which equal-desire space
     receives the leftover processor this pass. *)
  let rotation =
    if n >= 2 then
      t.rotation + Sim.pick t.sim ~site:"alloc-rotation" ~arity:n ~default:0
    else t.rotation
  in
  let sc = t.alloc_scratch in
  Alloc_policy.set_count sc n;
  load_claims sc 0 t.spaces;
  Alloc_policy.solve sc ~cpus:(ncpus t) ~rotation;
  store_targets sc 0 t.spaces

let preempt_slot_now t sp slot =
  t.stats.preemptions <- t.stats.preemptions + 1;
  sp.sp_preempted <- sp.sp_preempted + 1;
  tracef t "allocator: preempt cpu%d from %s" (Cpu.id slot.slot_cpu)
    sp.sp_name;
  trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
    "alloc:preempt";
  match sp.sp_kind with
  | Sa s ->
      let events = Sa_upcall.stop_activation_on t slot in
      s.pending <- List.rev_append events s.pending;
      release_slot slot;
      set_assigned t sp (sp.sp_assigned - 1);
      (* Tell the old space, on another of its processors — or with its
         next grant if it has none left (the paper delays it too).  The
         notification resolves [sp_home] at fire time: a migrating space's
         preemption events must chase it to its new kernel. *)
      defer t (fun () -> Sa_upcall.notify_sa sp.sp_home sp)
  | Kthreads k ->
      (match Cpu.preempt slot.slot_cpu with
      | Some p -> (
          match slot.slot_kt with
          | Some victim ->
              save_kt_context t victim p;
              set_kt_state t victim K_ready;
              Queue.add victim k.local_runq
          | None -> ())
      | None -> ());
      cancel_quantum t slot;
      slot.slot_kt <- None;
      release_slot slot;
      set_assigned t sp (sp.sp_assigned - 1)

(* Chaos: forcibly preempt whatever holds [cpu], exactly as the allocator
   or a native wakeup interrupt would, at an adversarial instant.  Explicit
   mode reclaims the processor from its owning space (the allocator then
   re-runs and typically hands it back, exercising the full preempt/upcall/
   regrant path, including mid-critical-section recovery); native mode
   bounces the running kernel thread through the global run queue.
   Returns false if the processor held nothing preemptible. *)
let chaos_preempt t ~cpu =
  if cpu < 0 || cpu >= ncpus t then invalid_arg "chaos_preempt: cpu";
  let slot = slot_of_cpu t cpu in
  match t.cfg.Kconfig.mode with
  | Kconfig.Explicit_allocation -> (
      match slot.slot_owner with
      | Some sp ->
          t.stats.chaos_preempts <- t.stats.chaos_preempts + 1;
          tracef t "chaos: forced preemption of cpu%d from %s" cpu sp.sp_name;
          preempt_slot_now t sp slot;
          reevaluate t;
          true
      | None -> false)
  | Kconfig.Native_oblivious -> (
      match slot.slot_kt with
      | Some kt ->
          t.stats.chaos_preempts <- t.stats.chaos_preempts + 1;
          t.stats.preemptions <- t.stats.preemptions + 1;
          tracef t "chaos: forced preemption of cpu%d from kt%d (%s)" cpu
            kt.kt_id kt.kt_name;
          (match Cpu.preempt slot.slot_cpu with
          | Some p -> save_kt_context t kt p
          | None -> ());
          cancel_quantum t slot;
          slot.slot_kt <- None;
          set_kt_state t kt K_ready;
          Kt_sched.runq_push t kt;
          Kt_sched.native_dispatch t slot;
          true
      | None -> false)

let set_space_priority t sp prio =
  if prio < 0 then invalid_arg "set_space_priority: negative priority";
  if prio <> sp.sp_prio then begin
    sp.sp_prio <- prio;
    tracef t "%s priority set to %d" sp.sp_name prio;
    if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then reevaluate t
  end

let warned_count t sp =
  let n = ref 0 in
  for i = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(i) in
    if slot_owned_by slot sp && slot.slot_warned then incr n
  done;
  !n

let preempt_cpu_from t sp =
  let slot_opt =
    Array.fold_left
      (fun acc slot ->
        if slot_owned_by slot sp && not slot.slot_warned then Some slot
        else acc)
      None t.slots
  in
  match slot_opt with
  | None -> ()
  | Some slot -> (
      match (sp.sp_kind, t.cfg.Kconfig.preempt_warning) with
      | Sa _, Some grace ->
          (* Psyche/Symunix protocol: warn and wait; force at the
             deadline.  The claimant's grant is delayed for the duration —
             the priority violation Section 6 describes. *)
          slot.slot_warned <- true;
          tracef t "allocator: warn %s on cpu%d (grace %a)" sp.sp_name
            (Cpu.id slot.slot_cpu) Time.pp_span grace;
          ignore
            (Sim.schedule_after t.sim ~delay:grace (fun () ->
                 if slot_owned_by slot sp && slot.slot_warned then begin
                   preempt_slot_now t sp slot;
                   reevaluate t
                 end))
      | (Sa _ | Kthreads _), _ -> preempt_slot_now t sp slot)

let grant_cpu_to t slot sp =
  assert (not slot.slot_warned);
  slot.slot_owner <- Some sp;
  sp.sp_granted <- sp.sp_granted + 1;
  t.st_grants <- t.st_grants + 1;
  set_assigned t sp (sp.sp_assigned + 1);
  tracef t "allocator: grant cpu%d to %s" (Cpu.id slot.slot_cpu) sp.sp_name;
  trace_instant t ~cpu:(Cpu.id slot.slot_cpu) ~space:sp.sp_id Trace.Kernel
    "alloc:grant";
  match sp.sp_kind with
  | Sa _ ->
      let events = Upcall.Add_processor :: Sa_upcall.drain_pending sp in
      Sa_upcall.deliver_upcall t slot sp ~extra_cost:0 events
  | Kthreads k -> (
      match Queue.take_opt k.local_runq with
      | Some kt -> Kt_sched.dispatch_kt_on t slot kt
      | None -> Cpu.set_occupant slot.slot_cpu Cpu.Kernel_idle)

(* Phase 1 for one space above its target: reclaim the excess.
   Outstanding warnings count as reclaims in flight.  Returns the number of
   processors moved (warned or preempted). *)
let reclaim_excess t sp =
  let in_flight = ref (warned_count t sp) in
  let moved = ref 0 in
  while
    sp.sp_assigned - warned_count t sp > sp.sp_target
    && !in_flight < sp.sp_assigned
  do
    preempt_cpu_from t sp;
    incr in_flight;
    incr moved
  done;
  !moved

(* A space at or below its target cannot be over it, whatever its
   warnings: skip it without counting them. *)
let rec reclaim t moved = function
  | [] -> moved
  | sp :: rest ->
      let moved =
        if sp.sp_assigned > sp.sp_target then moved + reclaim_excess t sp
        else moved
      in
      reclaim t moved rest

(* The first slot at or after [i] that is unowned and not busy, or the
   slot count. *)
let rec next_free t i =
  if i >= Array.length t.slots then i
  else
    let slot = t.slots.(i) in
    match slot.slot_owner with
    | None when not (Cpu.is_busy slot.slot_cpu) -> i
    | None | Some _ -> next_free t (i + 1)

(* Phase 2: grant free processors to below-target spaces, oldest space
   first for determinism ([spaces] is newest first, so the older tail is
   served before the head).  [cursor] walks the slot table in cpu-id order
   across all spaces: granting only mutates the granted slot synchronously
   (begin_work schedules its completion, it does not run it), so a slot
   passed over stays unusable for the rest of the pass.  Returns the
   cursor and adds the grants to [st_grants]. *)
let rec grant_oldest_first t cursor = function
  | [] -> cursor
  | sp :: older -> fill t sp (grant_oldest_first t cursor older)

and fill t sp cursor =
  if sp.sp_assigned >= sp.sp_target then cursor
  else
    let i = next_free t cursor in
    if i >= Array.length t.slots then i
    else begin
      grant_cpu_to t t.slots.(i) sp;
      fill t sp (i + 1)
    end

let rec contested = function
  | [] -> false
  | sp :: rest -> sp.sp_desired > sp.sp_target || contested rest

let do_reallocate t =
  if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then begin
    compute_targets t;
    let grants = t.st_grants in
    let reclaimed = reclaim t 0 t.spaces in
    ignore (grant_oldest_first t 0 t.spaces : int);
    if reclaimed > 0 || t.st_grants > grants then
      t.stats.reallocations <- t.stats.reallocations + 1;
    (* Rotate an uneven remainder after a quantum (Section 4.1). *)
    if
      t.cfg.Kconfig.rotate_remainder && t.rotation_timer = None
      && contested t.spaces
    then
      t.rotation_timer <-
        Some
          (Sim.schedule_after t.sim ~delay:t.costs.Cost_model.time_slice
             (fun () ->
               t.rotation_timer <- None;
               t.rotation <- t.rotation + 1;
               reevaluate t))
  end

(* Install the coalesced allocator entry points behind the late-bound refs.
   Idempotent; Kernel.create calls it before any space or kthread exists. *)
let install () =
  (reevaluate_ref :=
     fun t ->
       if not t.realloc_pending then begin
         t.realloc_pending <- true;
         defer t (fun () ->
             t.realloc_pending <- false;
             if t.chaos_realloc_drop then begin
               (* A lost reallocation request: demand raised before this
                  pass stays unserved until some later event re-triggers
                  the allocator. *)
               t.chaos_realloc_drop <- false;
               tracef t "chaos: reallocation pass dropped"
             end
             else do_reallocate t)
       end);
  schedule_pass_ref :=
    fun t ->
      if not t.sched_pass_pending then begin
        t.sched_pass_pending <- true;
        defer t (fun () ->
            t.sched_pass_pending <- false;
            Kt_sched.do_schedule_pass t)
      end
