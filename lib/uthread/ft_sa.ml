module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall

(* The user level keeps one placement fact of its own, which thread each
   activation carries (Section 3.1).  Which kernel hosts the space, and
   which activation runs on a processor, belong to the kernel and are
   asked of it ([home], [act_of]). *)
type t = {
  mutable space : Kernel.space option;
      (* [None] only while [create] builds the space's upcall client *)
  core_state : Ft_core.state;
  driver : Kernel.activation Ft_core.driver;
  mutable loaded : Ft_core.tcb array;
      (* activation id -> the thread it carries, or [Ft_core.no_tcb].
         Direct-mapped: ids are dense enough that an array lookup beats
         hashing on the per-dispatch path, and binding allocates nothing.
         A blocked activation keeps its thread until the
         Activation_unblocked upcall hands the context back. *)
  max_procs : int;
  mutable pending_recovery :
    (Ft_core.tcb * Time.span * (unit -> unit)) list;
      (* threads stopped mid-critical-section, awaiting temporary
         continuation (Section 3.3); drained by the next manager step *)
}

let core t = t.core_state
let space t = Option.get t.space

(* The kernel hosting our space; cluster migration re-points it when the
   space is attached elsewhere. *)
let home t = Kernel.space_home (space t)

let set_loaded t aid l =
  let n = Array.length t.loaded in
  if aid >= n then begin
    let a = Array.make (max (aid + 1) (2 * n)) Ft_core.no_tcb in
    Array.blit t.loaded 0 a 0 n;
    t.loaded <- a
  end;
  t.loaded.(aid) <- l

let loaded_of t aid =
  if aid < Array.length t.loaded && t.loaded.(aid) != Ft_core.no_tcb then
    Some t.loaded.(aid)
  else None

let bind t act tcb = set_loaded t (Kernel.activation_id act) tcb
let unbind t act = set_loaded t (Kernel.activation_id act) Ft_core.no_tcb

(* A running thread's activation is the one on the processor it runs on. *)
let act_of t tcb =
  match Kernel.cpu_activation (home t) (Ft_core.tcb_binding tcb) with
  | Some act -> act
  | None -> failwith "Ft_sa: thread's processor runs no activation"

let trace_ready t =
  Ft_core.trace_ready t.core_state t.driver.Ft_core.sim
    (Kernel.space_name (space t))

(* Critical-section recovery (Section 3.3) as a span: opens when a thread
   preempted inside a critical section is queued for temporary continuation,
   closes when the continuation has run it to the section exit. *)
let trace_recovery t edge tcb =
  let sim = t.driver.Ft_core.sim in
  let emit = match edge with `B -> Trace.span_begin | `E -> Trace.span_end in
  emit (Sim.trace sim) ~time:(Sim.now sim)
    ~space:(Kernel.space_id (space t))
    ~act:(Ft_core.tcb_id tcb) Trace.Uthread "cs-recovery"

(* Table 3: tell the kernel only when runnable threads exceed our
   processors (capped at the application's parallelism limit). *)
let nudge_demand t =
  let sp = space t in
  let want = Int.min t.max_procs (Ft_core.runnable_threads t.core_state) in
  let n = want - Kernel.space_assigned sp in
  if n > 0 then Kernel.sa_add_more_processors (home t) sp n

(* ------------------------------------------------------------------ *)
(* The manager: what an activation does when it is not running a thread *)
(* ------------------------------------------------------------------ *)

let release_processor t act =
  unbind t act;
  Kernel.sa_cpu_idle (home t) act

(* What ends an idle spin early: a ready thread, a thread awaiting
   critical-section recovery, or the end of the program. *)
let has_work t =
  Ft_core.ready_threads t.core_state > 0
  || t.pending_recovery <> []
  || Ft_core.finished t.core_state

(* [idx] is the processor [act] runs on, as the upcall, the scheduler loop
   or the stopping thread's binding reports it. *)
let rec manager_continue t act idx =
  if Kernel.sa_cpu_warned (home t) act then begin
    (* Warning-protocol kernels (Kconfig.preempt_warning) only hint that
       they want this processor back; a dispatch boundary is a safe point,
       so cooperate.  Any pending recovery is picked up by our remaining
       processors. *)
    unbind t act;
    Kernel.sa_respond_warning (home t) act
  end
  else
    match t.pending_recovery with
  | (tcb, remaining, resume) :: rest ->
      (* Temporarily continue a thread that was stopped inside a critical
         section; it parks itself at the section exit and control returns
         here (Section 3.3). *)
      t.pending_recovery <- rest;
      bind t act tcb;
      Ft_core.resume_preempted t.core_state t.driver ~at:idx tcb ~remaining
        ~resume (fun () ->
          trace_recovery t `E tcb;
          unbind t act;
          manager_continue t act idx)
  | [] ->
      if Ft_core.finished t.core_state then release_processor t act
      else Ft_core.schedule t.core_state t.driver act ~index:idx

and idle_hysteresis t act idx =
  (* Section 4.2: an idle processor spins for a while before notifying the
     kernel that it is available for reallocation.  Every slice it checks
     the ready-thread and recovery counters — an idle virtual processor
     reacts to new work within ~100 us — and it only gives the processor
     back after a full hysteresis period without finding any. *)
  if Ft_core.finished t.core_state then release_processor t act
  else begin
    let costs = Kernel.costs (home t) in
    let spin_total = max costs.Cost_model.idle_spin (Time.us 1) in
    let slice = max (min spin_total (Time.us 100)) (Time.us 1) in
    Kernel.sa_spin (home t) act ~slice ~length:spin_total
      ~poll:(fun () -> has_work t)
      (fun () ->
        if has_work t then manager_continue t act idx
        else release_processor t act)
  end

(* ------------------------------------------------------------------ *)
(* Upcall handler (Table 2)                                            *)
(* ------------------------------------------------------------------ *)

let handle_event t idx = function
  | Upcall.Add_processor -> ()
  | Upcall.Activation_blocked { act = _ } ->
      (* Informational: the interpreter already marked the thread as blocked
         in the kernel when it issued the request. *)
      ()
  | Upcall.Activation_unblocked { act = aid; ctx } -> (
      match loaded_of t aid with
      | Some tcb ->
          (match Ft_core.tcb_state tcb with
          | Ft_core.Blocked_kernel -> ()
          | st ->
              failwith
                (Printf.sprintf
                   "Ft_sa: unblocked act%d carries tid=%d in state %s" aid
                   (Ft_core.tcb_id tcb)
                   (match st with
                   | Ft_core.Embryo -> "embryo"
                   | Ft_core.Ready -> "ready"
                   | Ft_core.Running -> "running"
                   | Ft_core.Blocked_user -> "ublocked"
                   | Ft_core.Blocked_kernel -> "kblocked"
                   | Ft_core.Done -> "done")));
          set_loaded t aid Ft_core.no_tcb;
          Kernel.sa_return_activation (home t) aid;
          (* The saved context resumes the thread where it left the kernel;
             it runs when some processor dispatches it. *)
          Ft_core.set_resume tcb ctx.Upcall.resume;
          Ft_core.make_ready t.core_state t.driver ~at:idx tcb
      | None -> failwith "Ft_sa: unblocked activation carried no thread")
  | Upcall.Processor_preempted { act = aid; ctx } -> (
      match loaded_of t aid with
      | Some tcb ->
          set_loaded t aid Ft_core.no_tcb;
          Kernel.sa_return_activation (home t) aid;
          if Ft_core.tcb_in_cs tcb then begin
            (* Cannot touch the ready list with this thread yet: queue it
               for temporary continuation (Section 3.3). *)
            trace_recovery t `B tcb;
            t.pending_recovery <-
              t.pending_recovery
              @ [ (tcb, ctx.Upcall.remaining, ctx.Upcall.resume) ]
          end
          else
            Ft_core.resume_preempted t.core_state t.driver ~at:idx tcb
              ~remaining:ctx.Upcall.remaining ~resume:ctx.Upcall.resume
              ignore
      | None ->
          (* Manager contexts are repaired kernel-side; nothing to do. *)
          ())

let on_upcall t delivery =
  let act = delivery.Kernel.uc_activation in
  let idx = Cpu.id delivery.Kernel.uc_cpu in
  unbind t act;
  List.iter (handle_event t idx) delivery.Kernel.uc_events;
  manager_continue t act idx

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create kernel ~name ?(priority = 0) ?cache ?io_dev ?max_procs
    ?(observer = fun _ _ -> ()) ?(on_done = fun () -> ()) prog =
  let ncpus = Sa_hw.Machine.cpu_count (Kernel.machine kernel) in
  let max_procs =
    match max_procs with
    | None -> ncpus
    | Some m when m >= 1 && m <= ncpus -> m
    | Some _ -> invalid_arg "Ft_sa.create: max_procs out of range"
  in
  let core_state = Ft_core.create_state ~queues:ncpus ?cache ?io_dev () in
  let costs = Kernel.costs kernel in
  let sim = Kernel.sim kernel in
  Ft_core.set_clock core_state (fun () -> Sim.now sim);
  let rec t =
    {
      space = None;
      core_state;
      driver = d;
      loaded = Array.make 32 Ft_core.no_tcb;
      max_procs;
      pending_recovery = [];
    }
  and d =
    {
      Ft_core.costs;
      sa_accounting = true;
      sim;
      charge =
        (fun tcb span k -> Kernel.sa_charge (home t) (act_of t tcb) span k);
      block_io =
        (fun tcb span k ->
          (* Trap into the kernel as part of the thread's own time, then the
             activation blocks and a fresh activation notifies us.  The
             activation is re-resolved at the end of the trap: if the trap
             segment was preempted, the thread re-runs it on a different
             activation. *)
          Kernel.sa_charge (home t) (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_io (home t) act ~io:span k));
      block_kernel =
        (fun tcb ~register k ->
          Kernel.sa_charge (home t) (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_kernel (home t) act ~register k));
      thread_stopped =
        (fun tcb ->
          let act = act_of t tcb in
          unbind t act;
          manager_continue t act (Ft_core.tcb_binding tcb));
      work_created =
        (fun _ tcb ->
          trace_ready t;
          nudge_demand t;
          (* Section 3.1 priority extension: if the newly ready thread
             outranks something we are running, ask the kernel to interrupt
             that processor — we know exactly which thread runs where. *)
          let prio = Ft_core.tcb_priority tcb in
          if prio > 0 then begin
            (* Lowest-priority running victim; scan ascending activation id
               so ties resolve deterministically. *)
            let victim = ref None in
            Array.iter
              (fun vt ->
                if
                  vt != Ft_core.no_tcb
                  && Ft_core.tcb_state vt = Ft_core.Running
                  && Ft_core.tcb_id vt <> Ft_core.tcb_id tcb
                then
                  match !victim with
                  | Some best
                    when Ft_core.tcb_priority best <= Ft_core.tcb_priority vt
                    ->
                      ()
                  | _ -> victim := Some vt)
              t.loaded;
            match !victim with
            | Some vt when Ft_core.tcb_priority vt < prio ->
                Kernel.sa_request_preempt (home t) (space t)
                  ~cpu:(Ft_core.tcb_binding vt)
            | Some _ | None -> ()
          end);
      all_done = on_done;
      on_stamp = (fun id -> observer id (Sim.now sim));
      (* Scheduler work is idempotent: the kernel repairs its preemption
         rather than reporting it. *)
      sched_charge =
        (fun act span ~repair k ->
          Kernel.sa_charge ~repair (home t) act span k);
      picked =
        (fun act tcb ->
          trace_ready t;
          bind t act tcb);
      unpicked = (fun act _ -> unbind t act);
      idle = (fun act idx -> idle_hysteresis t act idx);
    }
  in
  t.space <-
    Some
      (Kernel.new_sa_space kernel ~name ~priority ~on_upcall:(on_upcall t) ());
  Ft_core.make_ready core_state d ~at:0 (Ft_core.new_thread core_state d prog);
  t
