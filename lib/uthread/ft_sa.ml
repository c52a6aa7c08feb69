module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel
module Upcall = Sa_kernel.Upcall

type loaded = L_none | L_thread of Ft_core.tcb | L_manager

type t = {
  mutable kernel : Kernel.t;
      (* the kernel currently hosting our space; cluster migration re-points
         it ([rehome]) before the space is attached to the target *)
  mutable space : Kernel.space option;
      (* [None] only while [create] builds the space's upcall client *)
  core_state : Ft_core.state;
  driver : Kernel.activation Ft_core.driver;
  (* Direct-mapped tables: ids are dense enough that an array lookup beats
     hashing on the per-dispatch path.  [loaded] and [act_cpu] grow together
     (both indexed by activation id); absent entries are [L_none] / [-1] /
     [None]. *)
  mutable loaded : loaded array;  (* activation id -> contents *)
  mutable bound : Kernel.activation option array;  (* tid -> activation *)
  mutable act_cpu : int array;  (* activation id -> processor *)
  max_procs : int;
  mutable pending_recovery :
    (Ft_core.tcb * Time.span * (unit -> unit)) list;
      (* threads stopped mid-critical-section, awaiting temporary
         continuation (Section 3.3); drained by the next manager step *)
}

let core t = t.core_state
let space t = Option.get t.space

let grow_by_id a id fill =
  let n = Array.length a in
  let n' = max 32 (max (id + 1) (2 * n)) in
  let a' = Array.make n' fill in
  Array.blit a 0 a' 0 n;
  a'

let ensure_aid t aid =
  if aid >= Array.length t.loaded then begin
    t.loaded <- grow_by_id t.loaded aid L_none;
    t.act_cpu <- grow_by_id t.act_cpu aid (-1)
  end

let ensure_tid t tid =
  if tid >= Array.length t.bound then t.bound <- grow_by_id t.bound tid None

let loaded_of t aid = if aid < Array.length t.loaded then t.loaded.(aid) else L_none

let act_of t tcb =
  let tid = Ft_core.tcb_id tcb in
  match if tid < Array.length t.bound then t.bound.(tid) else None with
  | Some act -> act
  | None -> failwith "Ft_sa: thread not bound to an activation"

(* Ready-queue depth counter track; the count read only happens when the
   category is recorded. *)
let trace_ready t =
  let sim = Kernel.sim t.kernel in
  let tr = Sim.trace sim in
  if Trace.enabled tr Trace.Uthread then
    Trace.counter tr ~time:(Sim.now sim) Trace.Uthread
      ("ready:" ^ Kernel.space_name (space t))
      (float_of_int (Ft_core.ready_threads t.core_state))

(* Critical-section recovery (Section 3.3) as a span: opens when a thread
   preempted inside a critical section is queued for temporary continuation,
   closes when the continuation has run it to the section exit. *)
let trace_recovery t edge tcb =
  let sim = Kernel.sim t.kernel in
  let emit = match edge with `B -> Trace.span_begin | `E -> Trace.span_end in
  emit (Sim.trace sim) ~time:(Sim.now sim)
    ~space:(Kernel.space_id (space t))
    ~act:(Ft_core.tcb_id tcb) Trace.Uthread "cs-recovery"

let bind t act tcb =
  let aid = Kernel.activation_id act and tid = Ft_core.tcb_id tcb in
  ensure_aid t aid;
  ensure_tid t tid;
  t.loaded.(aid) <- L_thread tcb;
  t.bound.(tid) <- Some act

let unbind t act tcb =
  ensure_aid t (Kernel.activation_id act);
  t.loaded.(Kernel.activation_id act) <- L_manager;
  if Ft_core.tcb_id tcb < Array.length t.bound then
    t.bound.(Ft_core.tcb_id tcb) <- None

(* ------------------------------------------------------------------ *)
(* The manager: what an activation does when it is not running a thread *)
(* ------------------------------------------------------------------ *)

let release_processor t act =
  let aid = Kernel.activation_id act in
  ensure_aid t aid;
  t.loaded.(aid) <- L_none;
  t.act_cpu.(aid) <- -1;
  Kernel.sa_cpu_idle t.kernel act

(* What ends an idle spin early: a ready thread, a thread awaiting
   critical-section recovery, or the end of the program. *)
let has_work t =
  Ft_core.ready_threads t.core_state > 0
  || t.pending_recovery <> []
  || Ft_core.finished t.core_state

let rec manager_continue t act =
  let aid = Kernel.activation_id act in
  let idx =
    if aid < Array.length t.act_cpu && t.act_cpu.(aid) >= 0 then
      t.act_cpu.(aid)
    else failwith "Ft_sa: activation has no processor record"
  in
  if Kernel.sa_cpu_warned t.kernel act then begin
    (* Warning-protocol kernels (Kconfig.preempt_warning) only hint that
       they want this processor back; a dispatch boundary is a safe point,
       so cooperate.  Any pending recovery is picked up by our remaining
       processors. *)
    t.loaded.(aid) <- L_none;
    t.act_cpu.(aid) <- -1;
    Kernel.sa_respond_warning t.kernel act
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
          if Ft_core.tcb_id tcb < Array.length t.bound then
            t.bound.(Ft_core.tcb_id tcb) <- None;
          t.loaded.(aid) <- L_manager;
          manager_continue t act)
  | [] ->
      if Ft_core.finished t.core_state then release_processor t act
      else Ft_core.schedule t.core_state t.driver act ~index:idx

and idle_hysteresis t act =
  (* Section 4.2: an idle processor spins for a while before notifying the
     kernel that it is available for reallocation.  Every slice it checks
     the ready-thread and recovery counters — an idle virtual processor
     reacts to new work within ~100 us — and it only gives the processor
     back after a full hysteresis period without finding any. *)
  if Ft_core.finished t.core_state then release_processor t act
  else begin
    let costs = Kernel.costs t.kernel in
    let spin_total = max costs.Cost_model.idle_spin (Time.us 1) in
    let slice = max (min spin_total (Time.us 100)) (Time.us 1) in
    Kernel.sa_spin t.kernel act ~slice ~length:spin_total
      ~poll:(fun () -> has_work t)
      (fun () ->
        if has_work t then manager_continue t act
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
      | L_thread tcb ->
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
          t.loaded.(aid) <- L_none;
          t.bound.(Ft_core.tcb_id tcb) <- None;
          t.act_cpu.(aid) <- -1;
          Kernel.sa_return_activation t.kernel aid;
          (* The saved context resumes the thread where it left the kernel;
             it runs when some processor dispatches it. *)
          Ft_core.set_resume tcb ctx.Upcall.resume;
          Ft_core.make_ready t.core_state t.driver ~at:idx tcb
      | L_manager | L_none ->
          failwith "Ft_sa: unblocked activation carried no thread")
  | Upcall.Processor_preempted { act = aid; ctx } -> (
      match loaded_of t aid with
      | L_thread tcb ->
          t.loaded.(aid) <- L_none;
          t.bound.(Ft_core.tcb_id tcb) <- None;
          t.act_cpu.(aid) <- -1;
          Kernel.sa_return_activation t.kernel aid;
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
              (fun () ->
                if Ft_core.tcb_id tcb < Array.length t.bound then
                  t.bound.(Ft_core.tcb_id tcb) <- None)
      | L_manager | L_none ->
          (* Manager contexts are repaired kernel-side; nothing to do. *)
          ())

let on_upcall t delivery =
  let act = delivery.Kernel.uc_activation in
  let aid = Kernel.activation_id act in
  let idx = Cpu.id delivery.Kernel.uc_cpu in
  ensure_aid t aid;
  t.act_cpu.(aid) <- idx;
  t.loaded.(aid) <- L_manager;
  List.iter (handle_event t idx) delivery.Kernel.uc_events;
  manager_continue t act

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create kernel ~name ?(priority = 0) ?cache ?io_dev
    ?(strategy = Ft_core.Copy_sections) ?max_procs
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
      kernel;
      space = None;
      core_state;
      driver = d;
      loaded = Array.make 32 L_none;
      bound = Array.make 32 None;
      act_cpu = Array.make 32 (-1);
      max_procs;
      pending_recovery = [];
    }
  and d =
    {
      Ft_core.costs;
      strategy;
      sa_accounting = true;
      sim;
      charge = (fun tcb span k -> Kernel.sa_charge t.kernel (act_of t tcb) span k);
      block_io =
        (fun tcb span k ->
          (* Trap into the kernel as part of the thread's own time, then the
             activation blocks and a fresh activation notifies us.  The
             activation is re-resolved at the end of the trap: if the trap
             segment was preempted, the thread re-runs it on a different
             activation. *)
          Kernel.sa_charge t.kernel (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_io t.kernel act ~io:span k));
      block_kernel =
        (fun tcb ~register k ->
          Kernel.sa_charge t.kernel (act_of t tcb)
            costs.Cost_model.kernel_trap (fun () ->
              let act = act_of t tcb in
              Ft_core.mark_kernel_blocked t.core_state tcb;
              Kernel.sa_block_kernel t.kernel act ~register k));
      thread_stopped =
        (fun tcb ->
          let act = act_of t tcb in
          unbind t act tcb;
          manager_continue t act);
      work_created =
        (fun s tcb ->
          trace_ready t;
          (* Table 3: tell the kernel only when runnable threads exceed our
             processors (capped at the application's parallelism limit). *)
          let sp = space t in
          let runnable = Ft_core.runnable_threads s in
          let want = Int.min t.max_procs runnable in
          let n = want - Kernel.space_assigned sp in
          if n > 0 then Kernel.sa_add_more_processors t.kernel sp n;
          (* Section 3.1 priority extension: if the newly ready thread
             outranks something we are running, ask the kernel to interrupt
             that processor — we know exactly which thread runs where. *)
          let prio = Ft_core.tcb_priority tcb in
          if prio > 0 then begin
            (* Lowest-priority running victim; scan ascending activation id
               so ties resolve deterministically. *)
            let victim = ref None in
            Array.iteri
              (fun aid l ->
                match l with
                | L_thread vt
                  when Ft_core.tcb_state vt = Ft_core.Running
                       && Ft_core.tcb_id vt <> Ft_core.tcb_id tcb -> (
                    match !victim with
                    | Some (_, best)
                      when Ft_core.tcb_priority best <= Ft_core.tcb_priority vt
                      ->
                        ()
                    | _ -> victim := Some (aid, vt))
                | _ -> ())
              t.loaded;
            match !victim with
            | Some (aid, vt) when Ft_core.tcb_priority vt < prio ->
                let cpu = t.act_cpu.(aid) in
                if cpu >= 0 then Kernel.sa_request_preempt t.kernel sp ~cpu
            | Some _ | None -> ()
          end);
      all_done = on_done;
      on_stamp = (fun id -> observer id (Sim.now sim));
      (* Scheduler work is idempotent: the kernel repairs its preemption
         rather than reporting it. *)
      sched_charge =
        (fun act span ~repair k ->
          Kernel.sa_charge ~repair t.kernel act span k);
      picked =
        (fun act tcb ->
          trace_ready t;
          bind t act tcb);
      unpicked = (fun act tcb -> unbind t act tcb);
      idle = (fun act _ -> idle_hysteresis t act);
    }
  in
  t.space <-
    Some
      (Kernel.new_sa_space kernel ~name ~priority ~on_upcall:(on_upcall t) ());
  Ft_core.make_ready core_state d ~at:0 (Ft_core.new_thread core_state d prog);
  t

(* ------------------------------------------------------------------ *)
(* Cluster migration                                                   *)
(* ------------------------------------------------------------------ *)

let rehome t kernel = t.kernel <- kernel

let nudge_demand t =
  match t.space with
  | None -> ()
  | Some sp ->
      let runnable = Ft_core.runnable_threads t.core_state in
      let want = Int.min t.max_procs runnable in
      let n = want - Kernel.space_assigned sp in
      if n > 0 then Kernel.sa_add_more_processors t.kernel sp n
