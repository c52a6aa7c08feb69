(* The kernel facade.  The mechanism lives in the layered modules —
   Ktypes (shared state), Io_path (I/O completion), Kt_sched (oblivious
   kernel-thread scheduling), Sa_upcall (Table-2 vectoring + activation
   recycling), Allocator (space-sharing, Section 4.1) — and this module
   re-exports the public surface unchanged, so core/fault/explore and the
   CLI compile against the same API as before the split.  The only logic
   kept here: space construction, kernel creation (which installs the
   allocator's late-bound entry points and the daemon space), and the
   read-only introspection (stats, dump, invariant audit). *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Cpu = Sa_hw.Cpu
module Machine = Sa_hw.Machine
module Cost_model = Sa_hw.Cost_model
open Ktypes

type nonrec t = t
type nonrec space = space
type nonrec kthread = kthread
type nonrec activation = activation

type kt_ops = Ktypes.kt_ops = {
  kt_charge : Time.span -> (unit -> unit) -> unit;
  kt_block_for : Time.span -> (unit -> unit) -> unit;
  kt_block_on : register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
  kt_yield : (unit -> unit) -> unit;
  kt_exit : unit -> unit;
  kt_now : unit -> Time.t;
  kt_self : unit -> int;
  kt_cpu : unit -> int;
}

type upcall_delivery = Ktypes.upcall_delivery = {
  uc_activation : activation;
  uc_cpu : Cpu.t;
  uc_events : Upcall.event list;
}

type sa_client = Ktypes.sa_client = { on_upcall : upcall_delivery -> unit }
type io_fault = Ktypes.io_fault = Io_delay of Time.span | Io_transient_error

let sim = Ktypes.sim
let machine = Ktypes.machine
let costs = Ktypes.costs
let config = Ktypes.config
let space_id = Ktypes.space_id
let space_name = Ktypes.space_name
let space_assigned = Ktypes.space_assigned
let space_desired = Ktypes.space_desired
let space_upcalls = Ktypes.space_upcalls
let space_grants = Ktypes.space_grants
let space_preempts = Ktypes.space_preempts
let kthread_id = Ktypes.kthread_id
let kthread_space = Ktypes.kthread_space
let activation_id = Ktypes.activation_id
let activation_space = Ktypes.activation_space

(* Kernel threads *)
let spawn_kthread = Kt_sched.spawn_kthread

(* Scheduler-activation services *)
let sa_charge = Sa_upcall.sa_charge
let sa_spin = Sa_upcall.sa_spin
let sa_block_io = Sa_upcall.sa_block_io
let sa_block_kernel = Sa_upcall.sa_block_kernel
let sa_request_preempt = Sa_upcall.sa_request_preempt
let sa_add_more_processors = Sa_upcall.sa_add_more_processors
let sa_cpu_idle = Sa_upcall.sa_cpu_idle
let sa_cpu_warned = Sa_upcall.sa_cpu_warned
let sa_respond_warning = Sa_upcall.sa_respond_warning
let sa_return_activation = Sa_upcall.sa_return_activation
let swap_out_manager = Sa_upcall.swap_out_manager
let debug_stop = Sa_upcall.debug_stop
let debug_resume = Sa_upcall.debug_resume

(* I/O path *)
let set_io_fault_injector = Io_path.set_io_fault_injector
let io_inflight_count = Io_path.io_inflight_count
let chaos_spurious_completion = Io_path.chaos_spurious_completion

(* Allocator *)
let set_chaos_realloc_drop = Allocator.set_chaos_realloc_drop
let chaos_preempt = Allocator.chaos_preempt
let set_space_priority = Allocator.set_space_priority
let reallocate_now = Allocator.do_reallocate

(* ------------------------------------------------------------------ *)
(* Spaces & creation                                                   *)
(* ------------------------------------------------------------------ *)

let new_kthread_space t ~name ?(priority = 0) () =
  let sp =
    {
      sp_id = fresh_id t;
      sp_name = name;
      sp_home = t;
      sp_prio = priority;
      sp_kind = Kthreads { local_runq = Queue.create (); kt_runnable = 0 };
      sp_desired = 0;
      sp_assigned = 0;
      sp_upcalls = 0;
      sp_granted = 0;
      sp_preempted = 0;
      sp_manager_swapped = false;
      sp_alloc_track =
        Sa_engine.Stats.Weighted.create ~at:(Sim.now t.sim) ~level:0.0;
      sp_target = 0;
    }
  in
  register_space t sp;
  sp

let new_sa_space t ~name ?(priority = 0) ~client () =
  if t.cfg.Kconfig.mode = Kconfig.Native_oblivious then
    invalid_arg "new_sa_space: kernel is in Native_oblivious mode";
  let sp =
    {
      sp_id = fresh_id t;
      sp_name = name;
      sp_home = t;
      sp_prio = priority;
      sp_kind =
        Sa
          {
            client;
            pending = [];
            pool = [];
            running_acts = 0;
            blocked_acts = 0;
          };
      sp_desired = 0;
      sp_assigned = 0;
      sp_upcalls = 0;
      sp_granted = 0;
      sp_preempted = 0;
      sp_manager_swapped = false;
      sp_alloc_track =
        Sa_engine.Stats.Weighted.create ~at:(Sim.now t.sim) ~level:0.0;
      sp_target = 0;
    }
  in
  register_space t sp;
  sp

(* The periodic Topaz kernel daemons (Section 5.3): wake every
   [daemon_period], run for [daemon_burst], go back to sleep. *)
let start_daemons t =
  let sp = new_kthread_space t ~name:"topaz-daemons" ~priority:10 () in
  let period = t.costs.Cost_model.daemon_period in
  let burst = t.costs.Cost_model.daemon_burst in
  let body ops =
    let rec loop () =
      ops.kt_block_for period (fun () ->
          if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then
            t.stats.daemon_wakeups <- t.stats.daemon_wakeups + 1;
          ops.kt_charge burst loop)
    in
    loop ()
  in
  ignore
    (Kt_sched.spawn_kthread_gen t sp ~name:"daemon" ~prio:10 ~random_wake:true
       ~body ())

let create ?ids sim machine costs cfg =
  Allocator.install ();
  let slots =
    Array.map
      (fun cpu ->
        {
          slot_cpu = cpu;
          slot_owner = None;
          slot_kt = None;
          slot_act = None;
          slot_delivery = None;
          slot_quantum = Sim.null_handle;
          slot_q_gen = 0;
          slot_q_ktid = -1;
          slot_q_fire = quantum_fire_unset;
          slot_gen = 0;
          slot_warned = false;
        })
      (Machine.cpus machine)
  in
  let t =
    {
      sim;
      machine;
      costs;
      cfg;
      rng = Rng.create cfg.Kconfig.seed;
      slots;
      acts = Hashtbl.create 64;
      kthreads = Hashtbl.create 64;
      kt_ready_n = 0;
      kt_running_n = 0;
      kt_blocked_n = 0;
      kt_dead_n = 0;
      spaces = [];
      spaces_by_id = Hashtbl.create 16;
      runqs = [];
      ids = (match ids with Some r -> r | None -> ref 0);
      realloc_pending = false;
      sched_pass_pending = false;
      rotation = 0;
      rotation_timer = None;
      alloc_scratch = Alloc_policy.scratch ();
      stats =
        {
          upcalls = 0;
          upcall_events = 0;
          preemptions = 0;
          reallocations = 0;
          io_blocks = 0;
          kt_dispatches = 0;
          kt_timeslices = 0;
          daemon_wakeups = 0;
          io_faults = 0;
          io_retries = 0;
          spurious_fired = 0;
          spurious_dropped = 0;
          chaos_preempts = 0;
        };
      st_grants = 0;
      chaos_realloc_drop = false;
      io_fault_hook = None;
      io_inflight = Hashtbl.create 32;
      debug_frozen = Hashtbl.create 8;
    }
  in
  (* Expose the kernel's own draws (native-mode random wakeups) as choice
     points; with no chooser installed the hook is an identity. *)
  Rng.interpose t.rng
    (Some (fun default -> Sim.draw sim ~site:"kernel-rng" ~default));
  if cfg.Kconfig.daemons then start_daemons t;
  t

(* ------------------------------------------------------------------ *)
(* Stats & invariants                                                  *)
(* ------------------------------------------------------------------ *)

type stats = Ktypes.stats = {
  mutable upcalls : int;
  mutable upcall_events : int;
  mutable preemptions : int;
  mutable reallocations : int;
  mutable io_blocks : int;
  mutable kt_dispatches : int;
  mutable kt_timeslices : int;
  mutable daemon_wakeups : int;
  mutable io_faults : int;
  mutable io_retries : int;
  mutable spurious_fired : int;
  mutable spurious_dropped : int;
  mutable chaos_preempts : int;
}

(* A copy, so callers hold a snapshot rather than the live counters. *)
let stats t = { t.stats with upcalls = t.stats.upcalls }

let dump t ppf =
  Array.iter
    (fun slot ->
      Format.fprintf ppf "%a owner=%s kt=%s act=%s quantum=%b@."
        Cpu.pp slot.slot_cpu
        (match slot.slot_owner with Some sp -> sp.sp_name | None -> "-")
        (match slot.slot_kt with
        | Some kt -> Printf.sprintf "kt%d(%s)" kt.kt_id kt.kt_name
        | None -> "-")
        (match slot.slot_act with
        | Some a -> Printf.sprintf "act%d" a.act_id
        | None -> "-")
        (not (slot.slot_quantum == Sim.null_handle)))
    t.slots;
  List.iter
    (fun (prio, q) ->
      Format.fprintf ppf "runq[prio=%d]: %d@." prio (Queue.length q))
    t.runqs;
  (* O(1) census from the transition-site counters; only the live listing
     below walks the table (newest first, as the old list order did). *)
  Format.fprintf ppf "kthreads: ready=%d blocked=%d dead=%d total=%d@."
    t.kt_ready_n t.kt_blocked_n t.kt_dead_n (kthread_count t);
  let live =
    Hashtbl.fold
      (fun _ kt acc ->
        match kt.kt_state with
        | K_ready | K_running _ -> kt :: acc
        | K_blocked | K_dead -> acc)
      t.kthreads []
    |> List.sort (fun a b -> compare b.kt_id a.kt_id)
  in
  List.iter
    (fun kt ->
      Format.fprintf ppf "  live kt%d %s state=%s pending=%a@." kt.kt_id
        kt.kt_name
        (match kt.kt_state with
        | K_ready -> "ready"
        | K_running c -> Printf.sprintf "running@%d" c
        | K_blocked -> "blocked"
        | K_dead -> "dead")
        Time.pp_span kt.kt_pending_cost)
    live

let find_space t id = Hashtbl.find_opt t.spaces_by_id id

let space_cpu_seconds t sp =
  Sa_engine.Stats.Weighted.average sp.sp_alloc_track ~upto:(Sim.now t.sim)
  *. Time.to_ms (Sim.now t.sim) /. 1000.0

let free_cpus t =
  Array.fold_left
    (fun n slot -> if slot.slot_owner = None then n + 1 else n)
    0 t.slots

let check_invariants t =
  List.iter
    (fun sp ->
      let owned =
        Array.fold_left
          (fun n slot -> if slot_owned_by slot sp then n + 1 else n)
          0 t.slots
      in
      if t.cfg.Kconfig.mode = Kconfig.Explicit_allocation then begin
        if owned <> sp.sp_assigned then
          failwith
            (Printf.sprintf "invariant: %s owns %d cpus but assigned=%d"
               sp.sp_name owned sp.sp_assigned);
        match sp.sp_kind with
        | Sa s ->
            (* Section 3.1: as many running activations as processors. *)
            if s.running_acts <> sp.sp_assigned then
              failwith
                (Printf.sprintf
                   "invariant: %s has %d running activations, %d processors"
                   sp.sp_name s.running_acts sp.sp_assigned)
        | Kthreads _ -> ()
      end)
    t.spaces;
  Array.iter
    (fun slot ->
      match slot.slot_act with
      | Some act -> (
          (match slot.slot_owner with
          | Some sp when same_space sp act.act_sp -> ()
          | Some _ | None ->
              failwith "invariant: activation on slot not owned by its space");
          match act.act_state with
          | A_running cpu_id when cpu_id = Cpu.id slot.slot_cpu -> ()
          | A_running _ | A_blocked | A_stopped | A_free ->
              failwith "invariant: slot activation not running here")
      | None -> ())
    t.slots;
  (* Kernel-thread census: the O(1) counters must agree with the ground
     truth in the thread table — a transition that bypassed set_kt_state
     shows up here. *)
  (let ready = ref 0 and running = ref 0 and blocked = ref 0 and dead = ref 0 in
   Hashtbl.iter
     (fun _ kt ->
       match kt.kt_state with
       | K_ready -> incr ready
       | K_running _ -> incr running
       | K_blocked -> incr blocked
       | K_dead -> incr dead)
     t.kthreads;
   if
     !ready <> t.kt_ready_n
     || !running <> t.kt_running_n
     || !blocked <> t.kt_blocked_n
     || !dead <> t.kt_dead_n
   then
     failwith
       (Printf.sprintf
          "invariant: kthread census %d/%d/%d/%d (ready/running/blocked/dead) \
           disagrees with counters %d/%d/%d/%d"
          !ready !running !blocked !dead t.kt_ready_n t.kt_running_n
          t.kt_blocked_n t.kt_dead_n));
  (* Activation census: the per-space counters must agree with the ground
     truth in the activation table, and the recycle pool must hold only
     free, distinct activations — a double-free or lost context shows up
     here no matter which path corrupted it. *)
  List.iter
    (fun sp ->
      match sp.sp_kind with
      | Sa s ->
          let running = ref 0 and blocked = ref 0 in
          Hashtbl.iter
            (fun _ act ->
              if same_space act.act_sp sp then
                match act.act_state with
                | A_running _ -> incr running
                | A_blocked -> incr blocked
                | A_stopped | A_free -> ())
            t.acts;
          if !running <> s.running_acts then
            failwith
              (Printf.sprintf
                 "invariant: %s census finds %d running activations, \
                  counter says %d"
                 sp.sp_name !running s.running_acts);
          if !blocked <> s.blocked_acts then
            failwith
              (Printf.sprintf
                 "invariant: %s census finds %d blocked activations, \
                  counter says %d"
                 sp.sp_name !blocked s.blocked_acts);
          let seen = Hashtbl.create 16 in
          List.iter
            (fun act ->
              (match act.act_state with
              | A_free -> ()
              | A_running _ | A_blocked | A_stopped ->
                  failwith
                    (Printf.sprintf "invariant: pooled act%d is not free"
                       act.act_id));
              if Hashtbl.mem seen act.act_id then
                failwith
                  (Printf.sprintf "invariant: act%d pooled twice" act.act_id);
              Hashtbl.replace seen act.act_id ())
            s.pool
      | Kthreads _ -> ())
    t.spaces;
  (* Every running activation must sit on the slot it claims. *)
  Hashtbl.iter
    (fun _ act ->
      match act.act_state with
      | A_running cpu_id -> (
          let slot = slot_of_cpu t cpu_id in
          match slot.slot_act with
          | Some a when a.act_id = act.act_id -> ()
          | Some _ | None ->
              failwith
                (Printf.sprintf
                   "invariant: act%d claims cpu%d but the slot disagrees"
                   act.act_id cpu_id))
      | A_blocked | A_stopped | A_free -> ())
    t.acts

(* ------------------------------------------------------------------ *)
(* Cluster migration                                                   *)
(* ------------------------------------------------------------------ *)

(* A space in transit between kernels: the space record itself plus every
   activation record that belongs to it (blocked ones carry saved thread
   contexts; stopped/free ones are the recycle pool's backing store).
   Shared ids ([create ?ids]) keep the records globally unique, so the
   target kernel can index them without translation. *)
type migration = { mig_space : space; mig_acts : activation list }

let migration_act_count m = List.length m.mig_acts

let detach_space t sp =
  (match sp.sp_kind with
  | Sa _ -> ()
  | Kthreads _ -> invalid_arg "detach_space: only SA spaces migrate");
  if not (Hashtbl.mem t.spaces_by_id sp.sp_id) then
    invalid_arg "detach_space: space not registered here";
  (* Reclaim every processor the space holds.  Each interrupted context
     becomes a Processor_preempted event in the space's pending queue (the
     Table-2 drain) and travels with the migration; the deferred
     notifications chase [sp_home] and so deliver on the target. *)
  Array.iter
    (fun slot ->
      if slot_owned_by slot sp then Allocator.preempt_slot_now t sp slot)
    t.slots;
  unregister_space t sp;
  sp.sp_desired <- 0;
  let acts =
    Hashtbl.fold
      (fun _ act acc -> if same_space act.act_sp sp then act :: acc else acc)
      t.acts []
    |> List.sort (fun a b -> compare a.act_id b.act_id)
  in
  List.iter (fun act -> Hashtbl.remove t.acts act.act_id) acts;
  tracef t "cluster: detach %s (%d activation records)" sp.sp_name
    (List.length acts);
  reevaluate t;
  { mig_space = sp; mig_acts = acts }

let attach_space t m =
  let sp = m.mig_space in
  if Hashtbl.mem t.spaces_by_id sp.sp_id then
    invalid_arg "attach_space: space id already registered here";
  register_space t sp;
  sp.sp_home <- t;
  List.iter (fun act -> Hashtbl.replace t.acts act.act_id act) m.mig_acts;
  tracef t "cluster: attach %s (%d activation records)" sp.sp_name
    (List.length m.mig_acts);
  (* The drained contexts (and any wakeups that landed mid-flight) are
     sitting in the pending queue; make sure the space gets a processor to
     receive them — the first grant delivers Add_processor plus the whole
     backlog through the normal path. *)
  (match sp.sp_kind with
  | Sa s -> if s.pending <> [] && sp.sp_desired < 1 then sp.sp_desired <- 1
  | Kthreads _ -> ());
  reevaluate t
