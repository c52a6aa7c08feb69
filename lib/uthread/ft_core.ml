module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Program = Sa_program.Program
module Pcode = Sa_program.Program.Code
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device

(* The step loop dispatches on raw int tags (a jump table); pin the
   numbering it assumes to the constants [Program.Code] exports. *)
let () =
  assert (
    Pcode.op_done = 0 && Pcode.op_compute = 1 && Pcode.op_acquire = 2
    && Pcode.op_release = 3 && Pcode.op_wait = 4 && Pcode.op_signal = 5
    && Pcode.op_broadcast = 6 && Pcode.op_sem_p = 7 && Pcode.op_sem_v = 8
    && Pcode.op_ksem_p = 9 && Pcode.op_ksem_v = 10 && Pcode.op_fork = 11
    && Pcode.op_join = 12 && Pcode.op_io = 13 && Pcode.op_cache_read = 14
    && Pcode.op_yield = 15 && Pcode.op_stamp = 16
    && Pcode.op_set_priority = 17 && Pcode.op_dyn = 18)

type tstate = Embryo | Ready | Running | Blocked_user | Blocked_kernel | Done

(* [lease_until]/[lease_for] implement time-window ("lease") locks: a
   dispatcher that folds its dispatch charge into the dispatched thread's
   accumulator ({!fold_dispatch}) releases the queue cell under a lease
   covering the window it would otherwise have held the cell across a
   charge event.  Probes from other owners fail through the expiry instant
   inclusive — in the unfolded schedule the unlock and the dispatched
   thread's next cell acquisition run inside the same event callback, so
   the cell never appears free to other events at that instant — which
   makes thieves observe exactly the one-event-per-charge schedule's
   contention window.  [lease_for] (the dispatched thread) passes
   through, since its own merged charge covers the same window.  [owner]
   is 0 while the cell is free: thread owners are tids (>= 1) and
   processor owners [-(idx+1)], so 0 never names an owner. *)
type cs_cell = {
  mutable owner : int;
  mutable lease_until : Time.t;
  mutable lease_for : int;
}

type tcb = {
  tid : int;
  mutable prio : int;  (* higher runs first; children inherit the forker's *)
  mutable tstate : tstate;
  mutable resume : unit -> unit;  (* valid when Ready *)
  mutable binding : int;  (* vessel index the thread last ran on *)
  mutable held_cell : cs_cell;  (* [no_cell] outside critical sections *)
  mutable cs_hook : (unit -> unit) option;
      (* set while the thread is being "temporarily continued" through a
         critical section after a preemption (Section 3.3): at section exit
         the thread parks itself on the ready list and control returns to
         the original upcall via this hook *)
  mutable joiners : tcb list;
  (* Step-loop execution context. *)
  mutable pc : int;  (* current instruction in the shared Code arena *)
  mutable phase : int;
      (* 0 fetch-dispatch at [pc]; 1 wait-wakeup (re-acquire the mutex at
         the wait op); 2 charge done, op transition pending; 3 charge done,
         re-acquire transition pending; 4-5 accumulator flushed, cell op /
         re-acquire pending *)
  mutable acc : int;  (* accumulated not-yet-charged compute (ns) *)
  mutable binds : Pcode.binds;  (* fork slot -> spawned child tid *)
  (* Preallocated as one closure block per arena ([install_flat]). *)
  mutable k_step : unit -> unit;  (* enter step loop at pc *)
  mutable k_commit : unit -> unit;  (* post-charge commit *)
  mutable k_run : unit -> unit;  (* set Running, then step *)
}

type stats = {
  mutable forks : int;
  mutable completions : int;
  mutable dispatches : int;
  mutable steals : int;
  mutable ublocks : int;
  mutable kblocks : int;
  mutable cs_spin_ns : int;
  mutable cs_recoveries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable remote_fills : int;
  mutable program_steps : int;
  mutable charge_segments : int;
  mutable charge_batches : int;
}

type mutex_state = {
  m_cell : cs_cell;
  mutable m_holder : int option;  (* tid *)
  m_waiters : tcb Queue.t;
}

type cond_state = {
  c_cell : cs_cell;
  c_waiters : (tcb * Program.Mutex.t) Queue.t;
}

type sem_state = {
  s_cell : cs_cell;
  mutable s_count : int;
  s_waiters : tcb Queue.t;
}

(* Kernel-level semaphore: waiters block in the kernel and come back through
   the substrate's kernel-wakeup path (an upcall under activations). *)
type ksem_state = {
  mutable k_count : int;
  k_waiters : (unit -> unit) Queue.t;  (* kernel wake functions *)
}

type state = {
  queues : tcb Deque.t array;
  q_cells : cs_cell array;
  mutable next_tid : int;
  mutable live : int;
  mutable ready_count : int;
  mutable running_count : int;
  mutable threads : tcb array;
      (* tid -> tcb for tids 1..[next_tid] (never reused); a finished
         thread's slot holds [retired], slot 0 and the unused tail hold
         [no_tcb] *)
  mutexes : (int, mutex_state) Hashtbl.t;
  conds : (int, cond_state) Hashtbl.t;
  sems : (int, sem_state) Hashtbl.t;
  ksems : (int, ksem_state) Hashtbl.t;
  mutable has_priorities : bool;
      (* fast path: ready lists stay plain LIFO deques until some thread
         actually sets a non-zero priority *)
  cache : Buffer_cache.t option;
  io_dev : Io_device.t option;
  cache_waiters : (int, tcb list) Hashtbl.t;
  mutable remote_fill : (int -> ((unit -> unit) -> unit) option) option;
      (* cluster hook: a miss may resolve from a peer machine's cache over
         the network instead of the disk; [Some register] means the fetch
         is in flight and [register wake] will deliver the block *)
  mutable clock : unit -> Time.t;
      (* current simulated time, installed by the substrate at create time;
         consulted by cell probes to decide whether a lease is still live *)
  st : stats;
}

type 'v driver = {
  costs : Cost_model.t;
  sa_accounting : bool;
  sim : Sim.t;
  charge : tcb -> Time.span -> (unit -> unit) -> unit;
  block_io : tcb -> Time.span -> (unit -> unit) -> unit;
  block_kernel :
    tcb -> register:((unit -> unit) -> unit) -> (unit -> unit) -> unit;
  thread_stopped : tcb -> unit;
  work_created : state -> tcb -> unit;
  all_done : unit -> unit;
  on_stamp : int -> unit;
  sched_charge :
    'v -> Time.span -> repair:(unit -> unit) -> (unit -> unit) -> unit;
  picked : 'v -> tcb -> unit;
  unpicked : 'v -> tcb -> unit;
  idle : 'v -> int -> unit;
}

(* Compiled code linked against one state: code-local sync-object indices
   resolved to this state's mutex/cond/sem/ksem records once, so the step
   loop's per-op cost is a single array read instead of a [Hashtbl] probe.
   Resolution goes through find-or-create tables, so arenas compiled at
   different times ([op_dyn] continuations) share sync state. *)
type link = {
  lcode : Program.Code.t;
  lmut : mutex_state array;
  lcond : cond_state array;
  lsem : sem_state array;
  lksem : ksem_state array;
}

let fresh_cell () = { owner = 0; lease_until = Time.zero; lease_for = 0 }

(* Shared sentinel for [tcb.held_cell]; never locked. *)
let no_cell = fresh_cell ()

(* Placeholder for a tcb's [k_*] slots until [install_flat] fills them. *)
let nop () = ()

let blank_tcb tid =
  {
    tid;
    prio = 0;
    tstate = Embryo;
    resume = nop;
    binding = 0;
    held_cell = no_cell;
    cs_hook = None;
    joiners = [];
    pc = 0;
    phase = 0;
    acc = 0;
    binds = Pcode.no_binds;
    k_step = nop;
    k_commit = nop;
    k_run = nop;
  }

(* Filler for the unused slots of [state.threads]. *)
let no_tcb = blank_tcb 0

(* Stands in the slot of every finished thread, so the TCB and its
   closure block become garbage once the vessel lets go of them.  Only its
   [Done] state is ever read: a join on it advances at once, and the
   census counts it [Done].  It is also the ready lists' filler for their
   empty slots. *)
let retired = { (blank_tcb 0) with tstate = Done }

let tcb_id t = t.tid
let tcb_priority t = t.prio
let tcb_state t = t.tstate
let tcb_in_cs t = t.held_cell != no_cell
let tcb_binding t = t.binding
let cell_owner c = if c.owner = 0 then None else Some c.owner

let create_state ~queues ?cache ?io_dev () =
  if queues <= 0 then invalid_arg "Ft_core.create_state: queues";
  {
    queues = Array.init queues (fun _ -> Deque.create retired);
    q_cells = Array.init queues (fun _ -> fresh_cell ());
    next_tid = 0;
    live = 0;
    ready_count = 0;
    running_count = 0;
    threads = Array.make 64 no_tcb;
    has_priorities = false;
    mutexes = Hashtbl.create 16;
    conds = Hashtbl.create 16;
    sems = Hashtbl.create 16;
    ksems = Hashtbl.create 16;
    cache;
    io_dev;
    cache_waiters = Hashtbl.create 16;
    remote_fill = None;
    clock = (fun () -> Time.zero);
    st =
      {
        forks = 0;
        completions = 0;
        dispatches = 0;
        steals = 0;
        ublocks = 0;
        kblocks = 0;
        cs_spin_ns = 0;
        cs_recoveries = 0;
        cache_hits = 0;
        cache_misses = 0;
        remote_fills = 0;
        program_steps = 0;
        charge_segments = 0;
        charge_batches = 0;
      };
  }

let stats s = s.st
let live_threads s = s.live
let ready_threads s = s.ready_count
let runnable_threads s = s.ready_count + s.running_count
let finished s = s.live = 0

(* The count is only read when the category is recorded. *)
let trace_ready s sim name =
  let tr = Sim.trace sim in
  if Trace.enabled tr Trace.Uthread then
    Trace.counter tr ~time:(Sim.now sim) Trace.Uthread ("ready:" ^ name)
      (float_of_int s.ready_count)

let state_counts s =
  let states =
    [ Embryo; Ready; Running; Blocked_user; Blocked_kernel; Done ]
  in
  List.map
    (fun st ->
      let n = ref 0 in
      for tid = 1 to s.next_tid do
        if s.threads.(tid).tstate = st then incr n
      done;
      (st, !n))
    states

let threads_in s st =
  let acc = ref [] in
  for tid = s.next_tid downto 1 do
    let tcb = s.threads.(tid) in
    if tcb.tstate = st && tcb != retired then acc := tcb :: !acc
  done;
  !acc

let io_device s = s.io_dev
let set_remote_fill s f = s.remote_fill <- f

let queued_tids s =
  Array.to_list s.queues
  |> List.concat_map (fun dq -> List.map (fun t -> t.tid) (Deque.to_list dq))

(* ------------------------------------------------------------------ *)
(* Sync-object tables                                                  *)
(* ------------------------------------------------------------------ *)

let mutex_state s m =
  let id = Program.Mutex.id m in
  match Hashtbl.find_opt s.mutexes id with
  | Some ms -> ms
  | None ->
      let ms =
        { m_cell = fresh_cell (); m_holder = None; m_waiters = Queue.create () }
      in
      Hashtbl.replace s.mutexes id ms;
      ms

let cond_state s c =
  let id = Program.Cond.id c in
  match Hashtbl.find_opt s.conds id with
  | Some cs -> cs
  | None ->
      let cs = { c_cell = fresh_cell (); c_waiters = Queue.create () } in
      Hashtbl.replace s.conds id cs;
      cs

let sem_state s sem =
  let id = Program.Sem.id sem in
  match Hashtbl.find_opt s.sems id with
  | Some ss -> ss
  | None ->
      let ss =
        {
          s_cell = fresh_cell ();
          s_count = Program.Sem.initial sem;
          s_waiters = Queue.create ();
        }
      in
      Hashtbl.replace s.sems id ss;
      ss

let ksem_state s sem =
  let id = Program.Sem.id sem in
  match Hashtbl.find_opt s.ksems id with
  | Some ks -> ks
  | None ->
      let ks =
        { k_count = Program.Sem.initial sem; k_waiters = Queue.create () }
      in
      Hashtbl.replace s.ksems id ks;
      ks

(* ------------------------------------------------------------------ *)
(* Ready lists                                                         *)
(* ------------------------------------------------------------------ *)

let queue_cell s i = s.q_cells.(i)

let set_state s tcb next =
  (match tcb.tstate with
  | Ready -> s.ready_count <- s.ready_count - 1
  | Running -> s.running_count <- s.running_count - 1
  | Embryo | Blocked_user | Blocked_kernel | Done -> ());
  (match next with
  | Ready -> s.ready_count <- s.ready_count + 1
  | Running -> s.running_count <- s.running_count + 1
  | Embryo | Blocked_user | Blocked_kernel | Done -> ());
  tcb.tstate <- next

let make_ready s d ~at tcb =
  (match tcb.tstate with
  | Done -> invalid_arg "make_ready: thread is done"
  | Running -> invalid_arg "make_ready: thread is running"
  | Ready -> invalid_arg "make_ready: already ready"
  | Embryo | Blocked_user | Blocked_kernel -> ());
  set_state s tcb Ready;
  Deque.push_front s.queues.(at) tcb;
  d.work_created s tcb

(* The paper's discipline (Section 4.2; see deque.mli): owners pop the
   front (LIFO), thieves take the back (oldest).  Once some thread carries
   a non-zero priority, dispatch instead scans every list for the global
   best so no high-priority thread waits behind a low-priority one
   (Section 1.2, goal 2).  Ties prefer the local list; a local pick is
   front-most, a foreign one back-most. *)
let best_prio dq =
  Deque.fold (fun acc t -> if t.prio > acc then t.prio else acc) min_int dq

let pop_own s index =
  let dq = s.queues.(index) in
  if not s.has_priorities then Deque.pop_front dq
  else begin
    let best = ref (best_prio dq) and best_idx = ref index in
    Array.iteri
      (fun i q ->
        if i <> index then begin
          let b = best_prio q in
          if b > !best then begin
            best := b;
            best_idx := i
          end
        end)
      s.queues;
    if !best = min_int then None
    else if !best_idx = index then
      Deque.remove_first dq (fun t -> t.prio = !best)
    else Deque.remove_last s.queues.(!best_idx) (fun t -> t.prio = !best)
  end

let steal_from s ~victim =
  let dq = s.queues.(victim) in
  if not s.has_priorities then Deque.pop_back dq
  else
    let best = best_prio dq in
    Deque.remove_last dq (fun t -> t.prio = best)

let run_thread s ~index tcb =
  (match tcb.tstate with
  | Ready -> ()
  | Embryo | Running | Blocked_user | Blocked_kernel | Done ->
      invalid_arg "run_thread: thread not ready");
  set_state s tcb Running;
  tcb.binding <- index;
  s.st.dispatches <- s.st.dispatches + 1;
  tcb.resume ()

(* ------------------------------------------------------------------ *)
(* Critical-section cells                                              *)
(* ------------------------------------------------------------------ *)

(* Whether [owner] could take [cell] now: unowned, and no live lease by
   someone else covers this instant. *)
let[@inline] cell_takable s cell ~owner =
  cell.owner = 0
  && not
       (Time.compare cell.lease_until Time.zero > 0
       && cell.lease_for <> owner
       && Time.compare (s.clock ()) cell.lease_until <= 0)

let try_lock_cell s cell ~owner =
  if owner = 0 then invalid_arg "Ft_core.try_lock_cell: owner 0";
  if not (cell_takable s cell ~owner) then false
  else begin
    cell.lease_until <- Time.zero;
    cell.lease_for <- 0;
    cell.owner <- owner;
    true
  end

let unlock_cell cell = cell.owner <- 0

(* Release [cell] under a lease: unavailable to everyone but [holder] until
   [span] from now.  Used by {!fold_dispatch} call sites to reproduce the
   contention window a dispatch-cost charge event would have created. *)
let lease_cell s cell ~holder ~span =
  cell.owner <- 0;
  cell.lease_until <- Time.add (s.clock ()) span;
  cell.lease_for <- holder

(* The initial spin slice while waiting on a held cell: a few uncontended
   lock costs, floored at 50 ns. *)
let spin_slice d = max (5 * d.costs.Cost_model.ut_lock) (Time.ns 50)

(* Acquire [cell], charging spin slices through [charge] while it is held,
   backing off exponentially from {!spin_slice}: the processor burns real
   simulated time, so a holder descheduled by the kernel makes spinners
   waste their processors exactly as in Section 3.3. *)
let spin_lock_cell s d cell ~owner ~charge k =
  let slice = spin_slice d in
  let slice_max = slice * 100 in
  let rec attempt slice =
    if try_lock_cell s cell ~owner then k ()
    else begin
      s.st.cs_spin_ns <- s.st.cs_spin_ns + slice;
      charge slice (fun () -> attempt (min (slice * 2) slice_max))
    end
  in
  attempt slice

let set_clock s f = s.clock <- f

(* The one steal sweep: probe the other lists in rotation order after the
   thief, each probe a "steal-victim" choice point the explorer can
   redirect.  With [all] false (no chooser installed) an empty list is
   passed over unprobed, since probing it cannot be observed: the victim
   pick would return its default and record nothing, a failed
   [try_lock_cell] changes nothing, and a successful one on an empty list
   only clears a lease that has expired — and stays expired, read by
   nothing but [try_lock_cell] — before the unlock.  [d] is the
   rotation's default victim [(thief + k) mod n], carried along rather
   than divided out per probe.  Top-level recursion, so a fruitless sweep
   allocates nothing. *)
let rec steal_probe s sim ~thief ~all k d =
  let n = Array.length s.queues in
  if k >= n then None
  else
    let v =
      if all then Sim.pick sim ~site:"steal-victim" ~arity:n ~default:d else d
    in
    let d = if d + 1 = n then 0 else d + 1 in
    if v = thief || ((not all) && Deque.is_empty s.queues.(v)) then
      steal_probe s sim ~thief ~all (k + 1) d
    else
      let cell = s.q_cells.(v) in
      if try_lock_cell s cell ~owner:(-(thief + 1)) then begin
        match steal_from s ~victim:v with
        | Some tcb ->
            s.st.steals <- s.st.steals + 1;
            Some (cell, tcb)
        | None ->
            unlock_cell cell;
            steal_probe s sim ~thief ~all (k + 1) d
      end
      else steal_probe s sim ~thief ~all (k + 1) d

(* Under a chooser every probe is a recorded choice, so the sweep probes
   every list.  Without one, a sweep with no ready thread would pass over
   every list, since each listed thread is [Ready], so it ends at once. *)
let steal s sim ~thief =
  let all = Option.is_some (Sim.chooser sim) in
  if (not all) && s.ready_count = 0 then None
  else
    let n = Array.length s.queues in
    steal_probe s sim ~thief ~all 1 ((thief + 1) mod n)

(* ------------------------------------------------------------------ *)
(* Charged operations                                                  *)
(* ------------------------------------------------------------------ *)

let flag_cost d crossings = crossings * d.costs.Cost_model.ut_critical_flag

(* One logical charge request that also issues one [d.charge] event. *)
let charge_counted s d tcb span k =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  d.charge tcb span k

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

(* Dispatch cost charged by the substrate driver when it takes a thread off
   a ready list (one critical-section crossing). *)
let dispatch_cost d =
  d.costs.Cost_model.ut_schedule + flag_cost d 1

let sa_extra d v = if d.sa_accounting then v else 0

let block_user s d tcb resume_k =
  s.st.ublocks <- s.st.ublocks + 1;
  set_state s tcb Blocked_user;
  tcb.resume <- resume_k;
  d.thread_stopped tcb

(* Every thread runs a pc-indexed step loop over a compiled arena       *)
(* ({!Program.compile}) instead of rebuilding [(unit -> t)]            *)
(* continuations.  Consecutive [Compute] spans accumulate in           *)
(* [tcb.acc] with no [Sim] event at all and are merged into the next   *)
(* charging operation's single [d.charge] (flushed separately before   *)
(* [Io], [Stamp] and [op_dyn], which need the exact pre-block /        *)
(* pre-marker / pre-forcing instant).  Every state transition happens  *)
(* at the same simulated time as with one event per charge; the one    *)
(* semantic divergence is that the protecting [cs_cell] is taken at    *)
(* the start of a merged segment rather than after the compute part,   *)
(* so spin accounting and the Section 3.3 recovery-vs-ordinary         *)
(* preemption split can differ (see docs/INTERNALS.md s12).            *)
(* ------------------------------------------------------------------ *)

let rec step_loop s d tcb lk =
  match tcb.phase with
  | 2 ->
      tcb.phase <- 0;
      commit_op s d tcb lk
  | 3 ->
      tcb.phase <- 0;
      let code = lk.lcode in
      commit_acquire s d tcb lk
        lk.lmut.(Array.unsafe_get code.Pcode.b tcb.pc)
  | 1 ->
      (* Wait wakeup: re-acquire the mutex before leaving the wait op
         (one more program step, as an [Acquire] would be). *)
      tcb.phase <- 0;
      s.st.program_steps <- s.st.program_steps + 1;
      if tcb.acc = 0 then flat_reacquire s d tcb lk
      else flat_flush s d tcb ~phase:5
  | 4 ->
      tcb.phase <- 0;
      flat_cell_op s d tcb lk
  | 5 ->
      tcb.phase <- 0;
      flat_reacquire s d tcb lk
  | _ ->
      let code = lk.lcode in
      let pc = tcb.pc in
      s.st.program_steps <- s.st.program_steps + 1;
      let c = d.costs in
      (match Array.unsafe_get code.Pcode.op pc with
      | 1 (* compute *) ->
          s.st.charge_segments <- s.st.charge_segments + 1;
          tcb.acc <- tcb.acc + Array.unsafe_get code.Pcode.a pc;
          tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
          step_loop s d tcb lk
      | 0 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 11 | 15 ->
          (* Cell-protected ops flush accumulated compute as its own
             event first, so the cell is held for exactly the op-cost
             window of a one-event-per-charge schedule.  Merging would
             serialize contended sync objects behind unrelated compute,
             and would starve thieves (whose [try_lock_cell] probes never
             spin) of the forker's/yielder's queue cell. *)
          if tcb.acc = 0 then flat_cell_op s d tcb lk
          else flat_flush s d tcb ~phase:4
      | 9 (* ksem_p *) ->
          flat_charge s d tcb ~cost:c.Cost_model.ut_lock
      | 10 (* ksem_v *) ->
          flat_charge s d tcb
            ~cost:(c.Cost_model.ut_unlock + c.Cost_model.kernel_trap)
      | 12 (* join *) ->
          (* Resolve now so an unknown target errors before any charge;
             the commit re-resolves and re-checks the target's state
             after the charge. *)
          ignore (flat_join_target s tcb (Array.unsafe_get code.Pcode.a pc));
          if tcb.acc = 0 then flat_cell_op s d tcb lk
          else flat_flush s d tcb ~phase:4
      | 13 (* io *) ->
          let span = Array.unsafe_get code.Pcode.a pc in
          if tcb.acc = 0 then flat_io s d tcb lk span
          else begin
            s.st.charge_batches <- s.st.charge_batches + 1;
            let pending = tcb.acc in
            tcb.acc <- 0;
            d.charge tcb pending (fun () -> flat_io s d tcb lk span)
          end
      | 14 (* cache_read *) ->
          flat_charge s d tcb ~cost:c.Cost_model.procedure_call
      | 16 (* stamp *) ->
          if tcb.acc = 0 then begin
            d.on_stamp (Array.unsafe_get code.Pcode.a pc);
            tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
            step_loop s d tcb lk
          end
          else begin
            (* Flush so the marker fires at the exact instant program
               order reaches it. *)
            s.st.charge_batches <- s.st.charge_batches + 1;
            let pending = tcb.acc in
            tcb.acc <- 0;
            tcb.phase <- 2;
            d.charge tcb pending tcb.k_commit
          end
      | 17 (* set_priority *) ->
          flat_charge s d tcb ~cost:c.Cost_model.procedure_call
      | 18 (* dyn *) ->
          (* A continuation boundary, not a program step. *)
          s.st.program_steps <- s.st.program_steps - 1;
          if tcb.acc = 0 then flat_dyn s d tcb lk
          else flat_flush s d tcb ~phase:2
      | _ -> assert false)

(* Flush the accumulator as its own (cell-free) [Sim] event; [phase]
   routes [k_commit] back to the pending sync op. *)
and flat_flush s d tcb ~phase =
  s.st.charge_batches <- s.st.charge_batches + 1;
  let pending = tcb.acc in
  tcb.acc <- 0;
  tcb.phase <- phase;
  d.charge tcb pending tcb.k_commit

(* Cell-protected ops: always reached with an empty accumulator, so the
   cell-held window matches a one-event-per-charge schedule exactly. *)
and flat_cell_op s d tcb lk =
  let code = lk.lcode in
  let pc = tcb.pc in
  let c = d.costs in
  match Array.unsafe_get code.Pcode.op pc with
  | 0 (* done *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_finish ~crossings:1 ~phase:2
  | 11 (* fork *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:
          (c.Cost_model.ut_fork + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:2 ~phase:2
  | 12 (* join *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_join ~crossings:1 ~phase:2
  | 15 (* yield *) ->
      flat_charge_op s d tcb
        ~cell:(queue_cell s tcb.binding)
        ~cost:c.Cost_model.ut_yield ~crossings:1 ~phase:2
  | 2 (* acquire *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_lock
        ~crossings:1 ~phase:2
  | 3 (* release *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ms.m_cell ~cost:c.Cost_model.ut_unlock
        ~crossings:1 ~phase:2
  | 4 (* wait *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:cs.c_cell
        ~cost:
          (c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1 ~phase:2
  | 5 (* signal *) | 6 (* broadcast *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:cs.c_cell
        ~cost:
          (c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1 ~phase:2
  | 7 (* sem_p *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ss.s_cell
        ~cost:
          (c.Cost_model.ut_wait + sa_extra d c.Cost_model.ut_sa_busy_accounting)
        ~crossings:1 ~phase:2
  | 8 (* sem_v *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      flat_charge_op s d tcb ~cell:ss.s_cell
        ~cost:
          (c.Cost_model.ut_signal + sa_extra d c.Cost_model.ut_sa_resume_check)
        ~crossings:1 ~phase:2
  | _ -> assert false

and flat_reacquire s d tcb lk =
  let code = lk.lcode in
  let ms = lk.lmut.(Array.unsafe_get code.Pcode.b tcb.pc) in
  flat_charge_op s d tcb ~cell:ms.m_cell ~cost:d.costs.Cost_model.ut_lock
    ~crossings:1 ~phase:3

(* Charged operation protected by a cell: one [d.charge] event of the op
   cost alone, cell taken for exactly that window.  The accumulator is
   always empty here: [step_loop] flushes it ([flat_flush]) before any
   cell-protected op and before the wait re-acquire.  Uncontended path
   allocates nothing ([k_commit] is preallocated, as is the kernel's
   per-activation charge closure). *)
and flat_charge_op s d tcb ~cell ~cost ~crossings ~phase =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  let cost = cost + flag_cost d crossings in
  tcb.phase <- phase;
  if try_lock_cell s cell ~owner:tcb.tid then begin
    tcb.held_cell <- cell;
    d.charge tcb cost tcb.k_commit
  end
  else
    spin_lock_cell s d cell ~owner:tcb.tid
      ~charge:(fun slice k -> d.charge tcb slice k)
      (fun () ->
        tcb.held_cell <- cell;
        d.charge tcb cost tcb.k_commit)

(* Charged operation with no protecting cell (kernel-semaphore ops,
   cache probes, priority): merged charge, commit via the phase route. *)
and flat_charge s d tcb ~cost =
  s.st.charge_segments <- s.st.charge_segments + 1;
  s.st.charge_batches <- s.st.charge_batches + 1;
  let cost = cost + tcb.acc in
  tcb.acc <- 0;
  tcb.phase <- 2;
  d.charge tcb cost tcb.k_commit

and flat_io s d tcb lk span =
  s.st.kblocks <- s.st.kblocks + 1;
  set_state s tcb Blocked_kernel;
  tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
  d.block_io tcb span tcb.k_run

and flat_join_target s tcb operand =
  let tid = Pcode.join_target tcb.binds operand in
  if tid < 1 || tid > s.next_tid then invalid_arg "Join: unknown thread id";
  s.threads.(tid)

(* Post-charge state transition for the op at [tcb.pc], dispatched on the
   op tag. *)
and commit_op s d tcb lk =
  let code = lk.lcode in
  let pc = tcb.pc in
  let c = d.costs in
  match Array.unsafe_get code.Pcode.op pc with
  | 0 (* done *) ->
      set_state s tcb Done;
      s.live <- s.live - 1;
      s.st.completions <- s.st.completions + 1;
      let joiners = tcb.joiners in
      tcb.joiners <- [];
      List.iter (fun j -> make_ready s d ~at:tcb.binding j) joiners;
      s.threads.(tcb.tid) <- retired;
      if s.live = 0 then d.all_done ();
      d.thread_stopped tcb
  | 2 (* acquire *) ->
      commit_acquire s d tcb lk lk.lmut.(Array.unsafe_get code.Pcode.a pc)
  | 3 (* release *) ->
      let ms = lk.lmut.(Array.unsafe_get code.Pcode.a pc) in
      (match ms.m_holder with
      | Some holder when holder = tcb.tid -> ()
      | Some _ | None -> invalid_arg "Release: not the holder");
      (match Queue.take_opt ms.m_waiters with
      | Some w ->
          ms.m_holder <- Some w.tid;
          make_ready s d ~at:tcb.binding w
      | None -> ms.m_holder <- None);
      flat_advance s d tcb lk
  | 4 (* wait *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      let mi = Array.unsafe_get code.Pcode.b pc in
      let ms = lk.lmut.(mi) in
      (match ms.m_holder with
      | Some holder when holder = tcb.tid -> ()
      | Some _ | None -> invalid_arg "Wait: caller does not hold mutex");
      (* Atomically release the mutex and sleep. *)
      (match Queue.take_opt ms.m_waiters with
      | Some w ->
          ms.m_holder <- Some w.tid;
          make_ready s d ~at:tcb.binding w
      | None -> ms.m_holder <- None);
      Queue.add (tcb, code.Pcode.mutexes.(mi)) cs.c_waiters;
      tcb.phase <- 1;
      block_user s d tcb tcb.k_step
  | 5 (* signal *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt cs.c_waiters with
      | Some (w, _m) -> make_ready s d ~at:tcb.binding w
      | None -> ());
      flat_advance s d tcb lk
  | 6 (* broadcast *) ->
      let cs = lk.lcond.(Array.unsafe_get code.Pcode.a pc) in
      Queue.iter (fun (w, _m) -> make_ready s d ~at:tcb.binding w) cs.c_waiters;
      Queue.clear cs.c_waiters;
      flat_advance s d tcb lk
  | 7 (* sem_p *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      if ss.s_count > 0 then begin
        ss.s_count <- ss.s_count - 1;
        flat_advance s d tcb lk
      end
      else begin
        Queue.add tcb ss.s_waiters;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        block_user s d tcb tcb.k_step
      end
  | 8 (* sem_v *) ->
      let ss = lk.lsem.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt ss.s_waiters with
      | Some w -> make_ready s d ~at:tcb.binding w
      | None -> ss.s_count <- ss.s_count + 1);
      flat_advance s d tcb lk
  | 9 (* ksem_p *) ->
      let ks = lk.lksem.(Array.unsafe_get code.Pcode.a pc) in
      if ks.k_count > 0 then begin
        ks.k_count <- ks.k_count - 1;
        (* The check-and-decrement still traps into the kernel. *)
        s.st.charge_segments <- s.st.charge_segments + 1;
        s.st.charge_batches <- s.st.charge_batches + 1;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        d.charge tcb c.Cost_model.kernel_trap tcb.k_step
      end
      else begin
        s.st.kblocks <- s.st.kblocks + 1;
        set_state s tcb Blocked_kernel;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        d.block_kernel tcb
          ~register:(fun wake -> Queue.add wake ks.k_waiters)
          tcb.k_run
      end
  | 10 (* ksem_v *) ->
      let ks = lk.lksem.(Array.unsafe_get code.Pcode.a pc) in
      (match Queue.take_opt ks.k_waiters with
      | Some wake -> wake ()
      | None -> ks.k_count <- ks.k_count + 1);
      flat_advance s d tcb lk
  | 11 (* fork *) ->
      let child_pc = Array.unsafe_get code.Pcode.a pc in
      let slot = Array.unsafe_get code.Pcode.b pc in
      let child = new_flat_thread s d lk ~pc:child_pc in
      child.prio <- tcb.prio;
      if child.prio <> 0 then s.has_priorities <- true;
      s.st.forks <- s.st.forks + 1;
      tcb.binds <- Pcode.bind tcb.binds slot child.tid;
      make_ready s d ~at:tcb.binding child;
      flat_advance s d tcb lk
  | 12 (* join *) ->
      let target =
        flat_join_target s tcb (Array.unsafe_get code.Pcode.a pc)
      in
      if target.tstate = Done then flat_advance s d tcb lk
      else begin
        target.joiners <- tcb :: target.joiners;
        tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
        block_user s d tcb tcb.k_step
      end
  | 14 (* cache_read *) -> (
      match s.cache with
      | None ->
          (* No cache configured: treat as always-hit. *)
          flat_advance s d tcb lk
      | Some cache -> (
          let block = Array.unsafe_get code.Pcode.a pc in
          match Buffer_cache.access cache block with
          | Buffer_cache.Hit ->
              s.st.cache_hits <- s.st.cache_hits + 1;
              flat_advance s d tcb lk
          | Buffer_cache.Miss ->
              s.st.cache_misses <- s.st.cache_misses + 1;
              s.st.kblocks <- s.st.kblocks + 1;
              set_state s tcb Blocked_kernel;
              tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
              let fill_done () =
                set_state s tcb Running;
                Buffer_cache.fill cache block;
                (* Wake threads that coalesced on this fill. *)
                (match Hashtbl.find_opt s.cache_waiters block with
                | Some waiters ->
                    Hashtbl.remove s.cache_waiters block;
                    List.iter
                      (fun w -> make_ready s d ~at:tcb.binding w)
                      (List.rev waiters)
                | None -> ());
                step_loop s d tcb lk
              in
              (match
                 match s.remote_fill with Some f -> f block | None -> None
               with
              | Some register ->
                  s.st.remote_fills <- s.st.remote_fills + 1;
                  d.block_kernel tcb ~register fill_done
              | None -> (
                  match s.io_dev with
                  | Some dev ->
                      d.block_kernel tcb
                        ~register:(fun wake -> Io_device.submit dev wake)
                        fill_done
                  | None ->
                      d.block_io tcb d.costs.Cost_model.io_latency fill_done))
          | Buffer_cache.Miss_in_flight ->
              s.st.cache_misses <- s.st.cache_misses + 1;
              let old =
                Option.value ~default:[]
                  (Hashtbl.find_opt s.cache_waiters block)
              in
              Hashtbl.replace s.cache_waiters block (tcb :: old);
              tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
              block_user s d tcb tcb.k_step))
  | 15 (* yield *) ->
      tcb.pc <- Array.unsafe_get code.Pcode.nx pc;
      tcb.resume <- tcb.k_step;
      set_state s tcb Ready;
      Deque.push_back s.queues.(tcb.binding) tcb;
      d.work_created s tcb;
      d.thread_stopped tcb
  | 16 (* stamp: reached only via the acc flush *) ->
      d.on_stamp (Array.unsafe_get code.Pcode.a pc);
      flat_advance s d tcb lk
  | 18 (* dyn: reached only via the acc flush *) -> flat_dyn s d tcb lk
  | 17 (* set_priority *) ->
      let p = Array.unsafe_get code.Pcode.a pc in
      tcb.prio <- p;
      if p <> 0 then s.has_priorities <- true;
      flat_advance s d tcb lk
  | _ (* compute / io never commit here *) -> assert false

and flat_advance s d tcb lk =
  tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
  step_loop s d tcb lk

and commit_acquire s d tcb lk ms =
  match ms.m_holder with
  | None ->
      ms.m_holder <- Some tcb.tid;
      flat_advance s d tcb lk
  | Some _ ->
      (* Contended: block at user level; release re-readies us holding
         the mutex.  The holder may have released while we charged the
         block path, so re-check before sleeping. *)
      let c = d.costs in
      charge_counted s d tcb
        (c.Cost_model.ut_block_on_lock - c.Cost_model.ut_lock)
        (fun () ->
          match ms.m_holder with
          | None ->
              ms.m_holder <- Some tcb.tid;
              flat_advance s d tcb lk
          | Some _ ->
              Queue.add tcb ms.m_waiters;
              tcb.pc <- Array.unsafe_get lk.lcode.Pcode.nx tcb.pc;
              block_user s d tcb tcb.k_step)

(* Force the continuation an [op_dyn] holds — passing the real child id
   from [tcb.binds] when it continues a fork — and continue at the entry
   of its freshly compiled arena.  Reached with an empty accumulator, so
   any host effect of forcing lands at the instant program order reaches
   it. *)
and flat_dyn s d tcb lk =
  let k = Pcode.force lk.lcode tcb.pc tcb.binds in
  let lk = link_code s (Program.compile k) in
  tcb.pc <- 0;
  tcb.binds <- Pcode.no_binds;
  install_flat s d tcb lk;
  step_loop s d tcb lk

and link_code s code =
  {
    lcode = code;
    lmut = Array.map (fun m -> mutex_state s m) code.Pcode.mutexes;
    lcond = Array.map (fun cv -> cond_state s cv) code.Pcode.conds;
    lsem = Array.map (fun sem -> sem_state s sem) code.Pcode.sems;
    lksem = Array.map (fun sem -> ksem_state s sem) code.Pcode.ksems;
  }

and make_tcb s =
  s.next_tid <- s.next_tid + 1;
  let tid = s.next_tid in
  let tcb = blank_tcb tid in
  if tid >= Array.length s.threads then begin
    let grown = Array.make (2 * Array.length s.threads) no_tcb in
    Array.blit s.threads 0 grown 0 tid;
    s.threads <- grown
  end;
  s.threads.(tid) <- tcb;
  s.live <- s.live + 1;
  tcb

(* One [let rec] so the three entry points share a single closure block
   (one allocation per TCB and arena); [fold_dispatch] tells them apart by
   physical equality. *)
and install_flat s d tcb lk =
  let rec k_step () = step_loop s d tcb lk
  and k_run () =
    set_state s tcb Running;
    step_loop s d tcb lk
  and k_commit () =
    if tcb.held_cell != no_cell then begin
      unlock_cell tcb.held_cell;
      tcb.held_cell <- no_cell
    end;
    match tcb.cs_hook with
    | None ->
        (* Every charge that completes here left a pending commit (2-5),
           which [step_loop] routes. *)
        assert (tcb.phase >= 2 && tcb.phase <= 5);
        step_loop s d tcb lk
    | Some hook ->
        (* Temporarily-continued thread reached the section exit:
           relinquish back to the original upcall (Section 3.3).  The
           pending commit survives in [tcb.phase]; [k_step] routes back
           to it on the next dispatch. *)
        tcb.cs_hook <- None;
        tcb.resume <- k_step;
        set_state s tcb Ready;
        Deque.push_front s.queues.(tcb.binding) tcb;
        d.work_created s tcb;
        hook ()
  in
  tcb.k_step <- k_step;
  tcb.k_run <- k_run;
  tcb.k_commit <- k_commit;
  tcb.resume <- k_step

and new_flat_thread s d lk ~pc =
  let tcb = make_tcb s in
  tcb.pc <- pc;
  install_flat s d tcb lk;
  tcb

let new_thread s d prog =
  let tcb = make_tcb s in
  install_flat s d tcb (link_code s (Program.compile prog));
  tcb

(* Dispatch-cost folding: when a thread is being dispatched at an op
   boundary (resume is the bare step/run entry, not a preemption
   re-charge), the dispatch overhead can ride in its accumulator instead
   of being a [Sim] event of its own — the next charge consumes the
   accumulator before any state transition, so every transition instant is
   unchanged.  Preemption-recharge resumes are excluded: folding there
   would shift the interrupted segment's completion earlier.  So are
   threads parked with a pending commit phase (a Section-3.3 section exit):
   their commit transitions run straight off the dispatch, before any
   charge could consume the accumulator. *)
let fold_dispatch s d tcb =
  if (tcb.resume == tcb.k_step || tcb.resume == tcb.k_run) && tcb.phase <= 1
  then begin
    s.st.charge_segments <- s.st.charge_segments + 1;
    tcb.acc <- tcb.acc + dispatch_cost d;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

(* Run a thread taken off the list guarded by [cell] (held) on vessel [v].
   At an op boundary the dispatch cost rides in the thread's charge
   accumulator and the cell is released under a lease covering the same
   window; otherwise the cost is charged as scheduler work of its own,
   whose preemption puts the half-dispatched thread back. *)
let run_picked s d v index cell tcb =
  d.picked v tcb;
  if fold_dispatch s d tcb then begin
    lease_cell s cell ~holder:tcb.tid ~span:(dispatch_cost d);
    run_thread s ~index tcb
  end
  else
    d.sched_charge v (dispatch_cost d)
      ~repair:(fun () ->
        unlock_cell cell;
        d.unpicked v tcb;
        Deque.push_front s.queues.(index) tcb)
      (fun () ->
        unlock_cell cell;
        run_thread s ~index tcb)

let schedule_locked s d v index cell =
  match pop_own s index with
  | Some tcb -> run_picked s d v index cell tcb
  | None -> (
      unlock_cell cell;
      match steal s d.sim ~thief:index with
      | Some (vcell, tcb) -> run_picked s d v index vcell tcb
      | None -> d.idle v index)

(* A [schedule] pass on vessel [index] now would lock the own list's cell
   at once, find no thread, unlock and steal nothing, then call [d.idle] —
   having changed no state a later event reads (the successful probe only
   clears an expired lease; see [steal_probe]).  That holds while no thread
   is ready, no chooser would record the steal probes, and the own cell is
   takable. *)
let idle_pass_is_empty s sim ~index =
  s.ready_count = 0
  && Option.is_none (Sim.chooser sim)
  && cell_takable s s.q_cells.(index) ~owner:(-(index + 1))

(* The own list's cell is probed first, so the uncontended path builds no
   spin closures ([spin_lock_cell] starts with the same probe). *)
let schedule s d v ~index =
  let cell = s.q_cells.(index) in
  let owner = -(index + 1) in
  if try_lock_cell s cell ~owner then schedule_locked s d v index cell
  else
    spin_lock_cell s d cell ~owner
      ~charge:(fun slice k -> d.sched_charge v slice ~repair:nop k)
      (fun () -> schedule_locked s d v index cell)

let set_resume tcb k = tcb.resume <- k

let mark_kernel_blocked s tcb =
  match tcb.tstate with
  | Blocked_kernel -> ()
  | Running -> set_state s tcb Blocked_kernel
  | Embryo | Ready | Blocked_user | Done ->
      invalid_arg "mark_kernel_blocked: thread not executing"

let resume_preempted s d ~at tcb ~remaining ~resume k =
  match tcb.tstate with
  | Running when tcb_in_cs tcb ->
      (* Recovery (Section 3.3): continue the thread through the rest of its
         critical section on this vessel; the section exit parks it and
         calls [k]. *)
      s.st.cs_recoveries <- s.st.cs_recoveries + 1;
      tcb.cs_hook <- Some k;
      tcb.binding <- at;
      d.charge tcb remaining resume
  | Running | Blocked_kernel ->
      (* Ordinary preemption: back on the ready list with the unfinished
         segment saved as its resumption.  [Blocked_kernel] is possible
         when the interrupt landed during the thread's kernel-entry path
         (the state is set before the trap cost is charged); re-running the
         remainder completes the trap and blocks properly. *)
      tcb.resume <- (fun () -> d.charge tcb remaining resume);
      set_state s tcb Ready;
      Deque.push_front s.queues.(at) tcb;
      d.work_created s tcb;
      k ()
  | Embryo | Ready | Blocked_user | Done ->
      invalid_arg "resume_preempted: thread was not running"
