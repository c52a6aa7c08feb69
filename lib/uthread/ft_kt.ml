module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel

(* An idle virtual processor looks for work every 50 us.  Its spin may be
   any multiple of that: one that runs out just starts the next. *)
let idle_slice = Time.us 50
let idle_spin = Time.s 1

(* A virtual processor as the scheduler loop sees it: its kernel thread,
   and the poll and wake-up of its idle spin, built once when the thread
   starts. *)
type vp = {
  kt : Kernel.kthread;
  idle_poll : unit -> bool;
  idle_wake : unit -> unit;
}

type t = {
  space : Kernel.space;
  core_state : Ft_core.state;
}

let core t = t.core_state
let space t = t.space

let create kernel ~name ~vps ?(priority = 0) ?cache ?io_dev
    ?(observer = fun _ _ -> ()) ?(on_done = fun () -> ()) prog =
  if vps <= 0 then invalid_arg "Ft_kt.create: vps";
  let space = Kernel.new_kthread_space kernel ~name ~priority () in
  let s = Ft_core.create_state ~queues:vps ?cache ?io_dev () in
  let t = { space; core_state = s } in
  let vp_of = Array.make vps None in
  let costs = Kernel.costs kernel in
  let sim = Kernel.sim kernel in
  Ft_core.set_clock s (fun () -> Sim.now sim);
  let vp_at idx =
    match vp_of.(idx) with
    | Some vp -> vp
    | None -> failwith "Ft_kt: thread bound to an unstarted virtual processor"
  in
  let kt_of tcb = (vp_at (Ft_core.tcb_binding tcb)).kt in
  let trace_ready () = Ft_core.trace_ready s sim (Kernel.space_name space) in
  (* Each virtual processor runs the shared scheduler loop until the last
     thread finishes. *)
  let rec vp_step vp idx =
    if Ft_core.finished s then Kernel.kt_exit kernel vp.kt
    else Ft_core.schedule s d vp ~index:idx
  and d =
    {
      Ft_core.costs;
      sa_accounting = false;
      sim;
      charge = (fun tcb span k -> Kernel.kt_charge kernel (kt_of tcb) span k);
      block_io =
        (fun tcb span k ->
          (* The thread traps and blocks in the kernel: the kernel thread
             serving as its virtual processor blocks with it, losing the
             physical processor for the duration (Section 2.2). *)
          let kt = kt_of tcb in
          Kernel.kt_charge kernel kt costs.Cost_model.kt_block (fun () ->
              Kernel.kt_block_for kernel kt span k));
      block_kernel =
        (fun tcb ~register k ->
          let kt = kt_of tcb in
          Kernel.kt_charge kernel kt costs.Cost_model.kt_block (fun () ->
              Kernel.kt_block_on kernel kt ~register k));
      thread_stopped =
        (fun tcb ->
          let idx = Ft_core.tcb_binding tcb in
          vp_step (vp_at idx) idx);
      (* VPs poll their ready lists *)
      work_created = (fun _ _ -> trace_ready ());
      all_done = on_done;
      on_stamp = (fun id -> observer id (Sim.now sim));
      (* A kernel thread preempted in its scheduler just resumes there. *)
      sched_charge =
        (fun vp span ~repair:_ k -> Kernel.kt_charge kernel vp.kt span k);
      picked = (fun _ _ -> trace_ready ());
      unpicked = (fun _ _ -> ());
      idle =
        (fun vp _ ->
          (* Nothing anywhere: spin, looking again every slice.  The
             virtual processor burns its physical processor doing this,
             exactly like an original-FastThreads kernel thread idling in
             its scheduler.  A boundary whose pass would find nothing and
             change nothing just spins on inside the CPU. *)
          Kernel.kt_spin kernel vp.kt ~slice:idle_slice ~length:idle_spin
            ~poll:vp.idle_poll vp.idle_wake);
    }
  in
  let start_vp kt idx =
    let rec vp =
      {
        kt;
        idle_poll =
          (fun () ->
            Ft_core.finished s
            || not (Ft_core.idle_pass_is_empty s sim ~index:idx));
        idle_wake = (fun () -> vp_step vp idx);
      }
    in
    vp_of.(idx) <- Some vp;
    vp_step vp idx
  in
  Ft_core.make_ready s d ~at:0 (Ft_core.new_thread s d prog);
  for i = 0 to vps - 1 do
    Kernel.spawn_kthread kernel space
      ~name:(Printf.sprintf "vp%d" i)
      ~body:(fun kt -> start_vp kt i)
      ()
  done;
  t
