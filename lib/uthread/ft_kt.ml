module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel

let idle_slice = Time.us 50

type t = {
  space : Kernel.space;
  core_state : Ft_core.state;
}

let core t = t.core_state
let space t = t.space

let create kernel ~name ~vps ?(priority = 0) ?cache ?io_dev
    ?(strategy = Ft_core.Copy_sections) ?(observer = fun _ _ -> ())
    ?(on_done = fun () -> ()) prog =
  if vps <= 0 then invalid_arg "Ft_kt.create: vps";
  let space = Kernel.new_kthread_space kernel ~name ~priority () in
  let s = Ft_core.create_state ~queues:vps ?cache ?io_dev () in
  let t = { space; core_state = s } in
  let vp_ops = Array.make vps None in
  let costs = Kernel.costs kernel in
  let sim = Kernel.sim kernel in
  Ft_core.set_clock s (fun () -> Sim.now sim);
  let ops_of tcb =
    match vp_ops.(Ft_core.tcb_binding tcb) with
    | Some ops -> ops
    | None -> failwith "Ft_kt: thread bound to an unstarted virtual processor"
  in
  let trace_ready () = Ft_core.trace_ready s sim (Kernel.space_name space) in
  (* Each virtual processor runs the shared scheduler loop until the last
     thread finishes. *)
  let rec vp_step ops idx =
    if Ft_core.finished s then ops.Kernel.kt_exit ()
    else Ft_core.schedule s d ops ~index:idx
  and d =
    {
      Ft_core.costs;
      strategy;
      sa_accounting = false;
      sim;
      charge = (fun tcb span k -> (ops_of tcb).Kernel.kt_charge span k);
      block_io =
        (fun tcb span k ->
          (* The thread traps and blocks in the kernel: the kernel thread
             serving as its virtual processor blocks with it, losing the
             physical processor for the duration (Section 2.2). *)
          let ops = ops_of tcb in
          ops.Kernel.kt_charge costs.Cost_model.kt_block (fun () ->
              ops.Kernel.kt_block_for span k));
      block_kernel =
        (fun tcb ~register k ->
          let ops = ops_of tcb in
          ops.Kernel.kt_charge costs.Cost_model.kt_block (fun () ->
              ops.Kernel.kt_block_on ~register k));
      thread_stopped =
        (fun tcb -> vp_step (ops_of tcb) (Ft_core.tcb_binding tcb));
      (* VPs poll their ready lists *)
      work_created = (fun _ _ -> trace_ready ());
      all_done = on_done;
      on_stamp = (fun id -> observer id (Sim.now sim));
      (* A kernel thread preempted in its scheduler just resumes there. *)
      sched_charge = (fun ops span ~repair:_ k -> ops.Kernel.kt_charge span k);
      picked = (fun _ _ -> trace_ready ());
      unpicked = (fun _ _ -> ());
      idle =
        (fun ops idx ->
          (* Nothing anywhere: idle-scan and look again shortly.  The
             virtual processor burns its physical processor doing this,
             exactly like an original-FastThreads kernel thread idling in
             its scheduler. *)
          ops.Kernel.kt_charge idle_slice (fun () -> vp_step ops idx));
    }
  in
  Ft_core.make_ready s d ~at:0 (Ft_core.new_thread s d prog);
  for i = 0 to vps - 1 do
    Kernel.spawn_kthread kernel space
      ~name:(Printf.sprintf "vp%d" i)
      ~body:(fun ops ->
        vp_ops.(i) <- Some ops;
        vp_step ops i)
      ()
  done;
  t
