(* The traced run: where host time and allocation go, layer by layer, seen
   from outside the simulator.

   A label pass steps a fresh instance with a sink on the [Cpu] trace
   category and reads the public counters around every [Sim.step], giving
   each event one class.  A timing pass steps a second fresh instance with
   no sink, timing every step and charging it to its event's class.  Both
   passes must fire as many events, and end with the same digest, as a timed
   instance, or the labels would not describe the timed events. *)

module W = Workload
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Kernel = Sa_kernel.Kernel
module Ft_core = Sa_uthread.Ft_core
module System = Sa.System

(* In rule order: an event takes the first class whose rule matches. *)
let classes =
  [|
    "kernel.alloc";  (* reallocations or preemptions rose *)
    "kernel.upcall";  (* upcalls rose, or an upcall segment ended *)
    "kernel.io";  (* io_blocks rose *)
    "kernel.kt";  (* kernel-thread dispatches or time slices rose *)
    "uthread.steal";  (* steals rose *)
    "uthread.dispatch";  (* dispatches rose *)
    "uthread.interp";  (* program steps rose *)
    "uthread.charge";  (* charge batches rose, or a uthread segment ended *)
    "uthread.idle";  (* a manager segment ended: idle hysteresis *)
    "kernel.kthread";  (* any other segment ended *)
    "kernel.timer";  (* no segment ended: deferred passes, deliveries, timers *)
  |]

let n_classes = Array.length classes

(* Segment ends seen during one step, as bits. *)
let seg_upcall = 1
let seg_uthread = 2
let seg_manager = 4
let seg_other = 8

let seg_bit = function
  | "upcall" -> seg_upcall
  | "uthread" -> seg_uthread
  | "manager" -> seg_manager
  | _ -> seg_other

(* Cumulative counters behind the class rules, in rule order. *)
let n_groups = 8

let read_groups (s : W.system) g =
  Array.fill g 0 n_groups 0;
  List.iter
    (fun k ->
      let st = Kernel.stats k in
      g.(0) <- g.(0) + st.Kernel.reallocations + st.Kernel.preemptions;
      g.(1) <- g.(1) + st.Kernel.upcalls;
      g.(2) <- g.(2) + st.Kernel.io_blocks;
      g.(3) <- g.(3) + st.Kernel.kt_dispatches + st.Kernel.kt_timeslices)
    s.kernels;
  List.iter
    (fun j ->
      match System.uthread_stats j with
      | Some st ->
          g.(4) <- g.(4) + st.Ft_core.steals;
          g.(5) <- g.(5) + st.Ft_core.dispatches;
          g.(6) <- g.(6) + st.Ft_core.program_steps;
          g.(7) <- g.(7) + st.Ft_core.charge_batches
      | None -> ())
    s.jobs

let classify ~before ~after ~segs =
  let rose i = after.(i) > before.(i) in
  if rose 0 then 0
  else if rose 1 || segs land seg_upcall <> 0 then 1
  else if rose 2 then 2
  else if rose 3 then 3
  else if rose 4 then 4
  else if rose 5 then 5
  else if rose 6 then 6
  else if rose 7 || segs land seg_uthread <> 0 then 7
  else if segs land seg_manager <> 0 then 8
  else if segs land seg_other <> 0 then 9
  else 10

let all_categories = Trace.[ Sim; Cpu; Kernel; Upcall; Uthread; Workload ]

(* One class byte per event, in firing order across the instance. *)
let label_pass (w : W.t) ~seed =
  let labels = Buffer.create 65536 in
  let before = Array.make n_groups 0 and after = Array.make n_groups 0 in
  let drive (s : W.system) =
    let tr = Sim.trace s.sim in
    Trace.set_recording tr true;
    List.iter (fun c -> Trace.enable tr c (c = Trace.Cpu)) all_categories;
    let segs = ref 0 in
    Trace.add_sink tr (fun r ->
        match r.Trace.kind with
        | Trace.Span_end -> segs := !segs lor seg_bit r.Trace.name
        | Trace.Instant | Trace.Span_begin | Trace.Counter _ -> ());
    read_groups s before;
    while
      s.active ()
      && begin
           segs := 0;
           Sim.step s.sim
         end
    do
      read_groups s after;
      Buffer.add_char labels
        (Char.chr (classify ~before ~after ~segs:!segs));
      Array.blit after 0 before 0 n_groups
    done
  in
  let ex = W.execute (w.build ~seed) (W.stopwatch ()) ~drive in
  (Buffer.to_bytes labels, ex)

type timing = {
  count : int array;  (** events per class *)
  ns : int array;  (** host ns in [Sim.step], per class *)
  words : float array;  (** minor words allocated in [Sim.step], per class *)
  pending_sum : float;  (** pending events summed over steps *)
  loop_ns : int;  (** wall of the stepping loops, clock reads included *)
  mislabelled : bool;  (** fired other than one event per label *)
  events : int;
  digest : string;
}

let timing_pass (w : W.t) ~seed ~labels =
  let count = Array.make n_classes 0
  and ns = Array.make n_classes 0
  and words = Array.make n_classes 0.
  and pending_sum = ref 0.
  and loop_ns = ref 0
  and idx = ref 0
  and mislabelled = ref false in
  let drive (s : W.system) =
    let t_start = W.now_ns () in
    let go = ref true in
    while !go && s.active () do
      pending_sum := !pending_sum +. float_of_int (Sim.pending s.sim);
      let w0 = Gc.minor_words () in
      let t0 = W.now_ns () in
      let fired = Sim.step s.sim in
      let t1 = W.now_ns () in
      let w1 = Gc.minor_words () in
      if not fired then go := false
      else if !idx >= Bytes.length labels then begin
        mislabelled := true;
        go := false
      end
      else begin
        let c = Char.code (Bytes.get labels !idx) in
        incr idx;
        count.(c) <- count.(c) + 1;
        ns.(c) <- ns.(c) + (t1 - t0);
        words.(c) <- words.(c) +. (w1 -. w0)
      end
    done;
    loop_ns := !loop_ns + (W.now_ns () - t_start)
  in
  let ex = W.execute (w.build ~seed) (W.stopwatch ()) ~drive in
  {
    count;
    ns;
    words;
    pending_sum = !pending_sum;
    loop_ns = !loop_ns;
    mislabelled = !mislabelled || !idx <> Bytes.length labels;
    events = ex.events;
    digest = ex.digest;
  }

(* The engine floor: host ns for [events] steps of a cascade of no-op
   events that holds [pending] events queued, timed like the timing pass.
   Delays are spread over 1..10000 ns so the calendar queue sees many
   distinct instants, as it does under a workload. *)
let engine_floor ~events ~pending =
  let sim = Sim.create () in
  Trace.set_recording (Sim.trace sim) false;
  let lcg = ref 12345 in
  let rec tick () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3fff_ffff;
    ignore (Sim.schedule_after sim ~delay:(1 + ((!lcg lsr 8) mod 10_000)) tick)
  in
  for _ = 1 to max 1 pending do
    tick ()
  done;
  let total = ref 0 in
  for _ = 1 to events do
    let t0 = W.now_ns () in
    ignore (Sim.step sim);
    let t1 = W.now_ns () in
    total := !total + (t1 - t0)
  done;
  !total

type round = {
  label_events : int;
  label_digest : string;
  timing : timing;
  floor_ns : int;
}

(* One traced round, meant to run in a fresh child. *)
let traced_round w ~seed =
  let labels, lab = label_pass w ~seed in
  let label_events = lab.events and label_digest = lab.digest in
  Gc.compact ();
  let timing = timing_pass w ~seed ~labels in
  let events = timing.events in
  let pending =
    int_of_float (Float.round (timing.pending_sum /. float_of_int (max 1 events)))
  in
  Gc.compact ();
  { label_events; label_digest; timing; floor_ns = engine_floor ~events ~pending }
