module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace

type id = int

type occupant =
  | Nobody
  | Kernel_idle
  | Occupant of { space : int; detail : string }

(* The running segment is flattened into mutable fields ([run_active]
   gates them) and the completion continuation is a single closure
   allocated at [create]: beginning a segment — the per-dispatch hot path —
   then allocates nothing at all.  A spin ([begin_spin]) is a segment whose
   [spin_*] fields are live; its slice boundaries fire the preallocated
   [tick], which re-arms the next slice in place. *)
type t = {
  sim : Sim.t;
  cpu_id : id;
  mutable run_active : bool;
  mutable run_started : Time.t;
  mutable run_length : Time.span;
  mutable run_continue : unit -> unit;
  mutable run_event : Sim.handle;
  mutable finish : unit -> unit;  (* preallocated segment-end event *)
  mutable tick : unit -> unit;  (* preallocated spin slice-boundary event *)
  mutable spinning : bool;
  mutable spin_slice : Time.span;
  mutable spin_left : Time.span;  (* spin length left after this slice *)
  mutable spin_poll : unit -> bool;
  mutable who : occupant;
  mutable busy_ns : Time.span;
  mutable segments : int;
}

type preempted = {
  elapsed : Time.span;
  remaining : Time.span;
  resume : unit -> unit;
}

(* Each busy segment becomes one span on this CPU's track. *)
let segment_label who =
  match who with
  | Nobody -> "busy"
  | Kernel_idle -> "kernel-idle"
  | Occupant { detail; _ } -> detail

let segment_space who =
  match who with Occupant { space; _ } -> space | _ -> Trace.no_id

(* Both sites run on every charged segment — begin and end — so the
   category check is hoisted in front of the argument evaluation and
   optional-parameter binding instead of relying on [Trace.record]'s own
   gate. *)
let trace_segment_begin t =
  let tr = Sim.trace t.sim in
  if Trace.enabled tr Trace.Cpu then
    Trace.span_begin tr ~time:(Sim.now t.sim) ~cpu:t.cpu_id
      ~space:(segment_space t.who) Trace.Cpu (segment_label t.who)

let trace_segment_end t ~who ?detail () =
  let tr = Sim.trace t.sim in
  if Trace.enabled tr Trace.Cpu then
    Trace.span_end tr ~time:(Sim.now t.sim) ~cpu:t.cpu_id
      ~space:(segment_space who) ?detail Trace.Cpu (segment_label who)

let no_poll () = false

(* Start the spin's next slice: the same record updates, trace span and
   event key as a [begin_work] of that slice.  A full slice is a
   fixed-period tick, so it goes to the period's FIFO lane
   ([Sim.schedule_tick]); a short last slice goes to the heap. *)
let arm_slice t =
  let slice = Int.min t.spin_slice t.spin_left in
  t.spin_left <- t.spin_left - slice;
  t.segments <- t.segments + 1;
  trace_segment_begin t;
  t.run_started <- Sim.now t.sim;
  t.run_length <- slice;
  t.run_event <-
    (if slice = t.spin_slice then Sim.schedule_tick t.sim ~period:slice t.tick
     else Sim.schedule_after t.sim ~delay:slice t.tick)

let create sim cpu_id =
  let t =
    {
      sim;
      cpu_id;
      run_active = false;
      run_started = Time.zero;
      run_length = 0;
      run_continue = ignore;
      run_event = Sim.null_handle;
      finish = ignore;
      tick = ignore;
      spinning = false;
      spin_slice = 0;
      spin_left = 0;
      spin_poll = no_poll;
      who = Nobody;
      busy_ns = 0;
      segments = 0;
    }
  in
  t.finish <-
    (fun () ->
      let who = t.who in
      let k = t.run_continue in
      t.run_active <- false;
      t.run_continue <- ignore;
      t.who <- Nobody;
      t.busy_ns <- t.busy_ns + t.run_length;
      trace_segment_end t ~who ();
      k ());
  (* A boundary that ends the spin is a plain segment end.  An empty one
     ends the slice's span as [finish] would and re-arms without the
     idle<->busy round trip, which nothing can observe inside one event. *)
  t.tick <-
    (fun () ->
      if t.spin_poll () || t.spin_left <= 0 then begin
        t.spinning <- false;
        t.spin_poll <- no_poll;
        t.finish ()
      end
      else begin
        t.busy_ns <- t.busy_ns + t.run_length;
        trace_segment_end t ~who:t.who ();
        arm_slice t
      end);
  t

let id t = t.cpu_id
let is_busy t = t.run_active
let occupant t = t.who
let set_occupant t who = t.who <- who

let begin_work t ~occupant ~length k =
  if t.run_active then
    invalid_arg
      (Printf.sprintf "Cpu.begin_work: cpu %d already busy" t.cpu_id);
  if length < 0 then invalid_arg "Cpu.begin_work: negative length";
  t.who <- occupant;
  t.segments <- t.segments + 1;
  trace_segment_begin t;
  t.run_active <- true;
  t.run_started <- Sim.now t.sim;
  t.run_length <- length;
  t.run_continue <- k;
  t.run_event <- Sim.schedule_after t.sim ~delay:length t.finish

let begin_spin t ~occupant ~slice ~length ~poll k =
  if t.run_active then
    invalid_arg
      (Printf.sprintf "Cpu.begin_spin: cpu %d already busy" t.cpu_id);
  if slice <= 0 || length <= 0 then
    invalid_arg "Cpu.begin_spin: non-positive slice or length";
  t.who <- occupant;
  t.run_active <- true;
  t.run_continue <- k;
  t.spinning <- true;
  t.spin_slice <- slice;
  t.spin_left <- length;
  t.spin_poll <- poll;
  arm_slice t

(* The context of a preempted spin: once the interrupted slice's remainder
   has run, take that boundary and spin on for the unspent length, on the
   processor [resume_on] names at that moment (this one by default). *)
let spin_resume t ~occupant resume_on =
  let slice = t.spin_slice and left = t.spin_left and poll = t.spin_poll in
  let k = t.run_continue in
  fun () ->
    if poll () || left <= 0 then k ()
    else
      let cpu = match resume_on with Some f -> f () | None -> t in
      begin_spin cpu ~occupant ~slice ~length:left ~poll k

let preempt ?resume_on t =
  if not t.run_active then None
  else begin
    Sim.cancel t.sim t.run_event;
    let who = t.who in
    let resume =
      if t.spinning then spin_resume t ~occupant:who resume_on
      else t.run_continue
    in
    t.spinning <- false;
    t.spin_poll <- no_poll;
    t.run_active <- false;
    t.run_continue <- ignore;
    t.who <- Nobody;
    let elapsed = Time.diff (Sim.now t.sim) t.run_started in
    let remaining = t.run_length - elapsed in
    t.busy_ns <- t.busy_ns + elapsed;
    trace_segment_end t ~who ~detail:"preempted" ();
    Some { elapsed; remaining; resume }
  end

let busy_time t = t.busy_ns
let segment_count t = t.segments

let pp ppf t =
  let state =
    if not t.run_active then "idle"
    else
      Format.asprintf "busy(%a left)" Time.pp_span
        (t.run_length - Time.diff (Sim.now t.sim) t.run_started)
  in
  let who =
    match t.who with
    | Nobody -> "-"
    | Kernel_idle -> "kernel-idle"
    | Occupant { space; detail } -> Printf.sprintf "as%d:%s" space detail
  in
  Format.fprintf ppf "cpu%d %s %s" t.cpu_id state who
