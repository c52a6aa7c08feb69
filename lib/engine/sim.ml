type handle = Calq.handle

let null_handle = Calq.nil_handle

type chooser = {
  ch_pick : site:string -> arity:int -> default:int -> int;
  ch_draw : site:string -> default:int64 -> int64;
}

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Calq.t;
  mutable seq : int;
  trace : Trace.t;
  mutable same_instant : int;  (* events fired without the clock moving *)
  mutable same_instant_limit : int;
  mutable events : int;  (* events fired since creation *)
  mutable chooser : chooser option;
  mutable tick_periods : int array;  (* lane [i] holds ticks of this period *)
}

exception Stalled of string

let create () =
  {
    clock = Time.zero;
    queue = Calq.create ignore;
    seq = 0;
    trace = Trace.create ();
    same_instant = 0;
    same_instant_limit = 200_000;
    events = 0;
    chooser = None;
    tick_periods = [||];
  }

let now t = t.clock
let trace t = t.trace
let same_instant_count t = t.same_instant
let events t = t.events
let set_chooser t c = t.chooser <- c
let chooser t = t.chooser

let pick t ~site ~arity ~default =
  if arity <= 0 then invalid_arg "Sim.pick: arity must be positive";
  match t.chooser with
  | None -> default
  | Some c ->
      let i = c.ch_pick ~site ~arity ~default in
      if i < 0 || i >= arity then default else i

let draw t ~site ~default =
  match t.chooser with None -> default | Some c -> c.ch_draw ~site ~default

let schedule t ~at f =
  if Time.compare at t.clock < 0 then
    invalid_arg "Sim.schedule: event in the past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Calq.add t.queue ~key:(Time.to_ns at) ~seq f

let schedule_after t ~delay f = schedule t ~at:(Time.add t.clock delay) f

(* The queue lane that holds ticks of [period], made on first use. *)
let rec lane_of_period t period l =
  if l = Array.length t.tick_periods then begin
    let lane = Calq.new_lane t.queue in
    t.tick_periods <- Array.append t.tick_periods [| period |];
    lane
  end
  else if t.tick_periods.(l) = period then l
  else lane_of_period t period (l + 1)

(* The clock never goes back and seqs only grow, so ticks of one period
   arrive in ascending (time, seq) order: the lane's FIFO invariant. *)
let schedule_tick t ~period f =
  if period < 0 then invalid_arg "Sim.schedule_tick: negative period";
  let lane = lane_of_period t period 0 in
  let seq = t.seq in
  t.seq <- seq + 1;
  Calq.add_lane t.queue ~lane ~key:(Time.to_ns t.clock + period) ~seq f

(* Zero-delay hops run after the events already queued for this instant,
   so each hop lets them go first. *)
let rec defer_n t n k =
  if n <= 0 then k ()
  else ignore (schedule_after t ~delay:0 (fun () -> defer_n t (n - 1) k))

let defer_hops t ~site k = defer_n t (pick t ~site ~arity:3 ~default:0) k

let cancel t h = Calq.cancel t.queue h
let pending t = Calq.length t.queue

let set_same_instant_limit t n =
  if n <= 0 then invalid_arg "Sim.set_same_instant_limit";
  t.same_instant_limit <- n

(* With no chooser installed this is exactly [Calq.pop_exn]; with one, the
   chooser selects among same-instant candidates ([Calq.pop_pick_exn] only
   consults it when at least two exist, so arity-1 "choices" never reach a
   recorder). *)
let step t =
  if Calq.is_empty t.queue then false
  else begin
    let f =
      match t.chooser with
      | None -> Calq.pop_exn t.queue
      | Some c ->
          Calq.pop_pick_exn t.queue ~pick:(fun n ->
              let i = c.ch_pick ~site:"sim-order" ~arity:n ~default:0 in
              if i < 0 || i >= n then 0 else i)
    in
    let at = Time.of_ns (Calq.last_key t.queue) in
    if Time.compare at t.clock > 0 then begin
      t.clock <- at;
      t.same_instant <- 0
    end
    else begin
      t.same_instant <- t.same_instant + 1;
      if t.same_instant > t.same_instant_limit then
        raise
          (Stalled
             (Printf.sprintf
                "livelock: %d events fired without the clock advancing \
                 [clock=%s pending=%d same-instant=%d]"
                t.same_instant
                (Format.asprintf "%a" Time.pp t.clock)
                (Calq.length t.queue) t.same_instant))
    end;
    t.events <- t.events + 1;
    f ();
    true
  end

let run ?until t =
  let limit = match until with None -> max_int | Some l -> Time.to_ns l in
  while (not (Calq.is_empty t.queue)) && Calq.next_key t.queue <= limit do
    ignore (step t)
  done

let run_for t d = run ~until:(Time.add t.clock d) t

let run_while t pred =
  while pred () && not (Calq.is_empty t.queue) do
    ignore (step t)
  done

let stall t msg =
  let msg =
    Printf.sprintf "%s [clock=%s pending=%d same-instant=%d]" msg
      (Format.asprintf "%a" Time.pp t.clock)
      (Calq.length t.queue) t.same_instant
  in
  Trace.emitf t.trace ~time:t.clock Trace.Sim "STALL: %s" msg;
  raise (Stalled msg)
