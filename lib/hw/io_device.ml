module Time = Sa_engine.Time
module Sim = Sa_engine.Sim

type discipline =
  | Fixed_latency of Time.span
  | Fifo_queue of { service_time : Time.span }
  | Channels of { channels : int; service_time : Time.span }

type fault = Fault_delay of Time.span | Fault_transient_error

type request = { issued : Time.t; complete : unit -> unit }

type t = {
  sim : Sim.t;
  discipline : discipline;
  queue : request Queue.t;  (* queued disciplines only *)
  mutable busy_servers : int;
  total_servers : int;
  mutable outstanding : int;
  mutable done_count : int;
  mutable latency_ns : int;  (* summed over completed requests *)
  mutable fault_hook : (unit -> fault option) option;
  mutable retry_count : int;
  mutable fault_count : int;
}

(* Retry backoff bounds for transient device errors (controller-level
   retry): doubling from the floor, capped so a long fault streak cannot
   push a request past the simulation horizon. *)
let backoff_floor = Time.us 100
let backoff_cap = Time.ms 10

let create sim discipline =
  let total_servers =
    match discipline with
    | Fixed_latency _ -> 0
    | Fifo_queue _ -> 1
    | Channels { channels; _ } ->
        if channels <= 0 then invalid_arg "Io_device: channels";
        channels
  in
  {
    sim;
    discipline;
    queue = Queue.create ();
    busy_servers = 0;
    total_servers;
    outstanding = 0;
    done_count = 0;
    latency_ns = 0;
    fault_hook = None;
    retry_count = 0;
    fault_count = 0;
  }

let set_fault_hook t hook = t.fault_hook <- hook
let consult_fault t = match t.fault_hook with None -> None | Some h -> h ()

let finish t req =
  t.outstanding <- t.outstanding - 1;
  t.done_count <- t.done_count + 1;
  t.latency_ns <- t.latency_ns + Time.diff (Sim.now t.sim) req.issued;
  req.complete ()

(* A server (or the fixed-latency pipe) reached this request's nominal
   completion instant: consult the fault hook before raising the completion
   interrupt.  A transient error re-services the request after an
   exponential backoff; a delay postpones the interrupt.  Either way the
   request eventually completes exactly once. *)
let rec attempt_completion t ~delay ~backoff ~done_ () =
  ignore
    (Sim.schedule_after t.sim ~delay (fun () ->
         match consult_fault t with
         | None -> done_ ()
         | Some (Fault_delay extra) ->
             t.fault_count <- t.fault_count + 1;
             attempt_completion t ~delay:extra ~backoff ~done_ ()
         | Some Fault_transient_error ->
             t.fault_count <- t.fault_count + 1;
             t.retry_count <- t.retry_count + 1;
             attempt_completion t ~delay:backoff
               ~backoff:(min (backoff * 2) backoff_cap)
               ~done_ ()))

let rec serve_next t service_time =
  if t.busy_servers < t.total_servers then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some req ->
        t.busy_servers <- t.busy_servers + 1;
        attempt_completion t ~delay:service_time ~backoff:backoff_floor
          ~done_:(fun () ->
            t.busy_servers <- t.busy_servers - 1;
            finish t req;
            serve_next t service_time)
          ()

let submit t k =
  t.outstanding <- t.outstanding + 1;
  let req = { issued = Sim.now t.sim; complete = k } in
  match t.discipline with
  | Fixed_latency d ->
      attempt_completion t ~delay:d ~backoff:backoff_floor
        ~done_:(fun () -> finish t req)
        ()
  | Fifo_queue { service_time } | Channels { service_time; _ } ->
      Queue.add req t.queue;
      serve_next t service_time

let in_flight t = t.outstanding
let completed t = t.done_count
let retries t = t.retry_count
let faults t = t.fault_count

let mean_latency t =
  if t.done_count = 0 then 0.0
  else Time.span_to_us t.latency_ns /. float_of_int t.done_count
