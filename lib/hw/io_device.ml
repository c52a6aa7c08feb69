module Time = Sa_engine.Time
module Sim = Sa_engine.Sim

type fault = Fault_delay of Time.span | Fault_transient_error

type request = { issued : Time.t; complete : unit -> unit }

type t = {
  sim : Sim.t;
  service_time : Time.span;
  queue : request Queue.t;
  mutable busy : bool;  (* the one server is servicing a request *)
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

let create sim ~service_time =
  {
    sim;
    service_time;
    queue = Queue.create ();
    busy = false;
    done_count = 0;
    latency_ns = 0;
    fault_hook = None;
    retry_count = 0;
    fault_count = 0;
  }

let set_fault_hook t hook = t.fault_hook <- hook
let consult_fault t = match t.fault_hook with None -> None | Some h -> h ()

let finish t req =
  t.done_count <- t.done_count + 1;
  t.latency_ns <- t.latency_ns + Time.diff (Sim.now t.sim) req.issued;
  req.complete ()

(* The server reached this request's nominal completion instant: consult
   the fault hook before raising the completion interrupt.  A transient
   error re-services the request after an exponential backoff; a delay
   postpones the interrupt.  Either way the request eventually completes
   exactly once. *)
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

let rec serve_next t =
  if not t.busy then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some req ->
        t.busy <- true;
        attempt_completion t ~delay:t.service_time ~backoff:backoff_floor
          ~done_:(fun () ->
            t.busy <- false;
            finish t req;
            serve_next t)
          ()

let submit t k =
  Queue.add { issued = Sim.now t.sim; complete = k } t.queue;
  serve_next t

let completed t = t.done_count
let retries t = t.retry_count
let faults t = t.fault_count

let mean_latency t =
  if t.done_count = 0 then 0.0
  else Time.span_to_us t.latency_ns /. float_of_int t.done_count
