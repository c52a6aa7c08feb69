(* The I/O completion path: every blocking I/O in either kernel personality
   funnels through [schedule_io_completion], which owns the chaos contract
   from PR 1 — a guarded fire-at-most-once wakeup, a fault hook consulted at
   each nominal completion instant, exponential retry backoff for transient
   errors, and chooser-visible completion reordering (the "io-complete" and
   "io-spurious" sites). *)

open Ktypes
module Time = Sa_engine.Time
module Sim = Sa_engine.Sim

let set_io_fault_injector t hook = t.io_fault_hook <- hook
let io_inflight_count t = Hashtbl.length t.io_inflight

(* Retry backoff for transiently failed I/O completions: doubling from the
   floor, capped so a fault streak cannot push a wakeup past the horizon. *)
let io_backoff_floor = Time.us 200
let io_backoff_cap = Time.ms 10

(* Under exploration the chooser may defer a ready completion by up to two
   zero-delay event-loop turns, letting other same-instant events (upcalls,
   preemptions, spurious completions) interleave ahead of the wakeup.  The
   default of 0 hops fires synchronously — the pre-chooser behaviour. *)
let io_defer_arity = 3

let rec io_deliver t ~hops fire =
  if hops <= 0 then fire ()
  else
    ignore
      (Sim.schedule_after t.sim ~delay:0 (fun () ->
           io_deliver t ~hops:(hops - 1) fire))

(* Chaos-aware I/O completion.  The wake closure is guarded to fire at most
   once: a spurious completion injected early absorbs the real completion
   later (and vice versa) instead of waking the same thread twice, which
   would trip the blocked-state checks downstream.  The fault hook is
   consulted at each nominal completion instant; transient errors retry
   with exponential backoff, delays just postpone the interrupt. *)
let schedule_io_completion t ~io wake =
  let id = fresh_id t in
  let fired = ref false in
  let fire () =
    if !fired then t.stats.spurious_dropped <- t.stats.spurious_dropped + 1
    else begin
      fired := true;
      Hashtbl.remove t.io_inflight id;
      wake ()
    end
  in
  Hashtbl.replace t.io_inflight id fire;
  let rec attempt ~delay ~backoff =
    ignore
      (Sim.schedule_after t.sim ~delay (fun () ->
           if !fired then
             t.stats.spurious_dropped <- t.stats.spurious_dropped + 1
           else
             let fault =
               match t.io_fault_hook with None -> None | Some h -> h ()
             in
             match fault with
             | None ->
                 io_deliver t fire
                   ~hops:
                     (Sim.pick t.sim ~site:"io-complete"
                        ~arity:io_defer_arity ~default:0)
             | Some (Io_delay extra) ->
                 t.stats.io_faults <- t.stats.io_faults + 1;
                 attempt ~delay:extra ~backoff
             | Some Io_transient_error ->
                 t.stats.io_faults <- t.stats.io_faults + 1;
                 t.stats.io_retries <- t.stats.io_retries + 1;
                 attempt ~delay:backoff
                   ~backoff:(min (backoff * 2) io_backoff_cap)))
  in
  attempt ~delay:io ~backoff:io_backoff_floor

(* Fire an outstanding I/O completion early — a spurious completion
   interrupt.  [pick] selects among the in-flight requests (sorted by id so
   the choice depends only on the caller's seed).  Returns false if nothing
   was in flight.  Chaos-only: the sort is off the default hot path. *)
let chaos_spurious_completion t ~pick =
  let n = Hashtbl.length t.io_inflight in
  if n = 0 then false
  else begin
    let keys =
      List.sort compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) t.io_inflight [])
    in
    let idx = ((pick mod n) + n) mod n in
    (* The injector's victim choice is itself a schedule decision: an
       installed chooser may redirect it to any other in-flight request. *)
    let idx = Sim.pick t.sim ~site:"io-spurious" ~arity:n ~default:idx in
    let id = List.nth keys idx in
    let fire = Hashtbl.find t.io_inflight id in
    t.stats.spurious_fired <- t.stats.spurious_fired + 1;
    tracef t "chaos: spurious completion of I/O request %d" id;
    fire ();
    true
  end
