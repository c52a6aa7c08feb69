module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Kernel = Sa_kernel.Kernel
module Ft_core = Sa_uthread.Ft_core
module System = Sa.System

type t = {
  sys : System.t;
  seed : int;
  label : string;
  mutable n_audits : int;
  starved : (int, int) Hashtbl.t;
      (* space id -> consecutive audits seen wanting processors while some
         sat free; the allocator runs at delay 0, so any persistent streak
         means demand was lost *)
}

let audits t = t.n_audits

let tstate_name = function
  | Ft_core.Embryo -> "embryo"
  | Ft_core.Ready -> "ready"
  | Ft_core.Running -> "running"
  | Ft_core.Blocked_user -> "blocked-user"
  | Ft_core.Blocked_kernel -> "blocked-kernel"
  | Ft_core.Done -> "done"

let job_census job =
  match System.ft_core_state job with
  | None -> "(direct kernel threads)"
  | Some s ->
      let counts =
        Ft_core.state_counts s
        |> List.map (fun (st, n) -> Printf.sprintf "%s=%d" (tstate_name st) n)
        |> String.concat " "
      in
      Printf.sprintf "%s queued=[%s]" counts
        (String.concat ","
           (List.map string_of_int (Ft_core.queued_tids s)))

(* Abort with a replayable diagnostic: Sim.stall appends the clock, the
   pending-event count and the same-instant counter. *)
let violate t ~check msg =
  let kern = System.kernel t.sys in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "invariant violated: %s — %s\n" check msg;
  add "replay: seed=%d label=%s audit=%d\n" t.seed t.label t.n_audits;
  add "kernel state:\n%s" (Format.asprintf "%t" (Kernel.dump kern));
  List.iter
    (fun job ->
      add "job %s: finished=%b space(assigned=%d desired=%d) %s\n"
        (System.job_name job) (System.finished job)
        (Kernel.space_assigned (System.space job))
        (Kernel.space_desired (System.space job))
        (job_census job))
    (System.jobs t.sys);
  Sim.stall (System.sim t.sys) (Buffer.contents buf)

(* Thread-count conservation and ready-deque sanity for one job. *)
let audit_job t job =
  match System.ft_core_state job with
  | None -> ()
  | Some s ->
      let census = Ft_core.state_counts s in
      let count st = try List.assoc st census with Not_found -> 0 in
      let live_census =
        List.fold_left
          (fun acc (st, n) -> if st = Ft_core.Done then acc else acc + n)
          0 census
      in
      if live_census <> Ft_core.live_threads s then
        violate t ~check:"thread-conservation"
          (Printf.sprintf "job %s: census finds %d live threads, counter says %d"
             (System.job_name job) live_census (Ft_core.live_threads s));
      if count Ft_core.Ready <> Ft_core.ready_threads s then
        violate t ~check:"thread-conservation"
          (Printf.sprintf "job %s: census finds %d ready threads, counter says %d"
             (System.job_name job) (count Ft_core.Ready)
             (Ft_core.ready_threads s));
      let ready = Hashtbl.create 64 in
      List.iter
        (fun tcb -> Hashtbl.replace ready (Ft_core.tcb_id tcb) ())
        (Ft_core.threads_in s Ft_core.Ready);
      let seen = Hashtbl.create 16 in
      List.iter
        (fun tid ->
          if Hashtbl.mem seen tid then
            violate t ~check:"ready-queue"
              (Printf.sprintf "job %s: thread %d queued twice"
                 (System.job_name job) tid);
          Hashtbl.replace seen tid ();
          if not (Hashtbl.mem ready tid) then
            violate t ~check:"ready-queue"
              (Printf.sprintf "job %s: queued thread %d is not Ready"
                 (System.job_name job) tid))
        (Ft_core.queued_tids s)

(* Work conservation under explicit allocation: wanting processors while
   processors sit free is legal only as a transient (the allocator runs as
   a deferred zero-delay event).  Three consecutive audits of the same
   starvation mean the demand signal was lost. *)
let audit_work_conservation t =
  let kern = System.kernel t.sys in
  if (Kernel.config kern).Sa_kernel.Kconfig.mode = Sa_kernel.Kconfig.Explicit_allocation
  then
    List.iter
      (fun job ->
        let sp = System.space job in
        let id = Kernel.space_id sp in
        let starving =
          (not (System.finished job))
          && Kernel.space_desired sp > Kernel.space_assigned sp
          && Kernel.free_cpus kern > 0
        in
        if not starving then Hashtbl.replace t.starved id 0
        else begin
          let streak =
            (match Hashtbl.find_opt t.starved id with Some n -> n | None -> 0)
            + 1
          in
          Hashtbl.replace t.starved id streak;
          if streak >= 3 then
            violate t ~check:"work-conservation"
              (Printf.sprintf
                 "job %s wants %d processors, holds %d, yet %d sit free (%d \
                  consecutive audits)"
                 (System.job_name job)
                 (Kernel.space_desired sp)
                 (Kernel.space_assigned sp)
                 (Kernel.free_cpus kern) streak)
        end)
      (System.jobs t.sys)

let audit t =
  t.n_audits <- t.n_audits + 1;
  (match Kernel.check_invariants (System.kernel t.sys) with
  | () -> ()
  | exception Failure msg -> violate t ~check:"kernel" msg);
  List.iter (audit_job t) (System.jobs t.sys);
  audit_work_conservation t

(* Simulated time between audits. *)
let period = Time.ms 1

let attach ~label ~seed sys =
  let t =
    {
      sys;
      seed;
      label;
      n_audits = 0;
      starved = Hashtbl.create 8;
    }
  in
  let sim = System.sim sys in
  let rec tick () =
    ignore
      (Sim.schedule_after sim ~delay:period (fun () ->
           if System.active sys then begin
             audit t;
             tick ()
           end))
  in
  tick ();
  t
