module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device
module Kernel = Sa_kernel.Kernel
module Program = Sa_program.Program

type flavor = [ `Topaz | `Ultrix ]

type thr = {
  th_id : int;
  mutable th_done : bool;
  mutable th_join_wakes : (unit -> unit) list;
}

type kmutex = {
  mutable km_holder : int option;  (* DSL thread id *)
  km_waiters : (int * (unit -> unit)) Queue.t;
}

type kcond = { kc_waiters : (int * Program.Mutex.t * (unit -> unit)) Queue.t }
type ksem = { mutable ks_count : int; ks_waiters : (unit -> unit) Queue.t }

type t = {
  kernel : Kernel.t;
  sp : Kernel.space;
  flavor : flavor;
  cache : Buffer_cache.t option;
  io_dev : Io_device.t option;
  observer : int -> Time.t -> unit;
  on_done : unit -> unit;
  threads : (int, thr) Hashtbl.t;
  kmutexes : (int, kmutex) Hashtbl.t;
  kconds : (int, kcond) Hashtbl.t;
  ksems : (int, ksem) Hashtbl.t;
  cache_waiters : (int, (unit -> unit) list) Hashtbl.t;
  mutable next_tid : int;
  mutable live : int;
  mutable done_at : Time.t option;
  mutable started : bool;
}

let space t = t.sp
let completion_time t = t.done_at
let is_finished t = match t.done_at with None -> false | Some _ -> true
let live_threads t = t.live

(* Live kernel-thread counter track, plus fork/exit markers: the visible
   cost driver of this backend is the sheer number of kernel threads. *)
let trace_live t ~tid marker =
  let sim = Kernel.sim t.kernel in
  let tr = Sim.trace sim in
  if Trace.enabled tr Trace.Uthread then begin
    let name = Kernel.space_name t.sp in
    Trace.instant tr ~time:(Sim.now sim) ~space:(Kernel.space_id t.sp)
      ~act:tid Trace.Uthread marker;
    Trace.counter tr ~time:(Sim.now sim) Trace.Uthread ("live:" ^ name)
      (float_of_int t.live)
  end

let kmutex t m =
  let id = Program.Mutex.id m in
  match Hashtbl.find_opt t.kmutexes id with
  | Some km -> km
  | None ->
      let km = { km_holder = None; km_waiters = Queue.create () } in
      Hashtbl.replace t.kmutexes id km;
      km

let kcond t c =
  let id = Program.Cond.id c in
  match Hashtbl.find_opt t.kconds id with
  | Some kc -> kc
  | None ->
      let kc = { kc_waiters = Queue.create () } in
      Hashtbl.replace t.kconds id kc;
      kc

let ksem t s =
  let id = Program.Sem.id s in
  match Hashtbl.find_opt t.ksems id with
  | Some ks -> ks
  | None ->
      let ks = { ks_count = Program.Sem.initial s; ks_waiters = Queue.create () } in
      Hashtbl.replace t.ksems id ks;
      ks

(* Flavor-dependent operation costs. *)
let c_fork t c = match t.flavor with `Topaz -> c.Cost_model.kt_fork | `Ultrix -> c.Cost_model.up_fork
let c_join t c = match t.flavor with `Topaz -> c.Cost_model.kt_join | `Ultrix -> c.Cost_model.up_join
let c_exit t c = match t.flavor with `Topaz -> c.Cost_model.kt_exit | `Ultrix -> c.Cost_model.up_exit
let c_signal t c = match t.flavor with `Topaz -> c.Cost_model.kt_signal | `Ultrix -> c.Cost_model.up_signal
let c_wait t c = match t.flavor with `Topaz -> c.Cost_model.kt_wait | `Ultrix -> c.Cost_model.up_wait

(* Hand the mutex to the next waiter, if any.  Returns the extra cost of the
   kernel wakeup (zero when uncontended). *)
let release_mutex t km =
  match Queue.take_opt km.km_waiters with
  | Some (tid, wake) ->
      km.km_holder <- Some tid;
      wake ();
      (Kernel.costs t.kernel).Cost_model.kt_wake
  | None ->
      km.km_holder <- None;
      0

let rec exec t thr (ops : Kernel.kt_ops) prog =
  let c = Kernel.costs t.kernel in
  let continue k () = exec t thr ops (k ()) in
  match prog with
  | Program.Dynamic p -> exec t thr ops p
  | Program.Done ->
      ops.Kernel.kt_charge (c_exit t c) (fun () ->
          thr.th_done <- true;
          t.live <- t.live - 1;
          trace_live t ~tid:thr.th_id "kt:exit";
          let wakes = thr.th_join_wakes in
          thr.th_join_wakes <- [];
          List.iter (fun w -> w ()) wakes;
          if t.live = 0 then begin
            t.done_at <- Some (Sim.now (Kernel.sim t.kernel));
            t.on_done ()
          end;
          ops.Kernel.kt_exit ())
  | Program.Compute (span, k) -> ops.Kernel.kt_charge span (continue k)
  | Program.Fork (child_prog, k) ->
      ops.Kernel.kt_charge (c_fork t c) (fun () ->
          t.next_tid <- t.next_tid + 1;
          let ctid = t.next_tid in
          let child = { th_id = ctid; th_done = false; th_join_wakes = [] } in
          Hashtbl.replace t.threads ctid child;
          t.live <- t.live + 1;
          trace_live t ~tid:ctid "kt:fork";
          ignore
            (Kernel.spawn_kthread t.kernel t.sp
               ~name:(Printf.sprintf "dsl-t%d" ctid)
               ~body:(fun cops -> exec t child cops child_prog)
               ());
          exec t thr ops (k ctid))
  | Program.Join (tid, k) -> (
      match Hashtbl.find_opt t.threads tid with
      | None -> invalid_arg "Kt_direct: join on unknown thread"
      | Some target ->
          ops.Kernel.kt_charge (c_join t c) (fun () ->
              if target.th_done then exec t thr ops (k ())
              else
                ops.Kernel.kt_block_on
                  ~register:(fun wake ->
                    target.th_join_wakes <- wake :: target.th_join_wakes)
                  (continue k)))
  | Program.Acquire (m, k) ->
      let km = kmutex t m in
      (* Uncontended: user-level test-and-set, no kernel trap. *)
      ops.Kernel.kt_charge c.Cost_model.ut_lock (fun () ->
          match km.km_holder with
          | None ->
              km.km_holder <- Some thr.th_id;
              exec t thr ops (k ())
          | Some _ ->
              (* Contended: block in the kernel until the holder releases.
                 Re-check at the end of the kernel entry path — the holder
                 may have released meanwhile. *)
              ops.Kernel.kt_charge c.Cost_model.kt_block (fun () ->
                  match km.km_holder with
                  | None ->
                      km.km_holder <- Some thr.th_id;
                      exec t thr ops (k ())
                  | Some _ ->
                      ops.Kernel.kt_block_on
                        ~register:(fun wake ->
                          Queue.add (thr.th_id, wake) km.km_waiters)
                        (continue k)))
  | Program.Release (m, k) ->
      let km = kmutex t m in
      ops.Kernel.kt_charge c.Cost_model.ut_unlock (fun () ->
          (match km.km_holder with
          | Some h when h = thr.th_id -> ()
          | Some _ | None -> invalid_arg "Kt_direct: release by non-holder");
          let extra = release_mutex t km in
          if extra > 0 then ops.Kernel.kt_charge extra (continue k)
          else exec t thr ops (k ()))
  | Program.Wait (cv, m, k) ->
      let kc = kcond t cv in
      let km = kmutex t m in
      ops.Kernel.kt_charge (c_wait t c) (fun () ->
          (match km.km_holder with
          | Some h when h = thr.th_id -> ()
          | Some _ | None -> invalid_arg "Kt_direct: wait without mutex");
          ignore (release_mutex t km);
          ops.Kernel.kt_block_on
            ~register:(fun wake -> Queue.add (thr.th_id, m, wake) kc.kc_waiters)
            (fun () -> exec t thr ops (Program.Acquire (m, k))))
  | Program.Signal (cv, k) ->
      let kc = kcond t cv in
      ops.Kernel.kt_charge (c_signal t c) (fun () ->
          (match Queue.take_opt kc.kc_waiters with
          | Some (_tid, _m, wake) -> wake ()
          | None -> ());
          exec t thr ops (k ()))
  | Program.Broadcast (cv, k) ->
      let kc = kcond t cv in
      ops.Kernel.kt_charge (c_signal t c) (fun () ->
          Queue.iter (fun (_tid, _m, wake) -> wake ()) kc.kc_waiters;
          Queue.clear kc.kc_waiters;
          exec t thr ops (k ()))
  | Program.Sem_p (s, k) | Program.Ksem_p (s, k) ->
      (* All semaphores are kernel semaphores in these systems. *)
      let ks = ksem t s in
      ops.Kernel.kt_charge (c_wait t c) (fun () ->
          if ks.ks_count > 0 then begin
            ks.ks_count <- ks.ks_count - 1;
            exec t thr ops (k ())
          end
          else
            ops.Kernel.kt_block_on
              ~register:(fun wake -> Queue.add wake ks.ks_waiters)
              (continue k))
  | Program.Sem_v (s, k) | Program.Ksem_v (s, k) ->
      let ks = ksem t s in
      ops.Kernel.kt_charge (c_signal t c) (fun () ->
          (match Queue.take_opt ks.ks_waiters with
          | Some wake -> wake ()
          | None -> ks.ks_count <- ks.ks_count + 1);
          exec t thr ops (k ()))
  | Program.Io (span, k) ->
      ops.Kernel.kt_charge c.Cost_model.kt_block (fun () ->
          ops.Kernel.kt_block_for span (continue k))
  | Program.Cache_read (block, k) -> (
      match t.cache with
      | None -> ops.Kernel.kt_charge c.Cost_model.procedure_call (continue k)
      | Some cache ->
          ops.Kernel.kt_charge c.Cost_model.procedure_call (fun () ->
              match Buffer_cache.access cache block with
              | Buffer_cache.Hit -> exec t thr ops (k ())
              | Buffer_cache.Miss ->
                  ops.Kernel.kt_charge c.Cost_model.kt_block (fun () ->
                      let do_block fill_done =
                        match t.io_dev with
                        | Some dev ->
                            ops.Kernel.kt_block_on
                              ~register:(fun wake -> Io_device.submit dev wake)
                              fill_done
                        | None ->
                            ops.Kernel.kt_block_for c.Cost_model.io_latency
                              fill_done
                      in
                      do_block
                        (fun () ->
                          Buffer_cache.fill cache block;
                          (match Hashtbl.find_opt t.cache_waiters block with
                          | Some wakes ->
                              Hashtbl.remove t.cache_waiters block;
                              List.iter (fun w -> w ()) (List.rev wakes)
                          | None -> ());
                          exec t thr ops (k ())))
              | Buffer_cache.Miss_in_flight ->
                  ops.Kernel.kt_charge c.Cost_model.kt_block (fun () ->
                      ops.Kernel.kt_block_on
                        ~register:(fun wake ->
                          let old =
                            Option.value ~default:[]
                              (Hashtbl.find_opt t.cache_waiters block)
                          in
                          Hashtbl.replace t.cache_waiters block (wake :: old))
                        (continue k))))
  | Program.Yield k -> ops.Kernel.kt_yield (continue k)
  | Program.Stamp (id, k) ->
      t.observer id (Sim.now (Kernel.sim t.kernel));
      exec t thr ops (k ())
  | Program.Set_priority (_, k) ->
      (* Kernel threads are scheduled obliviously of user-level priorities;
         honouring them would need kernel changes (Section 2.2's point). *)
      ops.Kernel.kt_charge c.Cost_model.procedure_call (continue k)

let create kernel ~name ~flavor ?(priority = 0) ?cache ?io_dev
    ?(observer = fun _ _ -> ()) ?(on_done = fun () -> ()) () =
  let sp = Kernel.new_kthread_space kernel ~name ~priority () in
  {
    kernel;
    sp;
    flavor;
    cache;
    io_dev;
    observer;
    on_done;
    threads = Hashtbl.create 64;
    kmutexes = Hashtbl.create 16;
    kconds = Hashtbl.create 16;
    ksems = Hashtbl.create 16;
    cache_waiters = Hashtbl.create 16;
    next_tid = 0;
    live = 0;
    done_at = None;
    started = false;
  }

let start t prog =
  if t.started then invalid_arg "Kt_direct.start: already started";
  t.started <- true;
  t.next_tid <- t.next_tid + 1;
  let root = { th_id = t.next_tid; th_done = false; th_join_wakes = [] } in
  Hashtbl.replace t.threads root.th_id root;
  t.live <- 1;
  ignore
    (Kernel.spawn_kthread t.kernel t.sp ~name:"dsl-main"
       ~body:(fun ops -> exec t root ops prog)
       ())
