module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cost_model = Sa_hw.Cost_model
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device
module Kernel = Sa_kernel.Kernel
module Program = Sa_program.Program
module Code = Program.Code

type flavor = [ `Topaz | `Ultrix ]

type thr = {
  th_id : int;
  mutable th_join_wakes : (unit -> unit) list;
  mutable binds : Code.binds;  (* fork slot -> child tid *)
}

type kmutex = {
  mutable km_holder : int;  (* DSL thread id; 0 when free *)
  km_waiters : (int * (unit -> unit)) Queue.t;
}

type ksem = { mutable ks_count : int; ks_waiters : (unit -> unit) Queue.t }

(* An arena linked against this job's sync tables.  Every semaphore is a
   kernel semaphore on these systems, so [sems] and [ksems] both resolve
   to the one kernel-semaphore table. *)
type link = {
  code : Code.t;
  lmut : kmutex array;
  lcond : (unit -> unit) Queue.t array;  (* condition waiters *)
  lsem : ksem array;
  lksem : ksem array;
}

(* A running thread's place in its program: the arena it steps and the pc
   of its op in flight, with [advance], the one continuation that moves to
   the next op and steps it.  Built when the thread starts and reachable
   only through [advance] and the kernel's hold on it, kept off [thr] so
   that record stays small.  Both are garbage once the thread exits. *)
type cursor = {
  mutable lk : link;
  mutable pc : int;
  mutable advance : unit -> unit;
}

type t = {
  kernel : Kernel.t;
  sp : Kernel.space;
  flavor : flavor;
  cache : Buffer_cache.t option;
  io_dev : Io_device.t option;
  observer : int -> Time.t -> unit;
  on_done : unit -> unit;
  threads : (int, thr) Hashtbl.t;  (* live threads; an exit removes its own *)
  kmutexes : (int, kmutex) Hashtbl.t;
  kconds : (int, (unit -> unit) Queue.t) Hashtbl.t;
  ksems : (int, ksem) Hashtbl.t;
  cache_waiters : (int, (unit -> unit) list) Hashtbl.t;
      (* blocks being filled -> threads waiting on the fill *)
  mutable next_tid : int;
  mutable on_cursor : cursor -> unit;
}

let space t = t.sp

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
      (float_of_int (Hashtbl.length t.threads))
  end

let find_or_add tbl id make =
  match Hashtbl.find_opt tbl id with
  | Some x -> x
  | None ->
      let x = make () in
      Hashtbl.replace tbl id x;
      x

let link t code =
  let ksem s =
    find_or_add t.ksems (Program.Sem.id s) (fun () ->
        { ks_count = Program.Sem.initial s; ks_waiters = Queue.create () })
  in
  {
    code;
    lmut =
      Array.map
        (fun m ->
          find_or_add t.kmutexes (Program.Mutex.id m) (fun () ->
              { km_holder = 0; km_waiters = Queue.create () }))
        code.Code.mutexes;
    lcond =
      Array.map
        (fun cv ->
          find_or_add t.kconds (Program.Cond.id cv) Queue.create)
        code.Code.conds;
    lsem = Array.map ksem code.Code.sems;
    lksem = Array.map ksem code.Code.ksems;
  }

let new_thr t =
  t.next_tid <- t.next_tid + 1;
  let thr =
    { th_id = t.next_tid; th_join_wakes = []; binds = Code.no_binds }
  in
  Hashtbl.replace t.threads thr.th_id thr;
  thr

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
      km.km_holder <- tid;
      wake ();
      (Kernel.costs t.kernel).Cost_model.kt_wake
  | None ->
      km.km_holder <- 0;
      0

(* Uncontended: user-level test-and-set, no kernel trap.  Contended: block
   in the kernel until the holder hands the mutex over, re-checking at the
   end of the kernel entry path — the holder may have released
   meanwhile. *)
let acquire t thr kt c km k =
  Kernel.kt_charge t.kernel kt c.Cost_model.ut_lock (fun () ->
      if km.km_holder = 0 then begin
        km.km_holder <- thr.th_id;
        k ()
      end
      else
        Kernel.kt_charge t.kernel kt c.Cost_model.kt_block (fun () ->
            if km.km_holder = 0 then begin
              km.km_holder <- thr.th_id;
              k ()
            end
            else
              Kernel.kt_block_on t.kernel kt
                ~register:(fun wake ->
                  Queue.add (thr.th_id, wake) km.km_waiters)
                k))

(* Cache miss: block for the fill I/O, then wake every thread that
   coalesced on it. *)
let fill_block t kt c cache block k =
  Hashtbl.replace t.cache_waiters block [];
  Kernel.kt_charge t.kernel kt c.Cost_model.kt_block (fun () ->
      let fill_done () =
        Buffer_cache.fill cache block;
        (match Hashtbl.find_opt t.cache_waiters block with
        | Some wakes ->
            Hashtbl.remove t.cache_waiters block;
            List.iter (fun w -> w ()) (List.rev wakes)
        | None -> ());
        k ()
      in
      match t.io_dev with
      | Some dev ->
          Kernel.kt_block_on t.kernel kt
            ~register:(fun wake -> Io_device.submit dev wake)
            fill_done
      | None ->
          Kernel.kt_block_for t.kernel kt c.Cost_model.io_latency fill_done)

(* Miss on a block another thread is filling: wait for that fill.  The
   check is redone at the end of the kernel entry path, as for a contended
   mutex: a fill that completed meanwhile has no waiter left to wake. *)
let await_fill t kt c block k =
  Kernel.kt_charge t.kernel kt c.Cost_model.kt_block (fun () ->
      match Hashtbl.find_opt t.cache_waiters block with
      | None -> k ()
      | Some _ ->
          Kernel.kt_block_on t.kernel kt
            ~register:(fun wake ->
              Hashtbl.replace t.cache_waiters block
                (wake :: Hashtbl.find t.cache_waiters block))
            k)

(* Step the op at the cursor: one [kt_charge] per op, no batching, and
   [cur.advance] as the continuation to the next op, so a plain op builds
   no closure.  [op_dyn] forces its continuation when execution reaches it
   and continues at the entry of the arena that compiles to.  Matches on
   the raw op tags, whose numbering [Ft_core] asserts at init. *)
let rec step t thr kt cur =
  let lk = cur.lk and pc = cur.pc in
  let code = lk.code in
  let c = Kernel.costs t.kernel in
  let arg = code.Code.a.(pc) in
  let next = cur.advance in
  match code.Code.op.(pc) with
  | 0 (* done *) ->
      Kernel.kt_charge t.kernel kt (c_exit t c) (fun () ->
          Hashtbl.remove t.threads thr.th_id;
          trace_live t ~tid:thr.th_id "kt:exit";
          List.iter (fun w -> w ()) thr.th_join_wakes;
          if Hashtbl.length t.threads = 0 then t.on_done ();
          Kernel.kt_exit t.kernel kt)
  | 1 (* compute *) -> Kernel.kt_charge t.kernel kt arg next
  | 2 (* acquire *) -> acquire t thr kt c lk.lmut.(arg) next
  | 3 (* release *) ->
      let km = lk.lmut.(arg) in
      Kernel.kt_charge t.kernel kt c.Cost_model.ut_unlock (fun () ->
          if km.km_holder <> thr.th_id then
            invalid_arg "Kt_direct: release by non-holder";
          let extra = release_mutex t km in
          if extra > 0 then Kernel.kt_charge t.kernel kt extra next
          else next ())
  | 4 (* wait *) ->
      let kc = lk.lcond.(arg) and km = lk.lmut.(code.Code.b.(pc)) in
      Kernel.kt_charge t.kernel kt (c_wait t c) (fun () ->
          if km.km_holder <> thr.th_id then
            invalid_arg "Kt_direct: wait without mutex";
          ignore (release_mutex t km);
          Kernel.kt_block_on t.kernel kt
            ~register:(fun wake -> Queue.add wake kc)
            (fun () -> acquire t thr kt c km next))
  | 5 (* signal *) ->
      let kc = lk.lcond.(arg) in
      Kernel.kt_charge t.kernel kt (c_signal t c) (fun () ->
          (match Queue.take_opt kc with
          | Some wake -> wake ()
          | None -> ());
          next ())
  | 6 (* broadcast *) ->
      let kc = lk.lcond.(arg) in
      Kernel.kt_charge t.kernel kt (c_signal t c) (fun () ->
          Queue.iter (fun wake -> wake ()) kc;
          Queue.clear kc;
          next ())
  | (7 | 9) as op (* sem_p, ksem_p *) ->
      let ks = (if op = 7 then lk.lsem else lk.lksem).(arg) in
      Kernel.kt_charge t.kernel kt (c_wait t c) (fun () ->
          if ks.ks_count > 0 then begin
            ks.ks_count <- ks.ks_count - 1;
            next ()
          end
          else
            Kernel.kt_block_on t.kernel kt
              ~register:(fun wake -> Queue.add wake ks.ks_waiters)
              next)
  | (8 | 10) as op (* sem_v, ksem_v *) ->
      let ks = (if op = 8 then lk.lsem else lk.lksem).(arg) in
      Kernel.kt_charge t.kernel kt (c_signal t c) (fun () ->
          (match Queue.take_opt ks.ks_waiters with
          | Some wake -> wake ()
          | None -> ks.ks_count <- ks.ks_count + 1);
          next ())
  | 11 (* fork *) ->
      Kernel.kt_charge t.kernel kt (c_fork t c) (fun () ->
          let child = new_thr t in
          trace_live t ~tid:child.th_id "kt:fork";
          thr.binds <- Code.bind thr.binds code.Code.b.(pc) child.th_id;
          Kernel.spawn_kthread t.kernel t.sp
            ~name:(Printf.sprintf "dsl-t%d" child.th_id)
            ~body:(start t child lk arg)
            ();
          next ())
  | 12 (* join *) ->
      (* [Ft_core.flat_join_target]'s rule: any tid ever forked is valid,
         and one no longer in the table has finished. *)
      let tid = Code.join_target thr.binds arg in
      if tid < 1 || tid > t.next_tid then
        invalid_arg "Kt_direct: join on unknown thread";
      Kernel.kt_charge t.kernel kt (c_join t c) (fun () ->
          match Hashtbl.find_opt t.threads tid with
          | None -> next ()
          | Some target ->
              Kernel.kt_block_on t.kernel kt
                ~register:(fun wake ->
                  target.th_join_wakes <- wake :: target.th_join_wakes)
                next)
  | 13 (* io *) ->
      Kernel.kt_charge t.kernel kt c.Cost_model.kt_block (fun () ->
          Kernel.kt_block_for t.kernel kt arg next)
  | 14 (* cache_read *) -> (
      match t.cache with
      | None -> Kernel.kt_charge t.kernel kt c.Cost_model.procedure_call next
      | Some cache ->
          Kernel.kt_charge t.kernel kt c.Cost_model.procedure_call (fun () ->
              match Buffer_cache.access cache arg with
              | Buffer_cache.Hit -> next ()
              | Buffer_cache.Miss -> fill_block t kt c cache arg next
              | Buffer_cache.Miss_in_flight -> await_fill t kt c arg next))
  | 15 (* yield *) -> Kernel.kt_yield t.kernel kt next
  | 16 (* stamp *) ->
      t.observer arg (Sim.now (Kernel.sim t.kernel));
      next ()
  | 17 (* set_priority *) ->
      (* Kernel threads are scheduled obliviously of user-level priorities;
         honouring them would need kernel changes (Section 2.2's point). *)
      Kernel.kt_charge t.kernel kt c.Cost_model.procedure_call next
  | _ (* dyn *) ->
      cur.lk <- link t (Program.compile (Code.force code pc thr.binds));
      cur.pc <- 0;
      thr.binds <- Code.no_binds;
      step t thr kt cur

(* A thread's body: build its cursor at [pc] of [lk]'s arena and step. *)
and start t thr lk pc kt =
  let cur = { lk; pc; advance = ignore } in
  cur.advance <-
    (fun () ->
      cur.pc <- cur.lk.code.Code.nx.(cur.pc);
      step t thr kt cur);
  t.on_cursor cur;
  step t thr kt cur

let watch_cursors t f = t.on_cursor <- f

let create kernel ~name ~flavor ?(priority = 0) ?cache ?io_dev
    ?(observer = fun _ _ -> ()) ?(on_done = fun () -> ()) prog =
  let sp = Kernel.new_kthread_space kernel ~name ~priority () in
  let t =
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
      on_cursor = ignore;
    }
  in
  let root = new_thr t in
  let lk = link t (Program.compile prog) in
  Kernel.spawn_kthread kernel sp ~name:"dsl-main" ~body:(start t root lk 0)
    ();
  t
