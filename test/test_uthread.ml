(* User-level thread package tests, run through the System facade on all
   backends where meaningful. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build
module Deque = Sa_uthread.Deque
module Ft_core = Sa_uthread.Ft_core
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let deque_model =
  QCheck.Test.make ~name:"deque behaves like a list at both ends" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let d = Deque.create 0 in
      let model = ref [] in
      List.iter
        (fun (front, v) ->
          if front then begin
            Deque.push_front d v;
            model := v :: !model
          end
          else begin
            Deque.push_back d v;
            model := !model @ [ v ]
          end)
        ops;
      Deque.to_list d = !model
      && Deque.fold (fun acc x -> x :: acc) [] d = List.rev !model
      && Deque.length d = List.length !model)

let deque_pop_prop =
  QCheck.Test.make ~name:"pops agree with model" ~count:300
    QCheck.(list (int_range 0 3))
    (fun ops ->
      let d = Deque.create 0 in
      let model = ref [] in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | 0 ->
              Deque.push_front d i;
              model := i :: !model
          | 1 ->
              Deque.push_back d i;
              model := !model @ [ i ]
          | 2 -> (
              let got = Deque.pop_front d in
              match !model with
              | [] -> if got <> None then ok := false
              | x :: rest ->
                  model := rest;
                  if got <> Some x then ok := false)
          | _ -> (
              let got = Deque.pop_back d in
              match List.rev !model with
              | [] -> if got <> None then ok := false
              | x :: rest ->
                  model := List.rev rest;
                  if got <> Some x then ok := false))
        ops;
      !ok)

let deque_remove_first_model =
  QCheck.Test.make ~name:"remove_first matches list semantics" ~count:300
    QCheck.(pair (list (int_range 0 5)) (int_range 0 5))
    (fun (items, target) ->
      let d = Deque.create 0 in
      List.iter (Deque.push_back d) items;
      let got = Deque.remove_first d (fun x -> x = target) in
      let rec model acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = target -> (Some x, List.rev_append acc rest)
        | x :: rest -> model (x :: acc) rest
      in
      let expect, remaining = model [] items in
      got = expect && Deque.to_list d = remaining)

let deque_remove_last_model =
  QCheck.Test.make ~name:"remove_last matches reversed-list semantics"
    ~count:300
    QCheck.(pair (list (int_range 0 5)) (int_range 0 5))
    (fun (items, target) ->
      let d = Deque.create 0 in
      List.iter (Deque.push_back d) items;
      let got = Deque.remove_last d (fun x -> x = target) in
      let rec model acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = target -> (Some x, List.rev_append acc rest)
        | x :: rest -> model (x :: acc) rest
      in
      let expect, remaining_rev = model [] (List.rev items) in
      got = expect && Deque.to_list d = List.rev remaining_rev)

let deque_tests =
  [
    Alcotest.test_case "front is LIFO, back steals oldest" `Quick (fun () ->
        let d = Deque.create 0 in
        Deque.push_front d 1;
        Deque.push_front d 2;
        Deque.push_front d 3;
        check (Alcotest.option Alcotest.int) "newest first" (Some 3)
          (Deque.pop_front d);
        check (Alcotest.option Alcotest.int) "oldest from back" (Some 1)
          (Deque.pop_back d);
        check Alcotest.int "one left" 1 (Deque.length d));
    Alcotest.test_case "empty pops" `Quick (fun () ->
        let d = Deque.create 0 in
        check Alcotest.bool "front" true (Deque.pop_front d = None);
        check Alcotest.bool "back" true (Deque.pop_back d = None);
        check Alcotest.bool "empty" true (Deque.is_empty d));
    qtest deque_model;
    qtest deque_pop_prop;
    qtest deque_remove_first_model;
    qtest deque_remove_last_model;
  ]

(* ------------------------------------------------------------------ *)
(* Program execution through each backend                              *)
(* ------------------------------------------------------------------ *)

let backends =
  [
    ("ft-sa", Kconfig.default, `Fastthreads_on_sa);
    ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 2);
    ("topaz", Kconfig.native, `Topaz_kthreads);
    ("ultrix", Kconfig.native, `Ultrix_processes);
  ]

(* Run one program on a backend with a stamp recorder; returns stamps in
   order. *)
let run_collect ?(cpus = 2) kconfig backend prog =
  let sys = System.create ~cpus ~kconfig () in
  let log = ref [] in
  let job =
    System.submit sys ~backend ~name:"t"
      ~observer:(fun id time -> log := (id, time) :: !log)
      prog
  in
  System.run sys;
  Sa_kernel.Kernel.check_invariants (System.kernel sys);
  (List.rev !log, job)

let on_all_backends name f =
  List.map
    (fun (bname, kconfig, backend) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name bname) `Quick
        (fun () -> f kconfig backend))
    backends

let fork_join_order =
  on_all_backends "join waits for the child" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* tid =
             fork
               (B.to_program
                  (let* () = compute (Time.ms 1) in
                   stamp 1))
           in
           let* () = join tid in
           stamp 2)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "child completes before join returns"
        [ 1; 2 ] (List.map fst stamps))

let mutex_excludes =
  on_all_backends "mutex serializes critical sections" (fun kconfig backend ->
      (* Two children each stamp inside the same critical section; with
         mutual exclusion the (enter, exit) stamps cannot interleave. *)
      let m = P.Mutex.create () in
      let child enter exit_ =
        B.to_program
          (let open B in
           let* () = acquire m in
           let* () = stamp enter in
           let* () = compute (Time.ms 2) in
           let* () = stamp exit_ in
           release m)
      in
      let prog =
        B.to_program
          (let open B in
           let* t1 = fork (child 1 2) in
           let* t2 = fork (child 3 4) in
           let* () = join t1 in
           join t2)
      in
      let stamps, _ = run_collect kconfig backend prog in
      let seq = List.map fst stamps in
      check Alcotest.bool "no interleaving" true
        (seq = [ 1; 2; 3; 4 ] || seq = [ 3; 4; 1; 2 ]))

let semaphores_order =
  on_all_backends "semaphore enforces ordering" (fun kconfig backend ->
      let s = P.Sem.create ~initial:0 () in
      let waiter =
        B.to_program
          (let open B in
           let* () = sem_p s in
           stamp 2)
      in
      let prog =
        B.to_program
          (let open B in
           let* tid = fork waiter in
           let* () = compute (Time.ms 1) in
           let* () = stamp 1 in
           let* () = sem_v s in
           join tid)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "v before wakeup" [ 1; 2 ]
        (List.map fst stamps))

(* Topaz threads and Ultrix processes have only kernel semaphores: a V
   through either op reaches a P through the other.  Original FastThreads
   keeps user and kernel semaphores apart, so there the P never returns. *)
let semaphores_shared =
  List.map
    (fun (bname, backend, shared) ->
      Alcotest.test_case
        (Printf.sprintf "user and kernel ops reach one semaphore [%s]" bname)
        `Quick (fun () ->
          List.iter
            (fun (v, p) ->
              let s = P.Sem.create ~initial:0 () in
              let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
              let job =
                System.submit sys ~backend ~name:"sems"
                  (B.to_program
                     (let open B in
                      let* () = v s in
                      p s))
              in
              (try System.run ~horizon:(Time.s 1) sys with Failure _ -> ());
              check Alcotest.bool "finished" shared (System.finished job))
            [ (B.sem_v, B.ksem_p); (B.ksem_v, B.sem_p) ]))
    [
      ("topaz", `Topaz_kthreads, true);
      ("ultrix", `Ultrix_processes, true);
      ("orig-ft", `Fastthreads_on_kthreads 1, false);
    ]

(* Condition-variable tests handshake through a semaphore: the waiter V's
   [ready] while still holding the mutex, so by the time the signaller has
   P'd [ready] and re-acquired the mutex, the waiter is guaranteed to be on
   the condition queue (wait releases the mutex atomically). *)
let condvar_wakeup =
  on_all_backends "condition variable signal wakes waiter" (fun kconfig backend ->
      let m = P.Mutex.create () in
      let cv = P.Cond.create () in
      let ready = P.Sem.create ~initial:0 () in
      let waiter =
        B.to_program
          (let open B in
           let* () = acquire m in
           let* () = sem_v ready in
           let* () = wait cv m in
           let* () = stamp 2 in
           release m)
      in
      let prog =
        B.to_program
          (let open B in
           let* tid = fork waiter in
           let* () = sem_p ready in
           let* () = acquire m in
           let* () = stamp 1 in
           let* () = signal cv in
           let* () = release m in
           join tid)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check (Alcotest.list Alcotest.int) "signal then wake" [ 1; 2 ]
        (List.map fst stamps))

let broadcast_wakes_all =
  on_all_backends "broadcast wakes every waiter" (fun kconfig backend ->
      let m = P.Mutex.create () in
      let cv = P.Cond.create () in
      let ready = P.Sem.create ~initial:0 () in
      let waiter id =
        B.to_program
          (let open B in
           let* () = acquire m in
           let* () = sem_v ready in
           let* () = wait cv m in
           let* () = stamp id in
           release m)
      in
      let prog =
        B.to_program
          (let open B in
           let* t1 = fork (waiter 1) in
           let* t2 = fork (waiter 2) in
           let* t3 = fork (waiter 3) in
           let* () = sem_p ready in
           let* () = sem_p ready in
           let* () = sem_p ready in
           let* () = acquire m in
           let* () = broadcast cv in
           let* () = release m in
           let* () = join t1 in
           let* () = join t2 in
           join t3)
      in
      let stamps, _ = run_collect kconfig backend prog in
      check Alcotest.int "all three woke" 3 (List.length stamps))

let io_blocks_thread =
  on_all_backends "io takes at least its latency" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* () = io (Time.ms 10) in
           stamp 1)
      in
      let stamps, job = run_collect kconfig backend prog in
      (match stamps with
      | [ (1, t) ] ->
          check Alcotest.bool "after 10ms" true (Time.to_ms t >= 10.0)
      | _ -> Alcotest.fail "expected one stamp");
      check Alcotest.bool "finished" true (System.finished job))

let cache_miss_then_hit =
  on_all_backends "cache: second read of a block hits" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* () = cache_read 0 in
           let* () = stamp 1 in
           let* () = cache_read 0 in
           stamp 2)
      in
      let sys = System.create ~cpus:2 ~kconfig () in
      let log = ref [] in
      let job =
        System.submit sys ~backend ~name:"t" ~cache_capacity:4
          ~prewarm_cache:false
          ~observer:(fun id time -> log := (id, time) :: !log)
          prog
      in
      System.run sys;
      match List.rev !log with
      | [ (1, t1); (2, t2) ] ->
          check Alcotest.bool "first read slow (miss)" true
            (Time.to_ms t1 >= 50.0);
          check Alcotest.bool "second read fast (hit)" true
            (Time.span_to_ms (Time.diff t2 t1) < 1.0);
          ignore job
      | _ -> Alcotest.fail "expected two stamps")

(* A read that finds the block's fill in flight charges the kernel entry
   before it waits; the fill may complete inside that window.  The fill
   lands about 50 ms (the I/O latency) after the first read, so sweeping
   the second read across 49-51 ms in 10 us steps puts some sweep point
   inside the 55 us entry. *)
let cache_fill_during_entry =
  List.map
    (fun (bname, backend) ->
      Alcotest.test_case
        (Printf.sprintf "a read whose fill lands during its block path \
                         wakes [%s]" bname)
        `Quick (fun () ->
          for step = 0 to 200 do
            let second =
              B.to_program
                (let open B in
                 let* () = compute (Time.us (49_000 + (10 * step))) in
                 cache_read 0)
            in
            let prog =
              B.to_program
                (let open B in
                 let* tid = fork second in
                 let* () = cache_read 0 in
                 join tid)
            in
            let sys = System.create ~cpus:2 ~kconfig:Kconfig.native () in
            let job =
              System.submit sys ~backend ~name:"t" ~cache_capacity:4
                ~prewarm_cache:false prog
            in
            (try System.run ~horizon:(Time.s 1) sys with Failure _ -> ());
            if not (System.finished job) then
              Alcotest.failf "second reader started at step %d never woke"
                step
          done))
    [ ("topaz", `Topaz_kthreads); ("ultrix", `Ultrix_processes) ]

(* With no device attached a miss is the kernel's fixed 50 ms block, and
   blocks in flight together overlap.  Three threads each miss on their own
   cold block on two processors.  Under scheduler activations and Topaz
   every miss is in flight at once; original FastThreads on two virtual
   processors keeps only two in flight, so the third waits a second 50 ms
   wave. *)
let cold_misses_overlap =
  List.map
    (fun (bname, kconfig, backend, waves) ->
      Alcotest.test_case
        (Printf.sprintf "three cold misses finish in %d wave(s) [%s]" waves
           bname)
        `Quick (fun () ->
          let reader i =
            B.to_program
              (let open B in
               let* () = cache_read i in
               stamp i)
          in
          let prog =
            B.to_program
              (let open B in
               let* t0 = fork (reader 0) in
               let* t1 = fork (reader 1) in
               let* t2 = fork (reader 2) in
               iter_list [ t0; t1; t2 ] (fun tid -> join tid))
          in
          let sys = System.create ~cpus:2 ~kconfig () in
          let log = ref [] in
          let job =
            System.submit sys ~backend ~name:"t" ~cache_capacity:4
              ~prewarm_cache:false
              ~observer:(fun id time -> log := (id, time) :: !log)
              prog
          in
          System.run sys;
          check Alcotest.bool "finished" true (System.finished job);
          check Alcotest.int "three misses" 3 (List.length !log);
          let last =
            List.fold_left (fun m (_, t) -> max m (Time.to_ms t)) 0.0 !log
          in
          let wave = 50.0 in
          check Alcotest.bool
            (Printf.sprintf "last miss at %.3f ms is in wave %d" last waves)
            true
            (last >= float_of_int waves *. wave
            && last < float_of_int (waves + 1) *. wave)))
    [
      ("ft-sa", Kconfig.default, `Fastthreads_on_sa, 1);
      ("topaz", Kconfig.native, `Topaz_kthreads, 1);
      ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 2, 2);
    ]

let yield_runs_peer =
  on_all_backends "yield lets a peer run" (fun kconfig backend ->
      let prog =
        B.to_program
          (let open B in
           let* _tid =
             fork
               (B.to_program
                  (let* () = stamp 2 in
                   compute (Time.us 10)))
           in
           let* () = stamp 1 in
           let* () = yield in
           stamp 3)
      in
      (* one processor so yield matters *)
      let stamps, _ = run_collect ~cpus:1 kconfig backend prog in
      check (Alcotest.list Alcotest.int) "peer ran at yield" [ 1; 2; 3 ]
        (List.map fst stamps))

(* ------------------------------------------------------------------ *)
(* Joins by child id                                                   *)
(* ------------------------------------------------------------------ *)

(* Times of the stamps carrying [marker], in the order they fired. *)
let times_of marker stamps =
  List.filter_map (fun (id, t) -> if id = marker then Some t else None) stamps

(* [fork_all children k] forks every program in [children], then passes
   their ids, in fork order, to [k]. *)
let fork_all children k =
  let rec go acc = function
    | [] -> k (List.rev acc)
    | child :: rest -> B.bind (B.fork child) (fun tid -> go (tid :: acc) rest)
  in
  go [] children

(* [join_all tids ~stamp_base] joins [tids] in order, stamping
   [stamp_base + i] right after the i-th join returns. *)
let join_all tids ~stamp_base =
  B.iter_list
    (List.mapi (fun i tid -> (i, tid)) tids)
    (fun (i, tid) -> B.bind (B.join tid) (fun () -> B.stamp (stamp_base + i)))

(* Stamps [child] and [joined] each fired once, [joined] no earlier. *)
let check_after stamps (child, joined) =
  match (times_of child stamps, times_of joined stamps) with
  | [ c ], [ j ] ->
      if Time.compare j c < 0 then
        Alcotest.failf "stamp %d fired before stamp %d" joined child
  | _ -> Alcotest.failf "stamps %d and %d must fire once each" child joined

let join_by_id_tests =
  on_all_backends "2000 children joined in fork order" (fun kconfig backend ->
      let n = 2000 in
      (* Child [i] waits at its own gate, which the parent opens just
         before joining it: a join resolved to an earlier child returns
         before child [i] finishes, and one resolved to a later child
         never returns. *)
      let gates = Array.init n (fun _ -> P.Sem.create ~initial:0 ()) in
      let child i =
        B.to_program
          (let open B in
           let* () = sem_p gates.(i) in
           let* () = compute (Time.us (100 * (1 + (i mod 7)))) in
           stamp i)
      in
      let prog =
        B.to_program
          (fork_all (List.init n child) (fun tids ->
               let tids = Array.of_list tids in
               B.repeat n (fun i ->
                   let open B in
                   let* () = sem_v gates.(i) in
                   let* () = join tids.(i) in
                   stamp (n + i))))
      in
      let stamps, job = run_collect ~cpus:4 kconfig backend prog in
      check Alcotest.bool "finished" true (System.finished job);
      List.iter (check_after stamps) (List.init n (fun i -> (i, n + i))))
  @ on_all_backends "nested forkers' slots do not collide"
      (fun kconfig backend ->
        (* Parent and child each number their forks from slot 0. *)
        let leaf i us =
          B.to_program
            (let open B in
             let* () = compute (Time.us us) in
             stamp i)
        in
        let child =
          B.to_program
            (let open B in
             let* () =
               fork_all [ leaf 0 300; leaf 1 30 ] (fun tids ->
                   join_all (List.rev tids) ~stamp_base:10)
             in
             let* () = compute (Time.us 100) in
             stamp 2)
        in
        let prog =
          B.to_program
            (fork_all [ child; leaf 3 100 ] (fun tids ->
                 join_all tids ~stamp_base:20))
        in
        let code = P.compile prog in
        let fork_slots =
          List.filter_map
            (fun pc ->
              if code.P.Code.op.(pc) = P.Code.op_fork then
                Some code.P.Code.b.(pc)
              else None)
            (List.init (P.Code.length code) Fun.id)
        in
        check (Alcotest.list Alcotest.int) "slots restart per region"
          [ 0; 0; 1; 1 ] (List.sort compare fork_slots);
        let stamps, _ = run_collect kconfig backend prog in
        (* The child joins leaf 1 (stamp 10), then leaf 0 (stamp 11);
           the parent joins the child (20), then leaf 3 (21). *)
        List.iter (check_after stamps) [ (1, 10); (0, 11); (2, 20); (3, 21) ])
  @ on_all_backends "one forked value, every instance joins its own child"
      (fun kconfig backend ->
        let k = 6 in
        let instance =
          B.to_program
            (let open B in
             let* g =
               fork
                 (B.to_program
                    (let* () = compute (Time.us 200) in
                     stamp 1))
             in
             let* () = join g in
             stamp 2)
        in
        (* Instances start far enough apart that each grandchild
           finishes before the next one. *)
        let prog =
          B.to_program
            (B.repeat k (fun _ ->
                 let open B in
                 let* () = fork_unit instance in
                 compute (Time.us 500)))
        in
        let code = P.compile prog in
        let forks =
          List.length
            (List.filter
               (fun o -> o = P.Code.op_fork)
               (Array.to_list code.P.Code.op))
        in
        check Alcotest.int "the instance compiles once" (k + 1) forks;
        let stamps, job = run_collect kconfig backend prog in
        check Alcotest.bool "finished" true (System.finished job);
        let grandchildren = List.sort Time.compare (times_of 1 stamps)
        and joined = List.sort Time.compare (times_of 2 stamps) in
        check Alcotest.int "every grandchild ran" k (List.length grandchildren);
        check Alcotest.int "every instance joined" k (List.length joined);
        (* The i-th join returns after the i-th grandchild finishes and
           before the next one does. *)
        let next = List.tl grandchildren @ [ Time.of_ns max_int ] in
        List.iteri
          (fun i ((g, g'), j) ->
            if Time.compare j g < 0 || Time.compare j g' >= 0 then
              Alcotest.failf "instance %d did not join its own grandchild" i)
          (List.combine (List.combine grandchildren next) joined))

(* ------------------------------------------------------------------ *)
(* FastThreads-specific behaviour                                      *)
(* ------------------------------------------------------------------ *)

let ft_specific_tests =
  [
    Alcotest.test_case "many fine-grained threads complete (ft-sa)" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.us 100)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 200
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
        let job = System.submit sys ~backend:`Fastthreads_on_sa ~name:"many" prog in
        System.run sys;
        let st = Option.get (System.uthread_stats job) in
        check Alcotest.int "200 forks" 200 st.Ft_core.forks;
        check Alcotest.int "201 completions" 201 st.Ft_core.completions;
        Sa_kernel.Kernel.check_invariants (System.kernel sys));
    Alcotest.test_case "work stealing spreads load (ft-kt)" `Quick (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.ms 5)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 16
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:4 ~kconfig:Kconfig.native () in
        let job =
          System.submit sys ~backend:(`Fastthreads_on_kthreads 4) ~name:"steal"
            prog
        in
        System.run sys;
        let st = Option.get (System.uthread_stats job) in
        (* all forks land on the parent's queue; other VPs must steal *)
        check Alcotest.bool "steals happened" true (st.Ft_core.steals > 0);
        (* 16 x 5ms on 4 VPs must take well under the 80ms serial time *)
        match System.elapsed job with
        | Some d -> check Alcotest.bool "parallel" true (Time.span_to_ms d < 60.0)
        | None -> Alcotest.fail "not finished");
    Alcotest.test_case "SA preemption recovers critical sections" `Quick
      (fun () ->
        (* Two SA jobs fight over 2 processors; reallocation preempts the
           loser mid-run.  All threads must still finish and any preempted
           critical sections must be recovered, never lost. *)
        let mk_prog () =
          B.to_program
            (let open B in
             let* tids =
               let rec go acc i =
                 if i = 0 then return acc
                 else
                   let* tid = fork (P.compute_only (Time.ms 2)) in
                   go (tid :: acc) (i - 1)
               in
               go [] 60
             in
             iter_list tids (fun t -> join t))
        in
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let j1 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"j1" (mk_prog ())
        in
        let j2 =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"j2" (mk_prog ())
        in
        System.run sys;
        check Alcotest.bool "j1 done" true (System.finished j1);
        check Alcotest.bool "j2 done" true (System.finished j2);
        let st = Kernel.stats (System.kernel sys) in
        check Alcotest.bool "preemptions occurred" true (st.Kernel.preemptions > 0);
        Sa_kernel.Kernel.check_invariants (System.kernel sys));
  ]

(* ------------------------------------------------------------------ *)
(* Priorities (Section 3.1 extension)                                  *)
(* ------------------------------------------------------------------ *)

(* Cross-queue priority discipline, driven on [Ft_core] directly: two ready
   lists filled by two parent threads run on a synchronous driver (every
   charge completes at once), then [pop_own] / [steal_from] are probed.
   Forks push at the front, so a queue lists its children newest first. *)
let sync_driver : unit Ft_core.driver =
  let no_block _ = failwith "sync driver: unexpected kernel block" in
  let no_loop () = failwith "sync driver: no scheduler loop" in
  {
    Ft_core.costs = Sa_hw.Cost_model.firefly_cvax;
    sa_accounting = false;
    sim = Sa_engine.Sim.create ();
    charge = (fun _ _ k -> k ());
    block_io = (fun tcb _ _ -> no_block tcb);
    block_kernel = (fun tcb ~register:_ _ -> no_block tcb);
    thread_stopped = (fun _ -> ());
    work_created = (fun _ _ -> ());
    all_done = (fun () -> ());
    on_stamp = (fun _ -> ());
    sched_charge = (fun v _ ~repair:_ _ -> no_loop v);
    picked = (fun v _ -> no_loop v);
    unpicked = (fun v _ -> no_loop v);
    idle = (fun v _ -> no_loop v);
  }

(* [fill_queues qs] forks one child per listed priority, in list order,
   onto ready list [i] for the [i]th list of [qs]; returns the state and
   each list's child tids front first.  With [~prio:false] the priorities
   are ignored and none is ever set. *)
let fill_queues ?(prio = true) qs =
  let s = Ft_core.create_state ~queues:(List.length qs) () in
  let parent prios =
    B.to_program
      (let open B in
       let rec go = function
         | [] -> return ()
         | p :: rest ->
             let* () = if prio then set_priority p else return () in
             let* _ = fork (B.to_program (compute (Time.us 1))) in
             go rest
       in
       go prios)
  in
  let tcbs =
    List.mapi
      (fun i prios ->
        let tcb = Ft_core.new_thread s sync_driver (parent prios) in
        Ft_core.make_ready s sync_driver ~at:i tcb;
        (i, tcb))
      qs
  in
  (* Take every parent off its list before any priority is set, then run
     each to completion on its own vessel. *)
  List.iter (fun (i, _) -> ignore (Ft_core.pop_own s i)) tcbs;
  List.iter (fun (i, tcb) -> Ft_core.run_thread s ~index:i tcb) tcbs;
  let rec split tids = function
    | [] -> []
    | q :: rest ->
        let n = List.length q in
        List.filteri (fun k _ -> k < n) tids
        :: split (List.filteri (fun k _ -> k >= n) tids) rest
  in
  (s, split (Ft_core.queued_tids s) qs)

let prio_queues q0 q1 =
  match fill_queues [ q0; q1 ] with
  | s, [ t0; t1 ] -> (s, t0, t1)
  | _ -> assert false

let tid_of = Option.map Ft_core.tcb_id

let cross_queue_priority_tests =
  [
    Alcotest.test_case "pop_own takes a better foreign thread from the back"
      `Quick (fun () ->
        (* list 1 front to back: prio 0, 5, 5 — the oldest prio-5 is last *)
        let s, _, q1 = prio_queues [ 1 ] [ 5; 5; 0 ] in
        check Alcotest.(option int) "back-most prio-5 of list 1"
          (Some (List.nth q1 2)) (tid_of (Ft_core.pop_own s 0)));
    Alcotest.test_case "pop_own keeps the local thread on a tie" `Quick
      (fun () ->
        (* list 0 front to back: prio 0, 5, 5; list 1 holds one prio 5 *)
        let s, q0, _ = prio_queues [ 5; 5; 0 ] [ 5 ] in
        check Alcotest.(option int) "front-most prio-5 of list 0"
          (Some (List.nth q0 1)) (tid_of (Ft_core.pop_own s 0)));
    Alcotest.test_case "steal_from takes the back-most best, not the back"
      `Quick (fun () ->
        (* list 1 front to back: prio 0, 5, 5, 0 *)
        let s, _, q1 = prio_queues [ 0 ] [ 0; 5; 5; 0 ] in
        check Alcotest.(option int) "back-most prio-5 of list 1"
          (Some (List.nth q1 2)) (tid_of (Ft_core.steal_from s ~victim:1)));
  ]

(* Without a chooser the sweep passes empty lists over unprobed; under a
   chooser it probes each.  A chooser that always answers the default
   must therefore see the same sweep: over random list contents (with and
   without priorities), held cells, and live and expired leases, both
   sides steal the same thread from the same cell, and every later
   [try_lock_cell] — before, at and after the last lease expiry —
   answers the same on both. *)
type sweep_cell = Free | Held | Live_lease | Expired_lease | Expired_then_held

let sweep_case_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* lists =
      list_repeat n
        (pair
           (list_size (int_range 0 3) (int_range 0 2))
           (oneofl
              [ Free; Held; Live_lease; Expired_lease; Expired_then_held ]))
    in
    let* thief = int_range 0 (n - 1) in
    let* prio = bool in
    return (lists, thief, prio))

let pp_sweep_cell = function
  | Free -> "free"
  | Held -> "held"
  | Live_lease -> "live-lease"
  | Expired_lease -> "expired-lease"
  | Expired_then_held -> "expired-then-held"

let sweep_case_arb =
  QCheck.make
    ~print:(fun (lists, thief, prio) ->
      Printf.sprintf "thief=%d prio=%b lists=[%s]" thief prio
        (String.concat "; "
           (List.map
              (fun (ps, c) ->
                Printf.sprintf "%s %s"
                  (String.concat "," (List.map string_of_int ps))
                  (pp_sweep_cell c))
              lists)))
    sweep_case_gen

(* One side of the comparison: the lists filled and the cells set up at
   time 1000, then the sweep at 1200, under [chooser]. *)
let sweep_side (lists, thief, prio) chooser =
  let s, _ = fill_queues ~prio (List.map fst lists) in
  let now = ref (Time.of_ns 1000) in
  Ft_core.set_clock s (fun () -> !now);
  List.iteri
    (fun i (_, c) ->
      let cell = Ft_core.queue_cell s i in
      let holder = 1000 + i in
      match c with
      | Free -> ()
      | Held -> ignore (Ft_core.try_lock_cell s cell ~owner:77)
      | Live_lease -> Ft_core.lease_cell s cell ~holder ~span:500
      | Expired_lease | Expired_then_held ->
          Ft_core.lease_cell s cell ~holder ~span:100)
    lists;
  now := Time.of_ns 1200;
  List.iteri
    (fun i (_, c) ->
      if c = Expired_then_held then
        ignore (Ft_core.try_lock_cell s (Ft_core.queue_cell s i) ~owner:77))
    lists;
  let sim = Sa_engine.Sim.create () in
  Sa_engine.Sim.set_chooser sim chooser;
  let n = List.length lists in
  let stolen =
    match Ft_core.steal s sim ~thief with
    | None -> None
    | Some (cell, tcb) ->
        let v =
          List.find
            (fun i -> Ft_core.queue_cell s i == cell)
            (List.init n Fun.id)
        in
        Some (v, Ft_core.tcb_id tcb)
  in
  (s, now, stolen)

let default_chooser =
  {
    Sa_engine.Sim.ch_pick = (fun ~site:_ ~arity:_ ~default -> default);
    ch_draw = (fun ~site:_ ~default -> default);
  }

let sweep_skip_unobservable =
  QCheck.Test.make ~name:"sweep skipping empty lists = probing every list"
    ~count:300 sweep_case_arb (fun ((lists, _, _) as case) ->
      let a, now_a, stolen_a = sweep_side case None in
      let b, now_b, stolen_b = sweep_side case (Some default_chooser) in
      let n = List.length lists in
      let owners =
        (77 :: List.init n (fun i -> 1000 + i))
        @ List.init n (fun i -> -(i + 1))
      in
      stolen_a = stolen_b
      && Ft_core.queued_tids a = Ft_core.queued_tids b
      && (Ft_core.stats a).steals = (Ft_core.stats b).steals
      && List.for_all
           (fun t ->
             now_a := Time.of_ns t;
             now_b := Time.of_ns t;
             List.for_all
               (fun i ->
                 let ca = Ft_core.queue_cell a i
                 and cb = Ft_core.queue_cell b i in
                 List.for_all
                   (fun owner ->
                     let ra = Ft_core.try_lock_cell a ca ~owner in
                     let rb = Ft_core.try_lock_cell b cb ~owner in
                     if ra then Ft_core.unlock_cell ca;
                     if rb then Ft_core.unlock_cell cb;
                     ra = rb)
                   owners)
               (List.init n Fun.id))
           [ 1200; 1500; 1501 ])

(* The plain discipline and the one steal sweep, on [Ft_core] directly. *)
let ready_list_tests =
  [
    Alcotest.test_case "owner pops the newest, a thief takes the oldest"
      `Quick (fun () ->
        let s, qs = fill_queues ~prio:false [ [ 0; 0; 0 ] ] in
        let q0 = List.hd qs in
        check Alcotest.(option int) "pop_own: front (newest)"
          (Some (List.nth q0 0)) (tid_of (Ft_core.pop_own s 0));
        check Alcotest.(option int) "steal_from: back (oldest)"
          (Some (List.nth q0 2)) (tid_of (Ft_core.steal_from s ~victim:0));
        check Alcotest.(option int) "the middle one is left"
          (Some (List.nth q0 1)) (tid_of (Ft_core.pop_own s 0)));
    Alcotest.test_case "steal sweep rotates past empty and held lists" `Quick
      (fun () ->
        (* thief 0 probes lists 1, 2, 3, 4 in turn: list 1 is empty, list
           2's cell is held, lists 3 and 4 have work *)
        let s, qs =
          fill_queues ~prio:false [ []; []; [ 0 ]; [ 0; 0 ]; [ 0 ] ]
        in
        let q3 = List.nth qs 3 in
        let held = Ft_core.queue_cell s 2 in
        check Alcotest.bool "hold list 2" true
          (Ft_core.try_lock_cell s held ~owner:7);
        let steals0 = (Ft_core.stats s).steals in
        match Ft_core.steal s (Sa_engine.Sim.create ()) ~thief:0 with
        | None -> Alcotest.fail "steal found nothing"
        | Some (cell, tcb) ->
            check Alcotest.bool "victim is list 3" true
              (cell == Ft_core.queue_cell s 3);
            check Alcotest.(option int) "victim cell held by the thief"
              (Some (-1)) (Ft_core.cell_owner cell);
            check Alcotest.int "oldest of list 3" (List.nth q3 1)
              (Ft_core.tcb_id tcb);
            check Alcotest.int "one steal counted" (steals0 + 1)
              (Ft_core.stats s).steals;
            check Alcotest.(list int) "lists 2 and 4 untouched"
              (List.nth qs 2 @ [ List.nth q3 0 ] @ List.nth qs 4)
              (Ft_core.queued_tids s));
    Alcotest.test_case "steal sweep over empty lists finds nothing" `Quick
      (fun () ->
        let s, _ = fill_queues ~prio:false [ []; []; [] ] in
        let steals0 = (Ft_core.stats s).steals in
        check Alcotest.bool "no steal" true
          (Option.is_none (Ft_core.steal s (Sa_engine.Sim.create ()) ~thief:1));
        check Alcotest.int "no steal counted" steals0 (Ft_core.stats s).steals);
    qtest sweep_skip_unobservable;
  ]

let priority_tests =
  [
    Alcotest.test_case "higher priority dispatched first (ft-sa)" `Quick
      (fun () ->
        (* One processor: queue a low- and a high-priority thread while the
           main thread holds the CPU; the high one must run first. *)
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 0 in
             let* _low = fork (B.to_program (B.stamp 10)) in
             let* () = set_priority 5 in
             let* _high = fork (B.to_program (B.stamp 20)) in
             let* () = set_priority 0 in
             compute (Time.ms 1))
        in
        let stamps, _ = run_collect ~cpus:1 Kconfig.default `Fastthreads_on_sa prog in
        check (Alcotest.list Alcotest.int) "high first" [ 20; 10 ]
          (List.map fst stamps));
    Alcotest.test_case "children inherit the forker's priority" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 3 in
             let* _a = fork (B.to_program (B.stamp 1)) in
             (* the child forked at priority 3 must beat a later prio-0 one *)
             let* () = set_priority 0 in
             let* _b = fork (B.to_program (B.stamp 2)) in
             compute (Time.ms 1))
        in
        let stamps, _ = run_collect ~cpus:1 Kconfig.default `Fastthreads_on_sa prog in
        check (Alcotest.list Alcotest.int) "inherited priority wins" [ 1; 2 ]
          (List.map fst stamps));
    Alcotest.test_case
      "SA asks the kernel to preempt a low-priority processor" `Quick
      (fun () ->
        (* Two processors.  A long low-priority thread occupies the second;
           when a high-priority thread becomes ready, the user level must
           request a preemption rather than wait for the long thread
           (Section 3.1's extra preemption). *)
        let prog =
          B.to_program
            (let open B in
             let* _low = fork (P.compute_only (Time.ms 80)) in
             (* give the low-priority thread time to get the other CPU *)
             let* () = compute (Time.ms 8) in
             let* () = set_priority 5 in
             let* high =
               fork
                 (B.to_program
                    (let* () = B.stamp 1 in
                     B.compute (Time.ms 1)))
             in
             let* () = set_priority 0 in
             (* keep this processor busy so the high-priority thread cannot
                simply use it *)
             let* () = compute (Time.ms 40) in
             join high)
        in
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let log = ref [] in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"prio"
            ~observer:(fun id time -> log := (id, time) :: !log)
            prog
        in
        System.run sys;
        Kernel.check_invariants (System.kernel sys);
        (match List.rev !log with
        | [ (1, t) ] ->
            (* without the priority preemption the high thread would wait
               ~72 more ms for the low thread to finish *)
            check Alcotest.bool "ran promptly via requested preemption" true
              (Time.to_ms t < 30.0)
        | _ -> Alcotest.fail "expected one stamp");
        ignore job);
    Alcotest.test_case "kernel-thread backends ignore priorities" `Quick
      (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* () = set_priority 9 in
             let* tid = fork (P.compute_only (Time.us 50)) in
             join tid)
        in
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
        let job = System.submit sys ~backend:`Topaz_kthreads ~name:"p" prog in
        System.run sys;
        check Alcotest.bool "still completes" true (System.finished job));
  ]

(* ------------------------------------------------------------------ *)
(* Misuse and failure injection                                        *)
(* ------------------------------------------------------------------ *)

let expect_program_error name kconfig backend prog expected_msg =
  let sys = System.create ~cpus:1 ~kconfig () in
  let _job = System.submit sys ~backend ~name prog in
  try
    System.run sys;
    Alcotest.fail "expected the interpreter to reject the program"
  with Invalid_argument m ->
    check Alcotest.string "error message" expected_msg m

let misuse_tests =
  [
    Alcotest.test_case "release without holding is rejected (ft)" `Quick
      (fun () ->
        let m = P.Mutex.create () in
        expect_program_error "bad-release" Kconfig.default `Fastthreads_on_sa
          (B.to_program (B.release m))
          "Release: not the holder");
    Alcotest.test_case "wait without the mutex is rejected (ft)" `Quick
      (fun () ->
        let m = P.Mutex.create () in
        let cv = P.Cond.create () in
        expect_program_error "bad-wait" Kconfig.default `Fastthreads_on_sa
          (B.to_program (B.wait cv m))
          "Wait: caller does not hold mutex");
    Alcotest.test_case "join on an unknown id is rejected" `Quick (fun () ->
        (* tids run 1..next_tid, and main is the only thread: 0 and 2 are
           just outside.  A fork-site operand is resolved only after its
           own fork, so its unknown case cannot be compiled. *)
        List.iter
          (fun tid ->
            expect_program_error "bad-join" Kconfig.default `Fastthreads_on_sa
              (B.to_program (B.join tid))
              "Join: unknown thread id")
          [ 424242; 0; 2 ]);
    Alcotest.test_case "release by a non-holder thread is rejected (kt)"
      `Quick (fun () ->
        let m = P.Mutex.create () in
        expect_program_error "bad-release-kt" Kconfig.native `Topaz_kthreads
          (B.to_program (B.release m))
          "Kt_direct: release by non-holder");
    Alcotest.test_case "wait without the mutex is rejected (kt)" `Quick
      (fun () ->
        let m = P.Mutex.create () in
        let cv = P.Cond.create () in
        expect_program_error "bad-wait-kt" Kconfig.native `Topaz_kthreads
          (B.to_program (B.wait cv m))
          "Kt_direct: wait without mutex");
    Alcotest.test_case "join on an unknown id is rejected (kt)" `Quick
      (fun () ->
        List.iter
          (fun tid ->
            expect_program_error "bad-join-kt" Kconfig.native `Topaz_kthreads
              (B.to_program (B.join tid))
              "Kt_direct: join on unknown thread")
          [ 424242; 0; 2 ]);
    Alcotest.test_case "zero VPs rejected" `Quick (fun () ->
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.native () in
        Alcotest.check_raises "vps" (Invalid_argument "Ft_kt.create: vps")
          (fun () ->
            ignore
              (Sa_uthread.Ft_kt.create (System.kernel sys) ~name:"x" ~vps:0
                 P.null)));
    Alcotest.test_case "horizon failure reports unfinished jobs" `Quick
      (fun () ->
        (* a thread that waits forever on a semaphore nobody Vs *)
        let s = P.Sem.create ~initial:0 () in
        let sys = System.create ~cpus:1 ~kconfig:Kconfig.default () in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"stuck"
            (B.to_program (B.sem_p s))
        in
        match System.run ~horizon:(Time.ms 50) sys with
        | () -> Alcotest.fail "expected horizon failure"
        | exception Failure m ->
            check Alcotest.bool "mentions the horizon" true
              (String.length m > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Representation: cells, the thread table, census                     *)
(* ------------------------------------------------------------------ *)

let representation_tests =
  [
    Alcotest.test_case "cell_owner across lock, unlock and lease" `Quick
      (fun () ->
        let s = Ft_core.create_state ~queues:3 () in
        let now = ref Time.zero in
        Ft_core.set_clock s (fun () -> !now);
        let cell = Ft_core.queue_cell s 0 in
        let owner = Alcotest.(option int) in
        check owner "fresh cell is free" None (Ft_core.cell_owner cell);
        check Alcotest.bool "thread 5 locks" true
          (Ft_core.try_lock_cell s cell ~owner:5);
        check owner "held by tid 5" (Some 5) (Ft_core.cell_owner cell);
        check Alcotest.bool "processor 2 cannot" false
          (Ft_core.try_lock_cell s cell ~owner:(-3));
        Ft_core.unlock_cell cell;
        check owner "free after unlock" None (Ft_core.cell_owner cell);
        check Alcotest.bool "processor 2 locks" true
          (Ft_core.try_lock_cell s cell ~owner:(-(2 + 1)));
        check owner "held by processor 2" (Some (-3)) (Ft_core.cell_owner cell);
        Ft_core.lease_cell s cell ~holder:5 ~span:(Time.us 1);
        check owner "a lease leaves no owner" None (Ft_core.cell_owner cell);
        check Alcotest.bool "others fail under the lease" false
          (Ft_core.try_lock_cell s cell ~owner:(-1));
        check owner "still free" None (Ft_core.cell_owner cell);
        check Alcotest.bool "the holder passes through" true
          (Ft_core.try_lock_cell s cell ~owner:5);
        check owner "held by tid 5 again" (Some 5) (Ft_core.cell_owner cell);
        Ft_core.lease_cell s cell ~holder:5 ~span:(Time.us 1);
        now := Time.of_ns (Time.us 2);
        check Alcotest.bool "anyone after expiry" true
          (Ft_core.try_lock_cell s cell ~owner:(-1));
        check owner "held by processor 0" (Some (-1)) (Ft_core.cell_owner cell));
    Alcotest.test_case "owner 0 is rejected" `Quick (fun () ->
        let s = Ft_core.create_state ~queues:1 () in
        let cell = Ft_core.queue_cell s 0 in
        Alcotest.check_raises "owner 0"
          (Invalid_argument "Ft_core.try_lock_cell: owner 0") (fun () ->
            ignore (Ft_core.try_lock_cell s cell ~owner:0));
        check Alcotest.(option int) "cell untouched" None
          (Ft_core.cell_owner cell));
    Alcotest.test_case "state_counts agrees with the counters mid-run" `Quick
      (fun () ->
        let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
        let job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"census"
            (B.to_program
               (B.repeat 40 (fun _ ->
                    B.fork_unit (P.compute_only (Time.us 200)))))
        in
        let s = Option.get (System.ft_core_state job) in
        let count st = List.assoc st (Ft_core.state_counts s) in
        let agree label =
          let live =
            List.fold_left
              (fun acc (st, n) -> if st = Ft_core.Done then acc else acc + n)
              0 (Ft_core.state_counts s)
          in
          check Alcotest.int (label ^ ": live") (Ft_core.live_threads s) live;
          check Alcotest.int (label ^ ": ready") (Ft_core.ready_threads s)
            (count Ft_core.Ready);
          check Alcotest.int (label ^ ": threads_in Ready")
            (count Ft_core.Ready)
            (List.length (Ft_core.threads_in s Ft_core.Ready))
        in
        System.run_span sys (Time.ms 3);
        agree "partway";
        check Alcotest.bool "some threads ready partway" true
          (Ft_core.ready_threads s > 0);
        check Alcotest.bool "some threads done partway" true
          (count Ft_core.Done > 0);
        System.run sys;
        agree "at the end";
        check Alcotest.int "all 41 done" 41 (count Ft_core.Done));
  ]

(* Finished threads are retired: their slot no longer holds the TCB, so
   it is garbage once its vessel lets go, while joins and the census
   still see a [Done] thread.  Driven on [Ft_core] directly with the
   synchronous driver, one ready list. *)
let run_ready s =
  let rec go () =
    match Ft_core.pop_own s 0 with
    | Some tcb ->
        Ft_core.run_thread s ~index:0 tcb;
        go ()
    | None -> ()
  in
  go ()

let no_daemons = { Kconfig.native with Kconfig.daemons = false }

let retirement_tests =
  [
    Alcotest.test_case "finished Topaz threads' cursors are collectable"
      `Quick (fun () ->
        (* A thread's cursor (its pc and the continuation that advances
           it) is garbage once the thread exits, while the job that ran it
           is still held. *)
        let n = 20 in
        let sys = System.create ~cpus:2 ~kconfig:no_daemons () in
        let prog =
          B.to_program
            (B.repeat n (fun _ -> B.fork_unit (P.compute_only (Time.us 100))))
        in
        let job =
          Sa_uthread.Kt_direct.create (System.kernel sys) ~name:"topaz"
            ~flavor:`Topaz prog
        in
        let cursors = Weak.create (n + 1) and started = ref 0 in
        Sa_uthread.Kt_direct.watch_cursors job (fun c ->
            Weak.set cursors !started (Some c);
            incr started);
        Sa_engine.Sim.run (System.sim sys);
        check Alcotest.int "every thread started" (n + 1) !started;
        Gc.full_major ();
        for i = 0 to n do
          if Weak.check cursors i then
            Alcotest.failf "thread %d's cursor is still reachable" (i + 1)
        done;
        (* Used after the collection, so the job's thread table was live
           through it. *)
        check Alcotest.string "job still held" "topaz"
          (Kernel.space_name (Sa_uthread.Kt_direct.space job)));
    Alcotest.test_case "finished Topaz threads leave nothing behind" `Quick
      (fun () ->
        (* Every Topaz thread is a kernel thread.  Once one exits, neither
           the kernel's thread table nor the job's keeps its record, so
           the heap a finished job leaves behind, with its system still
           held, does not grow with the number of threads it ran.  Each
           child is short next to a fork, so few are ever alive at once. *)
        let retained n =
          Gc.full_major ();
          let before = (Gc.stat ()).Gc.live_words in
          let sys = System.create ~cpus:2 ~kconfig:no_daemons () in
          let job =
            Sa_uthread.Kt_direct.create (System.kernel sys) ~name:"topaz"
              ~flavor:`Topaz
              (B.to_program
                 (B.repeat n (fun _ ->
                      B.fork_unit (P.compute_only (Time.us 10)))))
          in
          Sa_engine.Sim.run (System.sim sys);
          Gc.full_major ();
          let words = (Gc.stat ()).Gc.live_words - before in
          ignore (Sys.opaque_identity (sys, job));
          words
        in
        let few = retained 100 in
        let many = retained 2100 in
        let per_thread = float_of_int (many - few) /. 2000.0 in
        if per_thread > 1.0 then
          Alcotest.failf "%.1f live words per finished thread" per_thread);
    Alcotest.test_case "finished threads' TCBs are collectable" `Quick
      (fun () ->
        let n = 100 in
        let stopped = Weak.create (n + 1) in
        let d =
          {
            sync_driver with
            Ft_core.thread_stopped =
              (fun tcb -> Weak.set stopped (Ft_core.tcb_id tcb - 1) (Some tcb));
          }
        in
        let s = Ft_core.create_state ~queues:1 () in
        let root =
          B.to_program
            (B.repeat n (fun _ -> B.fork_unit (P.compute_only (Time.us 1))))
        in
        Ft_core.make_ready s d ~at:0 (Ft_core.new_thread s d root);
        run_ready s;
        check Alcotest.bool "all finished" true (Ft_core.finished s);
        Gc.full_major ();
        for i = 0 to n do
          if Weak.check stopped i then
            Alcotest.failf "thread %d's TCB is still reachable" (i + 1)
        done;
        check Alcotest.int "census still counts every thread done" (n + 1)
          (List.assoc Ft_core.Done (Ft_core.state_counts s));
        check Alcotest.int "no placeholder handed out" 0
          (List.length (Ft_core.threads_in s Ft_core.Done)));
    Alcotest.test_case "a join on a retired child resolves at once" `Quick
      (fun () ->
        let s = Ft_core.create_state ~queues:1 () in
        let parent =
          B.to_program
            (let open B in
             let* tid = fork (P.compute_only (Time.us 1)) in
             (* Forks push at the front and a yield at the back, so the
                child runs to completion first. *)
             let* () = yield in
             join tid)
        in
        Ft_core.make_ready s sync_driver ~at:0
          (Ft_core.new_thread s sync_driver parent);
        let count st = List.assoc st (Ft_core.state_counts s) in
        (* Run the parent to its yield, then the child to its exit. *)
        for _ = 1 to 2 do
          Ft_core.run_thread s ~index:0 (Option.get (Ft_core.pop_own s 0))
        done;
        check Alcotest.int "child done" 1 (count Ft_core.Done);
        check Alcotest.int "parent ready" 1 (count Ft_core.Ready);
        run_ready s;
        check Alcotest.bool "all finished" true (Ft_core.finished s);
        check Alcotest.int "the join never blocked" 0
          (Ft_core.stats s).Ft_core.ublocks;
        check Alcotest.int "both counted done" 2 (count Ft_core.Done));
  ]

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budgets                                         *)
(* ------------------------------------------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words allocated per fork by a whole [n]-thread run on [Ft_sa] (4 CPUs,
   no trace sink): compile, kernel and engine work included. *)
let words_per_fork n =
  let leaf =
    B.to_program
      (let open B in
       let* () = yield in
       return ())
  in
  let prog = B.to_program (B.repeat n (fun _ -> B.fork_unit leaf)) in
  let before = Gc.allocated_bytes () in
  let sys = System.create ~cpus:4 ~kconfig:Kconfig.default () in
  let job = System.submit sys ~backend:`Fastthreads_on_sa ~name:"spawn" prog in
  System.run sys;
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  check Alcotest.bool "run finished" true (System.finished job);
  words /. float_of_int n

(* Minor words a whole [n]-fork Topaz run allocates on 2 CPUs, program
   build and compile included: the retirement tests' program. *)
let topaz_run_words n =
  minor_words_of (fun () ->
      let sys = System.create ~cpus:2 ~kconfig:no_daemons () in
      let job =
        Sa_uthread.Kt_direct.create (System.kernel sys) ~name:"topaz"
          ~flavor:`Topaz
          (B.to_program
             (B.repeat n (fun _ -> B.fork_unit (P.compute_only (Time.us 10)))))
      in
      Sa_engine.Sim.run (System.sim sys);
      ignore (Sys.opaque_identity job))

(* Each Topaz fork spawns a kernel thread.  A fork cost 209 words (64-bit)
   while each spawn built a six-closure record of the thread's kernel
   operations; 168 without it. *)
let topaz_fork_word_budget = 190.

(* Minor words per dispatch once a lone thread that only yields is in
   steady state on one processor.  Each yield stops the thread; the
   scheduler loop pops it off its own ready list again and folds the
   dispatch cost into its next charge.  The window covers the yield's
   charges too; compile and setup stay outside it. *)
let words_per_folded_dispatch kconfig backend =
  let prog = B.to_program (B.repeat 3000 (fun _ -> B.yield)) in
  let sys = System.create ~cpus:1 ~kconfig () in
  let job = System.submit sys ~backend ~name:"yield" prog in
  let steps n =
    for _ = 1 to n do
      ignore (Sa_engine.Sim.step (System.sim sys))
    done
  in
  let dispatches () =
    (Option.get (System.uthread_stats job)).Ft_core.dispatches
  in
  steps 500;
  let before = dispatches () in
  let words = minor_words_of (fun () -> steps 1000) in
  let n = dispatches () - before in
  System.run sys;
  check Alcotest.bool "run finished" true (System.finished job);
  check Alcotest.bool "dispatches in the window" true (n > 0);
  words /. float_of_int n

(* Measured words per dispatch, which a dispatch must not exceed: 2 on
   either substrate.  Recording which thread an activation carries
   allocates nothing, and the activation a thread runs on is asked of the
   kernel. *)
let folded_dispatch_budgets =
  [
    ("ft-sa", Kconfig.default, `Fastthreads_on_sa, 2.);
    ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 1, 2.);
  ]

(* This fork/yield/exit run allocated 358 words per fork (64-bit) while
   every dispatch built spin closures and every fork formatted a thread
   name and filled a hash table; 159 once the fast path allocates only the
   new thread's TCB, closure block and fork binding. *)
let fork_word_budget = 250.

(* Minor words over [n] events of a run in steady state, with the number
   of CPU segments those events started: 50 ms of setup and warm-up stay
   outside the window. *)
let words_over_events sys n =
  let sim = System.sim sys in
  let segments () =
    Array.fold_left
      (fun acc cpu -> acc + Sa_hw.Cpu.segment_count cpu)
      0
      (Sa_hw.Machine.cpus (System.machine sys))
  in
  Sa_engine.Sim.run_while sim (fun () ->
      Time.compare (Sa_engine.Sim.now sim) (Time.of_ns (Time.ms 50)) < 0);
  let before = segments () in
  let words =
    minor_words_of (fun () ->
        for _ = 1 to n do
          ignore (Sa_engine.Sim.step sim)
        done)
  in
  (words, segments () - before)

let hot_path_allocation_tests =
  [
    Alcotest.test_case "an empty Ft_kt idle boundary allocates nothing"
      `Quick (fun () ->
        (* One thread computes 200 ms on one of two virtual processors; the
           other idles, and in the window every event is one of its 50 us
           spin boundaries finding nothing to do.  A boundary cost 6 words
           while each idle pass charged a fresh 50 us segment. *)
        let sys = System.create ~cpus:2 ~kconfig:no_daemons () in
        let job =
          System.submit sys ~backend:(`Fastthreads_on_kthreads 2) ~name:"idle"
            (P.compute_only (Time.ms 200))
        in
        let words, segments = words_over_events sys 500 in
        check Alcotest.int "every event a slice boundary" 500 segments;
        check (Alcotest.float 0.) "minor words" (minor_words_of ignore) words;
        System.run sys;
        check Alcotest.bool "run finished" true (System.finished job));
    Alcotest.test_case "a Topaz compute op allocates no closure" `Quick
      (fun () ->
        (* A lone Topaz thread steps 5000 compute ops of 20 us each, one
           kernel charge per op.  An op cost 10 words while each built its
           own continuation to the next. *)
        let sys = System.create ~cpus:1 ~kconfig:no_daemons () in
        let prog =
          B.to_program (B.repeat 5000 (fun _ -> B.compute (Time.us 20)))
        in
        let job =
          System.submit sys ~backend:`Topaz_kthreads ~name:"compute" prog
        in
        let words, segments = words_over_events sys 1000 in
        check Alcotest.int "every event a compute op" 1000 segments;
        check (Alcotest.float 0.) "minor words" (minor_words_of ignore) words;
        System.run sys;
        check Alcotest.bool "run finished" true (System.finished job));
    Alcotest.test_case "uncontended lock/unlock allocates nothing" `Quick
      (fun () ->
        let s = Ft_core.create_state ~queues:1 () in
        let cell = Ft_core.queue_cell s 0 in
        let base =
          minor_words_of (fun () ->
              for i = 1 to 1000 do
                ignore (Sys.opaque_identity i)
              done)
        in
        let locked =
          minor_words_of (fun () ->
              for i = 1 to 1000 do
                ignore
                  (Sys.opaque_identity (Ft_core.try_lock_cell s cell ~owner:i));
                Ft_core.unlock_cell cell
              done)
        in
        check (Alcotest.float 0.) "net minor words" 0. (locked -. base));
    Alcotest.test_case "join resolution on bound slots allocates nothing"
      `Quick (fun () ->
        let binds =
          List.fold_left
            (fun b slot -> P.Code.bind b slot (slot + 1))
            P.Code.no_binds (List.init 64 Fun.id)
        in
        let base =
          minor_words_of (fun () ->
              for i = 1 to 10_000 do
                ignore (Sys.opaque_identity i)
              done)
        in
        let joined =
          minor_words_of (fun () ->
              for i = 1 to 10_000 do
                ignore
                  (Sys.opaque_identity
                     (P.Code.join_target binds (-(i land 63) - 1)))
              done)
        in
        check (Alcotest.float 0.) "net minor words" 0. (joined -. base));
    Alcotest.test_case "fork/yield/exit stays within the per-fork budget"
      `Quick (fun () ->
        let w = words_per_fork 2000 in
        if w > fork_word_budget then
          Alcotest.failf "%.1f words per fork, budget %.0f" w fork_word_budget);
    Alcotest.test_case "a Topaz fork allocates no capability record" `Quick
      (fun () ->
        let w = (topaz_run_words 2100 -. topaz_run_words 100) /. 2000. in
        if w > topaz_fork_word_budget then
          Alcotest.failf "%.1f words per fork, budget %.0f" w
            topaz_fork_word_budget);
  ]
  @ List.map
      (fun (name, kconfig, backend, budget) ->
        Alcotest.test_case
          (Printf.sprintf "folded own-list dispatch allocates no more [%s]"
             name)
          `Quick (fun () ->
            let w = words_per_folded_dispatch kconfig backend in
            if w > budget then
              Alcotest.failf "%.2f words per dispatch, budget %.0f" w budget))
      folded_dispatch_budgets

let () =
  Alcotest.run "uthread"
    [
      ("deque", deque_tests);
      ("fork_join", fork_join_order);
      ("join-by-id", join_by_id_tests);
      ("mutex", mutex_excludes);
      ("semaphores", semaphores_order @ semaphores_shared);
      ("condvars", condvar_wakeup);
      ("broadcast", broadcast_wakes_all);
      ("io", io_blocks_thread);
      ( "cache",
        cache_miss_then_hit @ cache_fill_during_entry @ cold_misses_overlap );
      ("yield", yield_runs_peer);
      ("fastthreads", ft_specific_tests);
      ("priorities", priority_tests @ cross_queue_priority_tests);
      ("ready-lists", ready_list_tests);
      ("misuse", misuse_tests);
      ("representation", representation_tests);
      ("retirement", retirement_tests);
      ("hot-path allocation", hot_path_allocation_tests);
    ]
