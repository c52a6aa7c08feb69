(* Frozen reference observations for the thread-program backends.

   Every backend runs a [Program.t] from the arena [Program.compile]
   builds, with lazy [op_dyn] nodes where eager compilation cannot be
   used: the FastThreads backends through [Ft_core]'s batched step loop,
   Topaz threads and Ultrix processes through [Kt_direct]'s
   one-charge-per-op stepper.  Their behaviour is pinned against
   observations recorded once from the CPS tree walkers those steppers
   replaced (the simulator is deterministic, so the recording stands as a
   fixed oracle).  This module holds everything both sides of that
   comparison must agree on: the random program generator, the named
   programs, the observation harness and its printed form, and the
   fixture file reader.  Changing any of it changes the recorded keys or
   observations, so the suites that read [fixtures/oracle.txt] fail loudly
   on drift instead of comparing against stale data.

   Fixture lines are [key <TAB> backend <TAB> observation]; spec programs
   are keyed by their printed spec, named programs by name.  See
   docs/INTERNALS.md s12 for how to regenerate the file when a schedule
   change is intended. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build
module Ft_core = Sa_uthread.Ft_core
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Recorder = Sa_workload.Recorder
module Workcrew = Sa_models.Workcrew
module Future = Sa_models.Future
module Actor = Sa_models.Actor

(* ------------------------------------------------------------------ *)
(* Program specs: data first, so QCheck can shrink and print           *)
(* ------------------------------------------------------------------ *)

type spec =
  | Compute of int  (* microseconds, 1..500 *)
  | Io of int  (* microseconds, 1..2000 *)
  | Cache of int  (* block 0..7 *)
  | Yield
  | Stamp of int  (* marker 0..99, the observable schedule *)
  | Critical of int * spec list  (* mutex index 0..2 *)
  | Sem_critical of int * spec list  (* semaphore index 0..1, initial 1 *)
  | Fork_join of spec list list  (* children, all joined *)
  | Seq of spec list

let rec pp_spec s =
  match s with
  | Compute n -> Printf.sprintf "C%d" n
  | Io n -> Printf.sprintf "IO%d" n
  | Cache b -> Printf.sprintf "R%d" b
  | Yield -> "Y"
  | Stamp t -> Printf.sprintf "S%d" t
  | Critical (m, body) ->
      Printf.sprintf "L%d{%s}" m (String.concat ";" (List.map pp_spec body))
  | Sem_critical (s, body) ->
      Printf.sprintf "P%d{%s}" s (String.concat ";" (List.map pp_spec body))
  | Fork_join kids ->
      Printf.sprintf "F[%s]"
        (String.concat "|"
           (List.map (fun k -> String.concat ";" (List.map pp_spec k)) kids))
  | Seq body -> String.concat ";" (List.map pp_spec body)

let pp_specs specs = String.concat ";" (List.map pp_spec specs)

let spec_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun n -> Compute n) (int_range 1 500));
        (2, map (fun n -> Io n) (int_range 1 2000));
        (2, map (fun b -> Cache b) (int_range 0 7));
        (2, map (fun t -> Stamp t) (int_range 0 99));
        (1, return Yield);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 2,
            map2
              (fun m body -> Critical (m, body))
              (int_range 0 2)
              (list_size (int_range 1 3) (node (depth - 1))) );
          ( 1,
            map2
              (fun s body -> Sem_critical (s, body))
              (int_range 0 1)
              (list_size (int_range 1 3) (node (depth - 1))) );
          ( 2,
            map
              (fun kids -> Fork_join kids)
              (list_size (int_range 1 3)
                 (list_size (int_range 1 3) (node (depth - 1)))) );
          ( 1,
            map (fun body -> Seq body) (list_size (int_range 1 3) (node (depth - 1)))
          );
        ]
  in
  list_size (int_range 1 5) (node 2)

let spec_arb = QCheck.make spec_gen ~print:pp_specs

(* The frozen corpus: [fixture_count] programs drawn from [fixture_seed]. *)
let fixture_seed = 20_260_117
let fixture_count = 200

let fixture_specs () =
  QCheck.Gen.generate
    ~rand:(Random.State.make [| fixture_seed |])
    ~n:fixture_count spec_gen

(* Every stamp in the spec fires exactly once, whatever the schedule. *)
let rec spec_stamps acc = function
  | Stamp t -> t :: acc
  | Compute _ | Io _ | Cache _ | Yield -> acc
  | Critical (_, body) | Sem_critical (_, body) | Seq body ->
      List.fold_left spec_stamps acc body
  | Fork_join kids -> List.fold_left (List.fold_left spec_stamps) acc kids

(* As in test_stress: mutexes and semaphores come from per-run pools, and
   nesting inside a critical section is flattened to non-blocking work, so
   every generated program is balanced and deadlock-free by construction. *)
let compile_spec specs =
  let mutexes =
    Array.init 3 (fun i -> P.Mutex.create ~name:(Printf.sprintf "m%d" i) ())
  in
  let sems =
    Array.init 2 (fun i ->
        P.Sem.create ~name:(Printf.sprintf "s%d" i) ~initial:1 ())
  in
  let rec go ?(in_cs = false) s =
    let open B in
    match s with
    | Compute n -> compute (Time.us n)
    | Io n -> if in_cs then compute (Time.us n) else io (Time.us n)
    | Cache b -> if in_cs then compute (Time.us 7) else cache_read b
    | Yield -> yield
    | Stamp t -> stamp t
    | Critical (m, body) ->
        if in_cs then seq ~in_cs:true body
        else critical mutexes.(m) (seq ~in_cs:true body)
    | Sem_critical (i, body) ->
        if in_cs then seq ~in_cs:true body
        else
          let* () = sem_p sems.(i) in
          let* () = seq ~in_cs:true body in
          sem_v sems.(i)
    | Fork_join kids ->
        if in_cs then seq ~in_cs:true (List.concat kids)
        else
          let* tids =
            let rec forks acc = function
              | [] -> return (List.rev acc)
              | k :: rest ->
                  let* tid = fork (B.to_program (seq ~in_cs:false k)) in
                  forks (tid :: acc) rest
            in
            forks [] kids
          in
          iter_list tids (fun tid -> join tid)
    | Seq body -> seq ~in_cs body
  and seq ?(in_cs = false) body =
    let open B in
    let rec go_list = function
      | [] -> return ()
      | s :: rest ->
          let* () = go ~in_cs s in
          go_list rest
    in
    go_list body
  in
  B.to_program (seq specs)

(* ------------------------------------------------------------------ *)
(* Observing one run                                                   *)
(* ------------------------------------------------------------------ *)

let backends =
  [
    ("ft-sa", Kconfig.default, `Fastthreads_on_sa);
    ("ft-kt", Kconfig.native, `Fastthreads_on_kthreads 3);
    ("topaz", Kconfig.native, `Topaz_kthreads);
    ("ultrix", Kconfig.native, `Ultrix_processes);
  ]

type observation = {
  o_finished : bool;
  o_elapsed : Time.span;  (* zero when unfinished; [o_finished] disambiguates *)
  o_stamps : (int * Time.t) list;  (* emission order, with timestamps *)
  o_sched : int list;  (* forks;completions;dispatches;steals;ublocks;kblocks *)
  o_batching : (int * int) option;
      (* charge segments, batches (FastThreads backends); not printed, the
         reference interpreter had no batching to compare against *)
}

let observe kconfig backend prog =
  let rec_ = Recorder.create () in
  let sys = System.create ~cpus:3 ~kconfig () in
  let job =
    System.submit sys ~backend ~name:"diff" ~cache_capacity:4
      ~prewarm_cache:false ~observer:(Recorder.observer rec_) prog
  in
  System.run ~horizon:(Time.s 120) sys;
  Kernel.check_invariants (System.kernel sys);
  let finished = System.finished job in
  let stats = System.uthread_stats job in
  {
    o_finished = finished;
    o_elapsed = (if finished then Option.get (System.elapsed job) else 0);
    o_stamps = Recorder.stamps rec_;
    o_sched =
      (match stats with
      | None -> []
      | Some s ->
          [
            s.Ft_core.forks;
            s.Ft_core.completions;
            s.Ft_core.dispatches;
            s.Ft_core.steals;
            s.Ft_core.ublocks;
            s.Ft_core.kblocks;
          ]);
    o_batching =
      Option.map
        (fun s -> (s.Ft_core.charge_segments, s.Ft_core.charge_batches))
        stats;
  }

let pp_obs o =
  Printf.sprintf "finished=%b elapsed=%dns stamps=[%s] sched=[%s]" o.o_finished
    o.o_elapsed
    (String.concat ","
       (List.map
          (fun (t, at) -> Printf.sprintf "%d@%d" t (Time.to_ns at))
          o.o_stamps))
    (String.concat "," (List.map string_of_int o.o_sched))

(* ------------------------------------------------------------------ *)
(* Named programs                                                      *)
(* ------------------------------------------------------------------ *)

(* Condition variables need a handshake to be deterministic (see
   test_uthread), so they get a fixed program rather than a random one:
   waiter parks on the condvar, signaller stamps, signals, both finish.
   ksem exercises the kernel-semaphore ops. *)
let cond_prog () =
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
  B.to_program
    (let open B in
     let* tid = fork waiter in
     let* () = sem_p ready in
     let* () = acquire m in
     let* () = stamp 1 in
     let* () = broadcast cv in
     let* () = release m in
     let* () = join tid in
     stamp 3)

let ksem_prog () =
  let s = P.Sem.create ~initial:0 () in
  let waiter =
    B.to_program
      (let open B in
       let* () = ksem_p s in
       stamp 2)
  in
  B.to_program
    (let open B in
     let* tid = fork waiter in
     let* () = compute (Time.ms 1) in
     let* () = stamp 1 in
     let* () = ksem_v s in
     join tid)

(* The concurrency-model programs of test_models: force-dependent
   ([Dynamic]) programs whose continuations read and write host state. *)
let crew_flat () =
  Workcrew.run ~workers:3
    (List.init 20 (fun i -> Workcrew.task ~label:i (Time.ms 1)))

let crew_tree () =
  let rec tree d =
    Workcrew.task ~label:d
      ~children:(if d = 0 then [] else [ tree (d - 1); tree (d - 1) ])
      (Time.us 200)
  in
  Workcrew.run ~workers:4 [ tree 3 ]

let crew_wide () =
  Workcrew.run ~workers:4
    (List.init 16 (fun i -> Workcrew.task ~label:i (Time.ms 2)))

let future_get () =
  B.to_program
    (let open B in
     let* fut = Future.spawn ~work:(Time.ms 1) (fun () -> 21) in
     let* v = Future.get fut in
     stamp v)

let future_tree () =
  B.to_program
    (let open B in
     let* f1 = Future.spawn ~work:(Time.ms 1) (fun () -> 1) in
     let* f2 = Future.spawn ~work:(Time.ms 1) (fun () -> 2) in
     let* f3 = Future.spawn ~work:(Time.ms 1) (fun () -> 3) in
     let* f4 = Future.spawn ~work:(Time.ms 1) (fun () -> 4) in
     let* s12 = Future.map2 ~work:(Time.us 100) ( + ) f1 f2 in
     let* s34 = Future.map2 ~work:(Time.us 100) ( + ) f3 f4 in
     let* total = Future.map2 ~work:(Time.us 100) ( + ) s12 s34 in
     let* v = Future.get total in
     stamp v)

let future_touchers () =
  B.to_program
    (let open B in
     let* fut = Future.spawn ~work:(Time.ms 2) (fun () -> 7) in
     let toucher i =
       B.to_program
         (let* v = Future.get fut in
          stamp (i + v))
     in
     let* t1 = fork (toucher 10) in
     let* t2 = fork (toucher 20) in
     let* t3 = fork (toucher 30) in
     let* () = join t1 in
     let* () = join t2 in
     join t3)

let future_resolved () =
  B.to_program
    (let open B in
     let* fut = Future.spawn ~work:(Time.ms 1) (fun () -> ()) in
     let* () = compute (Time.ms 5) in
     let* () = stamp 1 in
     let* _ = Future.get fut in
     stamp 2)

type msg = Work of int | Stop

let actor_in_order () =
  let actor = Actor.create ~name:"worker" () in
  B.to_program
    (let open B in
     let* tid =
       Actor.spawn_handler actor ~work_per_message:(Time.us 100)
         ~stop:(function Stop -> true | Work _ -> false)
         ()
     in
     let* () = iter_list [ 1; 2; 3; 4 ] (fun i -> Actor.send actor (Work i)) in
     let* () = Actor.send actor Stop in
     join tid)

let actor_blocked_receiver () =
  let actor = Actor.create () in
  B.to_program
    (let open B in
     let receiver =
       B.to_program
         (let* m = Actor.receive actor in
          stamp m)
     in
     let* tid = fork receiver in
     let* () = compute (Time.ms 2) in
     let* () = Actor.send actor 99 in
     join tid)

let actor_producers () =
  let actor = Actor.create () in
  B.to_program
    (let open B in
     let producer base =
       B.to_program
         (iter_list [ base; base + 1; base + 2 ] (fun i ->
              Actor.send actor (Work i)))
     in
     let* h =
       Actor.spawn_handler actor ~work_per_message:(Time.us 50)
         ~stop:(function Stop -> true | Work _ -> false)
         ()
     in
     let* p1 = fork (producer 10) in
     let* p2 = fork (producer 20) in
     let* () = join p1 in
     let* () = join p2 in
     let* () = Actor.send actor Stop in
     join h)

(* test_misc: two joiners wait on a sibling thread their parent forked
   earlier — the join target is a thread id captured across a fork. *)
let sibling_join () =
  B.to_program
    (let open B in
     let* target = fork (P.compute_only (Time.ms 2)) in
     let joiner id =
       B.to_program
         (let* () = join target in
          stamp id)
     in
     let* j1 = fork (joiner 1) in
     let* j2 = fork (joiner 2) in
     let* () = join target in
     let* () = join j1 in
     join j2)

(* A continuation that uses its child's thread id as data. *)
let stamp_child_tid () =
  B.to_program
    (let open B in
     let* t = fork (P.compute_only (Time.us 30)) in
     let* () = compute (Time.us 5) in
     let* () = stamp t in
     join t)

(* Two forks in one region, the later child's id used as data while the
   earlier child's id is still to be joined; the [refork] form forks again
   before that join. *)
let two_fork_stamp ~refork () =
  B.to_program
    (let open B in
     let* ta = fork (P.compute_only (Time.ms 2)) in
     let* tb = fork (P.compute_only (Time.us 30)) in
     let* () = stamp tb in
     if refork then
       let* tc = fork (P.compute_only (Time.us 10)) in
       let* () = join ta in
       let* () = join tc in
       join tb
     else
       let* () = join ta in
       join tb)

(* Larger than the default compile budget (1M instructions), behind a fork
   whose child is joined at the very end. *)
let over_budget_ops = 1_000_100

let over_budget () =
  B.to_program
    (let open B in
     let* t = fork (P.compute_only (Time.ms 1)) in
     let* () =
       repeat over_budget_ops (fun i ->
           if i mod 250_000 = 0 then stamp (i / 250_000)
           else compute (Time.ns 20))
     in
     join t)

(* The smallest program found where a stolen thread's folded dispatch
   lease outlasts the unfolded unlock at a same-instant tie on ft-kt
   (docs/INTERNALS.md s12): its ft-kt run differs from the frozen line and
   is pinned separately. *)
let lease_tie () =
  compile_spec
    [
      Fork_join
        [
          [ Compute 2 ];
          [ Critical (0, [ Stamp 2 ]) ];
          [
            Critical (1, [ Compute 4; Compute 5 ]);
            Critical (0, [ Yield; Stamp 2 ]);
          ];
        ];
    ]

(* Named programs recorded on every backend. *)
let named =
  [
    ("condvar-handshake", cond_prog);
    ("kernel-semaphore", ksem_prog);
    ("crew-flat", crew_flat);
    ("crew-tree", crew_tree);
    ("crew-wide", crew_wide);
    ("future-get", future_get);
    ("future-tree", future_tree);
    ("future-touchers", future_touchers);
    ("future-resolved", future_resolved);
    ("actor-in-order", actor_in_order);
    ("actor-blocked-receiver", actor_blocked_receiver);
    ("actor-producers", actor_producers);
    ("sibling-join", sibling_join);
    ("stamp-child-tid", stamp_child_tid);
    ("two-fork-stamp", two_fork_stamp ~refork:false);
    ("two-fork-stamp-refork", two_fork_stamp ~refork:true);
    ("lease-tie", lease_tie);
  ]

(* Named programs recorded on ft-sa only (too slow to walk everywhere). *)
let named_ft_sa = [ ("over-budget", over_budget) ]

(* ------------------------------------------------------------------ *)
(* Fixture file                                                        *)
(* ------------------------------------------------------------------ *)

let fixture_path = "fixtures/oracle.txt"

let fixture_line ~key ~backend o =
  Printf.sprintf "%s\t%s\t%s" key backend (pp_obs o)

(* [(key, backend, observation)] in file order. *)
let load_fixture () =
  In_channel.with_open_text fixture_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ key; backend; obs ] -> (key, backend, obs)
         | _ -> failwith ("malformed fixture line: " ^ l))

let frozen key backend =
  match
    List.find_opt (fun (k, b, _) -> k = key && b = backend) (load_fixture ())
  with
  | Some (_, _, obs) -> obs
  | None -> Alcotest.failf "no frozen observation for %s [%s]" key backend

(* Write the whole fixture in file order: only when a schedule change is
   intended (docs/INTERNALS.md s12, re-pin procedure). *)
let record oc =
  let emit key (backend, kconfig, be) prog =
    output_string oc (fixture_line ~key ~backend (observe kconfig be prog));
    output_char oc '\n'
  in
  List.iter
    (fun specs ->
      List.iter
        (fun b -> emit (pp_specs specs) b (compile_spec specs))
        backends)
    (fixture_specs ());
  List.iter
    (fun (name, mk) -> List.iter (fun b -> emit name b (mk ())) backends)
    named;
  List.iter (fun (name, mk) -> emit name (List.hd backends) (mk ())) named_ft_sa
