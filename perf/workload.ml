(* The benchmark's four workloads, built only from the simulator's public
   functions, and the timed run of one instance. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Rng = Sa_engine.Rng
module Machine = Sa_hw.Machine
module Kernel = Sa_kernel.Kernel
module Kconfig = Sa_kernel.Kconfig
module Program = Sa_program.Program
module System = Sa.System
module Server = Sa_workload.Server
module Nbody = Sa_workload.Nbody
module Recorder = Sa_workload.Recorder
module Cluster = Sa_cluster.Cluster

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- phases ------------------------------------------------------------ *)

type phase = Build | Create | Submit | Run | Summarize

let phase_index = function
  | Build -> 0
  | Create -> 1
  | Submit -> 2
  | Run -> 3
  | Summarize -> 4

(* Host time charged phase by phase: [lap sw p] charges everything since
   the previous lap to [p]. *)
type stopwatch = { laps : int array; mutable last : int }

let stopwatch () = { laps = Array.make 5 0; last = now_ns () }

let lap sw p =
  let t = now_ns () in
  let i = phase_index p in
  sw.laps.(i) <- sw.laps.(i) + (t - sw.last);
  sw.last <- t

(* ---- instances --------------------------------------------------------- *)

type value = Int of int | Float of float

let value_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.6g" f

type summary = {
  outputs : (string * value) list;  (** simulated results, printed *)
  detail : string;  (** further simulated results, digested only *)
  completed : int;  (** ops that finished *)
}

(* One simulated system of an instance: created and submitted, not yet
   run.  [active] is the loop condition of [run], so stepping the clock
   while it holds fires exactly the events [run] would. *)
type system = {
  sim : Sim.t;
  kernels : Kernel.t list;
  machines : Machine.t list;
  jobs : System.job list;
  active : unit -> bool;
  run : unit -> unit;
  summarize : unit -> summary;
}

type instance = {
  attempted : int;  (** ops: threads, requests or N-body jobs *)
  systems : (stopwatch -> system) list;
      (** each creates its system (lap [Create]) and submits (lap [Submit]) *)
  finish : unit -> (string * value) list;  (** outputs across systems *)
}

type t = {
  name : string;
  default_seed : int;
  per_round : int;  (** instances per round of a full run *)
  build : seed:int -> instance;  (** the [Build] phase *)
}

(* [System.run]'s horizon and stop condition, as a predicate. *)
let of_system sys ~jobs ~summarize =
  let sim = System.sim sys in
  let deadline = Time.add (Sim.now sim) (Time.s 1800) in
  {
    sim;
    kernels = [ System.kernel sys ];
    machines = [ System.machine sys ];
    jobs;
    active =
      (fun () ->
        List.exists (fun j -> not (System.finished j)) jobs
        && Time.compare (Sim.now sim) deadline <= 0);
    run = (fun () -> System.run sys);
    summarize;
  }

(* Timed runs measure the simulator, not its trace ring. *)
let quiet sys = Trace.set_recording (Sim.trace (System.sim sys)) false

let elapsed_ms job =
  match System.elapsed job with Some d -> Time.span_to_ms d | None -> nan

let uthread job =
  match System.uthread_stats job with
  | Some st -> st
  | None -> invalid_arg "uthread stats of a kernel-thread job"

(* ---- forkjoin: the [bench scale] fork-join ----------------------------- *)

let forkjoin_threads = 10_000

let forkjoin =
  let build ~seed =
    let rng = Rng.create seed in
    let configs =
      List.map
        (fun cpus ->
          let per_branch = forkjoin_threads / cpus in
          let branch () =
            let span = Time.us (10 + Rng.int rng 21) in
            let leaf =
              Program.Build.(
                to_program
                  (let* () = compute span in
                   let* () = yield in
                   compute span))
            in
            Program.Build.(to_program (repeat per_branch (fun _ -> fork_unit leaf)))
          in
          let branches = List.init cpus (fun _ -> branch ()) in
          let root = Program.Build.(to_program (iter_list branches fork_unit)) in
          (cpus, root, 1 + cpus + (cpus * per_branch)))
        [ 32; 64 ]
    in
    let system (cpus, root, _) sw =
      let sys = System.create ~cpus () in
      quiet sys;
      lap sw Create;
      let job = System.submit sys ~backend:`Fastthreads_on_sa ~name:"forkjoin" root in
      lap sw Submit;
      of_system sys ~jobs:[ job ] ~summarize:(fun () ->
          let ft = uthread job in
          let key k = Printf.sprintf "c%d.%s" cpus k in
          {
            outputs =
              [
                (key "makespan_ms", Float (elapsed_ms job));
                (key "events", Int (Sim.events (System.sim sys)));
                (key "steals", Int ft.steals);
              ];
            detail =
              Printf.sprintf "dispatches=%d steps=%d batches=%d spin=%d"
                ft.dispatches ft.program_steps ft.charge_batches ft.cs_spin_ns;
            completed = ft.completions;
          })
    in
    {
      attempted = List.fold_left (fun a (_, _, n) -> a + n) 0 configs;
      systems = List.map system configs;
      finish = (fun () -> []);
    }
  in
  { name = "forkjoin"; default_seed = 11; per_round = 4; build }

(* ---- serve: multi-tenant serving on one 64-CPU machine ----------------- *)

let serve_with ~requests =
  let build ~seed =
    let p =
      {
        Server.mt_tenants = 24;
        mt_requests = requests;
        mt_classes = Server.default_classes;
        mt_seed = seed;
        mt_cache_blocks = 0;
      }
    in
    let tenants =
      List.init p.mt_tenants (fun i ->
          (i, Server.tenant_class p i, Server.tenant_program p i))
    in
    let system sw =
      let sys = System.create ~cpus:64 () in
      quiet sys;
      lap sw Create;
      let subs =
        List.map
          (fun (i, (cls : Server.tenant_class), prog) ->
            let r = Recorder.create () in
            let job =
              System.submit sys ~backend:`Fastthreads_on_sa
                ~name:(Server.tenant_name p i) ~space_priority:cls.tc_priority
                ~observer:(Recorder.observer r) prog
            in
            (cls, r, job))
          tenants
      in
      lap sw Submit;
      of_system sys
        ~jobs:(List.map (fun (_, _, j) -> j) subs)
        ~summarize:(fun () ->
          let rows =
            List.map
              (fun ((cls : Server.tenant_class), r, job) ->
                ( cls.tc_class,
                  Server.summarize_tenant ~allow_incomplete:true r ~requests
                    ~slo:cls.tc_slo,
                  elapsed_ms job ))
              subs
          in
          let sum f = List.fold_left (fun a (_, s, _) -> a + f s) 0 rows in
          let class_violations c =
            List.fold_left
              (fun a (c', (s : Server.tenant_summary), _) ->
                if c = c' then a + s.ts_violations else a)
              0 rows
          in
          {
            outputs =
              [
                ( "elapsed_ms",
                  Float (List.fold_left (fun a (_, _, e) -> Float.max a e) 0. rows) );
                ("events", Int (Sim.events (System.sim sys)));
                ("violations", Int (sum (fun s -> s.ts_violations)));
                ("violations.interactive", Int (class_violations "interactive"));
                ("violations.bursty", Int (class_violations "bursty"));
                ("violations.batch", Int (class_violations "batch"));
              ];
            detail =
              String.concat ";"
                (List.map
                   (fun (_, (s : Server.tenant_summary), _) ->
                     Printf.sprintf "%d %h %h %h %d" s.ts_completed s.ts_p50_us
                       s.ts_p99_us s.ts_max_us s.ts_violations)
                   rows);
            completed = sum (fun s -> s.ts_completed);
          })
    in
    {
      attempted = p.mt_tenants * requests;
      systems = [ system ];
      finish = (fun () -> []);
    }
  in
  { name = "serve"; default_seed = 11; per_round = 1; build }

let serve = serve_with ~requests:50

(* ---- cluster: the pinned [bench cluster] configuration ----------------- *)

let cluster_params ~seed =
  {
    Cluster.default_params with
    machines = 3;
    cpus = 8;
    tenants = 12;
    requests = 80;
    seed;
    cache_blocks = 48;
  }

let cluster =
  let build ~seed =
    let p = cluster_params ~seed in
    let system sw =
      let cl = Cluster.create p in
      lap sw Create;
      (* [Cluster.create] submits the tenants itself. *)
      lap sw Submit;
      let systems = Array.to_list (Cluster.systems cl) in
      let sim = Cluster.sim cl in
      let deadline = Time.add (Sim.now sim) (Time.s 1800) in
      {
        sim;
        kernels = List.map System.kernel systems;
        machines = List.map System.machine systems;
        jobs = List.concat_map System.jobs systems;
        active =
          (fun () ->
            Cluster.active cl && Time.compare (Sim.now sim) deadline <= 0);
        run = (fun () -> Cluster.run cl);
        summarize =
          (fun () ->
            let s = Cluster.summary cl in
            {
              outputs =
                [
                  ("elapsed_ms", Float s.cl_elapsed_ms);
                  ("events", Int (Sim.events sim));
                  ("migrations", Int s.cl_migrations);
                  ("remote_hits", Int s.cl_remote_hits);
                  ("remote_fallbacks", Int s.cl_remote_fallbacks);
                  ("net_messages", Int s.cl_net.messages);
                  ( "violations",
                    Int
                      (List.fold_left
                         (fun a (r : Cluster.tenant_row) -> a + r.c_violations)
                         0 s.cl_tenant_rows) );
                ];
              detail =
                String.concat ";"
                  (List.map
                     (fun (r : Cluster.tenant_row) ->
                       Printf.sprintf "%d %d %h %h %d" r.c_home r.c_completed
                         r.c_p50_us r.c_p99_us r.c_violations)
                     s.cl_tenant_rows
                  @ List.map
                      (fun (m : Cluster.machine_row) ->
                        Printf.sprintf "%d %d %d %d %h" m.m_upcalls
                          m.m_preemptions m.m_migs_in m.m_migs_out m.m_util)
                      s.cl_machine_rows);
              completed = s.cl_requests_total;
            });
      }
    in
    {
      attempted = p.tenants * p.requests;
      systems = [ system ];
      finish = (fun () -> []);
    }
  in
  { name = "cluster"; default_seed = 11; per_round = 4; build }

(* ---- nbody: the paper's Section 5.3 application ------------------------ *)

(* Table 5's published per-job speedups, in row order. *)
let table5_paper = [| 1.29; 1.26; 2.45 |]

let nbody_systems =
  [|
    ("topaz", Kconfig.native, `Topaz_kthreads);
    ("origft", Kconfig.native, `Fastthreads_on_kthreads 6);
    ("newft", Kconfig.default, `Fastthreads_on_sa);
  |]

let nbody =
  let build ~seed =
    let prep = Nbody.prepare { Nbody.default_params with seed } in
    let seq_s = Time.span_to_ms prep.seq_time /. 1000. in
    let speedups = Array.make 3 nan in
    (* Table 5: two jobs multiprogrammed on 6 CPUs. *)
    let table5 i sw =
      let label, kconfig, backend = nbody_systems.(i) in
      let sys = System.create ~cpus:6 ~kconfig () in
      quiet sys;
      lap sw Create;
      let jobs =
        List.map
          (fun name -> System.submit sys ~backend ~name prep.program)
          [ "nbody-1"; "nbody-2" ]
      in
      lap sw Submit;
      of_system sys ~jobs ~summarize:(fun () ->
          (* Experiments.table5's arithmetic, to the last bit. *)
          let avg_s =
            List.fold_left (fun a j -> a +. (elapsed_ms j /. 1000.)) 0. jobs /. 2.
          in
          speedups.(i) <- seq_s /. avg_s;
          {
            outputs = [ ("table5." ^ label, Float speedups.(i)) ];
            detail = Printf.sprintf "%d" (Sim.events (System.sim sys));
            completed = List.length (List.filter System.finished jobs);
          })
    in
    (* Figure 2: one job with half the data set in memory. *)
    let figure2 i sw =
      let label, kconfig, backend = nbody_systems.(i) in
      let sys = System.create ~cpus:6 ~kconfig () in
      quiet sys;
      lap sw Create;
      let job =
        System.submit sys ~backend ~name:"nbody"
          ~cache_capacity:(Nbody.cache_capacity prep ~percent:50)
          prep.program
      in
      lap sw Submit;
      of_system sys ~jobs:[ job ] ~summarize:(fun () ->
          {
            outputs = [ ("figure2_50." ^ label ^ "_s", Float (elapsed_ms job /. 1000.)) ];
            detail = Printf.sprintf "%d" (Sim.events (System.sim sys));
            completed = (if System.finished job then 1 else 0);
          })
    in
    {
      attempted = 9;
      systems = List.init 3 table5 @ List.init 3 figure2;
      finish =
        (fun () ->
          let err = ref 0. in
          Array.iteri
            (fun i p -> err := !err +. (Float.abs (speedups.(i) -. p) /. p))
            table5_paper;
          [ ("model_err", Float (!err /. 3.)) ]);
    }
  in
  { name = "nbody"; default_seed = 42; per_round = 1; build }

let all = [ forkjoin; serve; cluster; nbody ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ---- running an instance ----------------------------------------------- *)

type executed = {
  ran : (system * summary) list;
  outputs : (string * value) list;
  digest : string;
  completed : int;
  events : int;
}

(* Run every system of [inst] in order, each driven by [drive] (the public
   run function, or a stepping loop), and digest what it simulated. *)
let execute inst sw ~drive =
  let ran =
    List.map
      (fun mk ->
        let s = mk sw in
        drive s;
        lap sw Run;
        let r = s.summarize () in
        lap sw Summarize;
        (s, r))
      inst.systems
  in
  let outputs =
    List.concat_map (fun (_, (r : summary)) -> r.outputs) ran @ inst.finish ()
  in
  lap sw Summarize;
  let exact = function Int n -> string_of_int n | Float f -> Printf.sprintf "%h" f in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun (k, v) -> k ^ "=" ^ exact v) outputs
            @ List.map (fun (_, (r : summary)) -> r.detail) ran)))
  in
  {
    ran;
    outputs;
    digest;
    completed = List.fold_left (fun a (_, (r : summary)) -> a + r.completed) 0 ran;
    events = List.fold_left (fun a (s, _) -> a + Sim.events s.sim) 0 ran;
  }

(* Counters the layers keep, summed over an instance's systems. *)
let counters ran =
  let sum f = List.fold_left (fun a (s, _) -> a + f s) 0 ran in
  let ks f =
    sum (fun s -> List.fold_left (fun a k -> a + f (Kernel.stats k)) 0 s.kernels)
  in
  let us f =
    sum (fun s ->
        List.fold_left
          (fun a j -> match System.uthread_stats j with Some st -> a + f st | None -> a)
          0 s.jobs)
  in
  [
    ("upcalls", ks (fun st -> st.upcalls));
    ("upcall_events", ks (fun st -> st.upcall_events));
    ("reallocations", ks (fun st -> st.reallocations));
    ("preemptions", ks (fun st -> st.preemptions));
    ("steals", us (fun st -> st.steals));
    ("dispatches", us (fun st -> st.dispatches));
    ("program_steps", us (fun st -> st.program_steps));
    ("charge_segments", us (fun st -> st.charge_segments));
    ("charge_batches", us (fun st -> st.charge_batches));
    ("cs_spin_ns", us (fun st -> st.cs_spin_ns));
    ("cache_misses", us (fun st -> st.cache_misses));
    ("remote_fills", us (fun st -> st.remote_fills));
    ( "busy_ns",
      sum (fun s ->
          List.fold_left (fun a m -> a + Machine.total_busy_time m) 0 s.machines) );
    ( "capacity_ns",
      sum (fun s ->
          List.fold_left
            (fun a m -> a + (Machine.cpu_count m * Time.to_ns (Sim.now s.sim)))
            0 s.machines) );
  ]

type timed = {
  phase_ns : int array;  (** host ns per {!phase} *)
  attempted : int;
  completed : int;
  events : int;
  outputs : (string * value) list;
  digest : string;
  invariant_error : string option;
  counters : (string * int) list;
  top_heap_words : int;
  reference_ns : int;  (** {!reference_ns} just before the instance *)
  alloc_words : float;  (** minor + major - promoted *)
  minor_collections : int;
  major_collections : int;
}

(* A fixed computation in the standard library alone (hash-table fills
   and a list sort, a few ms), timed in the child just before its instance.
   No change to the simulator can move it, so [wall / reference] takes out
   the speed the shared box happens to give the process at that moment. *)
let reference_ns () =
  let t0 = now_ns () in
  let h = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> (i * 104729) mod 65537)) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) (Hashtbl.length h) l));
  now_ns () - t0

(* One timed instance, as a user runs it: build the inputs, create and
   submit, run, summarize.  Meant to run in a fresh child ({!Child.run}). *)
let run_timed w ~seed =
  Gc.compact ();
  let reference_ns = reference_ns () in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let sw = stopwatch () in
  let inst = w.build ~seed in
  lap sw Build;
  let ex = execute inst sw ~drive:(fun s -> s.run ()) in
  let g1 = Gc.quick_stat () in
  let invariant_error =
    List.find_map
      (fun (s, _) ->
        List.find_map
          (fun k ->
            match Kernel.check_invariants k with
            | () -> None
            | exception Failure msg -> Some msg)
          s.kernels)
      ex.ran
  in
  {
    phase_ns = Array.copy sw.laps;
    attempted = inst.attempted;
    completed = ex.completed;
    events = ex.events;
    outputs = ex.outputs;
    digest = ex.digest;
    invariant_error;
    counters = counters ex.ran;
    top_heap_words = g1.Gc.top_heap_words;
    reference_ns;
    alloc_words =
      g1.Gc.minor_words -. g0.Gc.minor_words
      +. (g1.Gc.major_words -. g0.Gc.major_words)
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let setup_ns t = t.phase_ns.(0) + t.phase_ns.(1)
let wall_ns t = t.phase_ns.(2) + t.phase_ns.(3) + t.phase_ns.(4)
