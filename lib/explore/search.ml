module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module Server = Sa_workload.Server
module Recorder = Sa_workload.Recorder
module Injector = Sa_fault.Injector
module Invariant = Sa_fault.Invariant
module Campaign = Sa_fault.Campaign

type workload = Server | Chaos

type spec = {
  workload : workload;
  seed : int;
  cpus : int;
  requests : int;
  horizon : Time.span;
  inject : bool;
  inject_kinds : Injector.kind list;
}

let default_spec =
  {
    workload = Server;
    seed = 1;
    cpus = 4;
    requests = 40;
    horizon = Time.s 10;
    inject = true;
    inject_kinds = Injector.survivable_kinds;
  }

let workload_name = function Server -> "server" | Chaos -> "chaos"

let workload_of_name = function
  | "server" -> Some Server
  | "chaos" -> Some Chaos
  | _ -> None

type outcome = Completed | Violation of string | No_completion of string

let outcome_name = function
  | Completed -> "ok"
  | Violation _ -> "violation"
  | No_completion _ -> "no-completion"

type run_result = {
  outcome : outcome;
  digest : string;
  adjacencies : (string * string) list;
  injected : (string * int) list;
}

(* --- interleaving coverage ------------------------------------------- *)

let all_adjacencies = 16

let upcall_prefix = "upcall:"

(* Consecutive pairs of delivered Table-2 upcall events, across the whole
   system: which event kinds the explored interleaving managed to place
   next to each other. *)
let coverage_sink acc =
  let prev = ref None in
  fun (r : Trace.record) ->
    if r.Trace.category = Trace.Upcall && r.Trace.kind = Trace.Span_begin
    then begin
      let np = String.length upcall_prefix in
      if
        String.length r.Trace.name > np
        && String.sub r.Trace.name 0 np = upcall_prefix
      then begin
        let ev =
          String.sub r.Trace.name np (String.length r.Trace.name - np)
        in
        (match !prev with
        | Some p -> Hashtbl.replace acc (p, ev) ()
        | None -> ());
        prev := Some ev
      end
    end

let adjacency_list acc =
  Hashtbl.fold (fun pair () l -> pair :: l) acc [] |> List.sort compare

(* --- run digest ------------------------------------------------------- *)

let digest_of ~stamps ~final_ns ~kstats ~injected ~outcome =
  let b = Buffer.create 512 in
  List.iter
    (fun (id, t) ->
      Buffer.add_string b (Printf.sprintf "s%d@%d;" id (Time.to_ns t)))
    stamps;
  let k = kstats in
  Buffer.add_string b
    (Printf.sprintf "k%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d;"
       k.Kernel.upcalls k.Kernel.upcall_events k.Kernel.preemptions
       k.Kernel.reallocations k.Kernel.io_blocks k.Kernel.kt_dispatches
       k.Kernel.kt_timeslices k.Kernel.daemon_wakeups k.Kernel.io_faults
       k.Kernel.io_retries k.Kernel.spurious_fired k.Kernel.spurious_dropped
       k.Kernel.chaos_preempts);
  List.iter
    (fun (name, n) -> Buffer.add_string b (Printf.sprintf "i%s=%d;" name n))
    injected;
  Buffer.add_string b (Printf.sprintf "t%d;" final_ns);
  (match outcome with
  | Completed -> Buffer.add_string b "ok"
  | Violation m -> Buffer.add_string b ("V:" ^ m)
  | No_completion m -> Buffer.add_string b ("N:" ^ m));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the two workloads ------------------------------------------------ *)

let install sim ~chooser ~trace_sink adj =
  (match chooser with Some c -> Sim.set_chooser sim (Some c) | None -> ());
  Trace.add_sink (Sim.trace sim) (coverage_sink adj);
  match trace_sink with
  | Some s -> Trace.add_sink (Sim.trace sim) s
  | None -> ()

let run_server ?chooser ?trace_sink spec =
  let kcfg = { Kconfig.default with Kconfig.seed = spec.seed } in
  let sys = System.create ~cpus:spec.cpus ~kconfig:kcfg () in
  let adj = Hashtbl.create 32 in
  install (System.sim sys) ~chooser ~trace_sink adj;
  let params =
    { Server.default_params with Server.requests = spec.requests;
      seed = spec.seed }
  in
  let recorder = Recorder.create () in
  let _job =
    System.submit sys ~backend:`Fastthreads_on_sa ~name:"server"
      ~observer:(Recorder.observer recorder)
      (Server.program params)
  in
  let _checker =
    Invariant.attach ~period:(Time.ms 1) ~label:"explore" ~seed:spec.seed
      sys
  in
  let inj =
    if spec.inject then
      Some
        (Injector.attach ~kinds:spec.inject_kinds ~seed:spec.seed sys)
    else None
  in
  let outcome =
    match System.run ~horizon:spec.horizon sys with
    | () -> Completed
    | exception Sim.Stalled msg -> Violation msg
    | exception Failure msg -> No_completion msg
  in
  Option.iter Injector.detach inj;
  let injected =
    match inj with Some i -> Injector.injected i | None -> []
  in
  let stamps = Recorder.stamps recorder in
  let digest =
    digest_of ~stamps
      ~final_ns:(Time.to_ns (Sim.now (System.sim sys)))
      ~kstats:(Kernel.stats (System.kernel sys))
      ~injected ~outcome
  in
  { outcome; digest; adjacencies = adjacency_list adj; injected }

let run_chaos ?chooser ?trace_sink spec =
  let adj = Hashtbl.create 32 in
  let sys_ref = ref None in
  let on_system sys =
    sys_ref := Some sys;
    install (System.sim sys) ~chooser ~trace_sink adj
  in
  let config =
    { Campaign.cpus = spec.cpus; horizon = spec.horizon;
      kinds = spec.inject_kinds }
  in
  let r =
    Campaign.run_seed ~config ~on_system ~mode:Kconfig.Explicit_allocation
      spec.seed
  in
  let sys =
    match !sys_ref with
    | Some s -> s
    | None -> failwith "Search.run_chaos: campaign never built a system"
  in
  let outcome =
    match r.Campaign.outcome with
    | Campaign.Completed _ -> Completed
    | Campaign.Violation m -> Violation m
    | Campaign.No_completion m -> No_completion m
  in
  let digest =
    digest_of ~stamps:[]
      ~final_ns:(Time.to_ns (Sim.now (System.sim sys)))
      ~kstats:r.Campaign.kstats ~injected:r.Campaign.injected ~outcome
  in
  {
    outcome;
    digest;
    adjacencies = adjacency_list adj;
    injected = r.Campaign.injected;
  }

let run ?chooser ?trace_sink spec =
  match spec.workload with
  | Server -> run_server ?chooser ?trace_sink spec
  | Chaos -> run_chaos ?chooser ?trace_sink spec

let record ?(inner = Chooser.default) ?trace_sink spec =
  let state, ch = Chooser.recording ~inner () in
  let r = run ~chooser:ch ?trace_sink spec in
  (r, Chooser.recorded state)

let replay ?(mode = Chooser.Strict) ?active ?trace_sink spec sched =
  let ch, consumed = Chooser.replaying ~mode ?active sched in
  let r = run ~chooser:ch ?trace_sink spec in
  (r, consumed ())

(* --- schedule metadata ------------------------------------------------ *)

let meta_of_spec spec ~strategy =
  [
    ("workload", workload_name spec.workload);
    ("seed", string_of_int spec.seed);
    ("cpus", string_of_int spec.cpus);
    ("requests", string_of_int spec.requests);
    ("horizon_ns", string_of_int spec.horizon);
    ("inject", string_of_bool spec.inject);
    ( "inject_kinds",
      String.concat "," (List.map Injector.kind_name spec.inject_kinds) );
    ("strategy", strategy);
  ]

(* A missing key keeps its default and an unknown key is ignored: older
   files also record the demand-drop gap, which is now an injector
   constant.  A present key whose value does not parse is refused, like
   any other malformed schedule input. *)
let spec_of_meta meta =
  let d = default_spec in
  let field k parse default =
    match List.assoc_opt k meta with
    | None -> default
    | Some v -> (
        match parse v with
        | Some x -> x
        | None ->
            failwith
              (Printf.sprintf "Search.spec_of_meta: malformed %s %S" k v))
  in
  let kinds = function
    | "" -> Some []
    | v ->
        let names = String.split_on_char ',' v in
        let ks = List.filter_map Injector.kind_of_name names in
        if List.length ks = List.length names then Some ks else None
  in
  {
    workload = field "workload" workload_of_name d.workload;
    seed = field "seed" int_of_string_opt d.seed;
    cpus = field "cpus" int_of_string_opt d.cpus;
    requests = field "requests" int_of_string_opt d.requests;
    horizon = field "horizon_ns" int_of_string_opt d.horizon;
    inject = field "inject" bool_of_string_opt d.inject;
    inject_kinds = field "inject_kinds" kinds d.inject_kinds;
  }

(* --- search loop ------------------------------------------------------ *)

type strategy = Walk | Pct of int

let strategy_name = function
  | Walk -> "walk"
  | Pct d -> Printf.sprintf "pct-%d" d

type report = {
  baseline : run_result;
  baseline_sched : Schedule.t;
  runs : int;
  violations : int;
  no_completions : int;
  distinct_digests : int;
  coverage : (string * string) list;
  failing : (int * run_result * Schedule.t) option;
}

let explore ?(on_run = fun _ _ -> ()) ~strategy ~schedules spec =
  let baseline, baseline_sched = record spec in
  let picks = Schedule.picks baseline_sched in
  let digests = Hashtbl.create 32 in
  Hashtbl.replace digests baseline.digest ();
  let cov = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace cov p ()) baseline.adjacencies;
  let violations = ref 0 in
  let no_completions = ref 0 in
  let runs = ref 0 in
  let failing = ref None in
  let i = ref 1 in
  while !i <= schedules && !failing = None do
    (* Derive the strategy seed from the spec seed and the run index so a
       printed (seed, strategy, index) triple is enough to reproduce. *)
    let sseed = (spec.seed * 1_000_003) + !i in
    let inner =
      match strategy with
      | Walk -> Chooser.random_walk ~seed:sseed ()
      | Pct depth -> Chooser.pct ~seed:sseed ~depth ~length:picks
    in
    let r, sched = record ~inner spec in
    incr runs;
    on_run !i r;
    Hashtbl.replace digests r.digest ();
    List.iter (fun p -> Hashtbl.replace cov p ()) r.adjacencies;
    (match r.outcome with
    | Violation _ ->
        incr violations;
        failing := Some (sseed, r, sched)
    | No_completion _ -> incr no_completions
    | Completed -> ());
    incr i
  done;
  {
    baseline;
    baseline_sched;
    runs = !runs;
    violations = !violations;
    no_completions = !no_completions;
    distinct_digests = Hashtbl.length digests;
    coverage = adjacency_list cov;
    failing = !failing;
  }
