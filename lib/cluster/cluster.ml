module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Machine = Sa_hw.Machine
module Buffer_cache = Sa_hw.Buffer_cache
module Cost_model = Sa_hw.Cost_model
module Kernel = Sa_kernel.Kernel
module Ft_core = Sa_uthread.Ft_core
module Ft_sa = Sa_uthread.Ft_sa
module Server = Sa_workload.Server
module Recorder = Sa_workload.Recorder
module System = Sa.System
module Net = Net
module Cluster_alloc = Cluster_alloc

type params = {
  machines : int;
  cpus : int;
  tenants : int;
  requests : int;
  seed : int;
  cache_blocks : int;
  net_jitter_us : int;
}

let default_params =
  {
    machines = 4;
    cpus = 16;
    tenants = 12;
    requests = 100;
    seed = 42;
    cache_blocks = 64;
    net_jitter_us = 0;
  }

(* The modeled network's link latency and serialization cost. *)
let net_latency = Time.us 50
let net_ns_per_byte = 1

(* Wire sizes of a remote-fetch request and of its one-block response. *)
let req_bytes = 64
let block_bytes = 8192

(* A migration's state transfer: a fixed part plus one record per resident
   activation. *)
let mig_base_bytes = 4096
let mig_bytes_per_act = 512

(* Fail-stop re-homing latency before an evacuated space's state restore
   begins. *)
let crash_recovery = Time.ms 5

type node = {
  node_id : int;
  sys : System.t;
  mutable alive : bool;
  mutable n_migs_in : int;
  mutable n_migs_out : int;
  mutable n_remote_hits : int;
  mutable n_remote_fallbacks : int;
}

type tenant = {
  tn_index : int;
  tn_cls : Server.tenant_class;
  tn_rec : Recorder.t;
  tn_job : System.job;
  tn_home0 : int;
  mutable tn_home : int;
  mutable tn_in_flight : bool;  (* space currently in transit over the net *)
}

type t = {
  p : params;
  sim : Sim.t;
  net : Net.t;
  nodes : node array;
  tenants : tenant array;
  disk_latency : Time.span;
  mutable alloc : Cluster_alloc.t option;
  mutable migrations : int;
  mutable evacuations : int;
  mutable crashes : int;
  mutable partitions : int;
}

let sim t = t.sim
let net t = t.net
let machines t = t.p.machines
let systems t = Array.map (fun n -> n.sys) t.nodes

let alive t m =
  if m < 0 || m >= t.p.machines then invalid_arg "Cluster.alive";
  t.nodes.(m).alive

let active t =
  Array.exists (fun ten -> not (System.finished ten.tn_job)) t.tenants

let alive_count t =
  Array.fold_left (fun acc n -> if n.alive then acc + 1 else acc) 0 t.nodes

(* First alive machine at or after [from], scanning the ring once. *)
let next_alive t from =
  let n = t.p.machines in
  let rec go k =
    if k >= n then None
    else
      let m = (from + k) mod n in
      if t.nodes.(m).alive then Some m else go (k + 1)
  in
  go 0

(* ---- migration -------------------------------------------------------- *)

(* Land a detached space on [dst] (or, if it died while the package was in
   flight, the next alive machine after it).  Returns the final home. *)
let land_on t ~dst pkg ft ten =
  let dst =
    if t.nodes.(dst).alive then dst
    else match next_alive t (dst + 1) with Some m -> m | None -> dst
  in
  let sys = t.nodes.(dst).sys in
  Ft_sa.rehome ft (System.kernel sys);
  Kernel.attach_space (System.kernel sys) pkg;
  System.adopt sys ten.tn_job;
  ten.tn_home <- dst;
  ten.tn_in_flight <- false;
  Ft_sa.nudge_demand ft;
  dst

let state_bytes pkg =
  mig_base_bytes + (mig_bytes_per_act * Kernel.migration_act_count pkg)

(* Detach the tenant's space from [src] and ship it to [dst]; the state
   transfer costs [state_bytes] on the wire.  If the send races with a
   fresh partition the space lands straight back where it was. *)
let do_migrate t ~src ~dst ten =
  let ft =
    match System.ft_sa ten.tn_job with
    | Some ft -> ft
    | None -> invalid_arg "Cluster: tenant is not an SA job"
  in
  let sp = Ft_sa.space ft in
  let sys = t.nodes.(src).sys in
  System.disown sys ten.tn_job;
  let pkg = Kernel.detach_space (System.kernel sys) sp in
  ten.tn_in_flight <- true;
  let sent =
    Net.send t.net ~src ~dst ~bytes:(state_bytes pkg) (fun () ->
        let final = land_on t ~dst pkg ft ten in
        t.nodes.(final).n_migs_in <- t.nodes.(final).n_migs_in + 1)
  in
  if sent then begin
    t.nodes.(src).n_migs_out <- t.nodes.(src).n_migs_out + 1;
    t.migrations <- t.migrations + 1
  end
  else ignore (land_on t ~dst:src pkg ft ten);
  sent

(* Pick the busiest eligible tenant on [src]: resident, unfinished, with
   runnable threads; most runnable wins, ties to the lowest index. *)
let try_migrate t ~src ~dst =
  if
    src = dst
    || (not t.nodes.(src).alive)
    || (not t.nodes.(dst).alive)
    || not (Net.reachable t.net ~src ~dst)
  then false
  else begin
    let best = ref None in
    Array.iter
      (fun ten ->
        if
          ten.tn_home = src
          && (not ten.tn_in_flight)
          && not (System.finished ten.tn_job)
        then
          match System.ft_core_state ten.tn_job with
          | Some core ->
              let r = Ft_core.runnable_threads core in
              if r > 0 then begin
                match !best with
                | Some (_, br) when br >= r -> ()
                | _ -> best := Some (ten, r)
              end
          | None -> ())
      t.tenants;
    match !best with
    | None -> false
    | Some (ten, _) -> do_migrate t ~src ~dst ten
  end

(* ---- load & remote fetches ------------------------------------------- *)

let load t m =
  let total = ref 0 in
  Array.iter
    (fun ten ->
      if
        ten.tn_home = m
        && (not ten.tn_in_flight)
        && not (System.finished ten.tn_job)
      then
        match System.ft_core_state ten.tn_job with
        | Some core -> total := !total + Ft_core.runnable_threads core
        | None -> ())
    t.tenants;
  !total

let peer_has_block t peer block =
  List.exists
    (fun job ->
      match System.cache job with
      | Some c -> Buffer_cache.resident c block
      | None -> false)
    (System.jobs t.nodes.(peer).sys)

(* Buffer-cache miss hook: probe the other machines in rotation order from
   the tenant's current home; a hit is a request/response round trip over
   the net, with a disk fallback if the peer or link dies mid-flight. *)
let resolve_remote t ten block =
  if t.p.machines < 2 then None
  else begin
    let m = t.p.machines in
    let home = ten.tn_home in
    let rec probe k =
      if k >= m - 1 then None
      else
        let peer = (home + 1 + k) mod m in
        if
          t.nodes.(peer).alive
          && Net.reachable t.net ~src:home ~dst:peer
          && peer_has_block t peer block
        then Some peer
        else probe (k + 1)
    in
    match probe 0 with
    | None -> None
    | Some peer ->
        Some
          (fun wake ->
            let woke = ref false in
            let wake_once () =
              if not !woke then begin
                woke := true;
                wake ()
              end
            in
            let fallback () =
              t.nodes.(home).n_remote_fallbacks <-
                t.nodes.(home).n_remote_fallbacks + 1;
              ignore
                (Sim.schedule_after t.sim ~delay:t.disk_latency wake_once)
            in
            let sent =
              Net.send t.net ~src:home ~dst:peer ~bytes:req_bytes
                (fun () ->
                  let replied =
                    Net.send t.net ~src:peer ~dst:home ~bytes:block_bytes
                      (fun () ->
                        t.nodes.(home).n_remote_hits <-
                          t.nodes.(home).n_remote_hits + 1;
                        wake_once ())
                  in
                  if not replied then fallback ())
            in
            if not sent then fallback ())
  end

(* ---- fault entry points ---------------------------------------------- *)

let crash_machine t m =
  if m < 0 || m >= t.p.machines then invalid_arg "Cluster.crash_machine";
  let node = t.nodes.(m) in
  if (not node.alive) || alive_count t <= 1 then false
  else begin
    node.alive <- false;
    Net.set_offline t.net m true;
    t.crashes <- t.crashes + 1;
    (* Fail-stop: every resident unfinished space is re-homed to a survivor
       (rotation from the next machine, spread by tenant index).  The state
       restore comes from elsewhere in the cluster, so it costs the fixed
       recovery latency plus the transfer time — not a net message from the
       dead machine. *)
    Array.iteri
      (fun i ten ->
        if
          ten.tn_home = m
          && (not ten.tn_in_flight)
          && not (System.finished ten.tn_job)
        then
          match next_alive t (m + 1 + i) with
          | None -> ()
          | Some dst ->
              let ft =
                match System.ft_sa ten.tn_job with
                | Some ft -> ft
                | None -> invalid_arg "Cluster: tenant is not an SA job"
              in
              let sp = Ft_sa.space ft in
              System.disown node.sys ten.tn_job;
              let pkg = Kernel.detach_space (System.kernel node.sys) sp in
              ten.tn_in_flight <- true;
              t.evacuations <- t.evacuations + 1;
              let delay =
                crash_recovery + (state_bytes pkg * net_ns_per_byte)
              in
              ignore
                (Sim.schedule_after t.sim ~delay (fun () ->
                     let final = land_on t ~dst pkg ft ten in
                     t.nodes.(final).n_migs_in <-
                       t.nodes.(final).n_migs_in + 1)))
      t.tenants;
    true
  end

let partition t a b ~hold =
  if a < 0 || a >= t.p.machines || b < 0 || b >= t.p.machines || a = b then
    false
  else begin
    Net.partition t.net ~a ~b ~until:(Time.add (Sim.now t.sim) hold);
    t.partitions <- t.partitions + 1;
    true
  end

(* ---- construction ----------------------------------------------------- *)

let create p =
  if p.machines <= 0 then invalid_arg "Cluster.create: machines";
  if p.cpus <= 0 then invalid_arg "Cluster.create: cpus";
  if p.tenants <= 0 then invalid_arg "Cluster.create: tenants";
  if p.cache_blocks < 0 then invalid_arg "Cluster.create: cache_blocks";
  let sim = Sim.create () in
  Trace.set_recording (Sim.trace sim) false;
  let ids = ref 0 in
  let nodes =
    Array.init p.machines (fun m ->
        {
          node_id = m;
          sys = System.create_on ~machine_id:m ~ids ~cpus:p.cpus sim;
          alive = true;
          n_migs_in = 0;
          n_migs_out = 0;
          n_remote_hits = 0;
          n_remote_fallbacks = 0;
        })
  in
  let net =
    Net.create sim ~machines:p.machines ~latency:net_latency
      ~ns_per_byte:net_ns_per_byte ~jitter_us:p.net_jitter_us
      ~seed:(p.seed + 0x6e65)
  in
  let mtp =
    {
      Server.mt_tenants = p.tenants;
      mt_requests = p.requests;
      mt_classes = Server.default_classes;
      mt_seed = p.seed;
      mt_cache_blocks = p.cache_blocks;
    }
  in
  (* Skewed placement: the last machine starts empty, so the cluster
     allocator always has an imbalance to correct. *)
  let home_of i = if p.machines > 1 then i mod (p.machines - 1) else 0 in
  let tenants =
    Array.init p.tenants (fun i ->
        let cls = Server.tenant_class mtp i in
        let r = Recorder.create () in
        let home = home_of i in
        let job =
          System.submit nodes.(home).sys ~backend:`Fastthreads_on_sa
            ~name:(Server.tenant_name mtp i)
            ?cache_capacity:
              (if p.cache_blocks > 0 then Some p.cache_blocks else None)
            ~prewarm_cache:false ~space_priority:cls.Server.tc_priority
            ~observer:(Recorder.observer r)
            (Server.tenant_program mtp i)
        in
        (* Prewarm only the home machine's slice of the block universe:
           out-of-slice reads miss and go looking for a peer. *)
        (match System.cache job with
        | Some c ->
            let lo = home * p.cache_blocks / p.machines
            and hi = (home + 1) * p.cache_blocks / p.machines in
            for b = lo to hi - 1 do
              Buffer_cache.fill c b
            done
        | None -> ());
        {
          tn_index = i;
          tn_cls = cls;
          tn_rec = r;
          tn_job = job;
          tn_home0 = home;
          tn_home = home;
          tn_in_flight = false;
        })
  in
  let disk_latency = (System.costs nodes.(0).sys).Cost_model.io_latency in
  let t =
    {
      p;
      sim;
      net;
      nodes;
      tenants;
      disk_latency;
      alloc = None;
      migrations = 0;
      evacuations = 0;
      crashes = 0;
      partitions = 0;
    }
  in
  if p.cache_blocks > 0 && p.machines > 1 then
    Array.iter
      (fun ten ->
        match System.ft_core_state ten.tn_job with
        | Some core ->
            Ft_core.set_remote_fill core
              (Some (fun block -> resolve_remote t ten block))
        | None -> ())
      tenants;
  let hooks =
    {
      Cluster_alloc.h_alive = (fun m -> t.nodes.(m).alive);
      h_load = (fun m -> load t m);
      h_active = (fun () -> active t);
      h_migrate_one = (fun ~src ~dst -> try_migrate t ~src ~dst);
    }
  in
  t.alloc <- Some (Cluster_alloc.start sim net hooks);
  t

let run ?(horizon = Time.s 1800) t =
  let deadline = Time.add (Sim.now t.sim) horizon in
  Sim.run_while t.sim (fun () ->
      active t && Time.compare (Sim.now t.sim) deadline <= 0)

(* ---- results ---------------------------------------------------------- *)

type machine_row = {
  m_id : int;
  m_alive : bool;
  m_tenants_final : int;
  m_upcalls : int;
  m_preemptions : int;
  m_reallocations : int;
  m_migs_in : int;
  m_migs_out : int;
  m_remote_hits : int;
  m_remote_fallbacks : int;
  m_util : float;
}

type tenant_row = {
  c_tenant : int;
  c_class : string;
  c_home0 : int;
  c_home : int;
  c_completed : int;
  c_p50_us : float;
  c_p99_us : float;
  c_p999_us : float;
  c_violations : int;
  c_slo_ms : float;
}

type summary = {
  cl_machines : int;
  cl_cpus : int;
  cl_tenants : int;
  cl_requests_total : int;
  cl_migrations : int;
  cl_evacuations : int;
  cl_crashes : int;
  cl_partitions : int;
  cl_remote_hits : int;
  cl_remote_fallbacks : int;
  cl_net : Net.stats;
  cl_alloc : Cluster_alloc.stats;
  cl_machine_rows : machine_row list;
  cl_tenant_rows : tenant_row list;
  cl_elapsed_ms : float;
  cl_completed_all : bool;
}

let summary t =
  let now = Sim.now t.sim in
  let machine_rows =
    Array.to_list
      (Array.map
         (fun node ->
           let st = Kernel.stats (System.kernel node.sys) in
           let tenants_final =
             Array.fold_left
               (fun acc ten ->
                 if ten.tn_home = node.node_id && not ten.tn_in_flight then
                   acc + 1
                 else acc)
               0 t.tenants
           in
           {
             m_id = node.node_id;
             m_alive = node.alive;
             m_tenants_final = tenants_final;
             m_upcalls = st.Kernel.upcalls;
             m_preemptions = st.Kernel.preemptions;
             m_reallocations = st.Kernel.reallocations;
             m_migs_in = node.n_migs_in;
             m_migs_out = node.n_migs_out;
             m_remote_hits = node.n_remote_hits;
             m_remote_fallbacks = node.n_remote_fallbacks;
             m_util = Machine.utilization (System.machine node.sys) ~upto:now;
           })
         t.nodes)
  in
  let tenant_rows =
    Array.to_list
      (Array.map
         (fun ten ->
           let s =
             Server.summarize ~allow_incomplete:true ten.tn_rec
               ~requests:t.p.requests ~slo:ten.tn_cls.Server.tc_slo
           in
           {
             c_tenant = ten.tn_index;
             c_class = ten.tn_cls.Server.tc_class;
             c_home0 = ten.tn_home0;
             c_home = ten.tn_home;
             c_completed = s.Server.ts_completed;
             c_p50_us = s.Server.ts_p50_us;
             c_p99_us = s.Server.ts_p99_us;
             c_p999_us = s.Server.ts_p999_us;
             c_violations = s.Server.ts_violations;
             c_slo_ms = s.Server.ts_slo_ms;
           })
         t.tenants)
  in
  {
    cl_machines = t.p.machines;
    cl_cpus = t.p.cpus;
    cl_tenants = t.p.tenants;
    cl_requests_total =
      List.fold_left (fun acc r -> acc + r.c_completed) 0 tenant_rows;
    cl_migrations = t.migrations;
    cl_evacuations = t.evacuations;
    cl_crashes = t.crashes;
    cl_partitions = t.partitions;
    cl_remote_hits =
      Array.fold_left (fun acc n -> acc + n.n_remote_hits) 0 t.nodes;
    cl_remote_fallbacks =
      Array.fold_left (fun acc n -> acc + n.n_remote_fallbacks) 0 t.nodes;
    cl_net = Net.stats t.net;
    cl_alloc =
      (match t.alloc with
      | Some a -> Cluster_alloc.stats a
      | None ->
          {
            Cluster_alloc.summaries = 0;
            summary_drops = 0;
            commands = 0;
            command_drops = 0;
            rebalances = 0;
          });
    cl_machine_rows = machine_rows;
    cl_tenant_rows = tenant_rows;
    cl_elapsed_ms = Time.to_ms now;
    cl_completed_all = not (active t);
  }
