module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
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

(* The rebalancer's tick period per machine, the max-load minus min-load
   spread (in runnable threads) that triggers a rebalance, and the wire
   sizes of a load summary and of a rebalance command. *)
let alloc_period = Time.ms 2
let alloc_threshold = 8
let summary_bytes = 64
let command_bytes = 32

type node = {
  node_id : int;
  sys : System.t;
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
}

type t = {
  p : params;
  sim : Sim.t;
  net : Net.t;
  nodes : node array;
  tenants : tenant array;
  disk_latency : Time.span;
  latest : int array;
      (* the rebalancer's last load heard from each machine; -1 = never *)
  mutable cooldown_until : Time.t;  (* no new rebalance before this instant *)
  mutable summaries_sent : int;
  mutable summaries_dropped : int;
  mutable commands_sent : int;
  mutable evacuations : int;
  mutable partitions : int;
}

let sim t = t.sim
let net t = t.net
let machines t = t.p.machines
let systems t = Array.map (fun n -> n.sys) t.nodes

(* A machine is alive until [crash_machine] takes it offline: the net
   keeps that fact. *)
let alive t m =
  if m < 0 || m >= t.p.machines then invalid_arg "Cluster.alive";
  not (Net.offline t.net m)

let active t =
  Array.exists (fun ten -> not (System.finished ten.tn_job)) t.tenants

let crashes t =
  let n = ref 0 in
  for m = 0 to t.p.machines - 1 do
    if not (alive t m) then incr n
  done;
  !n

(* First alive machine at or after [from], scanning the ring once. *)
let next_alive t from =
  let n = t.p.machines in
  let rec go k =
    if k >= n then None
    else
      let m = (from + k) mod n in
      if alive t m then Some m else go (k + 1)
  in
  go 0

(* ---- placement -------------------------------------------------------- *)

(* A tenant lives where its space is registered, so both facts are read
   from the kernel.  A space in transit still names the kernel it left as
   its home, but no kernel has it registered. *)
let home ten =
  Machine.id (Kernel.machine (Kernel.space_home (System.space ten.tn_job)))

(* Registered with machine [m]'s kernel, so not in transit. *)
let resident ten m =
  let sp = System.space ten.tn_job in
  let k = Kernel.space_home sp in
  Machine.id (Kernel.machine k) = m
  && Option.is_some (Kernel.find_space k (Kernel.space_id sp))

let resident_live ten m = resident ten m && not (System.finished ten.tn_job)

(* ---- migration -------------------------------------------------------- *)

(* Land a detached space on [dst] (or, if it died while the package was in
   flight, the next alive machine after it).  Returns the final home. *)
let land_on t ~dst pkg ft =
  let dst =
    if alive t dst then dst
    else match next_alive t (dst + 1) with Some m -> m | None -> dst
  in
  Kernel.attach_space (System.kernel t.nodes.(dst).sys) pkg;
  Ft_sa.nudge_demand ft;
  dst

let state_bytes pkg =
  mig_base_bytes + (mig_bytes_per_act * Kernel.migration_act_count pkg)

(* Detach the tenant's space from [src] and hand [send] the state
   transfer's size and the arrival, which lands the space on [dst] and
   counts it there.  If [send] reports the package could not leave (a
   fresh partition), the space lands straight back on [src]. *)
let ship t ~src ~dst ten send =
  let ft =
    match System.ft_sa ten.tn_job with
    | Some ft -> ft
    | None -> invalid_arg "Cluster: tenant is not an SA job"
  in
  let pkg =
    Kernel.detach_space (System.kernel t.nodes.(src).sys) (Ft_sa.space ft)
  in
  let sent =
    send (state_bytes pkg) (fun () ->
        let final = land_on t ~dst pkg ft in
        t.nodes.(final).n_migs_in <- t.nodes.(final).n_migs_in + 1)
  in
  if not sent then ignore (land_on t ~dst:src pkg ft);
  sent

let do_migrate t ~src ~dst ten =
  let sent =
    ship t ~src ~dst ten (fun bytes arrive ->
        Net.send t.net ~src ~dst ~bytes arrive)
  in
  if sent then t.nodes.(src).n_migs_out <- t.nodes.(src).n_migs_out + 1;
  sent

(* Pick the busiest eligible tenant on [src]: resident, unfinished, with
   runnable threads; most runnable wins, ties to the lowest index. *)
let try_migrate t ~src ~dst =
  if
    src = dst
    || (not (alive t src))
    || (not (alive t dst))
    || not (Net.reachable t.net ~src ~dst)
  then false
  else begin
    let best = ref None in
    Array.iter
      (fun ten ->
        if resident_live ten src then
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
      if resident_live ten m then
        match System.ft_core_state ten.tn_job with
        | Some core -> total := !total + Ft_core.runnable_threads core
        | None -> ())
    t.tenants;
  !total

(* Placement first: it is an id compare, so most tenants never reach the
   cache lookup. *)
let peer_has_block t peer block =
  Array.exists
    (fun ten ->
      resident ten peer
      &&
      match System.cache ten.tn_job with
      | Some c -> Buffer_cache.resident c block
      | None -> false)
    t.tenants

(* Buffer-cache miss hook: probe the other machines in rotation order from
   the tenant's current home; a hit is a request/response round trip over
   the net, with a disk fallback if the peer or link dies mid-flight. *)
let resolve_remote t ten block =
  if t.p.machines < 2 then None
  else begin
    let m = t.p.machines in
    let home = home ten in
    let rec probe k =
      if k >= m - 1 then None
      else
        let peer = (home + 1 + k) mod m in
        if
          alive t peer
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

(* ---- rebalancer ------------------------------------------------------- *)

(* The lowest-numbered machine alive. *)
let coordinator t = Option.value (next_alive t 0) ~default:0

(* Coordinator tick: refresh our own load locally, then compare the
   freshest view of every live machine. *)
let evaluate t me =
  t.latest.(me) <- load t me;
  if Time.compare (Sim.now t.sim) t.cooldown_until >= 0 then begin
    let hi = ref (-1) and lo = ref (-1) in
    for m = 0 to t.p.machines - 1 do
      if alive t m && t.latest.(m) >= 0 then begin
        if !hi < 0 || t.latest.(m) > t.latest.(!hi) then hi := m;
        if !lo < 0 || t.latest.(m) < t.latest.(!lo) then lo := m
      end
    done;
    let src = !hi and dst = !lo in
    if
      src >= 0 && src <> dst
      && t.latest.(src) - t.latest.(dst) > alloc_threshold
    then begin
      (* Consume the summaries this decision was based on, and hold off
         long enough for its effect to show up in fresh reports:
         re-deciding from already-acted-on load is how rebalancers
         thrash. *)
      t.latest.(src) <- -1;
      t.latest.(dst) <- -1;
      t.cooldown_until <- Time.add (Sim.now t.sim) (2 * alloc_period);
      t.commands_sent <- t.commands_sent + 1;
      if src = me then ignore (try_migrate t ~src ~dst)
      else
        ignore
          (Net.send t.net ~src:me ~dst:src ~bytes:command_bytes (fun () ->
               ignore (try_migrate t ~src ~dst)))
    end
  end

let node_tick t m =
  if alive t m then begin
    let co = coordinator t in
    if m = co then evaluate t m
    else begin
      (* load as of send time: the coordinator sees stale truth *)
      let load = load t m in
      t.summaries_sent <- t.summaries_sent + 1;
      let delivered =
        Net.send t.net ~src:m ~dst:co ~bytes:summary_bytes (fun () ->
            t.latest.(m) <- load)
      in
      if not delivered then t.summaries_dropped <- t.summaries_dropped + 1
    end
  end

(* ---- fault entry points ---------------------------------------------- *)

let crash_machine t m =
  if m < 0 || m >= t.p.machines then invalid_arg "Cluster.crash_machine";
  if (not (alive t m)) || crashes t >= t.p.machines - 1 then false
  else begin
    Net.set_offline t.net m true;
    (* Fail-stop: every resident unfinished space is re-homed to a survivor
       (rotation from the next machine, spread by tenant index).  The state
       restore comes from elsewhere in the cluster, so it costs the fixed
       recovery latency plus the transfer time — not a net message from the
       dead machine. *)
    Array.iteri
      (fun i ten ->
        if resident_live ten m then
          match next_alive t (m + 1 + i) with
          | None -> ()
          | Some dst ->
              ignore
                (ship t ~src:m ~dst ten (fun bytes arrive ->
                     let delay = crash_recovery + (bytes * net_ns_per_byte) in
                     ignore (Sim.schedule_after t.sim ~delay arrive);
                     true));
              t.evacuations <- t.evacuations + 1)
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
  let ids = ref 0 in
  let nodes =
    Array.init p.machines (fun m ->
        {
          node_id = m;
          sys = System.create_on ~machine_id:m ~ids ~cpus:p.cpus sim;
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
      latest = Array.make p.machines (-1);
      cooldown_until = Time.zero;
      summaries_sent = 0;
      summaries_dropped = 0;
      commands_sent = 0;
      evacuations = 0;
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
  for m = 0 to p.machines - 1 do
    let rec tick () =
      ignore
        (Sim.schedule_after sim ~delay:alloc_period (fun () ->
             if active t then begin
               node_tick t m;
               tick ()
             end))
    in
    tick ()
  done;
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
  cl_alloc_summaries : int;
  cl_alloc_summary_drops : int;
  cl_alloc_commands : int;
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
                 if resident ten node.node_id then acc + 1 else acc)
               0 t.tenants
           in
           {
             m_id = node.node_id;
             m_alive = alive t node.node_id;
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
             c_home = home ten;
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
    cl_migrations = Array.fold_left (fun acc n -> acc + n.n_migs_out) 0 t.nodes;
    cl_evacuations = t.evacuations;
    cl_crashes = crashes t;
    cl_partitions = t.partitions;
    cl_remote_hits =
      Array.fold_left (fun acc n -> acc + n.n_remote_hits) 0 t.nodes;
    cl_remote_fallbacks =
      Array.fold_left (fun acc n -> acc + n.n_remote_fallbacks) 0 t.nodes;
    cl_net = Net.stats t.net;
    cl_alloc_summaries = t.summaries_sent;
    cl_alloc_summary_drops = t.summaries_dropped;
    cl_alloc_commands = t.commands_sent;
    cl_machine_rows = machine_rows;
    cl_tenant_rows = tenant_rows;
    cl_elapsed_ms = Time.to_ms now;
    cl_completed_all = not (active t);
  }
