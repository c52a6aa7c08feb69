module Time = Sa_engine.Time
module Rng = Sa_engine.Rng
module Stats = Sa_engine.Stats
module P = Sa_program.Program
module B = P.Build

type params = {
  requests : int;
  mean_interarrival : Time.span;
  service_compute : Time.span;
  io_probability : float;
  io_latency : Time.span;
  seed : int;
}

let default_params =
  {
    requests = 200;
    mean_interarrival = Time.ms 1;
    service_compute = Time.ms 1;
    io_probability = 0.8;
    io_latency = Time.ms 20;
    seed = 7;
  }

let program p =
  if p.requests <= 0 then invalid_arg "Server.program: requests";
  let rng = Rng.create p.seed in
  (* Pre-draw the arrival gaps and I/O coin flips so the program is a pure
     value (deterministic across backends). *)
  let gaps =
    Array.init p.requests (fun _ ->
        max 1
          (int_of_float
             (Rng.exponential rng
                ~mean:(float_of_int p.mean_interarrival))))
  in
  let does_io =
    Array.init p.requests (fun _ -> Rng.float rng 1.0 < p.io_probability)
  in
  let handler i =
    B.to_program
      (let open B in
       let* () = when_ does_io.(i) (io p.io_latency) in
       let* () = compute p.service_compute in
       stamp ((2 * i) + 1))
  in
  B.to_program
    (let open B in
     let* tids =
       let rec accept acc i =
         if i >= p.requests then return acc
         else
           (* the listener blocks in the kernel until the next arrival;
              the arrival is stamped before the handler is forked so any
              delay in starting the handler counts as response time *)
           let* () = io gaps.(i) in
           let* () = stamp (2 * i) in
           let* tid = fork (handler i) in
           accept (tid :: acc) (i + 1)
       in
       accept [] 0
     in
     iter_list tids (fun tid -> join tid))

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving: the datacenter-scale scenario                  *)
(* ------------------------------------------------------------------ *)

(* N tenants, each an address space with its own handler pool, all
   competing for the machine through the space-sharing allocator.  Each
   tenant runs an open-loop listener: arrivals are a Poisson process at
   the class base rate *plus* deterministic seeded bursts (a clump of
   near-simultaneous requests every [tc_burst_every]), the heavy-tailed
   shape that separates p50 from p999.  A request fans out across
   [tc_fan_out] uthreads (optional kernel I/O + compute each) and
   fans back in before its completion stamp, so tail latency sees the
   slowest subrequest. *)

type tenant_class = {
  tc_class : string;
  tc_mean_interarrival : Time.span;  (* Poisson base rate *)
  tc_burst_every : Time.span;  (* deterministic burst period; 0 disables *)
  tc_burst_size : int;  (* requests per burst *)
  tc_fan_out : int;  (* subrequest uthreads per request *)
  tc_service_compute : Time.span;  (* compute per subrequest *)
  tc_io_probability : float;  (* per-subrequest chance of kernel I/O *)
  tc_io_latency : Time.span;
  tc_slo : Time.span;  (* per-request latency SLO *)
  tc_priority : int;  (* address-space allocation priority *)
}

let interactive_class =
  {
    tc_class = "interactive";
    tc_mean_interarrival = Time.ms 2;
    tc_burst_every = Time.ms 50;
    tc_burst_size = 12;
    tc_fan_out = 4;
    tc_service_compute = Time.us 200;
    tc_io_probability = 0.3;
    tc_io_latency = Time.ms 5;
    tc_slo = Time.ms 20;
    tc_priority = 1;
  }

let bursty_class =
  {
    tc_class = "bursty";
    tc_mean_interarrival = Time.ms 5;
    tc_burst_every = Time.ms 100;
    tc_burst_size = 30;
    tc_fan_out = 2;
    tc_service_compute = Time.us 500;
    tc_io_probability = 0.5;
    tc_io_latency = Time.ms 10;
    tc_slo = Time.ms 50;
    tc_priority = 0;
  }

let batch_class =
  {
    tc_class = "batch";
    tc_mean_interarrival = Time.ms 10;
    tc_burst_every = 0;
    tc_burst_size = 0;
    tc_fan_out = 8;
    tc_service_compute = Time.ms 2;
    tc_io_probability = 0.1;
    tc_io_latency = Time.ms 20;
    tc_slo = Time.ms 200;
    tc_priority = 0;
  }

let default_classes = [ interactive_class; bursty_class; batch_class ]

type mt_params = {
  mt_tenants : int;
  mt_requests : int;  (* per tenant *)
  mt_classes : tenant_class list;  (* tenant i draws class (i mod len) *)
  mt_seed : int;
  mt_cache_blocks : int;
      (* universe of buffer-cache blocks each subrequest reads from; 0
         disables the cache-read ops entirely (and draws no extra randoms,
         so pre-existing trajectories are untouched) *)
}

let default_mt_params =
  {
    mt_tenants = 6;
    mt_requests = 200;
    mt_classes = default_classes;
    mt_seed = 11;
    mt_cache_blocks = 0;
  }

let tenant_class p i =
  if p.mt_tenants <= 0 then invalid_arg "Server.tenant_class: tenants";
  if p.mt_classes = [] then invalid_arg "Server.tenant_class: classes";
  List.nth p.mt_classes (i mod List.length p.mt_classes)

let tenant_name p i = Printf.sprintf "t%02d-%s" i (tenant_class p i).tc_class

(* Each tenant derives an independent deterministic stream from the run
   seed, so adding a tenant never perturbs the others' draws. *)
let tenant_rng p i = Rng.create (p.mt_seed + (0x9e3779b9 * (i + 1)))

(* Absolute arrival instants: a Poisson stream of [mt_requests] draws,
   merged in time order with the deterministic burst clumps that fall
   inside its span, truncated back to exactly [mt_requests] arrivals. *)
let arrival_gaps p cls rng =
  let n = p.mt_requests in
  let poisson =
    let t = ref 0 in
    Array.init n (fun _ ->
        let gap =
          max 1
            (int_of_float
               (Rng.exponential rng
                  ~mean:(float_of_int cls.tc_mean_interarrival)))
        in
        t := !t + gap;
        !t)
  in
  let horizon = poisson.(n - 1) in
  let bursts =
    if cls.tc_burst_every <= 0 || cls.tc_burst_size <= 0 then []
    else begin
      let acc = ref [] in
      let k = ref 1 in
      while !k * cls.tc_burst_every <= horizon do
        for j = 0 to cls.tc_burst_size - 1 do
          (* 1 ns apart: simultaneous for every purpose but ordering *)
          acc := ((!k * cls.tc_burst_every) + j) :: !acc
        done;
        incr k
      done;
      !acc
    end
  in
  let all = Array.append poisson (Array.of_list bursts) in
  Array.sort compare all;
  let times = Array.sub all 0 n in
  let gaps = Array.make n 0 in
  let prev = ref 0 in
  Array.iteri
    (fun i t ->
      gaps.(i) <- max 1 (t - !prev);
      prev := t)
    times;
  gaps

let tenant_program p tenant =
  if p.mt_requests <= 0 then invalid_arg "Server.tenant_program: requests";
  let cls = tenant_class p tenant in
  if cls.tc_fan_out <= 0 then invalid_arg "Server.tenant_program: fan_out";
  let rng = tenant_rng p tenant in
  let gaps = arrival_gaps p cls rng in
  (* Pre-draw every subrequest's I/O coin so the program is a pure value. *)
  let does_io =
    Array.init p.mt_requests (fun _ ->
        Array.init cls.tc_fan_out (fun _ ->
            Rng.float rng 1.0 < cls.tc_io_probability))
  in
  (* Per-subrequest cache blocks ([-1] = no cache read).  Drawn after the
     I/O coins so a zero-block configuration draws nothing extra. *)
  let block_of =
    if p.mt_cache_blocks <= 0 then fun _ _ -> -1
    else begin
      let blocks =
        Array.init p.mt_requests (fun _ ->
            Array.init cls.tc_fan_out (fun _ -> Rng.int rng p.mt_cache_blocks))
      in
      fun i j -> blocks.(i).(j)
    end
  in
  let subrequest coin blk =
    B.to_program
      (let open B in
       let* () = when_ (blk >= 0) (cache_read (max blk 0)) in
       let* () = when_ coin (io cls.tc_io_latency) in
       compute cls.tc_service_compute)
  in
  let handler i =
    B.to_program
      (let open B in
       let* () =
         if cls.tc_fan_out = 1 then
           let blk = block_of i 0 in
           let* () = when_ (blk >= 0) (cache_read (max blk 0)) in
           let* () = when_ does_io.(i).(0) (io cls.tc_io_latency) in
           compute cls.tc_service_compute
         else
           let* tids =
             let rec spawn acc j =
               if j >= cls.tc_fan_out then return acc
               else
                 let* tid = fork (subrequest does_io.(i).(j) (block_of i j)) in
                 spawn (tid :: acc) (j + 1)
             in
             spawn [] 0
           in
           iter_list tids (fun tid -> join tid)
       in
       stamp ((2 * i) + 1))
  in
  B.to_program
    (let open B in
     let* tids =
       let rec accept acc i =
         if i >= p.mt_requests then return acc
         else
           let* () = io gaps.(i) in
           let* () = stamp (2 * i) in
           let* tid = fork (handler i) in
           accept (tid :: acc) (i + 1)
       in
       accept [] 0
     in
     iter_list tids (fun tid -> join tid))

type summary = {
  ts_completed : int;
  ts_mean_us : float;
  ts_p50_us : float;
  ts_p95_us : float;
  ts_p99_us : float;
  ts_p999_us : float;
  ts_max_us : float;
  ts_slo_ms : float;
  ts_violations : int;
  ts_violation_frac : float;
  ts_makespan_ms : float;
}

(* Latency percentile resolution: 64 sub-buckets per octave keeps the
   relative quantile error under 0.8% at O(1) memory in the request
   count — the reason a million-request tenant costs no more to
   summarize than a hundred-request one. *)
let latency_histogram () =
  Stats.Log_histogram.create ~lo:1.0 ~hi:1e8 ~sub_buckets:64

let summarize ?(allow_incomplete = false) recorder ~requests ~slo =
  let stamps = Recorder.stamps recorder in
  let arrivals = Hashtbl.create requests in
  let hist = latency_histogram () in
  let completed = ref 0 in
  let violations = ref 0 in
  let first_arrival = ref None in
  let last_completion = ref None in
  List.iter
    (fun (id, time) ->
      if id mod 2 = 0 then begin
        if !first_arrival = None then first_arrival := Some time;
        Hashtbl.replace arrivals (id / 2) time
      end
      else begin
        match Hashtbl.find_opt arrivals (id / 2) with
        | Some t0 ->
            incr completed;
            last_completion := Some time;
            let lat = Time.diff time t0 in
            if lat > slo then incr violations;
            Stats.Log_histogram.add hist (float_of_int lat /. 1000.0)
        | None -> failwith "Server.summarize: completion without arrival"
      end)
    stamps;
  if !completed <> requests && not allow_incomplete then
    failwith
      (Printf.sprintf "Server.summarize: %d of %d requests completed"
         !completed requests);
  (* "First arrival to last completion", so a trailing arrival that never
     completed does not stretch the makespan of a partial run. *)
  let makespan_ms =
    match (!first_arrival, !last_completion) with
    | Some t0, Some t1 -> float_of_int (Time.diff t1 t0) /. 1e6
    | None, _ | _, None -> 0.0
  in
  (* A run cut short by a violation may have completed nothing at all. *)
  let if_any f = if !completed = 0 then Float.nan else f hist in
  let pct q = if_any (fun h -> Stats.Log_histogram.percentile h q) in
  {
    ts_completed = !completed;
    ts_mean_us = if_any Stats.Log_histogram.mean;
    ts_p50_us = pct 50.0;
    ts_p95_us = pct 95.0;
    ts_p99_us = pct 99.0;
    ts_p999_us = pct 99.9;
    ts_max_us = if_any Stats.Log_histogram.max;
    ts_slo_ms = Time.span_to_ms slo;
    ts_violations = !violations;
    ts_violation_frac =
      (if !completed = 0 then Float.nan
       else float_of_int !violations /. float_of_int !completed);
    ts_makespan_ms = makespan_ms;
  }

type tenant_summary = summary

let summarize_tenant = summarize
