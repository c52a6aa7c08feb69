(* Tests for the simulated hardware: processors, machine, buffer cache,
   I/O device, cost model. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module Cpu = Sa_hw.Cpu
module Machine = Sa_hw.Machine
module Buffer_cache = Sa_hw.Buffer_cache
module Io_device = Sa_hw.Io_device
module Cost_model = Sa_hw.Cost_model

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let occupant = Cpu.Occupant { space = 1; detail = "test" }

let cpu_tests =
  [
    Alcotest.test_case "segment completes after its length" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let done_at = ref Time.zero in
        Cpu.begin_work cpu ~occupant ~length:(Time.us 10) (fun () ->
            done_at := Sim.now sim);
        check Alcotest.bool "busy" true (Cpu.is_busy cpu);
        Sim.run sim;
        check Alcotest.int "completion time" (Time.us 10) (Time.to_ns !done_at);
        check Alcotest.bool "idle after" false (Cpu.is_busy cpu);
        check Alcotest.int "busy time" (Time.us 10) (Cpu.busy_time cpu));
    Alcotest.test_case "zero-length segment fires via queue" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let fired = ref false in
        Cpu.begin_work cpu ~occupant ~length:0 (fun () -> fired := true);
        check Alcotest.bool "not yet" false !fired;
        Sim.run sim;
        check Alcotest.bool "fired" true !fired);
    Alcotest.test_case "double dispatch rejected" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        Cpu.begin_work cpu ~occupant ~length:(Time.us 1) (fun () -> ());
        Alcotest.check_raises "busy"
          (Invalid_argument "Cpu.begin_work: cpu 0 already busy") (fun () ->
            Cpu.begin_work cpu ~occupant ~length:(Time.us 1) (fun () -> ())));
    Alcotest.test_case "preemption splits the segment exactly" `Quick
      (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let completed = ref false in
        Cpu.begin_work cpu ~occupant ~length:(Time.us 10) (fun () ->
            completed := true);
        ignore
          (Sim.schedule sim
             ~at:(Time.of_ns (Time.us 4))
             (fun () ->
               match Cpu.preempt cpu with
               | Some p ->
                   check Alcotest.int "elapsed" (Time.us 4) p.Cpu.elapsed;
                   check Alcotest.int "remaining" (Time.us 6) p.Cpu.remaining;
                   (* finish elsewhere: re-charge the remainder *)
                   Cpu.begin_work cpu ~occupant ~length:p.Cpu.remaining
                     p.Cpu.resume
               | None -> Alcotest.fail "expected busy cpu"));
        Sim.run sim;
        check Alcotest.bool "completed after resume" true !completed;
        check Alcotest.int "total busy" (Time.us 10) (Cpu.busy_time cpu);
        check Alcotest.int "ten us of work" (Time.us 10)
          (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "preempting idle cpu yields None" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        check Alcotest.bool "none" true (Cpu.preempt cpu = None));
    Alcotest.test_case "segment counter" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        Cpu.begin_work cpu ~occupant ~length:1 (fun () ->
            Cpu.begin_work cpu ~occupant ~length:1 (fun () -> ()));
        Sim.run sim;
        check Alcotest.int "two segments" 2 (Cpu.segment_count cpu));
  ]

(* ------------------------------------------------------------------ *)
(* Cpu spin segments                                                   *)
(* ------------------------------------------------------------------ *)

let slice = Time.us 100

(* Every [Cpu] trace record as (time, kind, name, cpu). *)
let record_cpu_spans sim =
  let tr = Sim.trace sim in
  let log = ref [] in
  Trace.add_sink tr (fun r ->
      if r.Trace.category = Trace.Cpu then
        log :=
          ( Time.to_ns r.Trace.time,
            (match r.Trace.kind with
            | Trace.Span_begin -> "B"
            | Trace.Span_end -> "E"
            | Trace.Instant | Trace.Counter _ -> "?"),
            r.Trace.name,
            r.Trace.cpu )
          :: !log);
  fun () -> List.rev !log

(* Run [f] at simulated instant [ns]. *)
let at sim ns f = ignore (Sim.schedule sim ~at:(Time.of_ns ns) f)

(* Polls counted: [poll] reports work from the [at]-th boundary on. *)
let counting_poll ?(at = max_int) () =
  let n = ref 0 in
  ( n,
    fun () ->
      incr n;
      !n >= at )

let spin_tests =
  [
    Alcotest.test_case "empty boundaries match a chain of segments" `Quick
      (fun () ->
        let k = 7 in
        (* two CPUs spin k slices each; a third sim charges the same k
           slices as k chained begin_work segments *)
        let sim = Sim.create () in
        let spans = record_cpu_spans sim in
        let cpus = [ Cpu.create sim 0; Cpu.create sim 1 ] in
        let ended = ref [] in
        List.iter
          (fun cpu ->
            Cpu.begin_spin cpu ~occupant ~slice ~length:(k * slice)
              ~poll:(fun () -> false)
              (fun () -> ended := (Cpu.id cpu, Sim.now sim) :: !ended))
          cpus;
        for b = 0 to k - 1 do
          Sim.run ~until:(Time.of_ns ((b * slice) + (slice / 2))) sim;
          check Alcotest.int "one pending event per spinning cpu" 2
            (Sim.pending sim)
        done;
        Sim.run sim;
        let ref_sim = Sim.create () in
        let ref_spans = record_cpu_spans ref_sim in
        let ref_cpus = [ Cpu.create ref_sim 0; Cpu.create ref_sim 1 ] in
        List.iter
          (fun cpu ->
            let rec seg n =
              Cpu.begin_work cpu ~occupant ~length:slice (fun () ->
                  if n > 1 then seg (n - 1))
            in
            seg k)
          ref_cpus;
        Sim.run ref_sim;
        List.iter2
          (fun cpu ref_cpu ->
            check Alcotest.int "busy time" (Cpu.busy_time ref_cpu)
              (Cpu.busy_time cpu);
            check Alcotest.int "segments" k (Cpu.segment_count ref_cpu);
            check Alcotest.int "segment count" (Cpu.segment_count ref_cpu)
              (Cpu.segment_count cpu);
            check Alcotest.bool "idle after" false (Cpu.is_busy cpu))
          cpus ref_cpus;
        check
          Alcotest.(list (pair int int))
          "continuations ran once each, at the end"
          [ (0, k * slice); (1, k * slice) ]
          (List.rev_map (fun (c, t) -> (c, Time.to_ns t)) !ended);
        check Alcotest.int "a begin and an end per slice" (2 * 2 * k)
          (List.length (spans ()));
        check
          Alcotest.(list (pair (pair int string) (pair string int)))
          "Cpu trace spans"
          (List.map (fun (t, e, n, c) -> ((t, e), (n, c))) (ref_spans ()))
          (List.map (fun (t, e, n, c) -> ((t, e), (n, c))) (spans ())));
    Alcotest.test_case "poll reporting work at boundary k ends the spin"
      `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let start = Time.us 3 in
        let polls, poll = counting_poll ~at:4 () in
        let ran = ref [] in
        at sim start (fun () ->
            Cpu.begin_spin cpu ~occupant ~slice ~length:(Time.ms 1) ~poll
              (fun () -> ran := Time.to_ns (Sim.now sim) :: !ran));
        Sim.run sim;
        check Alcotest.(list int) "k ran once, at boundary 4"
          [ start + (4 * slice) ]
          !ran;
        check Alcotest.int "polled 4 times" 4 !polls;
        check Alcotest.int "busy for 4 slices" (4 * slice) (Cpu.busy_time cpu);
        check Alcotest.int "4 segments" 4 (Cpu.segment_count cpu);
        check Alcotest.bool "idle" false (Cpu.is_busy cpu);
        check Alcotest.int "no tick left" 0 (Sim.pending sim));
    Alcotest.test_case "the last boundary ends at the spin's length" `Quick
      (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let length = (2 * slice) + (slice / 4) in
        let polls, poll = counting_poll () in
        let ran = ref [] in
        Cpu.begin_spin cpu ~occupant ~slice ~length ~poll (fun () ->
            ran := Time.to_ns (Sim.now sim) :: !ran);
        Sim.run sim;
        check Alcotest.(list int) "ends at length" [ length ] !ran;
        check Alcotest.int "polled at every boundary" 3 !polls;
        check Alcotest.int "three segments" 3 (Cpu.segment_count cpu);
        check Alcotest.int "busy for the whole length" length
          (Cpu.busy_time cpu));
    Alcotest.test_case "preempt mid-slice credits the partial slice only"
      `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let polls, poll = counting_poll () in
        let ran = ref false in
        Cpu.begin_spin cpu ~occupant ~slice ~length:(Time.ms 1) ~poll
          (fun () -> ran := true);
        at sim ((2 * slice) + Time.us 30) (fun () ->
            (match Cpu.preempt cpu with
            | Some p ->
                check Alcotest.int "elapsed" (Time.us 30) p.Cpu.elapsed;
                check Alcotest.int "remaining" (slice - Time.us 30)
                  p.Cpu.remaining
            | None -> Alcotest.fail "expected a busy cpu");
            check Alcotest.int "busy: two slices and the partial"
              ((2 * slice) + Time.us 30)
              (Cpu.busy_time cpu);
            check Alcotest.int "tick cancelled" 0 (Sim.pending sim));
        Sim.run sim;
        check Alcotest.bool "continuation dropped with the context" false !ran;
        check Alcotest.int "no boundary after the preempt" 2 !polls;
        check Alcotest.bool "idle" false (Cpu.is_busy cpu));
    Alcotest.test_case "a preempted spin resumes for its unspent length"
      `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let length = Time.ms 1 and freeze = Time.us 700 in
        let polls, poll = counting_poll () in
        let ran = ref [] in
        Cpu.begin_spin cpu ~occupant ~slice ~length ~poll (fun () ->
            ran := Time.to_ns (Sim.now sim) :: !ran);
        at sim ((3 * slice) + Time.us 40) (fun () ->
            let p = Option.get (Cpu.preempt cpu) in
            ignore
              (Sim.schedule_after sim ~delay:freeze (fun () ->
                   Cpu.begin_work cpu ~occupant ~length:p.Cpu.remaining
                     p.Cpu.resume)));
        Sim.run sim;
        check Alcotest.(list int) "ends shifted by the freeze"
          [ length + freeze ]
          !ran;
        check Alcotest.int "every boundary polled" 10 !polls;
        check Alcotest.int "busy for the whole length" length
          (Cpu.busy_time cpu));
    Alcotest.test_case "begin_spin on a busy cpu raises" `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        Cpu.begin_work cpu ~occupant ~length:(Time.us 1) ignore;
        Alcotest.check_raises "busy"
          (Invalid_argument "Cpu.begin_spin: cpu 0 already busy") (fun () ->
            Cpu.begin_spin cpu ~occupant ~slice ~length:slice
              ~poll:(fun () -> false)
              ignore));
    Alcotest.test_case "boundary tick keeps its place among same-instant events"
      `Quick (fun () ->
        let sim = Sim.create () in
        let cpu = Cpu.create sim 0 in
        let polls, poll = counting_poll () in
        let early = ref (-1) and middle = ref (-1) and late = ref (-1) in
        (* scheduled before boundary 2 fires: ahead of boundary 3's tick *)
        at sim (3 * slice) (fun () -> early := !polls);
        Cpu.begin_spin cpu ~occupant ~slice ~length:(Time.ms 1) ~poll ignore;
        at sim (slice + (slice / 2)) (fun () ->
            at sim (3 * slice) (fun () -> middle := !polls));
        (* scheduled once boundary 2 has fired: after boundary 3's tick,
           as after the begin_work a per-slice charge would have issued *)
        at sim ((2 * slice) + 1) (fun () ->
            at sim (3 * slice) (fun () -> late := !polls));
        Sim.run sim;
        check Alcotest.int "earlier event before the tick" 2 !early;
        check Alcotest.int "event from mid-slice 2 before the tick" 2 !middle;
        check Alcotest.int "later event after the tick" 3 !late);
  ]

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_tests =
  [
    Alcotest.test_case "construction and lookup" `Quick (fun () ->
        let sim = Sim.create () in
        let m = Machine.create sim ~cpus:4 in
        check Alcotest.int "count" 4 (Machine.cpu_count m);
        check Alcotest.int "id" 2 (Cpu.id (Machine.cpu m 2));
        Alcotest.check_raises "bad id" (Invalid_argument "Machine.cpu: id")
          (fun () -> ignore (Machine.cpu m 4)));
    Alcotest.test_case "utilization" `Quick (fun () ->
        let sim = Sim.create () in
        let m = Machine.create sim ~cpus:2 in
        Cpu.begin_work (Machine.cpu m 0) ~occupant ~length:(Time.us 10)
          (fun () -> ());
        Sim.run sim;
        (* one of two cpus busy for the whole window: 50% *)
        check (Alcotest.float 1e-9) "util" 0.5
          (Machine.utilization m ~upto:(Sim.now sim)));
  ]

(* ------------------------------------------------------------------ *)
(* Buffer cache                                                        *)
(* ------------------------------------------------------------------ *)

let lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache never holds more than capacity" ~count:200
    QCheck.(pair (int_range 1 20) (list (int_range 0 50)))
    (fun (cap, accesses) ->
      let c = Buffer_cache.create ~capacity:cap in
      List.iter
        (fun b ->
          match Buffer_cache.access c b with
          | Buffer_cache.Miss -> Buffer_cache.fill c b
          | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ())
        accesses;
      let resident =
        List.length
          (List.filter (Buffer_cache.resident c) (List.init 51 (fun i -> i)))
      in
      resident <= cap)

let hit_after_fill =
  QCheck.Test.make ~name:"recently filled block hits while capacity lasts"
    ~count:200
    QCheck.(int_range 1 20)
    (fun cap ->
      let c = Buffer_cache.create ~capacity:cap in
      (match Buffer_cache.access c 7 with
      | Buffer_cache.Miss -> Buffer_cache.fill c 7
      | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ());
      Buffer_cache.access c 7 = Buffer_cache.Hit)

let cache_tests =
  [
    Alcotest.test_case "hit / miss basics" `Quick (fun () ->
        let c = Buffer_cache.create ~capacity:2 in
        check Alcotest.bool "miss" true (Buffer_cache.access c 1 = Buffer_cache.Miss);
        Buffer_cache.fill c 1;
        check Alcotest.bool "hit" true (Buffer_cache.access c 1 = Buffer_cache.Hit);
        check Alcotest.int "hits" 1 (Buffer_cache.hits c);
        check Alcotest.int "misses" 1 (Buffer_cache.misses c));
    Alcotest.test_case "in-flight coalescing" `Quick (fun () ->
        let c = Buffer_cache.create ~capacity:2 in
        check Alcotest.bool "first miss" true
          (Buffer_cache.access c 9 = Buffer_cache.Miss);
        check Alcotest.bool "second coalesces" true
          (Buffer_cache.access c 9 = Buffer_cache.Miss_in_flight);
        Buffer_cache.fill c 9;
        check Alcotest.bool "hit after fill" true
          (Buffer_cache.access c 9 = Buffer_cache.Hit));
    Alcotest.test_case "LRU evicts the least recent" `Quick (fun () ->
        let c = Buffer_cache.create ~capacity:2 in
        let touch b =
          match Buffer_cache.access c b with
          | Buffer_cache.Miss -> Buffer_cache.fill c b
          | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ()
        in
        touch 1;
        touch 2;
        touch 1;
        (* 2 is now least recently used *)
        touch 3;
        check Alcotest.bool "1 stays" true (Buffer_cache.resident c 1);
        check Alcotest.bool "2 evicted" false (Buffer_cache.resident c 2);
        check Alcotest.bool "3 resident" true (Buffer_cache.resident c 3));
    Alcotest.test_case "zero capacity always misses" `Quick (fun () ->
        let c = Buffer_cache.create ~capacity:0 in
        check Alcotest.bool "miss" true (Buffer_cache.access c 1 = Buffer_cache.Miss);
        Buffer_cache.fill c 1;
        check Alcotest.bool "still miss" true
          (Buffer_cache.access c 1 = Buffer_cache.Miss));
    Alcotest.test_case "hit ratio" `Quick (fun () ->
        let c = Buffer_cache.create ~capacity:4 in
        (match Buffer_cache.access c 1 with
        | Buffer_cache.Miss -> Buffer_cache.fill c 1
        | Buffer_cache.Hit | Buffer_cache.Miss_in_flight -> ());
        ignore (Buffer_cache.access c 1);
        ignore (Buffer_cache.access c 1);
        check (Alcotest.float 1e-9) "2/3" (2.0 /. 3.0) (Buffer_cache.hit_ratio c);
        Buffer_cache.reset_stats c;
        check (Alcotest.float 1e-9) "reset" 1.0 (Buffer_cache.hit_ratio c));
    qtest lru_never_exceeds_capacity;
    qtest hit_after_fill;
  ]

(* ------------------------------------------------------------------ *)
(* I/O device                                                          *)
(* ------------------------------------------------------------------ *)

let io_tests =
  [
    Alcotest.test_case "fifo queue serializes" `Quick (fun () ->
        let sim = Sim.create () in
        let dev = Io_device.create sim ~service_time:(Time.ms 10) in
        let times = ref [] in
        for _ = 1 to 3 do
          Io_device.submit dev (fun () ->
              times := Time.to_ns (Sim.now sim) :: !times)
        done;
        Sim.run sim;
        check (Alcotest.list Alcotest.int) "staggered"
          [ Time.ms 10; Time.ms 20; Time.ms 30 ]
          (List.rev !times);
        check Alcotest.bool "mean latency grows" true
          (Io_device.mean_latency dev > 10_000.0));
    Alcotest.test_case "an idle server serves the next submit at once" `Quick
      (fun () ->
        let sim = Sim.create () in
        let dev = Io_device.create sim ~service_time:(Time.ms 10) in
        let times = ref [] in
        let record () = times := Time.to_ns (Sim.now sim) :: !times in
        Io_device.submit dev record;
        ignore
          (Sim.schedule_after sim ~delay:(Time.ms 25) (fun () ->
               Io_device.submit dev record));
        Sim.run sim;
        (* the second request finds the server idle: no queueing delay *)
        check (Alcotest.list Alcotest.int) "each takes one service time"
          [ Time.ms 10; Time.ms 35 ]
          (List.rev !times);
        check Alcotest.int "both done" 2 (Io_device.completed dev);
        check (Alcotest.float 1e-9) "latency counted from issue" 10_000.0
          (Io_device.mean_latency dev));
  ]

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let cm_tests =
  let c = Cost_model.firefly_cvax in
  [
    Alcotest.test_case "Table 4 closed forms" `Quick (fun () ->
        check Alcotest.int "FT null fork" (Time.us 34)
          (Cost_oracle.null_fork_expected c `Fastthreads);
        check Alcotest.int "SA null fork" (Time.us 37)
          (Cost_oracle.null_fork_expected c `Sa);
        check Alcotest.int "Topaz null fork" (Time.us 948)
          (Cost_oracle.null_fork_expected c `Topaz);
        check Alcotest.int "Ultrix null fork" (Time.us 11300)
          (Cost_oracle.null_fork_expected c `Ultrix);
        check Alcotest.int "FT signal-wait" (Time.us 37)
          (Cost_oracle.signal_wait_expected c `Fastthreads);
        check Alcotest.int "SA signal-wait" (Time.us 42)
          (Cost_oracle.signal_wait_expected c `Sa);
        check Alcotest.int "Topaz signal-wait" (Time.us 441)
          (Cost_oracle.signal_wait_expected c `Topaz);
        check Alcotest.int "Ultrix signal-wait" (Time.us 1840)
          (Cost_oracle.signal_wait_expected c `Ultrix));
    Alcotest.test_case "primitive constants" `Quick (fun () ->
        check Alcotest.int "procedure call 7us" (Time.us 7) c.procedure_call;
        check Alcotest.int "kernel trap 19us" (Time.us 19) c.kernel_trap;
        check Alcotest.int "io 50ms" (Time.ms 50) c.io_latency);
    Alcotest.test_case "untuned upcall factor ~5x Topaz" `Quick (fun () ->
        let untuned =
          float_of_int c.upcall *. c.upcall_untuned_factor
        in
        check Alcotest.bool "roughly 1.2ms" true
          (untuned > 1.0e6 && untuned < 1.4e6));
  ]

let () =
  Alcotest.run "hw"
    [
      ("cpu", cpu_tests);
      ("cpu-spin", spin_tests);
      ("machine", machine_tests);
      ("buffer_cache", cache_tests);
      ("io_device", io_tests);
      ("cost_model", cm_tests);
    ]
