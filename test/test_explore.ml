(* Schedule-space exploration: choice points, record/replay, shrinking.

   The identity tests pin the tentpole's zero-cost guarantee (a default
   chooser changes nothing); the qcheck properties pin replay determinism
   (record -> strict replay gives the same digest, for both workloads and
   both strategies) and mutation detection (a corrupted .sched is refused
   or diverges rather than silently drifting); the shrink test drives the
   full find -> ddmin -> re-record -> strict-replay pipeline on a seeded
   demand-drop violation. *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng
module Injector = Sa_fault.Injector
module Recorder = Sa_workload.Recorder
module Server = Sa_workload.Server
module Schedule = Sa_explore.Schedule
module Chooser = Sa_explore.Chooser
module Search = Sa_explore.Search
module Shrink = Sa_explore.Shrink

let qtest = QCheck_alcotest.to_alcotest

(* Small enough to keep a full record/replay round-trip fast. *)
let quick_spec =
  {
    Search.default_spec with
    Search.requests = 10;
    cpus = 3;
    horizon = Time.s 5;
  }

let drop_spec =
  {
    quick_spec with
    Search.seed = 1;
    cpus = 4;
    requests = 40;
    horizon = Time.s 10;
    inject_kinds = Injector.all_kinds;
  }

(* --- choice-point plumbing ------------------------------------------- *)

let test_pop_pick () =
  let q = Pqueue.create () in
  ignore (Pqueue.add q ~key:5 ~seq:0 "a");
  ignore (Pqueue.add q ~key:5 ~seq:1 "b");
  ignore (Pqueue.add q ~key:5 ~seq:2 "c");
  ignore (Pqueue.add q ~key:9 ~seq:3 "later");
  (match Pqueue.pop_pick q ~pick:(fun n -> n - 1) with
  | Some (5, 2, "c") -> ()
  | Some (k, s, v) ->
      Alcotest.failf "picked (%d,%d,%s), wanted the last same-key entry" k s v
  | None -> Alcotest.fail "empty pop");
  (* Choice 0 must behave exactly like pop: FIFO among the remaining pair. *)
  (match Pqueue.pop_pick q ~pick:(fun _ -> 0) with
  | Some (5, 0, "a") -> ()
  | _ -> Alcotest.fail "choice 0 is not FIFO");
  (match Pqueue.pop q with
  | Some (5, 1, "b") -> ()
  | _ -> Alcotest.fail "heap order broken after picks");
  Alcotest.(check int) "one left" 1 (Pqueue.length q)

let test_default_chooser_identity () =
  let bare = Search.run quick_spec in
  let under, sched = Search.record quick_spec in
  Alcotest.(check string)
    "default chooser run is bit-identical" bare.Search.digest
    under.Search.digest;
  Alcotest.(check (list int))
    "no decision diverges from its default" []
    (Schedule.divergences sched)

let test_rng_interpose () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  Rng.interpose b (Some (fun v -> v));
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "identity hook leaves the stream unchanged" (Rng.bits64 a)
      (Rng.bits64 b)
  done;
  (* Overriding one draw must not fork the underlying stream. *)
  let c = Rng.create 7 and d = Rng.create 7 in
  Rng.interpose d (Some (fun _ -> 0L));
  ignore (Rng.bits64 c);
  ignore (Rng.bits64 d);
  Rng.interpose d None;
  Alcotest.(check int64)
    "state advanced identically despite the override" (Rng.bits64 c)
    (Rng.bits64 d)

(* --- satellites ------------------------------------------------------- *)

let test_injector_detach () =
  let module System = Sa.System in
  let sys = System.create ~cpus:2 () in
  let params = { Server.default_params with Server.requests = 8 } in
  let _job =
    System.submit sys ~backend:`Fastthreads_on_sa ~name:"server"
      (Server.program params)
  in
  let inj = Injector.attach ~seed:5 sys in
  (* Let the chaos run for a slice of simulated time, then detach. *)
  ignore
    (Sim.schedule_after (System.sim sys) ~delay:(Time.ms 2) (fun () ->
         Injector.detach inj));
  System.run sys;
  let after_run = Injector.injected inj in
  (* Hooks are gone and ticks are dead: a fresh system borrowing nothing
     from the injector completes untouched, and the counts are frozen. *)
  Injector.detach inj;
  Alcotest.(check bool)
    "counts frozen after detach (idempotent)" true
    (after_run = Injector.injected inj);
  Alcotest.(check bool)
    "job still completed under detached injector" true
    (List.for_all System.finished (System.jobs sys))

let test_summarize_allow_incomplete () =
  let recorder = Recorder.create () in
  let obs = Recorder.observer recorder in
  (* Request 0 arrives (stamp 0) and completes (stamp 1); request 1 only
     arrives (stamp 2). *)
  obs 0 Time.zero;
  obs 1 (Time.of_ns 2_000);
  obs 2 (Time.of_ns 3_000);
  let summarize ?allow_incomplete r =
    Server.summarize ?allow_incomplete r ~requests:2 ~slo:max_int
  in
  (match summarize recorder with
  | _ -> Alcotest.fail "expected Failure on an incomplete run"
  | exception Failure _ -> ());
  let s = summarize ~allow_incomplete:true recorder in
  Alcotest.(check int) "partial summary counts completions" 1
    s.Server.ts_completed;
  (* And a run that completed nothing reports NaN latencies, not a crash. *)
  let empty = Recorder.create () in
  let s0 = summarize ~allow_incomplete:true empty in
  Alcotest.(check int) "zero completed" 0 s0.Server.ts_completed;
  Alcotest.(check bool) "empty percentiles are NaN" true
    (Float.is_nan s0.Server.ts_p99_us)

(* --- schedule files --------------------------------------------------- *)

let temp_sched () = Filename.temp_file "sa-explore-test" ".sched"

let test_schedule_roundtrip () =
  let _, sched = Search.record quick_spec in
  let sched =
    Schedule.with_meta sched
      (Search.meta_of_spec quick_spec ~strategy:"default")
  in
  let path = temp_sched () in
  Schedule.save path sched;
  let back = Schedule.load path in
  Sys.remove path;
  Alcotest.(check int)
    "decision count survives the round-trip" (Schedule.length sched)
    (Schedule.length back);
  Alcotest.(check bool) "decisions survive verbatim" true
    (sched.Schedule.decisions = back.Schedule.decisions);
  Alcotest.(check (option string))
    "meta survives" (Some "default")
    (Schedule.meta_find back "strategy")

let test_truncated_schedule_rejected () =
  let _, sched = Search.record quick_spec in
  let path = temp_sched () in
  Schedule.save path sched;
  let content = In_channel.with_open_text path In_channel.input_all in
  (* Drop the terminator and the last line: a partial write. *)
  let cut = String.length content - 10 in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (String.sub content 0 cut));
  (match Schedule.load path with
  | _ -> Alcotest.fail "truncated schedule loaded"
  | exception Failure _ -> ());
  Sys.remove path

(* A header field that is present but does not parse is refused, naming
   the key and value; a missing key keeps its default and an unknown key
   (such as the [drop_gap_us] older files carry) is ignored. *)
let test_malformed_meta_rejected () =
  let meta = Search.meta_of_spec drop_spec ~strategy:"default" in
  Alcotest.(check bool)
    "unknown key ignored" true
    (Search.spec_of_meta (("drop_gap_us", "2000") :: meta) = drop_spec);
  Alcotest.(check bool)
    "missing keys keep their defaults" true
    (Search.spec_of_meta [] = Search.default_spec);
  List.iter
    (fun (k, v) ->
      match Search.spec_of_meta ((k, v) :: List.remove_assoc k meta) with
      | _ -> Alcotest.failf "malformed %s %S accepted" k v
      | exception Failure msg ->
          Alcotest.(check string)
            "message names key and value"
            (Printf.sprintf "Search.spec_of_meta: malformed %s %S" k v)
            msg)
    [
      ("workload", "sever");
      ("seed", "x");
      ("cpus", "4.5");
      ("requests", "");
      ("horizon_ns", "10s");
      ("inject", "yes");
      ("inject_kinds", "preempt,bogus");
    ]

(* --- replay determinism (the qcheck satellites) ----------------------- *)

let digest_stable_replay ~make_inner seed =
  let spec = { quick_spec with Search.seed = 1 + (seed mod 50) } in
  let r, sched = Search.record ~inner:(make_inner seed) spec in
  let r', consumed = Search.replay ~mode:Chooser.Strict spec sched in
  r.Search.digest = r'.Search.digest && consumed = Schedule.length sched

let prop_walk_replay =
  QCheck.Test.make ~name:"walk: record -> strict replay, equal digest"
    ~count:8
    QCheck.(int_range 0 10_000)
    (digest_stable_replay ~make_inner:(fun seed ->
         Chooser.random_walk ~seed ()))

let prop_pct_replay =
  QCheck.Test.make ~name:"pct: record -> strict replay, equal digest"
    ~count:6
    QCheck.(int_range 0 10_000)
    (digest_stable_replay ~make_inner:(fun seed ->
         Chooser.pct ~seed ~depth:3 ~length:500))

let prop_chaos_replay =
  QCheck.Test.make
    ~name:"chaos workload: record -> strict replay, equal digest" ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let spec =
        {
          quick_spec with
          Search.workload = Search.Chaos;
          seed = 1 + (seed mod 50);
          horizon = Time.ms 500;
        }
      in
      let r, sched =
        Search.record ~inner:(Chooser.random_walk ~seed ()) spec
      in
      let r', consumed = Search.replay ~mode:Chooser.Strict spec sched in
      r.Search.digest = r'.Search.digest
      && consumed = Schedule.length sched)

let prop_mutation_detected =
  QCheck.Test.make
    ~name:"a corrupted schedule decision is detected, never silently drifted past"
    ~count:6
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, at) ->
      let spec = { quick_spec with Search.seed = 1 + (seed mod 50) } in
      let _, sched =
        Search.record ~inner:(Chooser.random_walk ~seed ()) spec
      in
      let decisions = Array.copy sched.Schedule.decisions in
      let i = at mod Array.length decisions in
      let site_of = function
        | Schedule.Pick p -> p.site
        | Schedule.Draw d -> d.site
      in
      let s_i = site_of decisions.(i) in
      (* Rewrite decision [i] to claim it happened at some other site — the
         shape of corruption a flipped byte in the interned-site id
         produces.  (A mutated pick choice or draw value is a different,
         legal schedule: replay applies it faithfully, and the run is
         allowed to converge.) *)
      match
        Array.find_opt (fun d -> site_of d <> s_i) decisions
      with
      | None -> true (* degenerate single-site run: nothing to corrupt *)
      | Some other ->
          let wrong = site_of other in
          decisions.(i) <-
            (match decisions.(i) with
            | Schedule.Pick p -> Schedule.Pick { p with site = wrong }
            | Schedule.Draw d -> Schedule.Draw { d with site = wrong });
          let sched' = { sched with Schedule.decisions } in
          (match Search.replay ~mode:Chooser.Strict spec sched' with
          | _ -> false (* corruption impersonated the run end-to-end *)
          | exception Chooser.Divergence { at = j; _ } -> j = i))

(* --- the seeded violation pipeline ------------------------------------ *)

let find_failing () =
  let report =
    Search.explore ~strategy:Search.Walk ~schedules:8 drop_spec
  in
  match report.Search.failing with
  | Some f -> (report, f)
  | None ->
      Alcotest.fail
        "walk found no demand-drop violation in 8 schedules at seed 1"

let test_explore_finds_seeded_violation () =
  let report, (_, r, _) = find_failing () in
  Alcotest.(check string)
    "baseline survives the same fault mix" "ok"
    (Search.outcome_name report.Search.baseline.Search.outcome);
  (match r.Search.outcome with
  | Search.Violation msg ->
      Alcotest.(check bool)
        "the violation is the seeded work-conservation starvation" true
        (Shrink.violation_key msg
        |> String.starts_with ~prefix:"invariant violated: work-conservation")
  | _ -> Alcotest.fail "failing run is not a violation");
  Alcotest.(check bool)
    "interleaving coverage is reported" true
    (List.length report.Search.coverage > 0
    && List.length report.Search.coverage <= Search.all_adjacencies)

let test_shrink_minimizes_and_replays () =
  let _, (_, _, failing) = find_failing () in
  match Shrink.shrink ~spec:drop_spec failing with
  | Error e -> Alcotest.failf "shrink failed: %s" e
  | Ok s ->
      let original = List.length (Schedule.divergences failing) in
      Alcotest.(check bool)
        (Printf.sprintf "divergences minimized (%d -> %d)" original
           s.Shrink.kept)
        true
        (s.Shrink.kept < original && s.Shrink.kept > 0);
      (* The re-recorded minimal schedule must replay the same violation
         strictly, consuming itself exactly. *)
      let r, consumed =
        Search.replay ~mode:Chooser.Strict drop_spec s.Shrink.schedule
      in
      Alcotest.(check int)
        "minimal schedule consumed exactly"
        (Schedule.length s.Shrink.schedule)
        consumed;
      Alcotest.(check string)
        "minimal replay digest matches the minimal run"
        s.Shrink.run.Search.digest r.Search.digest;
      (match r.Search.outcome with
      | Search.Violation msg ->
          Alcotest.(check string) "same violation key" s.Shrink.key
            (Shrink.violation_key msg)
      | _ -> Alcotest.fail "minimal replay did not violate")

(* Interpreter cross-check: [fixtures/xref.sched] is the default
   exploration schedule (server workload, seed 3, 15 requests, walk)
   recorded under the one-event-per-charge CPS walker.  Replaying it
   strictly under the compiled interpreter must consume every recorded
   decision and reproduce the recorded digest — charge batching and the
   lease protocol drive the bit-identical schedule. *)
let test_xref_replay () =
  let sched = Schedule.load "fixtures/xref.sched" in
  let spec = Search.spec_of_meta sched.Schedule.meta in
  let r, consumed = Search.replay ~mode:Chooser.Strict spec sched in
  Alcotest.(check int)
    "every decision consumed" (Schedule.length sched) consumed;
  Alcotest.(check (option string))
    "digest matches the recording"
    (Schedule.meta_find sched "digest")
    (Some r.Search.digest)

let () =
  Alcotest.run "explore"
    [
      ( "choice-points",
        [
          Alcotest.test_case "pop_pick permutes same-key entries only" `Quick
            test_pop_pick;
          Alcotest.test_case "default chooser changes nothing" `Quick
            test_default_chooser_identity;
          Alcotest.test_case "rng interposition preserves the stream" `Quick
            test_rng_interpose;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "injector detach restores hooks" `Quick
            test_injector_detach;
          Alcotest.test_case "summarize allow_incomplete" `Quick
            test_summarize_allow_incomplete;
        ] );
      ( "schedule-files",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_schedule_roundtrip;
          Alcotest.test_case "truncated file rejected" `Quick
            test_truncated_schedule_rejected;
          Alcotest.test_case "malformed header field rejected" `Quick
            test_malformed_meta_rejected;
        ] );
      ( "replay-determinism",
        [
          qtest prop_walk_replay;
          qtest prop_pct_replay;
          qtest prop_chaos_replay;
          qtest prop_mutation_detected;
          Alcotest.test_case "frozen walker schedule replays strictly" `Quick
            test_xref_replay;
        ] );
      ( "seeded-violation",
        [
          Alcotest.test_case "explore finds the demand-drop violation"
            `Quick test_explore_finds_seeded_violation;
          Alcotest.test_case "shrink minimizes and strictly replays" `Quick
            test_shrink_minimizes_and_replays;
        ] );
    ]
