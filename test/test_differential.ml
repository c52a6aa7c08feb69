(* Differential testing of the thread-program interpreter against frozen
   reference observations.

   The FastThreads backends run every [Program.t] through one interpreter:
   [Program.compile] arenas stepped by a pc-per-tcb loop that batches
   consecutive charge segments into single events, releases queue cells
   under time-window leases instead of issuing separate dispatch-charge
   events, and forces lazy [op_dyn] continuations ([Dynamic] programs,
   thread ids used as data, sibling joins) when execution reaches them.
   None of that is allowed to change behaviour.  [fixtures/oracle.txt]
   holds what the one-event-per-charge CPS walker observed — stamp
   sequence with simulated timestamps, final simulated time, thread
   statistics — for a fixed corpus of generated programs and a set of
   named ones, on all four backends; every run here must reproduce its
   line byte for byte.  The random fuzz keeps exploring fresh programs
   with checks that need no reference.

   This is the guard rail for the batching semantics: if a lease boundary
   or a flush rule ever lets the folded schedule diverge from the
   one-event-per-charge schedule, a corpus program will catch it here
   long before the pinned digests in test_policy do. *)

module Time = Sa_engine.Time
module Ft_core = Sa_uthread.Ft_core
module Kconfig = Sa_kernel.Kconfig
module Kernel = Sa_kernel.Kernel
module System = Sa.System
module O = Oracle

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* The frozen oracle                                                   *)
(* ------------------------------------------------------------------ *)

let frozen_corpus (bname, kconfig, backend) =
  Alcotest.test_case
    (Printf.sprintf "spec corpus matches frozen observations [%s]" bname)
    `Quick
    (fun () ->
      let specs = O.fixture_specs () in
      let n = List.length specs in
      let lines =
        List.filter (fun (_, b, _) -> b = bname) (O.load_fixture ())
        |> List.filteri (fun i _ -> i < n)
      in
      check Alcotest.int "fixture covers the corpus" n (List.length lines);
      let mismatches =
        List.filter_map
          (fun (specs, (key, _, want)) ->
            let got_key = O.pp_specs specs in
            if key <> got_key then
              Alcotest.failf "generator drift:\n  fixture:   %s\n  generated: %s"
                key got_key;
            let got =
              O.pp_obs (O.observe kconfig backend (O.compile_spec specs))
            in
            if got = want then None
            else Some (Printf.sprintf "%s\n  frozen: %s\n  run:    %s" key want got))
          (List.combine specs lines)
      in
      match mismatches with
      | [] -> ()
      | first :: _ ->
          Alcotest.failf "%d of %d programs diverged; first: %s"
            (List.length mismatches) n first)

(* Divergence site 2 (docs/INTERNALS.md §12), the lease-expiry tie: a
   thread stolen with a folded dispatch leaves the victim's queue cell
   leased through the expiry instant inclusive, while the unfolded
   schedule unlocks it at that instant — in time for a later same-instant
   event that then takes the cell instead of spinning.  These runs do not
   reproduce their frozen walker line; their current observations are
   pinned exactly instead, so any further schedule change still fails. *)
let lease_tie_pins =
  [
    ( ("crew-wide", "ft-kt"),
      "finished=true elapsed=12165000ns stamps=[] sched=[4,5,246,3,1,0]" );
    ( ("lease-tie", "ft-kt"),
      "finished=true elapsed=178000ns stamps=[2@145000,2@157000] \
       sched=[3,4,8,1,3,0]" );
  ]

let frozen_named (name, mk) =
  List.map
    (fun (bname, kconfig, backend) ->
      Alcotest.test_case
        (Printf.sprintf "%s matches frozen observation [%s]" name bname)
        `Quick
        (fun () ->
          let want =
            match List.assoc_opt (name, bname) lease_tie_pins with
            | Some pinned -> pinned
            | None -> O.frozen name bname
          in
          check Alcotest.string name want
            (O.pp_obs (O.observe kconfig backend (mk ())))))
    O.backends

(* A run's output depends only on its inputs: the same program run in a
   second domain while the main domain runs it too observes the frozen
   line on both.  Each side repeats the run so the two overlap. *)
let concurrent_domains =
  Alcotest.test_case
    "condvar-handshake matches frozen observation in two domains at once \
     [ft-sa]"
    `Quick (fun () ->
      let name = "condvar-handshake" in
      let bname, kconfig, backend = List.hd O.backends in
      let mk = List.assoc name O.named in
      let runs () =
        List.init 20 (fun _ -> O.pp_obs (O.observe kconfig backend (mk ())))
      in
      let want = List.init 20 (fun _ -> O.frozen name bname) in
      let other = Domain.spawn runs in
      let here = runs () in
      let there = Domain.join other in
      check Alcotest.(list string) "main domain" want here;
      check Alcotest.(list string) "second domain" want there)

(* ------------------------------------------------------------------ *)
(* Reference-free fuzz                                                 *)
(* ------------------------------------------------------------------ *)

let fuzz (bname, kconfig, backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs run soundly [%s]" bname)
    ~count:30 O.spec_arb
    (fun specs ->
      (* [observe] also runs [Kernel.check_invariants]. *)
      let o = O.observe kconfig backend (O.compile_spec specs) in
      let want_stamps =
        List.sort compare (List.fold_left O.spec_stamps [] specs)
      in
      let got_stamps = List.sort compare (List.map fst o.O.o_stamps) in
      if not o.O.o_finished then
        QCheck.Test.fail_reportf "run did not finish: %s" (O.pp_obs o)
      else if got_stamps <> want_stamps then
        QCheck.Test.fail_reportf "stamp multiset differs from the spec's: %s"
          (O.pp_obs o)
      else
        match (o.O.o_sched, o.O.o_batching) with
        | forks :: completions :: _, _ when completions <> forks + 1 ->
            QCheck.Test.fail_reportf "completions %d <> forks %d + 1"
              completions forks
        | _, Some (segments, batches) when batches > segments ->
            QCheck.Test.fail_reportf "more batches (%d) than segments (%d)"
              batches segments
        | _ -> true)

(* ------------------------------------------------------------------ *)
(* The coalescing divergence site                                      *)
(* ------------------------------------------------------------------ *)

(* Divergence site 1 (docs/INTERNALS.md §12):
   under multiprogramming, a processor preemption can land inside a folded
   dispatch window.  Charging dispatch to the manager as its own event lets
   the kernel repair the preemption (requeue-front, the full dispatch is
   re-charged later); the interpreter folds the dispatch cost into the
   thread's first charge, so the same preemption is reported and the
   thread resumes its remaining span.  The schedules then legitimately
   differ — but only boundedly: the run must finish, match the unfolded
   schedule's thread-package totals (forks, completions), keep kernel
   invariants, and land within 10% of its end time.  The reference
   figures below were recorded from the one-event-per-charge walker. *)
let reference_totals = (5, 6)
let reference_end_ns = 5_968_000

let preemption_divergence_bounded =
  Alcotest.test_case "divergence under preemption is bounded" `Quick (fun () ->
      let mk_prog () =
        O.compile_spec
          O.
            [
              Fork_join
                [
                  [ Compute 400; Yield; Compute 400 ];
                  [ Compute 300; Critical (0, [ Compute 50 ]); Compute 300 ];
                  [ Io 200; Compute 400 ];
                ];
              Fork_join [ [ Compute 500 ]; [ Compute 500; Yield ] ];
              Compute 200;
            ]
      in
      let sys = System.create ~cpus:2 ~kconfig:Kconfig.default () in
      let submit name =
        System.submit sys ~backend:`Fastthreads_on_sa ~name ~cache_capacity:4
          ~prewarm_cache:false (mk_prog ())
      in
      let j1 = submit "a" in
      let j2 = submit "b" in
      System.run ~horizon:(Time.s 120) sys;
      Kernel.check_invariants (System.kernel sys);
      List.iter
        (fun j ->
          check Alcotest.bool (System.job_name j) true (System.finished j);
          let s = Option.get (System.uthread_stats j) in
          check
            (Alcotest.pair Alcotest.int Alcotest.int)
            (System.job_name j ^ " forks/completions")
            reference_totals
            (s.Ft_core.forks, s.Ft_core.completions))
        [ j1; j2 ];
      let end_ns = Time.to_ns (Option.get (System.completion_time j2)) in
      let ratio =
        float_of_int (max reference_end_ns end_ns)
        /. float_of_int (max 1 (min reference_end_ns end_ns))
      in
      check Alcotest.bool
        (Printf.sprintf "elapsed within 10%% (ratio %.3f)" ratio)
        true (ratio < 1.10))

let () =
  Alcotest.run "differential"
    [
      ("frozen-corpus", List.map frozen_corpus O.backends);
      ("frozen-named", List.concat_map frozen_named O.named);
      ("domains", [ concurrent_domains ]);
      ("fuzz", List.map qtest (List.map fuzz O.backends));
      ("coalescing-site", [ preemption_divergence_bounded ]);
    ]
