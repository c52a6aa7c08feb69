(* Smoke tests for the experiment runners and the report document: every
   runner executes on reduced workloads and produces structurally sound
   results, and every builder's section prints as JSON and as text. *)

module Nbody = Sa_workload.Nbody
module E = Sa_metrics.Experiments
module R = Sa_metrics.Report

let check = Alcotest.check
let tiny = { Nbody.default_params with Nbody.n_bodies = 60; steps = 2 }

let runner_tests =
  [
    Alcotest.test_case "table1 has three systems" `Quick (fun () ->
        let rows = E.table1 ~iters:20 () in
        check Alcotest.int "rows" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "positive latencies" true
              (r.E.null_fork_us > 0.0 && r.E.signal_wait_us > 0.0))
          rows);
    Alcotest.test_case "table4 adds the SA row" `Quick (fun () ->
        let rows = E.table4 ~iters:20 () in
        check Alcotest.int "rows" 4 (List.length rows);
        check Alcotest.bool "SA row present" true
          (List.exists
             (fun r -> r.E.system = "FastThreads on Scheduler Activations")
             rows));
    Alcotest.test_case "figure1 covers 1..6 processors x 3 systems" `Quick
      (fun () ->
        let series = E.figure1 ~params:tiny () in
        check Alcotest.int "series" 3 (List.length series);
        List.iter
          (fun s ->
            check Alcotest.int (s.E.series ^ " points") 6
              (List.length s.E.points);
            List.iter
              (fun p ->
                check Alcotest.bool "positive speedup" true (p.E.speedup > 0.0))
              s.E.points)
          series);
    Alcotest.test_case "figure2 covers the memory sweep" `Quick (fun () ->
        let series = E.figure2 ~params:tiny () in
        check Alcotest.int "series" 3 (List.length series);
        List.iter
          (fun s ->
            check Alcotest.int "seven points" 7 (List.length s.E.io_points))
          series);
    Alcotest.test_case "table5 runs two jobs per system" `Quick (fun () ->
        let rows = E.table5 ~params:tiny () in
        check Alcotest.int "rows" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "speedup within bounds" true
              (r.E.mp_speedup > 0.0 && r.E.mp_speedup <= 3.5))
          rows);
    Alcotest.test_case "hysteresis ablation returns paired rows" `Quick
      (fun () ->
        let rows = E.ablation_hysteresis ~params:tiny ~spins_ms:[ 1; 5 ] () in
        check Alcotest.int "two rows per setting" 4 (List.length rows));
    Alcotest.test_case "rotation ablation improves fairness" `Quick (fun () ->
        let rows = E.ablation_remainder_rotation ~params:tiny () in
        check Alcotest.int "six rows" 6 (List.length rows);
        let unfair label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        (* with rotation on, the two equal jobs should end closer together *)
        check Alcotest.bool "rotation reduces or matches unfairness" true
          (unfair "rotation on:  unfairness |j1-j2|/avg"
          <= unfair "rotation off: unfairness |j1-j2|/avg" +. 0.05));
  ]

(* A hand-built document using every constructor, printed byte-exact:
   escapes, %.6g floats, null for NaN/±inf, empty and nested values. *)
let json_bytes () =
  let doc =
    [
      {
        R.name = "a\"b";
        kind = "k";
        title = "line\nbreak\\\t";
        data =
          R.Obj
            [
              ("i", R.Int (-3));
              ("f", R.Float 0.1);
              ("big", R.Float 1234567.0);
              ("tiny", R.Float 2.5e-7);
              ("nan", R.Float Float.nan);
              ("inf", R.Float Float.infinity);
              ("ninf", R.Float Float.neg_infinity);
              ("none", R.Null);
              ("yes", R.Bool true);
              ("no", R.Bool false);
              ("empty", R.Arr []);
              ( "nested",
                R.Obj
                  [
                    ("o", R.Obj [ ("s", R.Str "x") ]);
                    ("l", R.Arr [ R.Int 1; R.Obj []; R.Arr [] ]);
                  ] );
            ];
      };
      { R.name = "second"; kind = "k2"; title = "t"; data = R.Arr [] };
    ]
  in
  check Alcotest.string "bytes"
    {|{
"a\"b":{"kind":"k","title":"line\nbreak\\\u0009","data":{"i":-3,"f":0.1,"big":1.23457e+06,"tiny":2.5e-07,"nan":null,"inf":null,"ninf":null,"none":null,"yes":true,"no":false,"empty":[],"nested":{"o":{"s":"x"},"l":[1,{},[]]}}},
"second":{"kind":"k2","title":"t","data":[]}
}
|}
    (R.json doc)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* Every key and every number of a value, at any depth, as printed. *)
let rec keys_and_numbers = function
  | R.Obj fields ->
      List.concat_map (fun (k, v) -> k :: keys_and_numbers v) fields
  | R.Arr vs -> List.concat_map keys_and_numbers vs
  | R.Int n -> [ string_of_int n ]
  | R.Float f when Float.is_finite f -> [ Printf.sprintf "%.6g" f ]
  | R.Float _ | R.Str _ | R.Bool _ | R.Null -> []

(* A builder's section is one well-formed JSON member of its own kind, and
   its text rendering shows every key and the same figures. *)
let check_section kind (s : R.section) =
  check Alcotest.string "kind" kind s.R.kind;
  (match Json_check.parse (R.json [ s ]) with
  | Json_check.Obj [ (name, body) ] ->
      check Alcotest.string "name" s.R.name name;
      check (Alcotest.option Alcotest.string) "kind member" (Some kind)
        (Json_check.str_member "kind" body)
  | _ -> Alcotest.fail "expected one section member");
  let text = R.text s in
  check Alcotest.bool "title" true (contains text s.R.title);
  List.iter
    (fun tok -> check Alcotest.bool ("text shows " ^ tok) true (contains text tok))
    (keys_and_numbers s.R.data)

let builder_case kind build =
  Alcotest.test_case (kind ^ " section") `Quick (fun () ->
      check_section kind (build ~name:kind ~title:("T " ^ kind)))

let report_tests =
  let module Server = Sa_workload.Server in
  let module Cluster = Sa_cluster.Cluster in
  [
    Alcotest.test_case "json is byte-exact" `Quick json_bytes;
    builder_case "latency" (fun ~name ~title ->
        R.latency ~name ~title (E.table1 ~iters:10 ()));
    builder_case "speedup" (fun ~name ~title ->
        R.speedup ~name ~title (E.figure1 ~params:tiny ()));
    builder_case "exec-time" (fun ~name ~title ->
        R.exec_time ~name ~title (E.figure2 ~params:tiny ()));
    builder_case "multiprog" (fun ~name ~title ->
        R.multiprog ~name ~title (E.table5 ~params:tiny ()));
    builder_case "upcalls" (fun ~name ~title ->
        R.upcalls ~name ~title (E.upcall_performance ~iters:10 ()));
    builder_case "ablation" (fun ~name ~title ->
        R.ablation ~name ~title (E.ablation_activation_pooling ~iters:10 ()));
    builder_case "server" (fun ~name ~title ->
        R.server ~name ~title
          (E.server_latency
             ~params:{ Server.default_params with Server.requests = 20 }
             ()));
    builder_case "serve" (fun ~name ~title ->
        R.serve ~name ~title
          (E.serve
             ~params:
               {
                 Server.default_mt_params with
                 Server.mt_tenants = 3;
                 mt_requests = 5;
               }
             ~cpus:8 ()));
    builder_case "cluster" (fun ~name ~title ->
        let cl =
          Cluster.create
            {
              Cluster.default_params with
              Cluster.machines = 2;
              cpus = 4;
              tenants = 3;
              requests = 6;
            }
        in
        Cluster.run cl;
        R.cluster ~name ~title (Cluster.summary cl));
  ]

let protocol_tests =
  [
    Alcotest.test_case "warning protocol delays high-priority grants" `Slow
      (fun () ->
        let rows = E.preemption_protocol () in
        let v prefix =
          (List.find
             (fun r ->
               String.length r.E.a_label >= String.length prefix
               && String.sub r.E.a_label 0 (String.length prefix) = prefix)
             rows)
            .E.a_value
        in
        let immediate = v "immediate" in
        let uncoop = v "warning protocol, unc" in
        let coop = v "warning protocol, coop" in
        check Alcotest.bool "uncooperative pays the grace" true
          (uncoop > immediate +. 15.0);
        check Alcotest.bool "cooperation helps but immediate still wins" true
          (coop < uncoop /. 3.0 && immediate <= coop));
  ]

let retrospective_tests =
  [
    Alcotest.test_case "2020s ratios favour user-level threads even more"
      `Slow (fun () ->
        let rows = E.modern_retrospective () in
        let v prefix =
          (List.find
             (fun r ->
               String.length r.E.a_label >= String.length prefix
               && String.sub r.E.a_label 0 (String.length prefix) = prefix)
             rows)
            .E.a_value
        in
        check Alcotest.bool "ratio larger than the paper's 28x" true
          (v "kernel/user latency ratio" > 28.0);
        check Alcotest.bool "kernel threads lose at fine grain" true
          (v "N-body 6P speedup (2us tasks): kernel" < 1.0);
        check Alcotest.bool "activations still deliver parallelism" true
          (v "N-body 6P speedup (2us tasks): scheduler" > 2.0));
  ]

let timeline_tests =
  [
    Alcotest.test_case "timeline samples and renders" `Quick (fun () ->
        let module System = Sa.System in
        let module Time = Sa_engine.Time in
        let prep = Nbody.prepare tiny in
        let sys = System.create ~cpus:3 () in
        let tl = Sa_metrics.Timeline.attach sys ~resolution:(Time.ms 2) in
        let _job =
          System.submit sys ~backend:`Fastthreads_on_sa ~name:"zjob"
            prep.Nbody.program
        in
        System.run sys;
        check Alcotest.bool "sampled" true (Sa_metrics.Timeline.samples tl > 3);
        let out = Format.asprintf "%a" (fun ppf t -> Sa_metrics.Timeline.render t ppf) tl in
        check Alcotest.bool "has cpu rows" true
          (String.length out > 0
          && String.split_on_char '\n' out
             |> List.exists (fun l -> String.length l > 4 && String.sub l 0 3 = "cpu"));
        (* the job's initial must appear somewhere *)
        check Alcotest.bool "job letter present" true
          (String.contains out 'z'));
  ]

(* The extension experiments. *)
let extension_tests =
  [
    Alcotest.test_case "disk contention preserves the Figure-2 ordering"
      `Slow (fun () ->
        let series = E.figure2_disk_contention ~params:Nbody.default_params () in
        let at name pct =
          let s = List.find (fun s -> s.E.io_series = name) series in
          (List.find (fun p -> p.E.memory_percent = pct) s.E.io_points)
            .E.exec_time_s
        in
        check Alcotest.bool "orig FT worst under contention too" true
          (at "orig FastThreads" 40 > at "new FastThreads" 40);
        check Alcotest.bool "everyone degrades under contention" true
          (at "new FastThreads" 40 > at "new FastThreads" 100));
    Alcotest.test_case "allocator splits processor-seconds evenly" `Slow
      (fun () ->
        let rows = E.allocator_fairness ~params:tiny () in
        let v label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        check Alcotest.bool "even split on 6" true
          (v "6 CPUs: share imbalance |1-2|/avg" < 0.15);
        check Alcotest.bool "rotation keeps 5 CPUs fair" true
          (v "5 CPUs: share imbalance |1-2|/avg (rotation)" < 0.15));
    Alcotest.test_case "high-priority space gets its full demand" `Slow
      (fun () ->
        let rows = E.space_priority ~params:tiny () in
        let v label =
          (List.find (fun r -> r.E.a_label = label) rows).E.a_value
        in
        check Alcotest.bool "high beats low clearly" true
          (v "high-priority job: speedup" > v "low-priority  job: speedup" +. 0.5));
  ]

let () =
  Alcotest.run "metrics"
    [
      ("runners", runner_tests);
      ("report", report_tests);
      ("extensions", extension_tests);
      ("protocol", protocol_tests);
      ("retrospective", retrospective_tests);
      ("timeline", timeline_tests);
    ]
