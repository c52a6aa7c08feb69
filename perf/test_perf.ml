(* The benchmark's own correctness: its workloads reproduce the pinned
   results of the experiment runners, its traced passes describe the timed
   events, and a quick run prints every metric BENCHMARK.json lists.

   Usage: test_perf.exe MAIN_EXE BENCHMARK_JSON *)

open Sa_perf
module W = Workload
module E = Sa_metrics.Experiments
module Server = Sa_workload.Server

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let out (t : W.timed) k = List.assoc_opt k t.outputs

let serve_matches_experiments () =
  let t = W.run_timed (W.serve_with ~requests:200) ~seed:11 in
  let e =
    E.serve
      ~params:
        { Server.default_mt_params with mt_tenants = 24; mt_requests = 200; mt_seed = 11 }
      ~cpus:64 ~tracing:false ()
  in
  let ev =
    List.fold_left (fun a (r : E.serve_tenant_row) -> a + r.v_violations) 0 e.v_rows
  in
  check "serve at 200 requests: 566 violations, as Experiments.serve"
    (ev = 566 && out t "violations" = Some (W.Int ev) && t.completed = t.attempted)

let cluster_matches_pin () =
  let t = W.run_timed W.cluster ~seed:11 in
  check "cluster: 181 migrations, 960 requests"
    (out t "migrations" = Some (W.Int 181) && t.completed = 960 && t.attempted = 960)

let nbody_matches_table5 () =
  let t = W.run_timed W.nbody ~seed:42 in
  let rows = E.table5 () in
  let ours =
    List.map
      (fun k -> match out t ("table5." ^ k) with Some (W.Float f) -> f | _ -> nan)
      [ "topaz"; "origft"; "newft" ]
  in
  let theirs = List.map (fun (r : E.multiprog_row) -> r.mp_speedup) rows in
  check "nbody: Table 5 speedups equal Experiments.table5" (ours = theirs);
  check "nbody: Table 5 speedups 1.64693, 1.89273, 2.70922"
    (List.for_all2
       (fun v p -> Float.abs (v -. p) < 5e-6)
       ours [ 1.64693; 1.89273; 2.70922 ])

let traced_passes_match () =
  List.iter
    (fun (w : W.t) ->
      let t = W.run_timed w ~seed:w.default_seed in
      let r = Layers.traced_round w ~seed:w.default_seed in
      check
        (Printf.sprintf "%s: both traced passes fire %d events, as a timed instance"
           w.name t.events)
        (r.label_events = t.events && r.timing.events = t.events
        && r.label_digest = t.digest && r.timing.digest = t.digest
        && not r.timing.mislabelled))
    [ W.forkjoin; W.cluster ]

let read_all ic =
  let buf = Buffer.create 65536 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let quick_run_prints_every_metric ~main_exe ~bench =
  let ic = Unix.open_process_args_in main_exe [| main_exe; "run"; "--quick" |] in
  let text = read_all ic in
  let status = Unix.close_process_in ic in
  check "run --quick exits 0" (status = Unix.WEXITED 0);
  let lines = String.split_on_char '\n' text in
  let printed name unit_ =
    List.exists
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ n; _; u ] -> n = name && u = unit_
        | _ -> false)
      lines
  in
  let bench = Json.parse (Json.read_file bench) in
  let missing =
    List.concat_map
      (fun key ->
        List.filter_map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) when printed n u -> None
            | Some (Json.Str n), _ -> Some n
            | _ -> Some "?")
          (Json.to_list (Option.value ~default:Json.Null (Json.member key bench))))
      [ "end_to_end"; "per_layer" ]
  in
  List.iter (Printf.printf "  not printed: %s\n") missing;
  check "run --quick prints every BENCHMARK.json metric with its unit" (missing = [])

let () =
  match Sys.argv with
  | [| _; main_exe; bench |] ->
      let main_exe =
        if Filename.is_implicit main_exe then
          Filename.concat Filename.current_dir_name main_exe
        else main_exe
      in
      serve_matches_experiments ();
      cluster_matches_pin ();
      nbody_matches_table5 ();
      traced_passes_match ();
      quick_run_prints_every_metric ~main_exe ~bench;
      if !failures > 0 then begin
        Printf.printf "%d check(s) failed\n" !failures;
        exit 1
      end
  | _ ->
      prerr_endline "usage: test_perf.exe MAIN_EXE BENCHMARK_JSON";
      exit 2
