(* [compare A/ B/]: two sets of full-run JSONs (A the parent, B the change),
   one verdict per workload and end-to-end metric, and a flag on every
   deterministic value that differs anywhere across the two sets. *)

module M = Metrics

type direction = Lower | Higher

(* The last line of a file that parses as a full-run result. *)
let load_run path =
  let lines = String.split_on_char '\n' (Json.read_file path) in
  List.fold_left
    (fun acc line ->
      match Json.parse line with
      | v when Json.member "workloads" v <> None -> Some v
      | _ | (exception Json.Parse_error _) -> acc)
    None lines

let load_set dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         match load_run (Filename.concat dir f) with
         | Some v -> Some v
         | None ->
             Printf.eprintf "compare: %s/%s holds no run result, skipped\n" dir f;
             None)

let workload_obj run w = Option.bind (Json.member "workloads" run) (Json.member w)

let metric_value run w m =
  Option.bind (workload_obj run w) (fun o ->
      Option.bind (Json.member "metrics" o) (fun ms ->
          Option.bind (Json.member m ms) (fun v ->
              Option.bind (Json.member "value" v) Json.to_num)))

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* The rules of a claimed gain and of no regression: B improved when it
   wins at least nine tenths of the index-paired runs and the medians
   differ by more than A's quartile spread; B regressed when its median is
   worse by more than [bound].  Where either set's own spread exceeds the
   bound, the answer is unresolved unless every run of B beats (or loses
   to) every run of A. *)
let verdict ~better ~bound a b =
  let worse x y = match better with Lower -> x > y | Higher -> x < y in
  let q1a, meda, q3a = M.quartiles a and q1b, medb, q3b = M.quartiles b in
  let rel_worse =
    (match better with Lower -> medb -. meda | Higher -> meda -. medb) /. Float.abs meda
  in
  let spread =
    Float.max ((q3a -. q1a) /. Float.abs meda) ((q3b -. q1b) /. Float.abs medb)
  in
  let rec pairs a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []
  in
  let ps = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> worse x y) ps) in
  let all_b_better = List.for_all (fun y -> List.for_all (fun x -> worse x y) a) b in
  let all_b_worse = List.for_all (fun y -> List.for_all (fun x -> worse y x) a) b in
  if ps <> [] && float_of_int wins >= 0.9 *. float_of_int (List.length ps)
     && -.rel_worse *. Float.abs meda > q3a -. q1a
  then Improved
  else if rel_worse > bound then
    if spread <= bound || all_b_worse then Regressed else Unresolved
  else if spread <= bound || all_b_better then Unchanged
  else Unresolved

let outputs_of run w =
  match Option.bind (workload_obj run w) (Json.member "outputs") with
  | Some o -> Json.to_obj o
  | None -> []

let run ~bench a_dir b_dir =
  let bench = Json.parse (Json.read_file bench) in
  let e2e =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "bound" m, Json.member "better" m) with
        | Some (Json.Str name), Some (Json.Num bound), Some (Json.Str better) ->
            Some (name, bound, if better = "higher" then Higher else Lower)
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member "end_to_end" bench)))
  in
  let sa = load_set a_dir and sb = load_set b_dir in
  if sa = [] || sb = [] then begin
    Printf.eprintf "compare: need at least one run in each of %s and %s\n" a_dir b_dir;
    exit 2
  end;
  let workloads =
    match Json.member "workloads" (List.hd sa) with
    | Some o -> List.map fst (Json.to_obj o)
    | None -> []
  in
  Printf.printf "A = %s (%d runs), B = %s (%d runs)\n\n" a_dir (List.length sa) b_dir
    (List.length sb);
  Printf.printf "%-9s %-13s %30s %30s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B vs A" "verdict";
  let regressed = ref false and differs = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, bound, better) ->
          let vals set = List.filter_map (fun r -> metric_value r w m) set in
          let a = vals sa and b = vals sb in
          if a <> [] && b <> [] then begin
            let v = verdict ~better ~bound a b in
            if v = Regressed then regressed := true;
            let show l =
              let q1, med, q3 = M.quartiles l in
              Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
            in
            let _, ma, _ = M.quartiles a and _, mb, _ = M.quartiles b in
            Printf.printf "%-9s %-13s %30s %30s %+7.2f%%  %s (bound %g%%)\n" w m (show a)
              (show b)
              (100. *. (mb -. ma) /. Float.abs ma)
              (verdict_name v) (100. *. bound)
          end)
        e2e)
    workloads;
  print_newline ();
  let all_runs = sa @ sb in
  List.iter
    (fun w ->
      let exact_metrics = List.filter (fun (d : M.def) -> d.exact) M.all in
      let keyed =
        List.map
          (fun (d : M.def) ->
            ( d.name,
              List.map
                (fun r ->
                  match metric_value r w d.name with
                  | Some v -> Printf.sprintf "%.17g" v
                  | None -> "-")
                all_runs ))
          exact_metrics
        @ List.map
            (fun (k, _) ->
              ( "out " ^ k,
                List.map
                  (fun r ->
                    match List.assoc_opt k (outputs_of r w) with
                    | Some v -> Json.to_string v
                    | None -> "-")
                  all_runs ))
            (outputs_of (List.hd sa) w)
      in
      List.iter
        (fun (k, vs) ->
          if List.length (List.sort_uniq compare vs) > 1 then begin
            incr differs;
            Printf.printf "DIFFERS %s %s: A=[%s] B=[%s]\n" w k
              (String.concat " " (List.filteri (fun i _ -> i < List.length sa) vs))
              (String.concat " " (List.filteri (fun i _ -> i >= List.length sa) vs))
          end)
        keyed)
    workloads;
  if !differs = 0 then
    print_endline
      "every deterministic count and simulated output is identical across both sets";
  if !regressed then exit 1
