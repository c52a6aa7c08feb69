(* The repo benchmark.

     main.exe run [--quick] [--seed S]
         all four workloads, interleaved round-robin in forked children,
         plus the traced passes; prints every metric and, as its last line,
         one JSON object; exits 1 if any output is wrong
     main.exe --workload W --seed S --seconds T --trace 0|1
         one workload for T seconds: end-to-end metrics (trace 0) or
         per-layer metrics (trace 1), last line one JSON object
     main.exe compare A/ B/
         verdicts between two directories of [run] outputs, with the
         bounds of ./BENCHMARK.json *)

open Sa_perf
module W = Workload
module M = Metrics

let usage () =
  prerr_endline
    "usage: main.exe run [--quick] [--seed S]\n\
    \       main.exe --workload forkjoin|serve|cluster|nbody --seed S --seconds T \
     --trace 0|1\n\
    \       main.exe compare A/ B/";
  exit 2

let timed (w : W.t) ~seed = Child.run (fun () -> W.run_timed w ~seed)
let traced (w : W.t) ~seed = Child.run (fun () -> Layers.traced_round w ~seed)

let result_fields (r : M.result) defs =
  [
    ("correct", Json.Bool r.correct);
    ("attempted", Json.Num (float_of_int r.attempted));
    ("failed", Json.Num (float_of_int r.failed));
    ("metrics", M.metric_json defs r.values);
  ]

(* Inputs per [--workload] run.  Host time and heap move with the input as
   well as with the code, so one run covers several inputs drawn from its
   seed: instance [i] takes input [seed * inputs + i mod inputs]. *)
let inputs = 14

(* One workload for [seconds]: timed instances cycling over the inputs, or
   (traced) traced rounds alternating with timed instances of the first
   input. *)
let one_workload (w : W.t) ~seed ~seconds ~trace =
  let seeds = Array.init (if trace then 1 else inputs) (fun j -> (seed * inputs) + j) in
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let timed_l = ref [] and rounds = ref [] and i = ref 0 in
  while !i < Array.length seeds || Unix.gettimeofday () < deadline do
    let s = seeds.(!i mod Array.length seeds) in
    if trace then rounds := traced w ~seed:s :: !rounds;
    timed_l := (s, timed w ~seed:s) :: !timed_l;
    incr i
  done;
  let r = M.summarize ~timed:(List.rev !timed_l) ~rounds:(List.rev !rounds) in
  let defs = if trace then M.per_layer else M.end_to_end in
  M.print_table
    ~title:
      (Printf.sprintf "%s (seed %d: inputs %d..%d)" w.name seed seeds.(0)
         seeds.(Array.length seeds - 1))
    defs r;
  print_endline (Json.to_string (Json.Obj (result_fields r defs)));
  exit (if r.correct then 0 else 1)

(* The full run: [rounds] rounds of every workload's [per_round] instances,
   interleaved; a traced round of every workload after each fifth round. *)
let full_run ~quick ~seed =
  let rounds = if quick then 1 else 15 in
  let seed_of (w : W.t) = Option.value seed ~default:w.default_seed in
  let acc = List.map (fun (w : W.t) -> (w, ref [], ref [])) W.all in
  let slots = List.fold_left (fun a (w : W.t) -> max a w.per_round) 0 W.all in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    for slot = 0 to slots - 1 do
      List.iter
        (fun ((w : W.t), tl, _) ->
          if slot < (if quick then 1 else w.per_round) then
            tl := (seed_of w, timed w ~seed:(seed_of w)) :: !tl)
        acc
    done;
    if round mod 5 = 0 || round = rounds then
      List.iter (fun ((w : W.t), _, rl) -> rl := traced w ~seed:(seed_of w) :: !rl) acc
  done;
  let results =
    List.map
      (fun ((w : W.t), tl, rl) ->
        (w, M.summarize ~timed:(List.rev !tl) ~rounds:(List.rev !rl)))
      acc
  in
  List.iter
    (fun ((w : W.t), r) ->
      M.print_table ~title:(Printf.sprintf "%s (seed %d)" w.name (seed_of w)) M.all r;
      print_newline ())
    results;
  Printf.printf "run took %.1f s\n" (Unix.gettimeofday () -. t0);
  let workload_json ((w : W.t), (r : M.result)) =
    let outputs =
      List.map
        (fun (k, v) ->
          ( k,
            match v with
            | W.Int n -> Json.Num (float_of_int n)
            | W.Float f -> Json.Num f ))
        r.outputs
    in
    ( w.name,
      Json.Obj
        (result_fields r M.all
        @ [
            ("seed", Json.Num (float_of_int (seed_of w)));
            ("outputs", Json.Obj (outputs @ [ ("digest", Json.Str r.digest) ]));
            ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
          ]) )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("quick", Json.Bool quick);
            ("rounds", Json.Num (float_of_int rounds));
            ("workloads", Json.Obj (List.map workload_json results));
          ]));
  exit (if List.for_all (fun (_, (r : M.result)) -> r.correct) results then 0 else 1)

let int_arg name v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      Printf.eprintf "%s: not an integer: %S\n" name v;
      exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest ->
      let rec go quick seed = function
        | [] -> full_run ~quick ~seed
        | "--quick" :: r -> go true seed r
        | "--seed" :: s :: r -> go quick (Some (int_arg "--seed" s)) r
        | _ -> usage ()
      in
      go false None rest
  | [ "compare"; a; b ] -> Compare.run ~bench:"BENCHMARK.json" a b
  | args ->
      let rec go w seed seconds trace = function
        | [] -> (
            match (w, seed, seconds, trace) with
            | Some name, Some seed, Some seconds, Some trace when seconds > 0 -> (
                match W.find name with
                | Some w -> one_workload w ~seed ~seconds ~trace
                | None ->
                    Printf.eprintf "unknown workload %S\n" name;
                    exit 2)
            | _ -> usage ())
        | "--workload" :: v :: r -> go (Some v) seed seconds trace r
        | "--seed" :: v :: r -> go w (Some (int_arg "--seed" v)) seconds trace r
        | "--seconds" :: v :: r -> go w seed (Some (int_arg "--seconds" v)) trace r
        | "--trace" :: "0" :: r -> go w seed seconds (Some false) r
        | "--trace" :: "1" :: r -> go w seed seconds (Some true) r
        | _ -> usage ()
      in
      if args = [] then usage () else go None None None None args
