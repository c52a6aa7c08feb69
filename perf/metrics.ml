(* Metric definitions, and their values from a set of timed instances and
   traced rounds of one workload. *)

module W = Workload
module L = Layers

(* Names and units; the bounds and directions live in BENCHMARK.json. *)
type def = {
  name : string;
  unit_ : string;
  exact : bool;  (** deterministic: repeats exactly for a given input *)
}

let def ?(exact = false) name unit_ = { name; unit_; exact }

let end_to_end =
  [
    def "wall_s" "s";
    def "wall_ref" "ref";
    def "setup_s" "s";
    def ~exact:true "peak_heap_mb" "MB";
  ]

let phase_metrics =
  [
    "workload.build_ms";
    "core.create_ms";
    "core.submit_ms";
    "engine.run_ms";
    "metrics.summarize_ms";
  ]

let per_layer =
  List.concat_map
    (fun c ->
      [
        def ~exact:true (c ^ ".events") "count";
        def (c ^ ".share") "fraction";
        def (c ^ ".ns_per_event") "ns/event";
        def ~exact:true (c ^ ".words_per_event") "words/event";
      ])
    (Array.to_list L.classes)
  @ List.map
      (fun (n, u) -> def ~exact:true n u)
      [
        ("engine.events", "count");
        ("engine.pending_mean", "count");
        ("gc.alloc_mw", "Mwords");
        ("gc.minor_collections", "count");
        ("gc.major_collections", "count");
        ("kernel.upcalls", "count");
        ("kernel.events_per_upcall", "ratio");
        ("kernel.reallocations", "count");
        ("kernel.preemptions", "count");
        ("uthread.program_steps", "count");
        ("uthread.steal_frac", "fraction");
        ("uthread.batching", "ratio");
        ("uthread.spin_frac", "fraction");
        ("hw.cpu_util", "fraction");
        ("cluster.migrations", "count");
        ("cluster.net_messages", "count");
        ("cluster.remote_hit_frac", "fraction");
      ]
  @ [ def "engine.ns_per_event" "ns/event"; def "engine.floor_ns_per_event" "ns/event" ]
  @ List.map (fun n -> def n "ms") phase_metrics
  @ [
      def "trace.overhead_frac" "fraction";
      def "run.instances" "count";
      def "run.wall_p50_s" "s";
    ]

let all = end_to_end @ per_layer

(* ---- order statistics -------------------------------------------------- *)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum l = List.fold_left Float.min infinity l

(* Python's [statistics.quantiles(data, n=4)] (the "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---- a workload's result ----------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  values : (string * float) list;  (** by metric name *)
  outputs : (string * W.value) list;  (** simulated outputs, from one instance *)
  digest : string;
}

(* The digest most instances agree on. *)
let majority = function
  | [] -> ""
  | l ->
      let counts = Hashtbl.create 4 in
      List.iter
        (fun d ->
          let n = Option.value ~default:0 (Hashtbl.find_opt counts d) in
          Hashtbl.replace counts d (n + 1))
        l;
      fst
        (Hashtbl.fold
           (fun d c (bd, bc) -> if c > bc || (c = bc && d < bd) then (d, c) else (bd, bc))
           counts ("", 0))

let ns_to_s ns = float_of_int ns /. 1e9
let ratio a b = if b = 0. then 0. else a /. b

(* One input's timed instances.  An instance fails all its ops when it
   raised, broke a kernel invariant, or simulated something other than
   what most instances of the same input did. *)
type group = {
  ok : W.timed list;  (** instances that ran clean and agree *)
  digest : string;
  events : int;
  attempted : int;
  failed : int;
}

let group ~problem results =
  let ran = List.filter_map Result.to_option results in
  let digest = majority (List.map (fun (t : W.timed) -> t.digest) ran) in
  let per_instance = match ran with t :: _ -> t.attempted | [] -> 1 in
  let clean (t : W.timed) = t.invariant_error = None && t.digest = digest in
  let failed =
    List.fold_left
      (fun acc -> function
        | Error e ->
            problem ("instance: " ^ e);
            acc + per_instance
        | Ok (t : W.timed) ->
            (match t.invariant_error with
            | Some e -> problem ("invariant: " ^ e)
            | None when t.digest <> digest ->
                problem (Printf.sprintf "digest %s differs from %s" t.digest digest)
            | None -> ());
            acc + if clean t then t.attempted - t.completed else t.attempted)
      0 results
  in
  let ok = List.filter (fun (t : W.timed) -> clean t && t.completed = t.attempted) ran in
  {
    ok;
    digest;
    events = (match ok with t :: _ -> t.events | [] -> 0);
    attempted = per_instance * List.length results;
    failed;
  }

let wall_ref (t : W.timed) = float_of_int (W.wall_ns t) /. float_of_int t.reference_ns
let heap_mb (t : W.timed) = float_of_int (t.top_heap_words * 8) /. 1e6
let lower_quartile l = let q1, _, _ = quartiles l in q1

(* [timed] pairs each instance with its input seed; [rounds] were traced
   on the first input. *)
let summarize ~(timed : (int * (W.timed, string) Stdlib.result) list)
    ~(rounds : (L.round, string) Stdlib.result list) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let groups =
    List.map
      (fun seed ->
        let mine =
          List.filter_map (fun (s, r) -> if s = seed then Some r else None) timed
        in
        (seed, group ~problem:(problem "%s") mine))
      (List.sort_uniq compare (List.map fst timed))
  in
  let attempted = List.fold_left (fun a (_, g) -> a + g.attempted) 0 groups in
  let failed = List.fold_left (fun a (_, g) -> a + g.failed) 0 groups in
  if failed > 0 then problem "%d of %d ops failed" failed attempted;
  let g0 = List.assoc (fst (List.hd timed)) groups in
  let ok_rounds = List.filter_map Result.to_option rounds in
  List.iter (function Error e -> problem "traced round: %s" e | Ok _ -> ()) rounds;
  List.iter
    (fun (r : L.round) ->
      if r.label_events <> g0.events || r.timing.events <> g0.events then
        problem "traced passes fired %d and %d events, timed instances %d"
          r.label_events r.timing.events g0.events;
      if r.label_digest <> g0.digest || r.timing.digest <> g0.digest then
        problem "traced passes ended with another digest";
      if r.timing.mislabelled then problem "timing pass left labels unused")
    ok_rounds;
  (* Per input: host times take the minimum over the input's instances
     (interference only adds time), [wall_ref] the lower quartile of each
     instance's wall over its own reference time.  Then the median over the
     inputs: a few inputs cost far more than the rest (their processors
     idle longer), and the median does not jump with how many a run drew. *)
  let per_input f = median (List.map (fun (_, g) -> f g.ok) groups) in
  let least_s ns ok = minimum (List.map (fun t -> ns_to_s (ns t)) ok) in
  let e2e =
    if List.exists (fun (_, g) -> g.ok = []) groups then []
    else
      [
        ("wall_s", per_input (least_s W.wall_ns));
        ("wall_ref", per_input (fun ok -> lower_quartile (List.map wall_ref ok)));
        ("setup_s", per_input (least_s W.setup_ns));
        ("peak_heap_mb", per_input (fun ok -> median (List.map heap_mb ok)));
      ]
  in
  let layers =
    match (g0.ok, ok_rounds) with
    | [], _ | _, [] -> []
    | t0 :: _, r0 :: _ ->
        let c name =
          float_of_int (Option.value ~default:0 (List.assoc_opt name t0.counters))
        in
        let out name =
          match List.assoc_opt name t0.outputs with
          | Some (W.Int n) -> float_of_int n
          | Some (W.Float f) -> f
          | None -> 0.
        in
        let least_round f = minimum (List.map f ok_rounds) in
        let least_timed f = minimum (List.map f g0.ok) in
        let sum_ns (r : L.round) = float_of_int (Array.fold_left ( + ) 0 r.timing.ns) in
        let total_ns = List.fold_left (fun a r -> a +. sum_ns r) 0. ok_rounds in
        let ev = float_of_int r0.timing.events in
        let per_class i =
          let cname = L.classes.(i) and n = float_of_int r0.timing.count.(i) in
          let class_ns (r : L.round) = float_of_int r.timing.ns.(i) in
          [
            (cname ^ ".events", n);
            ( cname ^ ".share",
              ratio (List.fold_left (fun a r -> a +. class_ns r) 0. ok_rounds) total_ns );
            (cname ^ ".ns_per_event", if n = 0. then 0. else least_round class_ns /. n);
            (cname ^ ".words_per_event", ratio r0.timing.words.(i) n);
          ]
        in
        List.concat (List.init L.n_classes per_class)
        @ [
            ("engine.events", ev);
            ("engine.ns_per_event", least_round sum_ns /. ev);
            ("engine.pending_mean", ratio r0.timing.pending_sum ev);
            ( "engine.floor_ns_per_event",
              least_round (fun r -> float_of_int r.floor_ns) /. ev );
            ("gc.alloc_mw", t0.alloc_words /. 1e6);
            ("gc.minor_collections", float_of_int t0.minor_collections);
            ("gc.major_collections", float_of_int t0.major_collections);
            ("kernel.upcalls", c "upcalls");
            ("kernel.events_per_upcall", ratio (c "upcall_events") (c "upcalls"));
            ("kernel.reallocations", c "reallocations");
            ("kernel.preemptions", c "preemptions");
            ("uthread.program_steps", c "program_steps");
            ("uthread.steal_frac", ratio (c "steals") (c "dispatches"));
            ("uthread.batching", ratio (c "charge_segments") (c "charge_batches"));
            ("uthread.spin_frac", ratio (c "cs_spin_ns") (c "busy_ns"));
            ("hw.cpu_util", ratio (c "busy_ns") (c "capacity_ns"));
            ("cluster.migrations", out "migrations");
            ("cluster.net_messages", out "net_messages");
            ("cluster.remote_hit_frac", ratio (c "remote_fills") (c "cache_misses"));
          ]
        @ List.mapi
            (fun i n -> (n, least_timed (fun t -> float_of_int t.W.phase_ns.(i) /. 1e6)))
            phase_metrics
        @ [
            ( "trace.overhead_frac",
              (least_round (fun r -> float_of_int r.timing.loop_ns)
              /. least_timed (fun t -> float_of_int t.W.phase_ns.(3)))
              -. 1. );
            ("run.instances", float_of_int (List.length timed));
            ("run.wall_p50_s", median (List.map (fun t -> ns_to_s (W.wall_ns t)) g0.ok));
          ]
  in
  {
    correct = !problems = [] && e2e <> [];
    attempted;
    failed;
    problems = List.rev !problems;
    values = e2e @ layers;
    outputs = (match g0.ok with t :: _ -> t.outputs | [] -> []);
    digest = g0.digest;
  }

(* ---- printing ---------------------------------------------------------- *)

let metric_json defs values =
  Json.Obj
    (List.filter_map
       (fun d ->
         Option.map
           (fun v ->
             (d.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.unit_) ]))
           (List.assoc_opt d.name values))
       defs)

let print_table ~title defs (r : result) =
  Printf.printf "%s\n" title;
  List.iter
    (fun d ->
      match List.assoc_opt d.name r.values with
      | Some v -> Printf.printf "  %-32s %14.6g %s\n" d.name v d.unit_
      | None -> ())
    defs;
  List.iter
    (fun (k, v) -> Printf.printf "  out %-28s %14s\n" k (W.value_to_string v))
    r.outputs;
  Printf.printf "  out %-28s %s\n" "digest" r.digest;
  List.iter (Printf.printf "  PROBLEM: %s\n") r.problems
