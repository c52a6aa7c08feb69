module E = Experiments
module Cluster = Sa_cluster.Cluster

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of value list
  | Obj of (string * value) list

type section = { name : string; kind : string; title : string; data : value }

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let opt = function Some v -> Float v | None -> Null

(* A section whose data is one object per row. *)
let rows kind row ~name ~title xs =
  { name; kind; title; data = Arr (List.map row xs) }

let latency =
  rows "latency" (fun (r : E.latency_row) ->
      Obj
        [
          ("system", Str r.system);
          ("null_fork_us", Float r.null_fork_us);
          ("signal_wait_us", Float r.signal_wait_us);
          ("paper_null_fork", opt r.paper_null_fork);
          ("paper_signal_wait", opt r.paper_signal_wait);
        ])

let speedup =
  rows "speedup" (fun (s : E.speedup_series) ->
      Obj
        [
          ("series", Str s.series);
          ( "points",
            Arr
              (List.map
                 (fun (p : E.speedup_point) ->
                   Obj
                     [
                       ("processors", Int p.processors);
                       ("speedup", Float p.speedup);
                     ])
                 s.points) );
        ])

let exec_time =
  rows "exec-time" (fun (s : E.exec_time_series) ->
      Obj
        [
          ("series", Str s.io_series);
          ( "points",
            Arr
              (List.map
                 (fun (p : E.exec_time_point) ->
                   Obj
                     [
                       ("memory_percent", Int p.memory_percent);
                       ("exec_time_s", Float p.exec_time_s);
                     ])
                 s.io_points) );
        ])

let multiprog =
  rows "multiprog" (fun (r : E.multiprog_row) ->
      Obj
        [
          ("system", Str r.mp_system);
          ("speedup", Float r.mp_speedup);
          ("paper", opt r.mp_paper);
        ])

let upcalls =
  rows "upcalls" (fun (r : E.upcall_row) ->
      Obj
        [
          ("config", Str r.u_config);
          ("signal_wait_us", Float r.u_signal_wait_us);
          ("paper", opt r.u_paper);
        ])

let ablation =
  rows "ablation" (fun (r : E.ablation_row) ->
      Obj
        [
          ("label", Str r.a_label);
          ("value", Float r.a_value);
          ("unit", Str r.a_unit);
        ])

let server =
  rows "server" (fun (r : E.server_row) ->
      Obj
        [
          ("system", Str r.s_system);
          ("mean_us", Float r.s_mean_us);
          ("p95_us", Float r.s_p95_us);
          ("p99_us", Float r.s_p99_us);
        ])

let serve ~name ~title (s : E.serve_summary) =
  let tenant (r : E.serve_tenant_row) =
    Obj
      [
        ("tenant", Str r.v_tenant);
        ("class", Str r.v_class);
        ("completed", Int r.v_completed);
        ("mean_us", Float r.v_mean_us);
        ("p50_us", Float r.v_p50_us);
        ("p99_us", Float r.v_p99_us);
        ("p999_us", Float r.v_p999_us);
        ("max_us", Float r.v_max_us);
        ("slo_ms", Float r.v_slo_ms);
        ("violations", Int r.v_violations);
        ("violation_frac", Float r.v_violation_frac);
        ("makespan_ms", Float r.v_makespan_ms);
        ("grants", Int r.v_grants);
        ("preempts", Int r.v_preempts);
        ("cpu_seconds", Float r.v_cpu_seconds);
        ("program_steps", Int r.v_program_steps);
        ("charge_segments", Int r.v_charge_segments);
        ("charge_batches", Int r.v_charge_batches);
      ]
  in
  {
    name;
    kind = "serve";
    title;
    data =
      Obj
        [
          ("cpus", Int s.v_cpus);
          ("tenants", Int s.v_tenant_count);
          ("requests_total", Int s.v_requests_total);
          ("upcalls", Int s.v_upcalls);
          ("preemptions", Int s.v_preemptions);
          ("reallocations", Int s.v_reallocations);
          ("elapsed_ms", Float s.v_elapsed_ms);
          ("per_tenant", Arr (List.map tenant s.v_rows));
        ];
  }

let cluster ~name ~title (s : Cluster.summary) =
  let machine (r : Cluster.machine_row) =
    Obj
      [
        ("machine", Int r.m_id);
        ("alive", Bool r.m_alive);
        ("tenants_final", Int r.m_tenants_final);
        ("upcalls", Int r.m_upcalls);
        ("preemptions", Int r.m_preemptions);
        ("reallocations", Int r.m_reallocations);
        ("migs_in", Int r.m_migs_in);
        ("migs_out", Int r.m_migs_out);
        ("remote_hits", Int r.m_remote_hits);
        ("remote_fallbacks", Int r.m_remote_fallbacks);
        ("util", Float r.m_util);
      ]
  in
  let tenant (r : Cluster.tenant_row) =
    Obj
      [
        ("tenant", Int r.c_tenant);
        ("class", Str r.c_class);
        ("home0", Int r.c_home0);
        ("home", Int r.c_home);
        ("completed", Int r.c_completed);
        ("p50_us", Float r.c_p50_us);
        ("p99_us", Float r.c_p99_us);
        ("p999_us", Float r.c_p999_us);
        ("violations", Int r.c_violations);
        ("slo_ms", Float r.c_slo_ms);
      ]
  in
  let net = s.cl_net in
  {
    name;
    kind = "cluster";
    title;
    data =
      Obj
        [
          ("machines", Int s.cl_machines);
          ("cpus_per_machine", Int s.cl_cpus);
          ("tenants", Int s.cl_tenants);
          ("requests_total", Int s.cl_requests_total);
          ("migrations", Int s.cl_migrations);
          ("evacuations", Int s.cl_evacuations);
          ("crashes", Int s.cl_crashes);
          ("partitions", Int s.cl_partitions);
          ("remote_hits", Int s.cl_remote_hits);
          ("remote_fallbacks", Int s.cl_remote_fallbacks);
          ("net_messages", Int net.Sa_cluster.Net.messages);
          ("net_bytes", Int net.bytes);
          ("net_drops", Int net.drops);
          ("alloc_summaries", Int s.cl_alloc_summaries);
          ("alloc_summary_drops", Int s.cl_alloc_summary_drops);
          ("alloc_commands", Int s.cl_alloc_commands);
          (* every migration is a rebalance that moved a space *)
          ("alloc_rebalances", Int s.cl_migrations);
          ("elapsed_ms", Float s.cl_elapsed_ms);
          ("completed_all", Bool s.cl_completed_all);
          ("per_machine", Arr (List.map machine s.cl_machine_rows));
          ("per_tenant", Arr (List.map tenant s.cl_tenant_rows));
        ];
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The one float format of both printers; [None] for NaN and ±inf. *)
let number f =
  if Float.is_nan f || Float.abs f = Float.infinity then None
  else Some (Printf.sprintf "%.6g" f)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_seq buf ~opening ~closing add xs =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs;
  Buffer.add_char buf closing

let rec add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (Option.value (number f) ~default:"null")
  | Str s -> add_string buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Null -> Buffer.add_string buf "null"
  | Arr vs -> add_seq buf ~opening:'[' ~closing:']' add_value vs
  | Obj fields ->
      add_seq buf ~opening:'{' ~closing:'}'
        (fun buf (k, v) ->
          add_string buf k;
          Buffer.add_char buf ':';
          add_value buf v)
        fields

let json sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_string buf s.name;
      Buffer.add_char buf ':';
      add_value buf
        (Obj [ ("kind", Str s.kind); ("title", Str s.title); ("data", s.data) ]))
    sections;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let scalar = function
  | Int n -> Some (string_of_int n)
  | Float f -> Some (Option.value (number f) ~default:"-")
  | Str s -> Some s
  | Bool b -> Some (string_of_bool b)
  | Null -> Some "-"
  | Arr _ | Obj _ -> None

(* A list renders as a table when its items are objects with the same
   scalar fields in the same order. *)
let tabular = function
  | Obj first :: _ as rows ->
      let keys = List.map fst first in
      List.for_all
        (function
          | Obj fields ->
              List.map fst fields = keys
              && List.for_all (fun (_, v) -> scalar v <> None) fields
          | _ -> false)
        rows
  | _ -> false

(* One output line, without the trailing blanks of a padded last column. *)
let add_line buf pad s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  Buffer.add_string buf pad;
  Buffer.add_substring buf s 0 !n;
  Buffer.add_char buf '\n'

(* One column per key; numeric columns are right-aligned. *)
let add_table buf pad rows =
  let rows = List.map (function Obj fields -> fields | _ -> []) rows in
  let column key =
    let cells = List.map (List.assoc key) rows in
    let right =
      List.for_all (function Int _ | Float _ | Null -> true | _ -> false) cells
    in
    let texts = List.map (fun v -> Option.get (scalar v)) cells in
    let width =
      List.fold_left (fun w s -> max w (String.length s)) (String.length key)
        texts
    in
    let cell s =
      if right then Printf.sprintf "%*s" width s else Printf.sprintf "%-*s" width s
    in
    (cell key, Array.of_list (List.map cell texts))
  in
  let columns = List.map column (List.map fst (List.hd rows)) in
  add_line buf pad (String.concat "  " (List.map fst columns));
  List.iteri
    (fun i _ ->
      add_line buf pad
        (String.concat "  " (List.map (fun (_, cells) -> cells.(i)) columns)))
    rows

let rec add_text buf pad = function
  | Arr rows when tabular rows -> add_table buf pad rows
  | Arr items ->
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf '\n';
          add_text buf pad item)
        items
  | Obj fields ->
      List.iter
        (fun (k, v) ->
          match scalar v with
          | Some s -> add_line buf pad (k ^ ": " ^ s)
          | None ->
              add_line buf pad (k ^ ":");
              add_text buf (pad ^ "  ") v)
        fields
  | v -> add_line buf pad (Option.get (scalar v))

let text s =
  let buf = Buffer.create 1024 in
  let rule = String.make 78 '-' in
  Printf.bprintf buf "\n%s\n%s\n%s\n" rule s.title rule;
  add_text buf "" s.data;
  Buffer.contents buf
