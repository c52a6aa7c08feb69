(** Result documents: every experiment result is described once, as a
    JSON-shaped value, and printed either as JSON or as text. *)

type value =
  | Int of int
  | Float of float  (** NaN and ±infinity print as [null] *)
  | Str of string
  | Bool of bool
  | Null
  | Arr of value list
  | Obj of (string * value) list

type section = { name : string; kind : string; title : string; data : value }
(** One result: [name] is its key in the JSON document, [kind] names the
    builder that shaped [data]. *)

(** {1 Builders} One per result type; each sets [kind] and holds the
    field list of its rows. *)

val latency :
  name:string -> title:string -> Experiments.latency_row list -> section

val speedup :
  name:string -> title:string -> Experiments.speedup_series list -> section

val exec_time :
  name:string -> title:string -> Experiments.exec_time_series list -> section

val multiprog :
  name:string -> title:string -> Experiments.multiprog_row list -> section

val upcalls :
  name:string -> title:string -> Experiments.upcall_row list -> section

val ablation :
  name:string -> title:string -> Experiments.ablation_row list -> section

val server :
  name:string -> title:string -> Experiments.server_row list -> section

val serve : name:string -> title:string -> Experiments.serve_summary -> section
(** Run totals, then one row per tenant. *)

val cluster :
  name:string -> title:string -> Sa_cluster.Cluster.summary -> section
(** Cluster-wide totals, then one row per machine (each kernel's counters
    reported separately, never summed), then one row per tenant with its
    initial and final home. *)

(** {1 Printers} *)

val json : section list -> string
(** One JSON object, one ["name":{"kind":..,"title":..,"data":..}] member
    per line.  Floats print as [%.6g]. *)

val text : section -> string
(** A 78-dash banner around the title, then [data]: an object's scalars
    as [key: value] lines, a list of flat objects as a column-aligned
    table headed by their keys.  Numbers print exactly as in {!json};
    [null] prints as [-]. *)
