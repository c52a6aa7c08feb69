type category = Sim | Cpu | Kernel | Upcall | Uthread | Workload

let category_name = function
  | Sim -> "sim"
  | Cpu -> "cpu"
  | Kernel -> "kernel"
  | Upcall -> "upcall"
  | Uthread -> "uthread"
  | Workload -> "workload"

let category_index = function
  | Sim -> 0
  | Cpu -> 1
  | Kernel -> 2
  | Upcall -> 3
  | Uthread -> 4
  | Workload -> 5

let n_categories = 6

type kind = Instant | Span_begin | Span_end | Counter of float

type record = {
  time : Time.t;
  category : category;
  kind : kind;
  name : string;
  cpu : int;
  space : int;
  act : int;
  message : string;
}

let no_id = -1

type t = {
  wanted : bool array;  (* per-category switch set by [enable] *)
  live : bool array;  (* [wanted] && recording && some sink: the hot check *)
  mutable recording : bool;
  mutable sinks : (record -> unit) array;  (* registration order *)
}

let create () =
  {
    wanted = Array.make n_categories true;
    live = Array.make n_categories false;
    recording = true;
    sinks = [||];
  }

let refresh t =
  let on = t.recording && Array.length t.sinks > 0 in
  Array.iteri (fun i w -> t.live.(i) <- on && w) t.wanted

let enable t cat v =
  t.wanted.(category_index cat) <- v;
  refresh t

let set_recording t v =
  t.recording <- v;
  refresh t

let add_sink t sink =
  t.sinks <- Array.append t.sinks [| sink |];
  refresh t

let enabled t cat = t.live.(category_index cat)

let render_message r =
  match r.kind with
  | Counter v -> Printf.sprintf "%s = %g" r.name v
  | Instant when r.name = "" -> r.message
  | Instant | Span_begin | Span_end ->
      let tag =
        match r.kind with Span_begin -> "+" | Span_end -> "-" | _ -> ""
      in
      if r.message = "" then tag ^ r.name
      else Printf.sprintf "%s%s (%s)" tag r.name r.message

let printer ppf r =
  Format.fprintf ppf "[%a] %-8s %s@." Time.pp r.time
    (category_name r.category)
    (render_message r)

let record t ~time ~category ~kind ~name ~cpu ~space ~act ~message =
  if enabled t category then begin
    let r = { time; category; kind; name; cpu; space; act; message } in
    Array.iter (fun sink -> sink r) t.sinks
  end

let emitf t ~time category fmt =
  if enabled t category then
    Format.kasprintf
      (fun message ->
        record t ~time ~category ~kind:Instant ~name:"" ~cpu:no_id ~space:no_id
          ~act:no_id ~message)
      fmt
  else
    (* Consume the format arguments without formatting or allocating. *)
    Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let instant t ~time ?(cpu = no_id) ?(space = no_id) ?(act = no_id)
    ?(detail = "") category name =
  record t ~time ~category ~kind:Instant ~name ~cpu ~space ~act ~message:detail

let span_begin t ~time ?(cpu = no_id) ?(space = no_id) ?(act = no_id)
    ?(detail = "") category name =
  record t ~time ~category ~kind:Span_begin ~name ~cpu ~space ~act
    ~message:detail

let span_end t ~time ?(cpu = no_id) ?(space = no_id) ?(act = no_id)
    ?(detail = "") category name =
  record t ~time ~category ~kind:Span_end ~name ~cpu ~space ~act
    ~message:detail

let counter t ~time ?(cpu = no_id) category name value =
  record t ~time ~category ~kind:(Counter value) ~name ~cpu ~space:no_id
    ~act:no_id ~message:""
