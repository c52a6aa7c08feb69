(* Chrome trace-event JSON writer.  Hand-rolled (no JSON dependency): the
   event vocabulary is tiny and the format is append-only. *)

type t = {
  out : string -> unit;
  buf : Buffer.t; (* scratch, reused per event *)
  mutable first : bool;
  mutable closed : bool;
  mutable named_tids : int list; (* cpu tracks already given metadata *)
}

let pid = 1

(* Thread-track ids: CPU [n] gets tid [n + 1]; tid 0 is the "kernel/global"
   track for unbound instants. *)
let tid_of_cpu cpu = if cpu >= 0 then cpu + 1 else 0

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str_field buf key value =
  Buffer.add_char buf '"';
  Buffer.add_string buf key;
  Buffer.add_string buf "\":\"";
  add_escaped buf value;
  Buffer.add_char buf '"'

(* JSON numbers must not be nan/inf; timestamps are microseconds. *)
let add_float buf v =
  if Float.is_nan v then Buffer.add_string buf "0"
  else if v = Float.infinity then Buffer.add_string buf "1e308"
  else if v = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else Buffer.add_string buf (Printf.sprintf "%.12g" v)

let begin_event t =
  Buffer.clear t.buf;
  if t.first then t.first <- false else Buffer.add_string t.buf ",\n";
  Buffer.add_char t.buf '{'

let end_event t =
  Buffer.add_char t.buf '}';
  t.out (Buffer.contents t.buf)

let raw_event t ~ph ~name ~cat ~ts ~tid ?id ?(args = []) () =
  begin_event t;
  let buf = t.buf in
  add_str_field buf "ph" ph;
  Buffer.add_char buf ',';
  add_str_field buf "name" name;
  Buffer.add_char buf ',';
  add_str_field buf "cat" cat;
  Buffer.add_string buf ",\"ts\":";
  add_float buf ts;
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  (match id with
  | Some id -> Buffer.add_string buf (Printf.sprintf ",\"id\":%d" id)
  | None -> ());
  (match ph with
  | "i" -> Buffer.add_string buf ",\"s\":\"t\""
  | _ -> ());
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, add_v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf k;
          Buffer.add_string buf "\":";
          add_v buf)
        args;
      Buffer.add_char buf '}');
  end_event t

let metadata t ~name ~tid ~value =
  raw_event t ~ph:"M" ~name ~cat:"__metadata" ~ts:0. ~tid
    ~args:
      [
        ( "name",
          fun buf ->
            Buffer.add_char buf '"';
            add_escaped buf value;
            Buffer.add_char buf '"' );
      ]
    ()

let ensure_track t ~tid =
  if not (List.mem tid t.named_tids) then begin
    t.named_tids <- tid :: t.named_tids;
    let value = if tid = 0 then "kernel" else Printf.sprintf "cpu %d" (tid - 1) in
    metadata t ~name:"thread_name" ~tid ~value;
    (* Sort tracks by CPU number, kernel track first. *)
    raw_event t ~ph:"M" ~name:"thread_sort_index" ~cat:"__metadata" ~ts:0. ~tid
      ~args:[ ("sort_index", fun buf -> Buffer.add_string buf (string_of_int tid)) ]
      ()
  end

let create ~out =
  let t =
    {
      out;
      buf = Buffer.create 256;
      first = true;
      closed = false;
      named_tids = [];
    }
  in
  out "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  metadata t ~name:"process_name" ~tid:0 ~value:"sa_sim";
  t

let base_args (r : Trace.record) =
  let args = [] in
  let args =
    if r.message = "" then args
    else
      ( "detail",
        fun buf ->
          Buffer.add_char buf '"';
          add_escaped buf r.message;
          Buffer.add_char buf '"' )
      :: args
  in
  let args =
    if r.space < 0 then args
    else ("space", fun buf -> Buffer.add_string buf (string_of_int r.space))
         :: args
  in
  let args =
    if r.act < 0 then args
    else ("act", fun buf -> Buffer.add_string buf (string_of_int r.act)) :: args
  in
  args

let feed t (r : Trace.record) =
  if not t.closed then begin
    let cat = Trace.category_name r.category in
    let ts = float_of_int (Time.to_ns r.time) /. 1_000. in
    let tid = tid_of_cpu r.cpu in
    ensure_track t ~tid;
    match r.kind with
    | Trace.Counter v ->
        raw_event t ~ph:"C" ~name:r.name ~cat ~ts ~tid:0
          ~args:[ ("value", fun buf -> add_float buf v) ]
          ()
    | Trace.Instant ->
        let name = if r.name = "" then r.message else r.name in
        if name <> "" then
          let args = if r.name = "" then [] else base_args r in
          raw_event t ~ph:"i" ~name ~cat ~ts ~tid ~args ()
    | Trace.Span_begin | Trace.Span_end ->
        if r.cpu >= 0 then
          let ph = if r.kind = Trace.Span_begin then "B" else "E" in
          raw_event t ~ph ~name:r.name ~cat ~ts ~tid ~args:(base_args r) ()
        else
          (* Unbound spans (I/O blocks, CS recovery) may overlap and migrate
             across processors: use async nestable events keyed by the
             activation/thread id so begin/end pair up without nesting. *)
          let ph = if r.kind = Trace.Span_begin then "b" else "e" in
          let id = if r.act >= 0 then r.act else 0 in
          raw_event t ~ph ~name:r.name ~cat ~ts ~tid:0 ~id ~args:(base_args r)
            ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.out "\n]}\n"
  end
