(* The benchmark's JSON: enough to print its results and read them (and
   BENCHMARK.json) back for [compare] and the test. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers print without a fraction; other numbers with 17 significant
   digits, so a value read back is the value measured.  JSON has no NaN or
   infinity: they print as null. *)
let add_num buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.17g" v)
  else Buffer.add_string buf "null"

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> add_num buf v
  | Str s -> add_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_string buf k;
          Buffer.add_string buf ": ";
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  add buf v;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code when Uchar.is_valid code ->
                  Buffer.add_utf_8_uchar buf (Uchar.of_int code)
              | _ -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> Buffer.add_char buf c);
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_num = function Num v -> Some v | _ -> None
let to_list = function List l -> l | _ -> []
let to_obj = function Obj fields -> fields | _ -> []

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s
