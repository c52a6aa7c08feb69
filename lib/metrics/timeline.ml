module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Cpu = Sa_hw.Cpu
module Machine = Sa_hw.Machine
module System = Sa.System

(* Columns the ring retains, and the widest chart [render] prints. *)
let max_columns = 4096
let width = 72

(* Columns live in a ring: once [max] samples are held, each new sample
   overwrites the oldest in O(1) — the previous list-truncation scheme made
   every sample past the cap an O(max) rebuild, quadratic over a run. *)
type t = {
  sys : System.t;
  resolution : Time.span;
  names : (int, string) Hashtbl.t;  (* space id -> name initial source *)
  ring : char array array;
  mutable start : int;  (* index of the oldest column *)
  mutable count : int;  (* columns held, <= Array.length ring *)
}

let sample t =
  let m = System.machine t.sys in
  let col =
    Array.map
      (fun cpu ->
        match Cpu.occupant cpu with
        | Cpu.Nobody -> '.'
        | Cpu.Kernel_idle -> '.'
        | Cpu.Occupant { space; detail = _ } -> (
            let name =
              match Hashtbl.find_opt t.names space with
              | Some n -> n
              | None ->
                  let n =
                    match
                      Sa_kernel.Kernel.find_space (System.kernel t.sys) space
                    with
                    | Some sp -> Sa_kernel.Kernel.space_name sp
                    | None -> ""
                  in
                  Hashtbl.replace t.names space n;
                  n
            in
            match name with
            | "" -> Char.chr (Char.code 'A' + (space mod 26))
            | n -> Char.lowercase_ascii n.[0]))
      (Machine.cpus m)
  in
  let cap = Array.length t.ring in
  if t.count < cap then begin
    t.ring.((t.start + t.count) mod cap) <- col;
    t.count <- t.count + 1
  end
  else begin
    t.ring.(t.start) <- col;
    t.start <- (t.start + 1) mod cap
  end

let column t i =
  t.ring.((t.start + i) mod Array.length t.ring)

let attach sys ~resolution =
  if resolution <= 0 then invalid_arg "Timeline.attach: resolution";
  let t =
    {
      sys;
      resolution;
      names = Hashtbl.create 8;
      ring = Array.make max_columns [||];
      start = 0;
      count = 0;
    }
  in
  let sim = System.sim sys in
  let rec tick () =
    sample t;
    (* Keep sampling only while other events are pending, so the timeline
       does not keep the simulation alive forever. *)
    if Sim.pending sim > 0 then
      ignore (Sim.schedule_after sim ~delay:t.resolution tick)
  in
  ignore (Sim.schedule_after sim ~delay:t.resolution tick);
  t

let samples t = t.count

let render ?(label = "") t ppf =
  let n = t.count in
  let cpus = if n = 0 then 0 else Array.length (column t 0) in
  if n = 0 || cpus = 0 then Format.fprintf ppf "(no samples)@."
  else begin
    let stride = max 1 ((n + width - 1) / width) in
    let shown = (n + stride - 1) / stride in
    Format.fprintf ppf "one column = %a (%d samples)@." Time.pp_span
      (t.resolution * stride) n;
    for cpu = 0 to cpus - 1 do
      Format.fprintf ppf "%scpu%d |" label cpu;
      for i = 0 to shown - 1 do
        Format.pp_print_char ppf (column t (i * stride)).(cpu)
      done;
      Format.pp_print_newline ppf ()
    done
  end
