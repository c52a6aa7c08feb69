module Time = Sa_engine.Time
module Sim = Sa_engine.Sim

type t = {
  sim : Sim.t;
  id : int;  (** machine identity within a cluster; 0 when standalone *)
  cpus : Cpu.t array;
}

let create ?(id = 0) sim ~cpus =
  if cpus <= 0 then invalid_arg "Machine.create: cpus";
  { sim; id; cpus = Array.init cpus (fun i -> Cpu.create sim i) }

let sim t = t.sim
let id t = t.id
let cpu_count t = Array.length t.cpus

let cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Machine.cpu: id";
  t.cpus.(i)

let cpus t = t.cpus

let total_busy_time t =
  Array.fold_left (fun acc c -> acc + Cpu.busy_time c) 0 t.cpus

let utilization t ~upto =
  let span = Time.to_ns upto in
  if span = 0 then 0.0
  else
    float_of_int (total_busy_time t)
    /. (float_of_int span *. float_of_int (cpu_count t))

let pp ppf t =
  Array.iter (fun c -> Format.fprintf ppf "%a@." Cpu.pp c) t.cpus
