module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng

type link = {
  mutable busy_until : Time.t;  (* sender-side serialization queue *)
  mutable last_deliver : Time.t;  (* FIFO clamp: no overtaking under jitter *)
  mutable down_until : Time.t;
  mutable l_messages : int;
  mutable l_bytes : int;
  mutable l_drops : int;
}

type t = {
  sim : Sim.t;
  n : int;
  latency : Time.span;
  ns_per_byte : int;
  jitter_us : int;
  rng : Rng.t;
  links : link array array;
  offline : bool array;
}

let fresh_link () =
  {
    busy_until = Time.zero;
    last_deliver = Time.zero;
    down_until = Time.zero;
    l_messages = 0;
    l_bytes = 0;
    l_drops = 0;
  }

let create ?(latency = Time.us 50) ?(ns_per_byte = 1) ?(jitter_us = 0)
    ?(seed = 0) sim ~machines =
  if machines <= 0 then invalid_arg "Net.create: machines must be positive";
  if ns_per_byte < 0 then invalid_arg "Net.create: negative ns_per_byte";
  if jitter_us < 0 then invalid_arg "Net.create: negative jitter_us";
  let rng = Rng.create seed in
  Rng.interpose rng (Some (fun default -> Sim.draw sim ~site:"net-jitter" ~default));
  {
    sim;
    n = machines;
    latency;
    ns_per_byte;
    jitter_us;
    rng;
    links = Array.init machines (fun _ -> Array.init machines (fun _ -> fresh_link ()));
    offline = Array.make machines false;
  }

let machines t = t.n

let check t m name =
  if m < 0 || m >= t.n then invalid_arg (name ^ ": bad machine id")

let link_up t l = Time.compare l.down_until (Sim.now t.sim) <= 0

let set_offline t m flag =
  check t m "Net.set_offline";
  t.offline.(m) <- flag

let offline t m =
  check t m "Net.offline";
  t.offline.(m)

let reachable t ~src ~dst =
  check t src "Net.reachable";
  check t dst "Net.reachable";
  src <> dst
  && (not t.offline.(src))
  && (not t.offline.(dst))
  && link_up t t.links.(src).(dst)

let partition t ~a ~b ~until =
  check t a "Net.partition";
  check t b "Net.partition";
  if a <> b then begin
    let cut l = if Time.compare until l.down_until > 0 then l.down_until <- until in
    cut t.links.(a).(b);
    cut t.links.(b).(a)
  end

let send t ~src ~dst ~bytes k =
  check t src "Net.send";
  check t dst "Net.send";
  if src = dst then invalid_arg "Net.send: src = dst";
  if bytes < 0 then invalid_arg "Net.send: negative bytes";
  let l = t.links.(src).(dst) in
  if t.offline.(src) || t.offline.(dst) || not (link_up t l) then begin
    l.l_drops <- l.l_drops + 1;
    false
  end
  else begin
    let now = Sim.now t.sim in
    let depart = Time.add (Time.max now l.busy_until) (bytes * t.ns_per_byte) in
    l.busy_until <- depart;
    let jitter =
      if t.jitter_us > 0 then Time.us (Rng.int t.rng (t.jitter_us + 1)) else 0
    in
    let arrive = Time.max (Time.add depart (t.latency + jitter)) l.last_deliver in
    l.last_deliver <- arrive;
    l.l_messages <- l.l_messages + 1;
    l.l_bytes <- l.l_bytes + bytes;
    ignore
      (Sim.schedule_after t.sim ~delay:(Time.diff arrive now) (fun () ->
           Sim.defer_hops t.sim ~site:"net-deliver" k));
    true
  end

type stats = { messages : int; bytes : int; drops : int }

let stats t =
  let m = ref 0 and b = ref 0 and d = ref 0 in
  Array.iter
    (Array.iter (fun l ->
         m := !m + l.l_messages;
         b := !b + l.l_bytes;
         d := !d + l.l_drops))
    t.links;
  { messages = !m; bytes = !b; drops = !d }
