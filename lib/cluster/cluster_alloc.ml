module Time = Sa_engine.Time
module Sim = Sa_engine.Sim

(* Tick period per machine. *)
let period = Time.ms 2

(* Minimum max-load minus min-load spread, in runnable threads, before a
   rebalance. *)
let threshold = 8

(* Wire sizes of a load summary and of a rebalance command. *)
let summary_bytes = 64
let command_bytes = 32

type hooks = {
  h_alive : int -> bool;
  h_load : int -> int;
  h_active : unit -> bool;
  h_migrate_one : src:int -> dst:int -> bool;
}

type t = {
  sim : Sim.t;
  net : Net.t;
  hooks : hooks;
  n : int;
  latest : int array;  (* last load heard from each machine; -1 = never *)
  mutable cooldown_until : Time.t;  (* no new command before this instant *)
  mutable summaries_sent : int;
  mutable summaries_dropped : int;
  mutable commands_sent : int;
  mutable commands_dropped : int;
  mutable rebalances : int;
}

let coordinator t =
  let rec go m =
    if m >= t.n then 0 else if t.hooks.h_alive m then m else go (m + 1)
  in
  go 0

(* Coordinator tick: refresh our own load locally, then compare the
   freshest view of every live machine. *)
let evaluate t me =
  t.latest.(me) <- t.hooks.h_load me;
  if Time.compare (Sim.now t.sim) t.cooldown_until >= 0 then begin
    let hi = ref (-1) and lo = ref (-1) in
    for m = 0 to t.n - 1 do
      if t.hooks.h_alive m && t.latest.(m) >= 0 then begin
        if !hi < 0 || t.latest.(m) > t.latest.(!hi) then hi := m;
        if !lo < 0 || t.latest.(m) < t.latest.(!lo) then lo := m
      end
    done;
    if !hi >= 0 && !lo >= 0 && !hi <> !lo then begin
      let src = !hi and dst = !lo in
      if t.latest.(src) - t.latest.(dst) > threshold then begin
        (* Consume the summaries this decision was based on, and hold off
           long enough for its effect to show up in fresh reports:
           re-deciding from already-acted-on load is how rebalancers
           thrash. *)
        t.latest.(src) <- -1;
        t.latest.(dst) <- -1;
        t.cooldown_until <- Time.add (Sim.now t.sim) (2 * period);
        if src = me then begin
          t.commands_sent <- t.commands_sent + 1;
          if t.hooks.h_migrate_one ~src ~dst then
            t.rebalances <- t.rebalances + 1
        end
        else begin
          t.commands_sent <- t.commands_sent + 1;
          let delivered =
            Net.send t.net ~src:me ~dst:src ~bytes:command_bytes
              (fun () ->
                if t.hooks.h_alive src && t.hooks.h_alive dst then
                  if t.hooks.h_migrate_one ~src ~dst then
                    t.rebalances <- t.rebalances + 1)
          in
          if not delivered then t.commands_dropped <- t.commands_dropped + 1
        end
      end
    end
  end

let node_tick t m =
  if t.hooks.h_alive m then begin
    let co = coordinator t in
    if m = co then evaluate t m
    else begin
      (* load as of send time: the coordinator sees stale truth *)
      let load = t.hooks.h_load m in
      t.summaries_sent <- t.summaries_sent + 1;
      let delivered =
        Net.send t.net ~src:m ~dst:co ~bytes:summary_bytes (fun () ->
            t.latest.(m) <- load)
      in
      if not delivered then t.summaries_dropped <- t.summaries_dropped + 1
    end
  end

let start sim net hooks =
  let n = Net.machines net in
  let t =
    {
      sim;
      net;
      hooks;
      n;
      latest = Array.make n (-1);
      cooldown_until = Time.zero;
      summaries_sent = 0;
      summaries_dropped = 0;
      commands_sent = 0;
      commands_dropped = 0;
      rebalances = 0;
    }
  in
  for m = 0 to n - 1 do
    let rec tick () =
      ignore
        (Sim.schedule_after sim ~delay:period (fun () ->
             if hooks.h_active () then begin
               node_tick t m;
               tick ()
             end))
    in
    tick ()
  done;
  t

type stats = {
  summaries : int;
  summary_drops : int;
  commands : int;
  command_drops : int;
  rebalances : int;
}

let stats t =
  {
    summaries = t.summaries_sent;
    summary_drops = t.summaries_dropped;
    commands = t.commands_sent;
    command_drops = t.commands_dropped;
    rebalances = t.rebalances;
  }
