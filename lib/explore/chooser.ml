module Sim = Sa_engine.Sim
module Rng = Sa_engine.Rng

let default : Sim.chooser =
  {
    Sim.ch_pick = (fun ~site:_ ~arity:_ ~default -> default);
    ch_draw = (fun ~site:_ ~default -> default);
  }

(* Share of interposed RNG draws a random walk re-randomizes. *)
let walk_draw_prob = 0.2

let random_walk ~seed () =
  let rng = Rng.create (seed lxor 0x5a1cede) in
  {
    Sim.ch_pick = (fun ~site:_ ~arity ~default:_ -> Rng.int rng arity);
    ch_draw =
      (fun ~site:_ ~default ->
        (* Occasionally re-randomize an interposed RNG draw: this shifts
           injector timing and kernel random decisions, exploring the
           coarse-timing axis the same-instant picks cannot reach. *)
        if Rng.float rng 1.0 < walk_draw_prob then Rng.bits64 rng
        else default);
  }

let pct ~seed ~depth ~length =
  let rng = Rng.create (seed lxor 0x9c7b0) in
  let length = max 1 length in
  let change = Hashtbl.create 8 in
  for _ = 1 to depth do
    Hashtbl.replace change (Rng.int rng length) ()
  done;
  let prio = Hashtbl.create 8 in
  let site_prio site =
    match Hashtbl.find_opt prio site with
    | Some p -> p
    | None ->
        let p = if Rng.int rng 10 < 7 then 0 else 1 + Rng.int rng 2 in
        Hashtbl.replace prio site p;
        p
  in
  let picks = ref 0 in
  {
    Sim.ch_pick =
      (fun ~site ~arity ~default:_ ->
        let i = !picks in
        incr picks;
        if Hashtbl.mem change i then Rng.int rng arity
        else min (site_prio site) (arity - 1));
    ch_draw = (fun ~site:_ ~default -> default);
  }

(* --- recording -------------------------------------------------------- *)

type recording = { mutable rev : Schedule.decision list }

let recording ?(inner = default) () =
  let r = { rev = [] } in
  let ch =
    {
      Sim.ch_pick =
        (fun ~site ~arity ~default ->
          let c = inner.Sim.ch_pick ~site ~arity ~default in
          let c = if c < 0 || c >= arity then default else c in
          r.rev <- Schedule.Pick { site; arity; default; choice = c } :: r.rev;
          c);
      ch_draw =
        (fun ~site ~default ->
          let v = inner.Sim.ch_draw ~site ~default in
          r.rev <- Schedule.Draw { site; default; value = v } :: r.rev;
          v);
    }
  in
  (r, ch)

let recorded r =
  { Schedule.meta = []; decisions = Array.of_list (List.rev r.rev) }

(* --- replay ----------------------------------------------------------- *)

type replay_mode = Strict | Lenient

exception Divergence of { at : int; reason : string }

let replaying ?(mode = Strict) ?(active = fun _ -> true)
    (sched : Schedule.t) =
  let n = Array.length sched.Schedule.decisions in
  let cursor = ref 0 in
  let diverged = ref false in
  let mismatch at reason =
    match mode with
    | Strict -> raise (Divergence { at; reason })
    | Lenient -> diverged := true
  in
  let ch_pick ~site ~arity ~default =
    if !diverged then default
    else if !cursor >= n then begin
      mismatch !cursor
        (Printf.sprintf "schedule exhausted; run reached pick %s/%d" site
           arity);
      default
    end
    else begin
      let i = !cursor in
      match sched.Schedule.decisions.(i) with
      | Schedule.Pick p when p.site = site && p.arity = arity ->
          cursor := i + 1;
          if active i && p.choice < arity then p.choice else default
      | d ->
          mismatch i
            (Format.asprintf "recorded %a; run reached pick %s/%d"
               Schedule.pp_decision d site arity);
          default
    end
  in
  let ch_draw ~site ~default =
    if !diverged then default
    else if !cursor >= n then begin
      mismatch !cursor
        (Printf.sprintf "schedule exhausted; run reached draw %s" site);
      default
    end
    else begin
      let i = !cursor in
      match sched.Schedule.decisions.(i) with
      | Schedule.Draw d when d.site = site ->
          cursor := i + 1;
          if active i then d.value else default
      | d ->
          mismatch i
            (Format.asprintf "recorded %a; run reached draw %s"
               Schedule.pp_decision d site);
          default
    end
  in
  ({ Sim.ch_pick; ch_draw }, fun () -> !cursor)
