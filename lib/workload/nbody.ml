module Time = Sa_engine.Time
module Rng = Sa_engine.Rng
module P = Sa_program.Program
module B = P.Build

type params = {
  n_bodies : int;
  steps : int;
  chunk : int;
  per_interaction : Time.span;
  tree_build_unit : Time.span;
  reduction_cs : Time.span;
  hit_cost : Time.span;
  seed : int;
}

let default_params =
  {
    n_bodies = 300;
    steps = 6;
    chunk = 1;
    per_interaction = Time.us 12;
    tree_build_unit = Time.us 5;
    reduction_cs = Time.us 80;
    hit_cost = Sa_hw.Cost_model.firefly_cvax.procedure_call;
    seed = 42;
  }

type prepared = {
  params : params;
  program : P.t;
  seq_time : Time.span;
  blocks : int;
  total_interactions : int;
  tasks : int;
}

(* Dataset granularity: bodies per cache block. *)
let bodies_per_block = 5

let log2 x = log x /. log 2.0

(* Simulated cost of one task: its chunk's real interactions times the
   per-interaction cost. *)
let task_compute p profile ~first ~len =
  let total = ref 0 in
  for i = first to min (first + len) (Array.length profile) - 1 do
    total := !total + profile.(i)
  done;
  !total * p.per_interaction

let tree_build_cost p =
  int_of_float
    (float_of_int p.n_bodies *. log2 (float_of_int (max 2 p.n_bodies)))
  * p.tree_build_unit

let prepare p =
  if p.n_bodies <= 0 || p.steps <= 0 || p.chunk <= 0 then
    invalid_arg "Nbody.prepare: params";
  let rng = Rng.create p.seed in
  let bodies = Barneshut.Nbody_sim.plummer rng ~n:p.n_bodies in
  let bh = Barneshut.Nbody_sim.create bodies in
  let profiles =
    Array.of_list
      (List.map
         (fun prof -> prof.Barneshut.Nbody_sim.interactions)
         (Barneshut.Nbody_sim.run bh ~steps:p.steps))
  in
  let blocks = (p.n_bodies + bodies_per_block - 1) / bodies_per_block in
  let reduction_lock = P.Mutex.create ~name:"nbody-reduction" () in
  (* Deterministic pseudo-random block for a (step, body) access with a
     working set: 90% of reads hit the hot 40% of the data set (the inner
     region of the tree), the rest scatter over the cold tail.  While the
     cache holds the working set misses are rare; once it cannot, they climb
     quickly — the "slowly at first, then more sharply" of Figure 2. *)
  let block_of ~step ~first =
    let h = ((step + 1) * 2654435761) lxor (first * 40503) in
    let h = h land max_int in
    let hot_blocks = max 1 (blocks * 2 / 5) in
    if h mod 10 < 9 then h / 10 mod hot_blocks
    else hot_blocks + (h / 10 mod max 1 (blocks - hot_blocks))
  in
  let task step first =
    let profile = profiles.(step) in
    let work = task_compute p profile ~first ~len:p.chunk in
    B.to_program
      (let open B in
       (* One read fetches the region the force computation walks. *)
       let* () = cache_read (block_of ~step ~first) in
       let* () = compute work in
       critical reduction_lock (compute p.reduction_cs))
  in
  let tasks_per_step = (p.n_bodies + p.chunk - 1) / p.chunk in
  let step_prog step =
    let open B in
    let* () = compute (tree_build_cost p) in
    let* tids =
      let rec go acc i =
        if i >= tasks_per_step then return (List.rev acc)
        else
          let* tid = fork (task step (i * p.chunk)) in
          go (tid :: acc) (i + 1)
      in
      go [] 0
    in
    iter_list tids (fun tid -> join tid)
  in
  let program =
    B.to_program (B.repeat p.steps (fun s -> step_prog s))
  in
  let total_interactions =
    Array.fold_left
      (fun acc prof -> acc + Array.fold_left ( + ) 0 prof)
      0 profiles
  in
  let tasks = tasks_per_step * p.steps in
  (* The sequential baseline performs the same computation inline: tree
     builds, cache reads (hits), force computation, reductions. *)
  let read_cost = tasks * p.hit_cost in
  let seq_time =
    (p.steps * tree_build_cost p)
    + (total_interactions * p.per_interaction)
    + (tasks * p.reduction_cs)
    + read_cost
  in
  { params = p; program; seq_time; blocks; total_interactions; tasks }

let cache_capacity prep ~percent =
  if percent <= 0 then 0 else (prep.blocks * percent) / 100
