type claim = { space : int; priority : int; desired : int }

type scratch = {
  mutable n : int;
  mutable ids : int array;
  mutable prio : int array;
  mutable desired : int array;
  mutable target : int array;
  mutable order : int array;
      (* positions 0..n-1 sorted by [before]; kept across solves so the
         insertion sort starts from the last pass's order *)
}

let scratch () =
  { n = 0; ids = [||]; prio = [||]; desired = [||]; target = [||]; order = [||] }

let set_count sc n =
  if n < 0 then invalid_arg "Alloc_policy.set_count";
  if n > Array.length sc.ids then begin
    let cap = max n (2 * Array.length sc.ids) in
    sc.ids <- Array.make cap 0;
    sc.prio <- Array.make cap 0;
    sc.desired <- Array.make cap 0;
    sc.target <- Array.make cap 0;
    sc.order <- Array.make cap 0
  end;
  if n <> sc.n then begin
    sc.n <- n;
    for i = 0 to n - 1 do
      sc.order.(i) <- i
    done
  end

let set_claim sc i ~space ~priority ~desired =
  if i < 0 || i >= sc.n then invalid_arg "Alloc_policy.set_claim: index";
  if desired < 0 then invalid_arg "Alloc_policy.set_claim: desired";
  sc.ids.(i) <- space;
  sc.prio.(i) <- priority;
  sc.desired.(i) <- desired

let target sc i =
  if i < 0 || i >= sc.n then invalid_arg "Alloc_policy.target: index";
  sc.target.(i)

(* The waterfill order: priority descending, then desire ascending (a space
   that wants less than the even share frees the difference for the rest),
   then space id.  Total, since ids are distinct. *)
let before sc a b =
  let pa = sc.prio.(a) and pb = sc.prio.(b) in
  if pa <> pb then pa > pb
  else
    let da = sc.desired.(a) and db = sc.desired.(b) in
    if da <> db then da < db else sc.ids.(a) < sc.ids.(b)

let sort sc =
  let order = sc.order in
  for i = 1 to sc.n - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && before sc x order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

let solve sc ~cpus ~rotation =
  if cpus < 0 then invalid_arg "Alloc_policy.solve: cpus";
  sort sc;
  let n = sc.n and order = sc.order in
  let remaining = ref cpus in
  let g = ref 0 in
  while !g < n do
    (* One priority group, [!g, ge).  Its zero-desire members sort first
       and receive nothing. *)
    let p = sc.prio.(order.(!g)) in
    let ge = ref !g in
    while !ge < n && sc.prio.(order.(!ge)) = p do
      incr ge
    done;
    let r = ref !g in
    while !r < !ge && sc.desired.(order.(!r)) = 0 do
      sc.target.(order.(!r)) <- 0;
      incr r
    done;
    let slots_left = ref (!ge - !r) in
    while !r < !ge do
      (* A run of equal desire, [!r, re), visited rotated left by
         [rotation] so the ceiling-division remainder lands on a different
         space every period. *)
      let d = sc.desired.(order.(!r)) in
      let re = ref !r in
      while !re < !ge && sc.desired.(order.(!re)) = d do
        incr re
      done;
      let len = !re - !r in
      let rot = ((rotation mod len) + len) mod len in
      for j = 0 to len - 1 do
        let pos = order.(!r + ((j + rot) mod len)) in
        (* ceiling: rotation-favoured spaces absorb the remainder *)
        let share = (!remaining + !slots_left - 1) / !slots_left in
        let give = min d (min share !remaining) in
        sc.target.(pos) <- give;
        remaining := !remaining - give;
        decr slots_left
      done;
      r := !re
    done;
    g := !ge
  done

let targets ~cpus ~rotation claims =
  let ids = List.map (fun c -> c.space) claims in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Alloc_policy.targets: duplicate space ids";
  let sc = scratch () in
  set_count sc (List.length claims);
  List.iteri
    (fun i c ->
      set_claim sc i ~space:c.space ~priority:c.priority ~desired:c.desired)
    claims;
  solve sc ~cpus ~rotation;
  List.mapi (fun i c -> (c.space, target sc i)) claims
