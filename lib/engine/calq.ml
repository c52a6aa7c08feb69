(* Event queue: one flat binary min-heap over (key, seq), values in a slab.

   The heap is three parallel int arrays in heap order — each entry's key,
   seq and handle — so a sift compares and moves plain ints: no indirection
   through the slab, no write barrier, no position bookkeeping.  Sifts move
   a hole rather than swapping.  The simulator's events rarely share an
   instant (over 90% of serve, cluster and N-body adds open a new one), so
   a flat heap does less per event than per-instant buckets would.

   Allocation discipline: the queue never allocates on the steady-state
   add/pop path.  Values live in a slab indexed by slot, next to a
   generation per slot; handles are immediate ints tagging a slot with the
   generation it was issued under.  The only GC-visible writes are the
   value store and its clearing.

   Slots and heap positions are in one-to-one correspondence in number:
   every occupied slot has exactly one heap entry, so the heap's unused
   tail [size, capacity) holds the free slots, as a stack — no freelist
   links.

   Liveness is the generation: a slot's generation advances the moment its
   entry stops being live (popped or cancelled), so a heap entry is live
   iff its handle's generation is current, and a stale handle can never
   cancel a recycled slot.  A cancelled entry keeps its slot until it
   leaves the heap, so no slot is reused while a heap entry names it.

   Ordering contract (the determinism anchor for the whole simulator): pops
   follow the strict lexicographic (key, seq) order, byte-identical to the
   reference heap in test/pqueue.ml, for any seqs.

   Cancellation is lazy: [cancel] retires the entry in O(1); dead entries
   are dropped when they reach the root, or by an O(n) sweep once they
   outnumber the live ones, so mass-cancel workloads cannot grow the heap
   without bound.

   Lanes: beside the heap, any number of FIFO rings for entries the caller
   adds in ascending (key, seq) order — a tick re-armed a fixed period
   after the current time, with a fresh seq, always lands behind every
   earlier tick of that period.  Each ring is then already sorted, so add,
   pop and cancel on it are O(1), and a pop takes the least of the heap
   root and the lane heads.  A lane entry's handle carries [lane_tag] and
   names its lane and its ticket (the entry's position in the lane's add
   order); the ring slot holding the entry holds that ticket while the
   entry is live and -1 after, which is the lane's generation check.
   Dead lane entries are dropped when they reach their ring's head, so a
   ring holds no more than the entries added within one period. *)

type handle = int

(* Heap handle layout: low 32 bits = slab slot, bits 32-60 = generation
   at the time of issue (wraps at 2^29 retirements of a single slot).  A
   lane handle sets [lane_tag] (bit 61) and holds the lane in bits 48-60
   and the ticket, modulo 2^48, below. *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 29) - 1
let lane_tag = 1 lsl 61
let ticket_bits = 48
let ticket_mask = (1 lsl ticket_bits) - 1
let lane_max = 1 lsl 13

(* [-1] is negative and carries the lane tag, so cancel/handle_live treat
   it as already dead — a handle value that never names an entry. *)
let nil_handle = -1

(* One lane: a ring of [mask + 1] slots (a power of two) holding the
   entries with tickets [hd, tl), the entry with ticket [n] at slot
   [n land mask]. *)
type 'a lane = {
  mutable l_key : int array;
  mutable l_seq : int array;
  mutable l_tk : int array; (* the entry's ticket while live, else -1 *)
  mutable l_val : 'a array;
  mutable mask : int;
  mutable hd : int;
  mutable tl : int;
  mutable llive : int;
}

type 'a t = {
  (* Heap in heap order over [0, size); free slots in [size, capacity). *)
  mutable h_key : int array;
  mutable h_seq : int array;
  mutable h_hnd : int array; (* handle in the heap, bare slot in the tail *)
  mutable size : int; (* heap entries, live or dead *)
  (* Slab, indexed by slot. *)
  mutable e_gen : int array;
  mutable e_val : 'a array;
  filler : 'a; (* fills free slots, so no retired value is kept alive *)
  mutable live : int; (* heap and lanes *)
  mutable hlive : int; (* heap only *)
  mutable lanes : 'a lane array;
  (* Reusable pop_pick scratch: the candidates, as heap positions or lane
     handles. *)
  mutable scratch : int array;
  (* Key/seq of the most recently popped entry (valid after a pop). *)
  mutable last_key : int;
  mutable last_seq : int;
}

let create filler =
  {
    h_key = [||];
    h_seq = [||];
    h_hnd = [||];
    size = 0;
    e_gen = [||];
    e_val = [||];
    filler;
    live = 0;
    hlive = 0;
    lanes = [||];
    scratch = [||];
    last_key = 0;
    last_seq = 0;
  }

let length q = q.live
let is_empty q = q.live = 0
let last_key q = q.last_key
let slab_capacity q = Array.length q.e_gen

(* A handle names a live entry iff its slot is in range and its generation
   is the slot's current one. *)
let is_current q h =
  let s = h land slot_mask in
  s < Array.length q.e_gen && q.e_gen.(s) = h lsr slot_bits

(* The entry in slot [s] stops being live: invalidate its handles and drop
   its value. *)
let retire q s =
  q.e_gen.(s) <- (q.e_gen.(s) + 1) land gen_mask;
  q.e_val.(s) <- q.filler;
  q.hlive <- q.hlive - 1;
  q.live <- q.live - 1

(* Called with the heap full (no free slot): double every array, handing
   the new slots to the free tail. *)
let grow q =
  let cap = Array.length q.e_gen in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  q.h_key <- extend q.h_key 0;
  q.h_seq <- extend q.h_seq 0;
  q.h_hnd <- Array.init ncap (fun i -> if i < cap then q.h_hnd.(i) else i);
  q.e_gen <- extend q.e_gen 0;
  q.e_val <- extend q.e_val q.filler

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

(* The sifts are top-level recursive functions taking everything as
   arguments, since a local closure over the arrays would be allocated per
   call; the annotations keep their comparisons and stores on ints rather
   than polymorphic.  Each moves a hole from [i] and fills it with
   [(key, seq, h)] where that entry fits. *)

(* Entries passed over on the way up move down into the hole. *)
let rec sift_up (hk : int array) (hs : int array) (hh : int array) key seq h i
    =
  let p = (i - 1) / 2 in
  if i > 0 && (hk.(p) > key || (hk.(p) = key && hs.(p) > seq)) then begin
    hk.(i) <- hk.(p);
    hs.(i) <- hs.(p);
    hh.(i) <- hh.(p);
    sift_up hk hs hh key seq h p
  end
  else begin
    hk.(i) <- key;
    hs.(i) <- seq;
    hh.(i) <- h
  end

(* Within [0, n), the smaller child, by (key, seq), moves up into the hole.
   Sibling order is as good as random, so the child is chosen without a
   branch: a mispredicted branch per level costs more than the rest of the
   level. *)
let rec sift_down (hk : int array) (hs : int array) (hh : int array) n key seq
    h i =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n then
      let lk = hk.(l) and rk = hk.(l + 1) in
      l
      + (Bool.to_int (rk < lk)
        lor (Bool.to_int (rk = lk) land Bool.to_int (hs.(l + 1) < hs.(l))))
    else l
  in
  if c < n && (hk.(c) < key || (hk.(c) = key && hs.(c) < seq)) then begin
    hk.(i) <- hk.(c);
    hs.(i) <- hs.(c);
    hh.(i) <- hh.(c);
    sift_down hk hs hh n key seq h c
  end
  else begin
    hk.(i) <- key;
    hs.(i) <- seq;
    hh.(i) <- h
  end

(* Unlink the root, live or not, and park its slot in the free tail. *)
let remove_root q =
  let n = q.size - 1 in
  q.size <- n;
  let hh = q.h_hnd in
  let slot = hh.(0) land slot_mask in
  let key = q.h_key.(n) and seq = q.h_seq.(n) and h = hh.(n) in
  hh.(n) <- slot;
  if n > 0 then sift_down q.h_key q.h_seq hh n key seq h 0

(* Drop dead entries at the root, so the root is the live minimum.
   Requires hlive > 0. *)
let rec settle q =
  if not (is_current q q.h_hnd.(0)) then begin
    remove_root q;
    settle q
  end

(* ------------------------------------------------------------------ *)
(* Lanes                                                               *)
(* ------------------------------------------------------------------ *)

let new_lane q =
  let n = Array.length q.lanes in
  if n = lane_max then invalid_arg "Calq.new_lane: too many lanes";
  let cap = 16 in
  let ln =
    {
      l_key = Array.make cap 0;
      l_seq = Array.make cap 0;
      l_tk = Array.make cap (-1);
      l_val = Array.make cap q.filler;
      mask = cap - 1;
      hd = 0;
      tl = 0;
      llive = 0;
    }
  in
  q.lanes <- Array.append q.lanes [| ln |];
  n

let lane_handle lane ticket =
  lane_tag lor (lane lsl ticket_bits) lor (ticket land ticket_mask)

(* Called with the ring full: double it, re-placing each entry at the slot
   its ticket names under the wider mask. *)
let grow_lane q ln =
  let cap = ln.mask + 1 in
  let ncap = 2 * cap in
  let nmask = ncap - 1 in
  let key = Array.make ncap 0
  and seq = Array.make ncap 0
  and tk = Array.make ncap (-1)
  and v = Array.make ncap q.filler in
  for n = ln.hd to ln.tl - 1 do
    let i = n land ln.mask and j = n land nmask in
    key.(j) <- ln.l_key.(i);
    seq.(j) <- ln.l_seq.(i);
    tk.(j) <- ln.l_tk.(i);
    v.(j) <- ln.l_val.(i)
  done;
  ln.l_key <- key;
  ln.l_seq <- seq;
  ln.l_tk <- tk;
  ln.l_val <- v;
  ln.mask <- nmask

let add_lane q ~lane ~key ~seq v =
  if lane < 0 || lane >= Array.length q.lanes then
    invalid_arg "Calq.add_lane: no such lane";
  let ln = q.lanes.(lane) in
  (* An all-dead ring is emptied, so its dead entries bound no order. *)
  if ln.llive = 0 then ln.hd <- ln.tl
  else begin
    let j = (ln.tl - 1) land ln.mask in
    let k = ln.l_key.(j) in
    if key < k || (key = k && seq <= ln.l_seq.(j)) then
      invalid_arg "Calq.add_lane: out of order"
  end;
  if ln.tl - ln.hd > ln.mask then grow_lane q ln;
  let n = ln.tl in
  let i = n land ln.mask in
  ln.l_key.(i) <- key;
  ln.l_seq.(i) <- seq;
  ln.l_tk.(i) <- n;
  ln.l_val.(i) <- v;
  ln.tl <- n + 1;
  ln.llive <- ln.llive + 1;
  q.live <- q.live + 1;
  lane_handle lane n

(* The ring slot a lane handle names if its entry is still live, else
   -1. *)
let lane_slot q h =
  if h < 0 then -1
  else
    let l = (h lsr ticket_bits) land (lane_max - 1) in
    if l >= Array.length q.lanes then -1
    else
      let ln = q.lanes.(l) in
      let t = h land ticket_mask in
      let i = t land ln.mask in
      let tk = ln.l_tk.(i) in
      if tk >= 0 && tk land ticket_mask = t then i else -1

let lane_of_handle q h = q.lanes.((h lsr ticket_bits) land (lane_max - 1))

(* The entry in ring slot [i] stops being live. *)
let retire_lane q ln i =
  ln.l_tk.(i) <- -1;
  ln.l_val.(i) <- q.filler;
  ln.llive <- ln.llive - 1;
  q.live <- q.live - 1

(* Drop dead entries at the head, so the head is the lane's live minimum.
   Requires llive > 0. *)
let rec settle_lane ln =
  if ln.l_tk.(ln.hd land ln.mask) < 0 then begin
    ln.hd <- ln.hd + 1;
    settle_lane ln
  end

(* The lane whose live head is least by (key, seq), from lane [l] on,
   against the best found so far; -1 when no lane holds a live entry. *)
let rec min_lane (lanes : 'a lane array) l best =
  if l = Array.length lanes then best
  else
    let ln = lanes.(l) in
    if ln.llive = 0 then min_lane lanes (l + 1) best
    else begin
      settle_lane ln;
      let better =
        best < 0
        ||
        let b = lanes.(best) in
        let i = ln.hd land ln.mask and j = b.hd land b.mask in
        let k = ln.l_key.(i) and bk = b.l_key.(j) in
        k < bk || (k = bk && ln.l_seq.(i) < b.l_seq.(j))
      in
      min_lane lanes (l + 1) (if better then l else best)
    end

(* ------------------------------------------------------------------ *)
(* Add, pop                                                            *)
(* ------------------------------------------------------------------ *)

let add q ~key ~seq v =
  if q.size = Array.length q.e_gen then grow q;
  let i = q.size in
  let s = q.h_hnd.(i) in
  let h = (q.e_gen.(s) lsl slot_bits) lor s in
  q.e_val.(s) <- v;
  q.hlive <- q.hlive + 1;
  q.live <- q.live + 1;
  q.size <- i + 1;
  sift_up q.h_key q.h_seq q.h_hnd key seq h i;
  h

(* Read out the live entry at heap position [p] and retire it. *)
let take q p =
  let s = q.h_hnd.(p) land slot_mask in
  let v = q.e_val.(s) in
  q.last_key <- q.h_key.(p);
  q.last_seq <- q.h_seq.(p);
  retire q s;
  v

(* The same for ring slot [i] of [ln]; the head slot also leaves the
   ring. *)
let take_lane q ln i =
  let v = ln.l_val.(i) in
  q.last_key <- ln.l_key.(i);
  q.last_seq <- ln.l_seq.(i);
  retire_lane q ln i;
  if i = ln.hd land ln.mask then ln.hd <- ln.hd + 1;
  v

let ahead_of_root q k s =
  let hk = q.h_key.(0) in
  k < hk || (k = hk && s < q.h_seq.(0))

(* The source of the live minimum: the heap ([-1]) or a lane.  Settles
   every lane head it compares, and the heap root unless a lane head is
   ahead of it.  Requires live > 0. *)
let first q =
  let l = if q.live = q.hlive then -1 else min_lane q.lanes 0 (-1) in
  if l < 0 then begin
    settle q;
    -1
  end
  else if q.hlive = 0 then l
  else begin
    let ln = q.lanes.(l) in
    let i = ln.hd land ln.mask in
    let k = ln.l_key.(i) and s = ln.l_seq.(i) in
    (* The root, live or dead, is no later than the heap's live minimum,
       so a lane head ahead of it wins without settling the heap. *)
    if ahead_of_root q k s then l
    else begin
      settle q;
      if ahead_of_root q k s then l else -1
    end
  end

let pop_exn q =
  if q.live = 0 then invalid_arg "Calq.pop_exn: empty";
  let l = first q in
  if l < 0 then begin
    let v = take q 0 in
    remove_root q;
    v
  end
  else
    let ln = q.lanes.(l) in
    take_lane q ln (ln.hd land ln.mask)

let pop q =
  if q.live = 0 then None
  else begin
    let v = pop_exn q in
    Some (q.last_key, q.last_seq, v)
  end

let next_key q =
  if q.live = 0 then max_int
  else
    let l = first q in
    if l < 0 then q.h_key.(0)
    else
      let ln = q.lanes.(l) in
      ln.l_key.(ln.hd land ln.mask)

let peek_key q =
  if q.live = 0 then None
  else
    let l = first q in
    if l < 0 then Some (q.h_key.(0), q.h_seq.(0))
    else
      let ln = q.lanes.(l) in
      let i = ln.hd land ln.mask in
      Some (ln.l_key.(i), ln.l_seq.(i))

(* ------------------------------------------------------------------ *)
(* Cancel and sweep                                                    *)
(* ------------------------------------------------------------------ *)

(* Partition the heap into its live entries, at the front, and the slots
   of the dead ones, parked just behind them; then rebuild the heap over
   the survivors (Floyd, O(n)).  Observable order is untouched: it is fully
   determined by the (key, seq) pairs of the live entries. *)
let sweep q =
  let hk = q.h_key and hs = q.h_seq and hh = q.h_hnd in
  let w = ref 0 in
  for i = 0 to q.size - 1 do
    let h = hh.(i) in
    if is_current q h then begin
      (* [w, i) holds parked slots: swap the first one out. *)
      if !w < i then begin
        hh.(i) <- hh.(!w);
        hk.(!w) <- hk.(i);
        hs.(!w) <- hs.(i);
        hh.(!w) <- h
      end;
      incr w
    end
    else hh.(i) <- h land slot_mask
  done;
  let n = !w in
  q.size <- n;
  for i = (n / 2) - 1 downto 0 do
    sift_down hk hs hh n hk.(i) hs.(i) hh.(i) i
  done

(* Amortized O(1) per cancellation: sweep only once dead entries dominate
   and there are enough to pay for the walk. *)
let maybe_sweep q =
  let dead = q.size - q.hlive in
  if dead > 64 && dead > q.hlive then sweep q

let cancel q h =
  if h land lane_tag = 0 then begin
    if is_current q h then begin
      retire q (h land slot_mask);
      maybe_sweep q
    end
  end
  else
    let i = lane_slot q h in
    if i >= 0 then retire_lane q (lane_of_handle q h) i

let handle_live q h =
  if h land lane_tag = 0 then is_current q h else lane_slot q h >= 0

(* ------------------------------------------------------------------ *)
(* pop_pick: same-instant candidate selection                          *)
(* ------------------------------------------------------------------ *)

(* A candidate is a heap position, or the handle of a live lane entry
   (told apart by [lane_tag]), pushed onto the scratch array after the
   [n] already there; returns the new count. *)
let push_candidate q c n =
  if n = Array.length q.scratch then begin
    let ns = Array.make (max 16 (2 * n)) 0 in
    Array.blit q.scratch 0 ns 0 n;
    q.scratch <- ns
  end;
  q.scratch.(n) <- c;
  n + 1

let candidate_seq q c =
  if c land lane_tag = 0 then q.h_seq.(c)
  else
    let ln = lane_of_handle q c in
    ln.l_seq.(c land ticket_mask land ln.mask)

(* Push the heap positions of the live entries keyed [kmin] in the
   subtree at [p].  An entry with a larger key heads a subtree whose keys
   are all larger, so the walk touches only minimal-key entries (dead ones
   too: their children may be live) plus their direct children. *)
let rec collect q kmin p n =
  if p < q.size && q.h_key.(p) = kmin then begin
    let n = if is_current q q.h_hnd.(p) then push_candidate q p n else n in
    collect q kmin ((2 * p) + 2) (collect q kmin ((2 * p) + 1) n)
  end
  else n

(* Push the live entries keyed [kmin] of lane [l], from ticket [t] on:
   ring order is key order, so they form a run from the head. *)
let rec collect_lane q l kmin t n =
  let ln = q.lanes.(l) in
  if t = ln.tl then n
  else
    let i = t land ln.mask in
    if ln.l_key.(i) <> kmin then n
    else
      let n =
        if ln.l_tk.(i) < 0 then n
        else push_candidate q (lane_handle l t) n
      in
      collect_lane q l kmin (t + 1) n

(* The live entries keyed [kmin], heap and lanes, in the scratch array in
   ascending seq; returns their count. *)
let collect_candidates q kmin =
  let n = ref (if q.hlive > 0 then collect q kmin 0 0 else 0) in
  for l = 0 to Array.length q.lanes - 1 do
    let ln = q.lanes.(l) in
    if ln.llive > 0 then n := collect_lane q l kmin ln.hd !n
  done;
  let n = !n in
  let sc = q.scratch in
  for i = 1 to n - 1 do
    let c = sc.(i) in
    let seq = candidate_seq q c in
    let j = ref (i - 1) in
    while !j >= 0 && candidate_seq q sc.(!j) > seq do
      sc.(!j + 1) <- sc.(!j);
      decr j
    done;
    sc.(!j + 1) <- c
  done;
  n

(* The least of the heap root and the lane heads, once [first] has
   settled them, is candidate 0, so a pick of 0 is exactly [pop_exn].  A
   dead root left unsettled comes after the lane head that won, so it
   holds [kmin] only on a key tie, and [collect] walks past it.  Any other
   pick is retired in place, exactly like a cancellation. *)
let pop_pick_exn q ~pick =
  if q.live = 0 then invalid_arg "Calq.pop_pick_exn: empty";
  let n = collect_candidates q (next_key q) in
  let i =
    if n <= 1 then 0
    else
      let i = pick n in
      if i < 0 || i >= n then 0 else i
  in
  let c = q.scratch.(i) in
  if c land lane_tag = 0 then begin
    let v = take q c in
    if c = 0 then remove_root q else maybe_sweep q;
    v
  end
  else
    let ln = lane_of_handle q c in
    take_lane q ln (c land ticket_mask land ln.mask)

let pop_pick q ~pick =
  if q.live = 0 then None
  else begin
    let v = pop_pick_exn q ~pick in
    Some (q.last_key, q.last_seq, v)
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let to_list q =
  let out = ref [] in
  for p = 0 to q.size - 1 do
    if is_current q q.h_hnd.(p) then
      out :=
        (q.h_key.(p), q.h_seq.(p), q.e_val.(q.h_hnd.(p) land slot_mask))
        :: !out
  done;
  Array.iter
    (fun ln ->
      for t = ln.hd to ln.tl - 1 do
        let i = t land ln.mask in
        if ln.l_tk.(i) >= 0 then
          out := (ln.l_key.(i), ln.l_seq.(i), ln.l_val.(i)) :: !out
      done)
    q.lanes;
  List.sort
    (fun (k1, s1, _) (k2, s2, _) ->
      if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2)
    !out
