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
   without bound. *)

type handle = int

(* Handle layout: low 32 bits = slab slot, upper bits = generation at the
   time of issue (wraps at 2^30 retirements of a single slot). *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 30) - 1

(* [-1] decodes to an out-of-range slot, so cancel/handle_live treat it as
   already dead — a handle value that never names an entry. *)
let nil_handle = -1

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
  mutable live : int;
  (* Reusable pop_pick scratch: heap positions of the candidates. *)
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
   Requires live > 0. *)
let rec settle q =
  if not (is_current q q.h_hnd.(0)) then begin
    remove_root q;
    settle q
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

let pop_exn q =
  if q.live = 0 then invalid_arg "Calq.pop_exn: empty";
  settle q;
  let v = take q 0 in
  remove_root q;
  v

let pop q =
  if q.live = 0 then None
  else begin
    let v = pop_exn q in
    Some (q.last_key, q.last_seq, v)
  end

let next_key q =
  if q.live = 0 then max_int
  else begin
    settle q;
    q.h_key.(0)
  end

let peek_key q =
  if q.live = 0 then None
  else begin
    settle q;
    Some (q.h_key.(0), q.h_seq.(0))
  end

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
  let dead = q.size - q.live in
  if dead > 64 && dead > q.live then sweep q

let cancel q h =
  if is_current q h then begin
    retire q (h land slot_mask);
    maybe_sweep q
  end

let handle_live = is_current

(* ------------------------------------------------------------------ *)
(* pop_pick: same-instant candidate selection                          *)
(* ------------------------------------------------------------------ *)

(* Push onto the scratch array the heap positions of the live entries
   keyed [kmin] in the subtree at [p], after the [n] already there; returns
   the new count.  An entry with a larger key heads a subtree whose keys are
   all larger, so the walk touches only minimal-key entries (dead ones too:
   their children may be live) plus their direct children. *)
let rec collect q kmin p n =
  if p < q.size && q.h_key.(p) = kmin then begin
    let n =
      if is_current q q.h_hnd.(p) then begin
        if n = Array.length q.scratch then begin
          let ns = Array.make (max 16 (2 * n)) 0 in
          Array.blit q.scratch 0 ns 0 n;
          q.scratch <- ns
        end;
        q.scratch.(n) <- p;
        n + 1
      end
      else n
    in
    collect q kmin ((2 * p) + 2) (collect q kmin ((2 * p) + 1) n)
  end
  else n

(* The live entries keyed [kmin], as heap positions in the scratch array in
   ascending seq; returns their count. *)
let collect_candidates q kmin =
  let n = collect q kmin 0 0 in
  let sc = q.scratch and hs = q.h_seq in
  for i = 1 to n - 1 do
    let p = sc.(i) in
    let seq = hs.(p) in
    let j = ref (i - 1) in
    while !j >= 0 && hs.(sc.(!j)) > seq do
      sc.(!j + 1) <- sc.(!j);
      decr j
    done;
    sc.(!j + 1) <- p
  done;
  n

(* After [settle] the root is the live minimum, so it is candidate 0 and a
   pick of 0 is exactly [pop_exn].  Any other pick is retired in place,
   exactly like a cancellation. *)
let pop_pick_exn q ~pick =
  if q.live = 0 then invalid_arg "Calq.pop_pick_exn: empty";
  settle q;
  let n = collect_candidates q q.h_key.(0) in
  let i =
    if n <= 1 then 0
    else
      let i = pick n in
      if i < 0 || i >= n then 0 else i
  in
  let p = q.scratch.(i) in
  let v = take q p in
  if p = 0 then remove_root q else maybe_sweep q;
  v

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
  List.sort
    (fun (k1, s1, _) (k2, s2, _) ->
      if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2)
    !out
