(* Calendar event queue: ns-keyed buckets with per-bucket FIFO in seq order.

   The discrete-event hot path is dominated by same-instant traffic: a burst
   of events all keyed to the current nanosecond (zero-delay continuations,
   segment completions started together).  A binary heap pays O(log n) and a
   write barrier per sift step for every one of them.  Here an event lands
   in the bucket of its exact ns key — appended to the bucket's FIFO tail in
   O(1) — and pops take the head of the minimum bucket in O(1).  Only the
   first event of a *new* instant pays O(log k) to push its bucket into a
   small index heap, where k is the number of distinct pending instants
   (typically orders of magnitude below the pending-event count).

   Allocation discipline: the queue never allocates on the steady-state
   add/pop path.  Entries live in a struct-of-arrays slab (int fields plus
   one value array) recycled through a freelist; handles are generation-
   tagged immediate ints, so posting an event allocates nothing and a stale
   handle can never cancel a recycled slot.  The only GC-visible write per
   add is the value store itself.

   Ordering contract (the determinism anchor for the whole simulator): pops
   follow the strict lexicographic (key, seq) order, byte-identical to the
   binary-heap oracle in test/pqueue.ml.  Within a bucket the FIFO is kept in
   ascending seq order — O(1) for the monotone seqs the simulator generates,
   with a sorted-insert fallback for out-of-order generic use.  Buckets are
   deduplicated through a lossy direct-mapped memo; when the memo misses, a
   duplicate bucket for the same key is allowed, and the index heap breaks
   ties by the seq of each bucket's head, which keeps the global order exact
   (see [prio_lt]).

   Cancellation is lazy: [cancel] marks the entry dead in
   O(1); dead entries are reclaimed when a pop reaches them, or by an O(n)
   sweep once they outnumber the live ones, so mass-cancel workloads cannot
   grow the slab without bound. *)

type handle = int

(* Handle layout: low 32 bits = slab slot, upper bits = generation at the
   time of issue.  The generation is bumped whenever a slot is freed, so a
   handle retained across its entry's death never matches again (wraps at
   2^30 reuses of a single slot). *)
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 30) - 1

(* [-1] decodes to an out-of-range slot, so cancel/handle_live treat it as
   already dead — a handle value that never names an entry. *)
let nil_handle = -1

(* Entry states in [e_state]. *)
let st_free = 0
let st_live = 1
let st_dead = 2 (* cancelled, or picked out of FIFO position: await unlink *)

let nil = -1
let memo_size = 1024

(* Multiplicative hash: ns keys are dense in their low bits only for
   zero-delay bursts and round in their high bits for us/ms periods, so mix
   before indexing the memo. *)
let memo_idx key = (key * 0x2545F4914F6CDD1D) lsr 40 land (memo_size - 1)

type 'a t = {
  (* Entry slab, struct of arrays; the slot index is the entry identity.
     Parallel int arrays keep every bookkeeping write barrier-free. *)
  mutable e_key : int array;
  mutable e_seq : int array;
  mutable e_gen : int array;
  mutable e_next : int array; (* bucket FIFO link, or freelist link *)
  mutable e_state : int array;
  mutable e_val : 'a array; (* [||] until the first add *)
  filler : 'a; (* fills free slots, so no freed value is kept alive *)
  mutable free_head : int;
  mutable live : int;
  mutable dead : int;
  (* Buckets, struct of arrays: one per distinct pending key (plus rare
     memo-miss duplicates).  A bucket is active iff [b_head >= 0]. *)
  mutable b_key : int array;
  mutable b_head : int array;
  mutable b_tail : int array; (* doubles as the bucket freelist link *)
  mutable b_pos : int array; (* heap position while active *)
  mutable b_free : int;
  (* Index min-heap of active buckets, ordered by (key, seq of head). *)
  mutable hp : int array;
  mutable hp_size : int;
  (* Lossy direct-mapped memo: key hash -> candidate bucket id.  Purely an
     accelerator; entries are verified (active + exact key) before use. *)
  memo : int array;
  (* Reusable pop_pick scratch: candidate entry slots and their buckets. *)
  mutable scratch : int array;
  mutable scratch_b : int array;
  (* Key/seq of the most recently popped entry (valid after a pop). *)
  mutable last_key : int;
  mutable last_seq : int;
}

let create filler =
  {
    e_key = [||];
    e_seq = [||];
    e_gen = [||];
    e_next = [||];
    e_state = [||];
    e_val = [||];
    filler;
    free_head = nil;
    live = 0;
    dead = 0;
    b_key = [||];
    b_head = [||];
    b_tail = [||];
    b_pos = [||];
    b_free = nil;
    hp = [||];
    hp_size = 0;
    memo = Array.make memo_size nil;
    scratch = [||];
    scratch_b = [||];
    last_key = 0;
    last_seq = 0;
  }

let length q = q.live
let is_empty q = q.live = 0
let last_key q = q.last_key
let slab_capacity q = Array.length q.e_key
let bucket_count q = q.hp_size

(* ------------------------------------------------------------------ *)
(* Entry slab                                                          *)
(* ------------------------------------------------------------------ *)

let grow_int_array a cap ncap fill =
  let n = Array.make ncap fill in
  Array.blit a 0 n 0 cap;
  n

let grow_entries q =
  let cap = Array.length q.e_key in
  if cap = 0 then begin
    q.e_key <- Array.make 16 0;
    q.e_seq <- Array.make 16 0;
    q.e_gen <- Array.make 16 0;
    q.e_next <- Array.init 16 (fun i -> if i = 15 then nil else i + 1);
    q.e_state <- Array.make 16 st_free;
    q.e_val <- Array.make 16 q.filler;
    q.free_head <- 0
  end
  else begin
    let ncap = cap * 2 in
    q.e_key <- grow_int_array q.e_key cap ncap 0;
    q.e_seq <- grow_int_array q.e_seq cap ncap 0;
    q.e_gen <- grow_int_array q.e_gen cap ncap 0;
    q.e_state <- grow_int_array q.e_state cap ncap st_free;
    let next = Array.make ncap nil in
    Array.blit q.e_next 0 next 0 cap;
    for i = cap to ncap - 1 do
      next.(i) <- (if i = ncap - 1 then q.free_head else i + 1)
    done;
    q.e_next <- next;
    let vals = Array.make ncap q.filler in
    Array.blit q.e_val 0 vals 0 cap;
    q.e_val <- vals;
    q.free_head <- cap
  end

let alloc_entry q ~key ~seq v =
  if q.free_head = nil then grow_entries q;
  let s = q.free_head in
  q.free_head <- q.e_next.(s);
  q.e_key.(s) <- key;
  q.e_seq.(s) <- seq;
  q.e_next.(s) <- nil;
  q.e_state.(s) <- st_live;
  q.e_val.(s) <- v;
  q.live <- q.live + 1;
  s

(* Free a slot: bump the generation (invalidating outstanding handles),
   clear the value so the GC can drop it, and push onto the freelist. *)
let free_entry q s =
  q.e_gen.(s) <- (q.e_gen.(s) + 1) land gen_mask;
  q.e_state.(s) <- st_free;
  q.e_val.(s) <- q.filler;
  q.e_next.(s) <- q.free_head;
  q.free_head <- s

(* ------------------------------------------------------------------ *)
(* Bucket index heap                                                   *)
(* ------------------------------------------------------------------ *)

(* Bucket priority: (key, seq of head entry), strict lexicographic.  Head
   seqs are compared even across dead heads — a dead head only lowers its
   bucket's priority, which [settle] repairs before anything observable. *)
let prio_lt q a b =
  let ka = q.b_key.(a) and kb = q.b_key.(b) in
  ka < kb || (ka = kb && q.e_seq.(q.b_head.(a)) < q.e_seq.(q.b_head.(b)))

let hp_swap q i j =
  let bi = q.hp.(i) and bj = q.hp.(j) in
  q.hp.(i) <- bj;
  q.hp.(j) <- bi;
  q.b_pos.(bi) <- j;
  q.b_pos.(bj) <- i

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if prio_lt q q.hp.(i) q.hp.(parent) then begin
      hp_swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.hp_size && prio_lt q q.hp.(left) q.hp.(!smallest) then
    smallest := left;
  if right < q.hp_size && prio_lt q q.hp.(right) q.hp.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    hp_swap q i !smallest;
    sift_down q !smallest
  end

let hp_push q b =
  let cap = Array.length q.hp in
  if q.hp_size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    q.hp <- grow_int_array q.hp cap ncap nil
  end;
  q.hp.(q.hp_size) <- b;
  q.b_pos.(b) <- q.hp_size;
  q.hp_size <- q.hp_size + 1;
  sift_up q (q.hp_size - 1)

let hp_remove_at q pos =
  q.hp_size <- q.hp_size - 1;
  if pos < q.hp_size then begin
    let moved = q.hp.(q.hp_size) in
    q.hp.(pos) <- moved;
    q.b_pos.(moved) <- pos;
    sift_down q pos;
    sift_up q pos
  end

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)
(* ------------------------------------------------------------------ *)

let grow_buckets q =
  let cap = Array.length q.b_key in
  let ncap = if cap = 0 then 16 else cap * 2 in
  q.b_key <- grow_int_array q.b_key cap ncap min_int;
  q.b_head <- grow_int_array q.b_head cap ncap nil;
  q.b_tail <- grow_int_array q.b_tail cap ncap nil;
  q.b_pos <- grow_int_array q.b_pos cap ncap nil;
  for i = ncap - 1 downto cap do
    q.b_tail.(i) <- q.b_free;
    q.b_free <- i
  done

let alloc_bucket q ~key ~head =
  if q.b_free = nil then grow_buckets q;
  let b = q.b_free in
  q.b_free <- q.b_tail.(b);
  q.b_key.(b) <- key;
  q.b_head.(b) <- head;
  q.b_tail.(b) <- head;
  hp_push q b;
  b

let free_bucket q b =
  q.b_key.(b) <- min_int;
  q.b_head.(b) <- nil;
  q.b_tail.(b) <- q.b_free;
  q.b_free <- b

(* ------------------------------------------------------------------ *)
(* Add                                                                 *)
(* ------------------------------------------------------------------ *)

(* Out-of-order seq for an existing key: walk the FIFO to the insertion
   point.  Never taken by the simulator (seqs are globally monotone); kept
   for generic use so the (key, seq) contract holds unconditionally. *)
let insert_sorted q b slot seq =
  let rec go prev cur =
    if cur = nil || q.e_seq.(cur) > seq then begin
      q.e_next.(slot) <- cur;
      if prev = nil then begin
        q.b_head.(b) <- slot;
        (* The head seq just decreased: restore the heap invariant. *)
        sift_up q q.b_pos.(b)
      end
      else q.e_next.(prev) <- slot;
      if cur = nil then q.b_tail.(b) <- slot
    end
    else go cur q.e_next.(cur)
  in
  go nil q.b_head.(b)

let add q ~key ~seq v =
  let slot = alloc_entry q ~key ~seq v in
  let h = (q.e_gen.(slot) lsl slot_bits) lor slot in
  let mi = memo_idx key in
  let b0 = q.memo.(mi) in
  let b =
    if b0 <> nil && q.b_head.(b0) >= 0 && q.b_key.(b0) = key then b0
    else if q.hp_size > 0 && q.b_key.(q.hp.(0)) = key then begin
      let r = q.hp.(0) in
      q.memo.(mi) <- r;
      r
    end
    else begin
      let b = alloc_bucket q ~key ~head:slot in
      q.memo.(mi) <- b;
      b
    end
  in
  if q.b_head.(b) <> slot then begin
    let tail = q.b_tail.(b) in
    if q.e_seq.(tail) <= seq then begin
      (* Same-epoch fast path: append to the FIFO tail, O(1). *)
      q.e_next.(tail) <- slot;
      q.b_tail.(b) <- slot
    end
    else insert_sorted q b slot seq
  end;
  h

(* ------------------------------------------------------------------ *)
(* Settle: make the minimum bucket's head live                         *)
(* ------------------------------------------------------------------ *)

(* Unlink the head entry of the bucket at heap position [pos]; the caller
   has already read anything it needs from the slot. *)
let unlink_head q pos b =
  let s = q.b_head.(b) in
  let n = q.e_next.(s) in
  free_entry q s;
  if n = nil then begin
    hp_remove_at q pos;
    free_bucket q b
  end
  else begin
    q.b_head.(b) <- n;
    (* The head seq increased, so the bucket can only need to move down.
       When it is the only bucket at its key, the first comparison stops
       the sift, so same-epoch pops stay O(1). *)
    sift_down q pos
  end

(* Reclaim dead entries sitting at the front of the minimum bucket, so the
   root head is live.  Requires live > 0. *)
let rec settle q =
  let b = q.hp.(0) in
  if q.e_state.(q.b_head.(b)) <> st_live then begin
    q.dead <- q.dead - 1;
    unlink_head q 0 b;
    settle q
  end

(* ------------------------------------------------------------------ *)
(* Pop                                                                 *)
(* ------------------------------------------------------------------ *)

let pop_exn q =
  if q.live = 0 then invalid_arg "Calq.pop_exn: empty";
  settle q;
  let b = q.hp.(0) in
  let s = q.b_head.(b) in
  let v = q.e_val.(s) in
  q.last_key <- q.e_key.(s);
  q.last_seq <- q.e_seq.(s);
  q.live <- q.live - 1;
  unlink_head q 0 b;
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
    q.b_key.(q.hp.(0))
  end

let peek_key q =
  if q.live = 0 then None
  else begin
    settle q;
    let b = q.hp.(0) in
    Some (q.b_key.(b), q.e_seq.(q.b_head.(b)))
  end

(* ------------------------------------------------------------------ *)
(* Sweep: reclaim dead entries left deep inside buckets                *)
(* ------------------------------------------------------------------ *)

let sweep q =
  (* Unlink every dead entry, dropping buckets that empty out, then
     rebuild the index heap over the survivors (Floyd, O(k)).  Observable
     order is untouched: it is fully determined by the (key, seq) pairs of
     the live entries. *)
  let w = ref 0 in
  for pos = 0 to q.hp_size - 1 do
    let b = q.hp.(pos) in
    let head = ref nil and tail = ref nil in
    let cur = ref q.b_head.(b) in
    while !cur <> nil do
      let s = !cur in
      let next = q.e_next.(s) in
      if q.e_state.(s) = st_live then begin
        if !head = nil then head := s else q.e_next.(!tail) <- s;
        q.e_next.(s) <- nil;
        tail := s
      end
      else free_entry q s;
      cur := next
    done;
    if !head = nil then free_bucket q b
    else begin
      q.b_head.(b) <- !head;
      q.b_tail.(b) <- !tail;
      q.hp.(!w) <- b;
      incr w
    end
  done;
  q.hp_size <- !w;
  for i = 0 to q.hp_size - 1 do
    q.b_pos.(q.hp.(i)) <- i
  done;
  for i = (q.hp_size / 2) - 1 downto 0 do
    sift_down q i
  done;
  q.dead <- 0

(* Amortized O(1) per cancellation: sweep only once dead entries dominate
   and there are enough to pay for the walk. *)
let maybe_sweep q = if q.dead > 64 && q.dead > q.live then sweep q

(* ------------------------------------------------------------------ *)
(* Cancel                                                              *)
(* ------------------------------------------------------------------ *)

let cancel q h =
  let s = h land slot_mask in
  if
    s < Array.length q.e_key
    && q.e_gen.(s) = h lsr slot_bits
    && q.e_state.(s) = st_live
  then begin
    q.e_state.(s) <- st_dead;
    q.e_val.(s) <- q.filler;
    q.live <- q.live - 1;
    q.dead <- q.dead + 1;
    maybe_sweep q
  end

let handle_live q h =
  let s = h land slot_mask in
  s < Array.length q.e_key
  && q.e_gen.(s) = h lsr slot_bits
  && q.e_state.(s) = st_live

(* ------------------------------------------------------------------ *)
(* pop_pick: same-instant candidate selection                          *)
(* ------------------------------------------------------------------ *)

let grow_scratch q n =
  let cap = Array.length q.scratch in
  if n > cap then begin
    let ncap = max 16 (max n (cap * 2)) in
    q.scratch <- grow_int_array q.scratch cap ncap nil;
    q.scratch_b <- grow_int_array q.scratch_b cap ncap nil
  end

(* Collect the live entries of every bucket keyed [kmin] into the scratch
   arrays.  Buckets with a larger key head heap subtrees whose keys are all
   larger, so the walk touches only minimal-key buckets (plus their direct
   children, for the bound check). *)
let collect_candidates q kmin =
  let n = ref 0 in
  let rec walk pos =
    if pos < q.hp_size then begin
      let b = q.hp.(pos) in
      if q.b_key.(b) = kmin then begin
        let cur = ref q.b_head.(b) in
        while !cur <> nil do
          if q.e_state.(!cur) = st_live then begin
            grow_scratch q (!n + 1);
            q.scratch.(!n) <- !cur;
            q.scratch_b.(!n) <- b;
            incr n
          end;
          cur := q.e_next.(!cur)
        done;
        walk ((2 * pos) + 1);
        walk ((2 * pos) + 2)
      end
    end
  in
  walk 0;
  (* Ascending seq across buckets.  Each bucket contributed an ascending
     run, so this insertion sort is O(n) unless memo misses created
     duplicate buckets — and those are rare and short-lived. *)
  let sc = q.scratch and scb = q.scratch_b in
  for i = 1 to !n - 1 do
    let s = sc.(i) and b = scb.(i) in
    let seq = q.e_seq.(s) in
    let j = ref (i - 1) in
    while !j >= 0 && q.e_seq.(sc.(!j)) > seq do
      sc.(!j + 1) <- sc.(!j);
      scb.(!j + 1) <- scb.(!j);
      decr j
    done;
    sc.(!j + 1) <- s;
    scb.(!j + 1) <- b
  done;
  !n

let pop_pick_exn q ~pick =
  if q.live = 0 then invalid_arg "Calq.pop_pick_exn: empty";
  settle q;
  let kmin = q.b_key.(q.hp.(0)) in
  let n = collect_candidates q kmin in
  let i =
    if n <= 1 then 0
    else
      let i = pick n in
      if i < 0 || i >= n then 0 else i
  in
  let s = q.scratch.(i) in
  let b = q.scratch_b.(i) in
  let v = q.e_val.(s) in
  q.last_key <- q.e_key.(s);
  q.last_seq <- q.e_seq.(s);
  q.live <- q.live - 1;
  if q.b_head.(b) = s then unlink_head q q.b_pos.(b) b
  else begin
    (* Picked out of FIFO position: exactly a cancellation, reclaimed by
       the same lazy machinery. *)
    q.e_state.(s) <- st_dead;
    q.e_val.(s) <- q.filler;
    q.dead <- q.dead + 1;
    maybe_sweep q
  end;
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
  for pos = 0 to q.hp_size - 1 do
    let cur = ref q.b_head.(q.hp.(pos)) in
    while !cur <> nil do
      let s = !cur in
      if q.e_state.(s) = st_live then
        out := (q.e_key.(s), q.e_seq.(s), q.e_val.(s)) :: !out;
      cur := q.e_next.(s)
    done
  done;
  List.sort
    (fun (k1, s1, _) (k2, s2, _) ->
      if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2)
    !out
