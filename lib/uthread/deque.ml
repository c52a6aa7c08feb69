(* Ring-buffer deque.  The classic two-list ("banker's") deque is amortised
   O(1) per end, but the ready-list access pattern here — LIFO pushes and
   pops at the front with occasional steals from the back — is exactly its
   worst case: every steal finds the back list empty and reverses the whole
   front list, and the next steal does it again.  A circular array is O(1)
   worst case at both ends and allocation-free in steady state.

   The buffer is sized to a power of two so index wrap is a mask.  Popped
   slots are overwritten with the filler the deque was created with, so it
   never keeps a popped element alive. *)

type 'a t = {
  mutable buf : 'a array;  (* length is a power of two, or 0 before use *)
  mutable head : int;  (* index of the front element, when size > 0 *)
  mutable size : int;
  filler : 'a;  (* fills every slot that holds no element *)
}

let initial_capacity = 16

let create filler = { buf = [||]; head = 0; size = 0; filler }
let is_empty t = t.size = 0
let length t = t.size

let grow t =
  if Array.length t.buf = 0 then begin
    t.buf <- Array.make initial_capacity t.filler;
    t.head <- 0
  end
  else begin
    let len = Array.length t.buf in
    let nbuf = Array.make (2 * len) t.filler in
    let mask = len - 1 in
    for i = 0 to t.size - 1 do
      nbuf.(i) <- t.buf.((t.head + i) land mask)
    done;
    t.buf <- nbuf;
    t.head <- 0
  end

let push_front t x =
  if t.size = Array.length t.buf then grow t;
  let mask = Array.length t.buf - 1 in
  let i = (t.head - 1) land mask in
  t.buf.(i) <- x;
  t.head <- i;
  t.size <- t.size + 1

let push_back t x =
  if t.size = Array.length t.buf then grow t;
  let mask = Array.length t.buf - 1 in
  t.buf.((t.head + t.size) land mask) <- x;
  t.size <- t.size + 1

let pop_front t =
  if t.size = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- t.filler;
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.size <- t.size - 1;
    Some x
  end

let pop_back t =
  if t.size = 0 then None
  else begin
    let i = (t.head + t.size - 1) land (Array.length t.buf - 1) in
    let x = t.buf.(i) in
    t.buf.(i) <- t.filler;
    t.size <- t.size - 1;
    Some x
  end

let to_list t =
  let mask = Array.length t.buf - 1 in
  List.init t.size (fun i -> t.buf.((t.head + i) land mask))

let fold f acc t =
  let mask = Array.length t.buf - 1 in
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.buf.((t.head + i) land mask)
  done;
  !acc

(* Close the gap left at logical position [i] by shifting the tail side
   forward one slot; O(distance to the back). *)
let remove_at t i =
  let mask = Array.length t.buf - 1 in
  let x = t.buf.((t.head + i) land mask) in
  for j = i to t.size - 2 do
    t.buf.((t.head + j) land mask) <- t.buf.((t.head + j + 1) land mask)
  done;
  t.buf.((t.head + t.size - 1) land mask) <- t.filler;
  t.size <- t.size - 1;
  x

let remove_first t pred =
  let mask = Array.length t.buf - 1 in
  let rec go i =
    if i >= t.size then None
    else if pred t.buf.((t.head + i) land mask) then Some (remove_at t i)
    else go (i + 1)
  in
  go 0

let remove_last t pred =
  let mask = Array.length t.buf - 1 in
  let rec go i =
    if i < 0 then None
    else if pred t.buf.((t.head + i) land mask) then Some (remove_at t i)
    else go (i - 1)
  in
  go (t.size - 1)
