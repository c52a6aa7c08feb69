type t = int
type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let to_ns t = t

let add t d =
  let r = t + d in
  if r < 0 then invalid_arg "Time.add: negative result";
  r

let diff a b = a - b
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let ( >= ) (a : int) b = a >= b
let ( > ) (a : int) b = a > b
let min (a : int) b = Stdlib.min a b
let max (a : int) b = Stdlib.max a b
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000
let us_f x = int_of_float (Float.round (x *. 1_000.))
let span_to_us d = float_of_int d /. 1_000.
let span_to_ms d = float_of_int d /. 1_000_000.
let to_ms t = span_to_ms t

let pp_span ppf d =
  let a = abs d in
  if a < 1_000 then Format.fprintf ppf "%dns" d
  else if a < 1_000_000 then Format.fprintf ppf "%.3fus" (span_to_us d)
  else if a < 1_000_000_000 then Format.fprintf ppf "%.3fms" (span_to_ms d)
  else Format.fprintf ppf "%.3fs" (float_of_int d /. 1e9)

let pp ppf t = pp_span ppf t
