type t = { grid : float array array; nrows : int; ncols : int }

let default_boundary r _c = if r = 0 then 1.0 else 0.0

let create ~rows ~cols ?(boundary = default_boundary) () =
  if rows < 3 || cols < 3 then invalid_arg "Sor.create: grid too small";
  let grid = Array.make_matrix rows cols 0.0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if r = 0 || c = 0 || r = rows - 1 || c = cols - 1 then
        grid.(r).(c) <- boundary r c
    done
  done;
  { grid; nrows = rows; ncols = cols }

let rows t = t.nrows
let cols t = t.ncols
let get t r c = t.grid.(r).(c)

let sweep_color t ~omega ~black =
  let parity = if black then 1 else 0 in
  let max_delta = ref 0.0 in
  for r = 1 to t.nrows - 2 do
    (* first interior column of this colour in row r *)
    let c0 = 1 + ((r + 1 + parity) mod 2) in
    let c = ref c0 in
    while !c <= t.ncols - 2 do
      let u = t.grid.(r).(!c) in
      let avg =
        0.25
        *. (t.grid.(r - 1).(!c) +. t.grid.(r + 1).(!c) +. t.grid.(r).(!c - 1)
          +. t.grid.(r).(!c + 1))
      in
      let nu = u +. (omega *. (avg -. u)) in
      t.grid.(r).(!c) <- nu;
      let d = abs_float (nu -. u) in
      if d > !max_delta then max_delta := d;
      c := !c + 2
    done
  done;
  !max_delta

let iterate t ~omega =
  let d1 = sweep_color t ~omega ~black:false in
  let d2 = sweep_color t ~omega ~black:true in
  max d1 d2

let solve t ~omega ~tol ~max_iters =
  let rec go i =
    if i >= max_iters then (i, iterate t ~omega)
    else begin
      let d = iterate t ~omega in
      if d < tol then (i + 1, d) else go (i + 1)
    end
  in
  go 0

let residual t =
  let worst = ref 0.0 in
  for r = 1 to t.nrows - 2 do
    for c = 1 to t.ncols - 2 do
      let res =
        (4.0 *. t.grid.(r).(c))
        -. (t.grid.(r - 1).(c) +. t.grid.(r + 1).(c) +. t.grid.(r).(c - 1)
          +. t.grid.(r).(c + 1))
      in
      if abs_float res > !worst then worst := abs_float res
    done
  done;
  !worst

