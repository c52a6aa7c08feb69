type t = { x : float; y : float; z : float }

let zero = { x = 0.0; y = 0.0; z = 0.0 }
let make x y z = { x; y; z }
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale s a = { x = s *. a.x; y = s *. a.y; z = s *. a.z }
let neg a = scale (-1.0) a
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm2 a = dot a a
let norm a = sqrt (norm2 a)
let dist2 a b = norm2 (sub a b)

let equal ?(eps = 1e-12) a b =
  abs_float (a.x -. b.x) <= eps
  && abs_float (a.y -. b.y) <= eps
  && abs_float (a.z -. b.z) <= eps

