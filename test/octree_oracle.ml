(* The record Barnes-Hut octree: a [node] variant per cell, body and empty
   octant, a recursive force walk summing boxed [Vec3.t] terms.  It is
   independent of the struct-of-arrays tree in {!Barneshut.Octree} and kept
   as its equivalence oracle: for the same bodies, [theta] and [eps] both
   trees must give the same interaction count and the same acceleration
   bits for every body, and the same [node_count], [depth], [mass] and
   [center_of_mass].  [force_exact], the direct sum both walks approach as
   [theta] falls, ends the file. *)

module Vec3 = Barneshut.Vec3
module Body = Barneshut.Body

type node =
  | Empty
  | Leaf of Body.t
  | Cell of cell

and cell = {
  mutable total_mass : float;
  mutable com : Vec3.t;  (* centre of mass, valid after [summarize] *)
  mutable children : node array;  (* 8 octants *)
  center : Vec3.t;
  half : float;  (* half the cell width *)
}

type t = { root : node; width : float }

let octant_of center (p : Vec3.t) =
  (if p.Vec3.x >= center.Vec3.x then 1 else 0)
  lor (if p.Vec3.y >= center.Vec3.y then 2 else 0)
  lor if p.Vec3.z >= center.Vec3.z then 4 else 0

let octant_center center half i =
  let q = half /. 2.0 in
  Vec3.make
    (center.Vec3.x +. if i land 1 <> 0 then q else -.q)
    (center.Vec3.y +. if i land 2 <> 0 then q else -.q)
    (center.Vec3.z +. if i land 4 <> 0 then q else -.q)

let new_cell center half =
  {
    total_mass = 0.0;
    com = Vec3.zero;
    children = Array.make 8 Empty;
    center;
    half;
  }

(* Insertion depth guard: two coincident bodies would otherwise recurse
   forever; past this depth they share a leaf-chain terminus and we merge
   them into the cell summary only. *)
let max_depth = 64

(* Set [c]'s summary to masses [m1] at [p1] and [m2] at [p2] together. *)
let merge c m1 p1 m2 p2 =
  c.total_mass <- m1 +. m2;
  c.com <-
    Vec3.scale (1.0 /. c.total_mass)
      (Vec3.add (Vec3.scale m1 p1) (Vec3.scale m2 p2))

(* Only merged cells carry mass before [summarize]; a body that reaches one
   folds into its summary, so merged cells stay childless. *)
let rec insert node center half body depth =
  match node with
  | Empty -> Leaf body
  | Leaf existing ->
      if depth >= max_depth then begin
        (* Degenerate: coincident bodies.  Keep a cell whose summary holds
           both; force computation treats it as a point mass. *)
        let c = new_cell center half in
        merge c existing.Body.mass existing.Body.pos body.Body.mass
          body.Body.pos;
        Cell c
      end
      else begin
        let c = new_cell center half in
        let n1 = insert_into_cell (Cell c) existing (depth + 1) in
        insert_into_cell n1 body (depth + 1)
      end
  | Cell c when c.total_mass > 0.0 ->
      merge c c.total_mass c.com body.Body.mass body.Body.pos;
      Cell c
  | Cell c -> insert_into_cell (Cell c) body depth

and insert_into_cell node body depth =
  match node with
  | Cell c ->
      let i = octant_of c.center body.Body.pos in
      let ccenter = octant_center c.center c.half i in
      c.children.(i) <- insert c.children.(i) ccenter (c.half /. 2.0) body depth;
      Cell c
  | Empty | Leaf _ -> invalid_arg "insert_into_cell: not a cell"

let rec summarize = function
  | Empty -> (0.0, Vec3.zero)
  | Leaf b -> (b.Body.mass, Vec3.scale b.Body.mass b.Body.pos)
  | Cell c ->
      if c.total_mass > 0.0 && Array.for_all (fun n -> n = Empty) c.children
      then
        (* Degenerate merged cell: summary was set at insertion. *)
        (c.total_mass, Vec3.scale c.total_mass c.com)
      else begin
        let m = ref 0.0 and weighted = ref Vec3.zero in
        Array.iter
          (fun child ->
            let cm, cw = summarize child in
            m := !m +. cm;
            weighted := Vec3.add !weighted cw)
          c.children;
        c.total_mass <- !m;
        c.com <- (if !m > 0.0 then Vec3.scale (1.0 /. !m) !weighted else c.center);
        (!m, !weighted)
      end

let build bodies =
  if Array.length bodies = 0 then invalid_arg "Octree.build: no bodies";
  (* Bounding cube. *)
  let inf = infinity and ninf = neg_infinity in
  let lo = ref (Vec3.make inf inf inf) and hi = ref (Vec3.make ninf ninf ninf) in
  Array.iter
    (fun b ->
      let p = b.Body.pos in
      lo :=
        Vec3.make (min !lo.Vec3.x p.Vec3.x) (min !lo.Vec3.y p.Vec3.y)
          (min !lo.Vec3.z p.Vec3.z);
      hi :=
        Vec3.make (max !hi.Vec3.x p.Vec3.x) (max !hi.Vec3.y p.Vec3.y)
          (max !hi.Vec3.z p.Vec3.z))
    bodies;
  let span =
    max
      (!hi.Vec3.x -. !lo.Vec3.x)
      (max (!hi.Vec3.y -. !lo.Vec3.y) (!hi.Vec3.z -. !lo.Vec3.z))
  in
  let width = (if span <= 0.0 then 1.0 else span) *. 1.0001 in
  let center = Vec3.scale 0.5 (Vec3.add !lo !hi) in
  let root = ref (Cell (new_cell center (width /. 2.0))) in
  Array.iter (fun b -> root := insert_into_cell !root b 0) bodies;
  ignore (summarize !root);
  { root = !root; width }

let mass t = match t.root with
  | Empty -> 0.0
  | Leaf b -> b.Body.mass
  | Cell c -> c.total_mass

let center_of_mass t =
  match t.root with
  | Empty -> Vec3.zero
  | Leaf b -> b.Body.pos
  | Cell c -> c.com

let node_count t =
  let rec count = function
    | Empty -> 0
    | Leaf _ -> 1
    | Cell c -> 1 + Array.fold_left (fun acc n -> acc + count n) 0 c.children
  in
  count t.root

let depth t =
  let rec go = function
    | Empty | Leaf _ -> 1
    | Cell c -> 1 + Array.fold_left (fun acc n -> max acc (go n)) 0 c.children
  in
  go t.root

let pairwise_accel ~eps ~mass ~from_pos ~at_pos =
  let d = Vec3.sub from_pos at_pos in
  let r2 = Vec3.norm2 d +. (eps *. eps) in
  let inv_r3 = 1.0 /. (r2 *. sqrt r2) in
  Vec3.scale (mass *. inv_r3) d

let force_on t ~theta ~eps body =
  let interactions = ref 0 in
  let acc = ref Vec3.zero in
  let rec walk = function
    | Empty -> ()
    | Leaf b ->
        if b.Body.id <> body.Body.id then begin
          incr interactions;
          acc :=
            Vec3.add !acc
              (pairwise_accel ~eps ~mass:b.Body.mass ~from_pos:b.Body.pos
                 ~at_pos:body.Body.pos)
        end
    | Cell c ->
        if c.total_mass <= 0.0 then ()
        else begin
          let d = sqrt (Vec3.dist2 c.com body.Body.pos) in
          let w = c.half *. 2.0 in
          if d > 0.0 && w /. d < theta then begin
            incr interactions;
            acc :=
              Vec3.add !acc
                (pairwise_accel ~eps ~mass:c.total_mass ~from_pos:c.com
                   ~at_pos:body.Body.pos)
          end
          else if Array.for_all (fun n -> n = Empty) c.children then begin
            (* Degenerate merged cell: treat as point mass regardless. *)
            incr interactions;
            acc :=
              Vec3.add !acc
                (pairwise_accel ~eps ~mass:c.total_mass ~from_pos:c.com
                   ~at_pos:body.Body.pos)
          end
          else Array.iter walk c.children
        end
  in
  walk t.root;
  (!acc, !interactions)

(* Direct O(N) summation, the accuracy oracle for both trees' walks:
   the softened pairwise formula a = m d / (|d|^2 + eps^2)^(3/2), summed
   over every other body with plain floats, sharing no code with either
   tree. *)
let force_exact bodies ~eps body =
  let p = body.Body.pos in
  let eps2 = eps *. eps in
  let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
  Array.iter
    (fun b ->
      if b.Body.id <> body.Body.id then begin
        let q = b.Body.pos in
        let dx = q.Vec3.x -. p.Vec3.x
        and dy = q.Vec3.y -. p.Vec3.y
        and dz = q.Vec3.z -. p.Vec3.z in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. eps2 in
        let s = b.Body.mass /. (r2 *. sqrt r2) in
        ax := !ax +. (s *. dx);
        ay := !ay +. (s *. dy);
        az := !az +. (s *. dz)
      end)
    bodies;
  Vec3.make !ax !ay !az
