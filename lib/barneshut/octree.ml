(* Struct-of-arrays octree.  Nodes share one index space: nodes
   [0 .. n-1] are the bodies (a snapshot of their positions and masses
   taken at build time) and nodes [n ..] are cells, the root first.  Node
   arrays hold mass and centre of mass for both kinds, so the force walk
   loads every interaction partner the same way; cell arrays (centre, half
   width, 8 children) are indexed from the root.

   Every float operation keeps the order of the textbook record tree (kept
   in the tests as the oracle), so interaction counts and accelerations are
   bit-identical to it: a dot product is [(x*x + y*y) + z*z], children are
   visited and summed in octant order 0..7, bounding-box updates are
   [if a <= b] tests, and so on. *)

type t = {
  n : int;  (* bodies: nodes [0 .. n-1] *)
  ids : int array;  (* per body *)
  mutable cells : int;  (* cells in use: nodes [n .. n+cells-1] *)
  mutable mass : float array;  (* per node *)
  mutable cmx : float array;  (* centre of mass per node; a body's position *)
  mutable cmy : float array;
  mutable cmz : float array;
  mutable ctx : float array;  (* geometric centre per cell *)
  mutable cty : float array;
  mutable ctz : float array;
  mutable half : float array;  (* half the cell width, per cell *)
  mutable child : int array;
      (* 8 per cell, in octant order: [empty], a body's node, or a cell's *)
  mutable stack : int array;  (* force-walk scratch, one slot per node *)
}

let empty = -1
let root t = t.n

(* Insertion depth guard: two coincident bodies would otherwise split
   forever; past this depth they are merged into one cell that holds only
   their summary. *)
let max_depth = 64

let grow t =
  let extend a fill len =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let cap = 2 * Array.length t.half in
  t.mass <- extend t.mass 0.0 (t.n + cap);
  t.cmx <- extend t.cmx 0.0 (t.n + cap);
  t.cmy <- extend t.cmy 0.0 (t.n + cap);
  t.cmz <- extend t.cmz 0.0 (t.n + cap);
  t.ctx <- extend t.ctx 0.0 cap;
  t.cty <- extend t.cty 0.0 cap;
  t.ctz <- extend t.ctz 0.0 cap;
  t.half <- extend t.half 0.0 cap;
  t.child <- extend t.child empty (8 * cap)

(* A fresh cell with no children and a zero summary; the caller writes
   its centre and half width.  Returns its cell index. *)
let new_cell t =
  if t.cells = Array.length t.half then grow t;
  let c = t.cells in
  t.cells <- c + 1;
  c

(* The octant of cell [c] that node [v]'s centre of mass falls in. *)
let octant t c v =
  (if t.cmx.(v) >= t.ctx.(c) then 1 else 0)
  lor (if t.cmy.(v) >= t.cty.(c) then 2 else 0)
  lor if t.cmz.(v) >= t.ctz.(c) then 4 else 0

(* The cell for octant [i] of cell [c]. *)
let new_child t c i =
  let c' = new_cell t in
  let h = t.half.(c) in
  let q = h /. 2.0 in
  t.ctx.(c') <- (t.ctx.(c) +. if i land 1 <> 0 then q else -.q);
  t.cty.(c') <- (t.cty.(c) +. if i land 2 <> 0 then q else -.q);
  t.ctz.(c') <- (t.ctz.(c) +. if i land 4 <> 0 then q else -.q);
  t.half.(c') <- h /. 2.0;
  c'

(* Write into node [dst] the summary of nodes [v] and [b] together: their
   total mass at their mass-weighted centre.  [dst] may be [v]. *)
let merge t dst v b =
  let mv = t.mass.(v) and mb = t.mass.(b) in
  let inv = 1.0 /. (mv +. mb) in
  t.mass.(dst) <- mv +. mb;
  t.cmx.(dst) <- inv *. ((mv *. t.cmx.(v)) +. (mb *. t.cmx.(b)));
  t.cmy.(dst) <- inv *. ((mv *. t.cmy.(v)) +. (mb *. t.cmy.(b)));
  t.cmz.(dst) <- inv *. ((mv *. t.cmz.(v)) +. (mb *. t.cmz.(b)))

(* Descend from the root to body [b]'s empty octant.  Meeting a body [v]
   there splits the octant into a new cell holding [v] and carries on one
   level down; [depth] counts this insertion's splits.  Only merged cells
   carry mass before [summarize], and a body that reaches one folds into
   its summary, so merged cells stay childless. *)
let insert t b =
  let c = ref 0 and depth = ref 0 and placed = ref false in
  while not !placed do
    let i = octant t !c b in
    let slot = (8 * !c) + i in
    let v = t.child.(slot) in
    if v = empty then begin
      t.child.(slot) <- b;
      placed := true
    end
    else if v >= t.n then begin
      if t.mass.(v) > 0.0 then begin
        merge t v v b;
        placed := true
      end
      else c := v - t.n
    end
    else begin
      let c' = new_child t !c i in
      let cell = t.n + c' in
      t.child.(slot) <- cell;
      if !depth >= max_depth then begin
        (* Coincident bodies: a childless cell whose summary holds both;
           the force walk treats it as a point mass. *)
        merge t cell v b;
        placed := true
      end
      else begin
        t.child.((8 * c') + octant t c' v) <- v;
        c := c';
        incr depth
      end
    end
  done

let childless t c =
  let k = ref 0 in
  while !k < 8 && t.child.((8 * c) + !k) = empty do
    incr k
  done;
  !k = 8

(* Cell summaries, children before parents: a cell's children are always
   created after it, so a backwards sweep sees every child summed first.
   [w*] hold each cell's mass-weighted position sum, which its parent adds
   in (a merged cell's is its mass times its centre of mass). *)
let summarize t =
  let wx = Array.make t.cells 0.0
  and wy = Array.make t.cells 0.0
  and wz = Array.make t.cells 0.0 in
  for c = t.cells - 1 downto 0 do
    let node = t.n + c in
    if t.mass.(node) > 0.0 && childless t c then begin
      let m = t.mass.(node) in
      wx.(c) <- m *. t.cmx.(node);
      wy.(c) <- m *. t.cmy.(node);
      wz.(c) <- m *. t.cmz.(node)
    end
    else begin
      let m = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 and sz = ref 0.0 in
      (* An empty octant adds +0.0, which leaves a sum that starts at +0.0
         unchanged, so it is skipped. *)
      for k = 0 to 7 do
        let v = t.child.((8 * c) + k) in
        if v = empty then ()
        else if v < t.n then begin
          let mv = t.mass.(v) in
          m := !m +. mv;
          sx := !sx +. (mv *. t.cmx.(v));
          sy := !sy +. (mv *. t.cmy.(v));
          sz := !sz +. (mv *. t.cmz.(v))
        end
        else begin
          let c' = v - t.n in
          m := !m +. t.mass.(v);
          sx := !sx +. wx.(c');
          sy := !sy +. wy.(c');
          sz := !sz +. wz.(c')
        end
      done;
      let m = !m in
      t.mass.(node) <- m;
      wx.(c) <- !sx;
      wy.(c) <- !sy;
      wz.(c) <- !sz;
      if m > 0.0 then begin
        let inv = 1.0 /. m in
        t.cmx.(node) <- inv *. !sx;
        t.cmy.(node) <- inv *. !sy;
        t.cmz.(node) <- inv *. !sz
      end
      else begin
        t.cmx.(node) <- t.ctx.(c);
        t.cmy.(node) <- t.cty.(c);
        t.cmz.(node) <- t.ctz.(c)
      end
    end
  done

let build bodies =
  let n = Array.length bodies in
  if n = 0 then invalid_arg "Octree.build: no bodies";
  let cap = (n / 2) + 8 in
  let t =
    {
      n;
      ids = Array.map (fun b -> b.Body.id) bodies;
      cells = 0;
      mass = Array.make (n + cap) 0.0;
      cmx = Array.make (n + cap) 0.0;
      cmy = Array.make (n + cap) 0.0;
      cmz = Array.make (n + cap) 0.0;
      ctx = Array.make cap 0.0;
      cty = Array.make cap 0.0;
      ctz = Array.make cap 0.0;
      half = Array.make cap 0.0;
      child = Array.make (8 * cap) empty;
      stack = [||];
    }
  in
  (* Bounding cube, with [Stdlib.min]/[max]'s [<=]/[>=] tests. *)
  let lx = ref infinity and ly = ref infinity and lz = ref infinity in
  let hx = ref neg_infinity and hy = ref neg_infinity and hz = ref neg_infinity in
  for i = 0 to n - 1 do
    let b = bodies.(i) in
    let p = b.Body.pos in
    t.mass.(i) <- b.Body.mass;
    t.cmx.(i) <- p.Vec3.x;
    t.cmy.(i) <- p.Vec3.y;
    t.cmz.(i) <- p.Vec3.z;
    if not (!lx <= p.Vec3.x) then lx := p.Vec3.x;
    if not (!ly <= p.Vec3.y) then ly := p.Vec3.y;
    if not (!lz <= p.Vec3.z) then lz := p.Vec3.z;
    if not (!hx >= p.Vec3.x) then hx := p.Vec3.x;
    if not (!hy >= p.Vec3.y) then hy := p.Vec3.y;
    if not (!hz >= p.Vec3.z) then hz := p.Vec3.z
  done;
  let sx = !hx -. !lx and sy = !hy -. !ly and sz = !hz -. !lz in
  let syz = if sy >= sz then sy else sz in
  let span = if sx >= syz then sx else syz in
  let width = (if span <= 0.0 then 1.0 else span) *. 1.0001 in
  let r = new_cell t in
  t.ctx.(r) <- 0.5 *. (!lx +. !hx);
  t.cty.(r) <- 0.5 *. (!ly +. !hy);
  t.ctz.(r) <- 0.5 *. (!lz +. !hz);
  t.half.(r) <- width /. 2.0;
  for i = 0 to n - 1 do
    insert t i
  done;
  summarize t;
  t.stack <- Array.make (n + t.cells) 0;
  t

let mass t = t.mass.(root t)

let center_of_mass t =
  let r = root t in
  Vec3.make t.cmx.(r) t.cmy.(r) t.cmz.(r)

let node_count t =
  let leaves = ref 0 in
  for s = 0 to (8 * t.cells) - 1 do
    let v = t.child.(s) in
    if v <> empty && v < t.n then incr leaves
  done;
  t.cells + !leaves

let depth t =
  let rec go v =
    if v < t.n then 1
    else begin
      let c = v - t.n and d = ref 0 in
      for k = 0 to 7 do
        let v' = t.child.((8 * c) + k) in
        let dk = if v' = empty then 1 else go v' in
        if dk > !d then d := dk
      done;
      1 + !d
    end
  in
  go (root t)

let contains_exactly t bodies =
  let found = Hashtbl.create (Array.length bodies) in
  let fresh = ref true in
  for s = 0 to (8 * t.cells) - 1 do
    let v = t.child.(s) in
    if v <> empty && v < t.n then begin
      if Hashtbl.mem found t.ids.(v) then fresh := false;
      Hashtbl.replace found t.ids.(v) ()
    end
  done;
  !fresh
  && Array.for_all
       (fun b ->
         (* Bodies merged at max depth are summarized, not stored as
            leaves; accept their absence only if a duplicate position
            exists. *)
         Hashtbl.mem found b.Body.id
         || Array.exists
              (fun b' -> b'.Body.id <> b.Body.id && Vec3.equal b'.Body.pos b.Body.pos)
              bodies)
       bodies

(* Depth-first from the root with an explicit stack, children pushed in
   reverse so they pop in octant order; float accumulators, so nothing is
   allocated per node or interaction.  A cell is accepted as a point mass
   when [w /. d < theta], or when it is a merged cell with no children. *)
let force_on t ~theta ~eps body =
  let p = body.Body.pos and id = body.Body.id in
  let px = p.Vec3.x and py = p.Vec3.y and pz = p.Vec3.z in
  let eps2 = eps *. eps in
  let n = t.n and ids = t.ids and mass = t.mass and half = t.half in
  let cmx = t.cmx and cmy = t.cmy and cmz = t.cmz in
  let child = t.child and stack = t.stack in
  let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
  let interactions = ref 0 in
  stack.(0) <- root t;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    let m = mass.(v) in
    let dx = cmx.(v) -. px and dy = cmy.(v) -. py and dz = cmz.(v) -. pz in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    let accept =
      if v < n then ids.(v) <> id
      else if m <= 0.0 then false
      else begin
        let d = sqrt d2 in
        if d > 0.0 && half.(v - n) *. 2.0 /. d < theta then true
        else begin
          let base = 8 * (v - n) and top = !sp in
          for k = 7 downto 0 do
            let c = child.(base + k) in
            if c <> empty then begin
              stack.(!sp) <- c;
              incr sp
            end
          done;
          !sp = top
        end
      end
    in
    if accept then begin
      incr interactions;
      let r2 = d2 +. eps2 in
      let s = m *. (1.0 /. (r2 *. sqrt r2)) in
      ax := !ax +. (s *. dx);
      ay := !ay +. (s *. dy);
      az := !az +. (s *. dz)
    end
  done;
  ({ Vec3.x = !ax; y = !ay; z = !az }, !interactions)
