(* Physics and data-structure tests for the Barnes-Hut substrate. *)

module Vec3 = Barneshut.Vec3
module Body = Barneshut.Body
module Octree = Barneshut.Octree
module Oracle = Octree_oracle
module Nbody_sim = Barneshut.Nbody_sim
module Rng = Sa_engine.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let vec3_tests =
  [
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let a = Vec3.make 1. 2. 3. and b = Vec3.make 4. 5. 6. in
        check (Alcotest.float 1e-12) "dot" 32.0 (Vec3.dot a b);
        check Alcotest.bool "add" true
          (Vec3.equal (Vec3.add a b) (Vec3.make 5. 7. 9.));
        check Alcotest.bool "sub" true
          (Vec3.equal (Vec3.sub b a) (Vec3.make 3. 3. 3.));
        check Alcotest.bool "scale" true
          (Vec3.equal (Vec3.scale 2. a) (Vec3.make 2. 4. 6.));
        check Alcotest.bool "neg" true
          (Vec3.equal (Vec3.neg a) (Vec3.make (-1.) (-2.) (-3.))));
    Alcotest.test_case "norms" `Quick (fun () ->
        let v = Vec3.make 3. 4. 0. in
        check (Alcotest.float 1e-12) "norm2" 25.0 (Vec3.norm2 v);
        check (Alcotest.float 1e-12) "norm" 5.0 (Vec3.norm v);
        check (Alcotest.float 1e-12) "dist2" 25.0 (Vec3.dist2 v Vec3.zero));
  ]

let mk_bodies rng n = Nbody_sim.plummer rng ~n

let tree_partition =
  QCheck.Test.make ~name:"every body in exactly one leaf" ~count:30
    QCheck.(int_range 2 200)
    (fun n ->
      let rng = Rng.create n in
      let bodies = mk_bodies rng n in
      let tree = Octree.build bodies in
      Octree.contains_exactly tree bodies)

let tree_mass_conserved =
  QCheck.Test.make ~name:"tree mass equals total body mass" ~count:30
    QCheck.(int_range 1 200)
    (fun n ->
      let rng = Rng.create (n + 1000) in
      let bodies = mk_bodies rng n in
      let tree = Octree.build bodies in
      let total = Array.fold_left (fun a b -> a +. b.Body.mass) 0.0 bodies in
      abs_float (Octree.mass tree -. total) < 1e-9)

let com_matches =
  QCheck.Test.make ~name:"tree centre of mass matches direct computation"
    ~count:30
    QCheck.(int_range 1 100)
    (fun n ->
      let rng = Rng.create (n + 2000) in
      let bodies = mk_bodies rng n in
      let tree = Octree.build bodies in
      let total = Array.fold_left (fun a b -> a +. b.Body.mass) 0.0 bodies in
      let com =
        Vec3.scale (1.0 /. total)
          (Array.fold_left
             (fun a b -> Vec3.add a (Vec3.scale b.Body.mass b.Body.pos))
             Vec3.zero bodies)
      in
      Vec3.equal ~eps:1e-9 com (Octree.center_of_mass tree))

let theta_zero_is_exact =
  QCheck.Test.make ~name:"theta=0 walk equals direct summation" ~count:15
    QCheck.(int_range 2 60)
    (fun n ->
      let rng = Rng.create (n + 3000) in
      let bodies = mk_bodies rng n in
      let tree = Octree.build bodies in
      Array.for_all
        (fun b ->
          let approx, _ = Octree.force_on tree ~theta:0.0 ~eps:0.05 b in
          let exact = Oracle.force_exact bodies ~eps:0.05 b in
          Vec3.norm (Vec3.sub approx exact) <= 1e-9 *. (1.0 +. Vec3.norm exact))
        bodies)

(* Bodies for the differential test: a Plummer sphere, a uniform cube,
   or a Plummer sphere of unequal masses with some positions copied onto
   others, so at least two (and from n = 3, three) bodies coincide and
   insertion takes the max-depth merge path. *)
let gen_bodies kind n seed =
  let rng = Rng.create seed in
  match kind with
  | 0 -> Nbody_sim.plummer rng ~n
  | 1 -> Nbody_sim.uniform_cube rng ~n
  | _ ->
      let n = max 2 n in
      let bodies =
        Array.map
          (fun b ->
            Body.make ~id:b.Body.id
              ~mass:(b.Body.mass *. (0.5 +. Rng.float rng 1.0))
              ~pos:b.Body.pos ~vel:b.Body.vel)
          (Nbody_sim.plummer rng ~n)
      in
      let copy ~src ~dst = bodies.(dst).Body.pos <- bodies.(src).Body.pos in
      copy ~src:0 ~dst:(n - 1);
      if n >= 3 then copy ~src:0 ~dst:(n - 2);
      for _ = 1 to n / 10 do
        copy ~src:(Rng.int rng n) ~dst:(Rng.int rng n)
      done;
      bodies

let bits = Int64.bits_of_float

let same_vec3 (a : Vec3.t) (b : Vec3.t) =
  bits a.x = bits b.x && bits a.y = bits b.y && bits a.z = bits b.z

let matches_oracle =
  QCheck.Test.make ~name:"array tree is bit-identical to the record oracle"
    ~count:60
    QCheck.(
      quad (int_range 0 2) (int_range 1 400) small_nat
        (oneofl [ 0.0; 0.3; 0.7; 1.0 ]))
    (fun (kind, n, seed, theta) ->
      let bodies = gen_bodies kind n seed in
      let tree = Octree.build bodies and oracle = Oracle.build bodies in
      Octree.node_count tree = Oracle.node_count oracle
      && Octree.depth tree = Oracle.depth oracle
      && bits (Octree.mass tree) = bits (Oracle.mass oracle)
      && same_vec3 (Octree.center_of_mass tree) (Oracle.center_of_mass oracle)
      && Array.for_all
           (fun b ->
             let acc, count = Octree.force_on tree ~theta ~eps:0.05 b in
             let acc', count' = Oracle.force_on oracle ~theta ~eps:0.05 b in
             count = count' && same_vec3 acc acc')
           bodies)

let octree_tests =
  [
    Alcotest.test_case "empty build rejected" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Octree.build: no bodies")
          (fun () -> ignore (Octree.build [||])));
    Alcotest.test_case "single body" `Quick (fun () ->
        let b = Body.make ~id:0 ~mass:2.0 ~pos:(Vec3.make 1. 1. 1.) ~vel:Vec3.zero in
        let tree = Octree.build [| b |] in
        check (Alcotest.float 1e-12) "mass" 2.0 (Octree.mass tree);
        let f, n = Octree.force_on tree ~theta:0.7 ~eps:0.05 b in
        check Alcotest.int "no self force" 0 n;
        check Alcotest.bool "zero" true (Vec3.equal f Vec3.zero));
    Alcotest.test_case "coincident bodies do not loop forever" `Quick (fun () ->
        let p = Vec3.make 0.5 0.5 0.5 in
        let bodies =
          [|
            Body.make ~id:0 ~mass:1.0 ~pos:p ~vel:Vec3.zero;
            Body.make ~id:1 ~mass:1.0 ~pos:p ~vel:Vec3.zero;
            Body.make ~id:2 ~mass:1.0 ~pos:(Vec3.make 0. 0. 0.) ~vel:Vec3.zero;
          |]
        in
        let tree = Octree.build bodies in
        check (Alcotest.float 1e-9) "mass" 3.0 (Octree.mass tree));
    Alcotest.test_case "a third coincident body joins the merged cell" `Quick
      (fun () ->
        let p = Vec3.make 0.5 0.5 0.5 in
        let bodies =
          Array.init 4 (fun id ->
              let pos = if id < 3 then p else Vec3.zero in
              Body.make ~id ~mass:1.0 ~pos ~vel:Vec3.zero)
        in
        let tree = Octree.build bodies in
        check (Alcotest.float 1e-9) "mass" 4.0 (Octree.mass tree);
        let approx, _ = Octree.force_on tree ~theta:0.0 ~eps:0.05 bodies.(3) in
        let exact = Oracle.force_exact bodies ~eps:0.05 bodies.(3) in
        check (Alcotest.float 1e-9) "force" 0.0
          (Vec3.norm (Vec3.sub approx exact)));
    Alcotest.test_case "force accuracy at theta=0.7" `Quick (fun () ->
        let rng = Rng.create 5 in
        let bodies = mk_bodies rng 300 in
        let tree = Octree.build bodies in
        let err_sum = ref 0.0 in
        Array.iter
          (fun b ->
            let approx, _ = Octree.force_on tree ~theta:0.7 ~eps:0.05 b in
            let exact = Oracle.force_exact bodies ~eps:0.05 b in
            err_sum :=
              !err_sum
              +. (Vec3.norm (Vec3.sub approx exact) /. (Vec3.norm exact +. 1e-12)))
          bodies;
        let mean_err = !err_sum /. 300.0 in
        check Alcotest.bool "mean rel err < 5%" true (mean_err < 0.05));
    Alcotest.test_case "interaction count well below N for theta=0.7" `Quick
      (fun () ->
        let rng = Rng.create 6 in
        let bodies = mk_bodies rng 400 in
        let tree = Octree.build bodies in
        let _, count = Octree.force_on tree ~theta:0.7 ~eps:0.05 bodies.(0) in
        check Alcotest.bool "pruned" true (count < 399));
    Alcotest.test_case "node and depth sanity" `Quick (fun () ->
        let rng = Rng.create 8 in
        let bodies = mk_bodies rng 100 in
        let tree = Octree.build bodies in
        check Alcotest.bool "nodes >= bodies" true (Octree.node_count tree >= 100);
        check Alcotest.bool "depth reasonable" true
          (Octree.depth tree > 1 && Octree.depth tree < 64));
    qtest tree_partition;
    qtest tree_mass_conserved;
    qtest com_matches;
    qtest theta_zero_is_exact;
    qtest matches_oracle;
  ]

(* Every step's per-body interaction counts, then the bits of every final
   position: the work profile the N-body workload is costed from. *)
let profile_digest ~seed ~n ~steps =
  let sim = Nbody_sim.create (mk_bodies (Rng.create seed) n) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun prof ->
      Array.iter
        (fun c ->
          Buffer.add_string buf (string_of_int c);
          Buffer.add_char buf ',')
        prof.Nbody_sim.interactions;
      Buffer.add_char buf ';')
    (Nbody_sim.run sim ~steps);
  Array.iter
    (fun b ->
      let p = b.Body.pos in
      List.iter
        (fun f -> Buffer.add_string buf (Printf.sprintf "%Lx," (bits f)))
        [ p.Vec3.x; p.Vec3.y; p.Vec3.z ])
    (Nbody_sim.bodies sim);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sim_tests =
  [
    Alcotest.test_case "seed-42 profile is pinned" `Quick (fun () ->
        check Alcotest.string "digest" "10da4059270df3d594a1b4dcf5aa6576"
          (profile_digest ~seed:42 ~n:300 ~steps:6));
    Alcotest.test_case "a step allocates at most 64 minor words per body"
      `Quick (fun () ->
        let n = 300 in
        let sim = Nbody_sim.create (mk_bodies (Rng.create 7) n) in
        (* The first step also computes the initial accelerations. *)
        ignore (Nbody_sim.step sim);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Nbody_sim.step sim));
        let per_body = (Gc.minor_words () -. before) /. float_of_int n in
        if per_body > 64.0 then
          Alcotest.failf "%.1f minor words per body" per_body);
    Alcotest.test_case "momentum conserved over integration" `Quick (fun () ->
        let rng = Rng.create 21 in
        let sim = Nbody_sim.create (mk_bodies rng 200) in
        let p0 = Nbody_sim.momentum sim in
        ignore (Nbody_sim.run sim ~steps:10);
        let p1 = Nbody_sim.momentum sim in
        check Alcotest.bool "drift tiny" true
          (Vec3.norm (Vec3.sub p1 p0) < 1e-3));
    Alcotest.test_case "energy drift small" `Quick (fun () ->
        let rng = Rng.create 22 in
        let sim = Nbody_sim.create (mk_bodies rng 200) in
        let e0 = Nbody_sim.total_energy sim in
        ignore (Nbody_sim.run sim ~steps:10);
        let e1 = Nbody_sim.total_energy sim in
        check Alcotest.bool "<1% drift" true
          (abs_float ((e1 -. e0) /. e0) < 0.01));
    Alcotest.test_case "profiles cover every body" `Quick (fun () ->
        let rng = Rng.create 23 in
        let sim = Nbody_sim.create (mk_bodies rng 50) in
        let prof = Nbody_sim.step sim in
        check Alcotest.int "length" 50 (Array.length prof.Nbody_sim.interactions);
        check Alcotest.bool "all positive" true
          (Array.for_all (fun c -> c > 0) prof.Nbody_sim.interactions);
        check Alcotest.int "total" prof.Nbody_sim.total_interactions
          (Array.fold_left ( + ) 0 prof.Nbody_sim.interactions));
    Alcotest.test_case "plummer is centred" `Quick (fun () ->
        let rng = Rng.create 24 in
        let bodies = mk_bodies rng 500 in
        let sim = Nbody_sim.create bodies in
        check Alcotest.bool "momentum ~ 0" true
          (Vec3.norm (Nbody_sim.momentum sim) < 1e-9);
        let total = Array.fold_left (fun a b -> a +. b.Body.mass) 0.0 bodies in
        check (Alcotest.float 1e-9) "unit mass" 1.0 total);
    Alcotest.test_case "plummer deterministic in seed" `Quick (fun () ->
        let b1 = mk_bodies (Rng.create 99) 50 in
        let b2 = mk_bodies (Rng.create 99) 50 in
        check Alcotest.bool "identical" true
          (Array.for_all2 (fun a b -> Vec3.equal a.Body.pos b.Body.pos) b1 b2));
    Alcotest.test_case "uniform cube in bounds" `Quick (fun () ->
        let rng = Rng.create 25 in
        let bodies = Nbody_sim.uniform_cube rng ~n:100 in
        check Alcotest.bool "in unit cube" true
          (Array.for_all
             (fun b ->
               let p = b.Body.pos in
               p.Vec3.x >= 0. && p.Vec3.x < 1. && p.Vec3.y >= 0. && p.Vec3.y < 1.
               && p.Vec3.z >= 0. && p.Vec3.z < 1.)
             bodies));
  ]

let () =
  Alcotest.run "barneshut"
    [ ("vec3", vec3_tests); ("octree", octree_tests); ("simulation", sim_tests) ]
