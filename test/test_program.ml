(* Tests for the thread-program DSL. *)

module Time = Sa_engine.Time
module P = Sa_program.Program
module B = P.Build

let check = Alcotest.check

let build_tests =
  [
    Alcotest.test_case "compute then done" `Quick (fun () ->
        let p = B.to_program (B.compute (Time.us 5)) in
        match p with
        | P.Compute (d, k) ->
            check Alcotest.int "span" (Time.us 5) d;
            check Alcotest.bool "then done" true (k () = P.Done)
        | _ -> Alcotest.fail "expected Compute");
    Alcotest.test_case "bind sequences" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* () = compute 1 in
             compute 2)
        in
        match p with
        | P.Compute (1, k) -> (
            match k () with
            | P.Compute (2, k2) -> check Alcotest.bool "done" true (k2 () = P.Done)
            | _ -> Alcotest.fail "expected second Compute")
        | _ -> Alcotest.fail "expected first Compute");
    Alcotest.test_case "repeat runs n times in order" `Quick (fun () ->
        let p = B.to_program (B.repeat 4 (fun i -> B.compute (i + 1))) in
        let rec spans acc = function
          | P.Compute (d, k) -> spans (d :: acc) (k ())
          | P.Done -> List.rev acc
          | _ -> Alcotest.fail "unexpected op"
        in
        check (Alcotest.list Alcotest.int) "spans" [ 1; 2; 3; 4 ] (spans [] p));
    Alcotest.test_case "repeat zero is empty" `Quick (fun () ->
        check Alcotest.bool "done" true
          (B.to_program (B.repeat 0 (fun _ -> B.compute 1)) = P.Done));
    Alcotest.test_case "iter_list covers all elements" `Quick (fun () ->
        let p =
          B.to_program (B.iter_list [ 10; 20 ] (fun x -> B.compute x))
        in
        match p with
        | P.Compute (10, k) -> (
            match k () with
            | P.Compute (20, _) -> ()
            | _ -> Alcotest.fail "expected 20")
        | _ -> Alcotest.fail "expected 10");
    Alcotest.test_case "when_ true and false" `Quick (fun () ->
        check Alcotest.bool "false skips" true
          (B.to_program (B.when_ false (B.compute 1)) = P.Done);
        match B.to_program (B.when_ true (B.compute 1)) with
        | P.Compute (1, _) -> ()
        | _ -> Alcotest.fail "expected compute");
    Alcotest.test_case "critical wraps acquire/release" `Quick (fun () ->
        let m = P.Mutex.create () in
        let p = B.to_program (B.critical m (B.compute 3)) in
        match p with
        | P.Acquire (m1, k) when P.Mutex.id m1 = P.Mutex.id m -> (
            match k () with
            | P.Compute (3, k2) -> (
                match k2 () with
                | P.Release (m2, _) ->
                    check Alcotest.int "same mutex" (P.Mutex.id m)
                      (P.Mutex.id m2)
                | _ -> Alcotest.fail "expected Release")
            | _ -> Alcotest.fail "expected Compute")
        | _ -> Alcotest.fail "expected Acquire");
    Alcotest.test_case "fork passes the child id" `Quick (fun () ->
        let p =
          B.to_program
            (let open B in
             let* tid = fork (P.compute_only 1) in
             compute tid)
        in
        match p with
        | P.Fork (_, k) -> (
            match k 42 with
            | P.Compute (42, _) -> ()
            | _ -> Alcotest.fail "tid not threaded through")
        | _ -> Alcotest.fail "expected Fork");
    Alcotest.test_case "null and compute_only" `Quick (fun () ->
        check Alcotest.bool "null" true (P.null = P.Done);
        match P.compute_only 5 with
        | P.Compute (5, k) -> check Alcotest.bool "then done" true (k () = P.Done)
        | _ -> Alcotest.fail "expected Compute");
  ]

let object_tests =
  [
    Alcotest.test_case "sync objects have unique ids" `Quick (fun () ->
        let m1 = P.Mutex.create () and m2 = P.Mutex.create () in
        let c1 = P.Cond.create () in
        let s1 = P.Sem.create ~initial:0 () in
        let ids = [ P.Mutex.id m1; P.Mutex.id m2; P.Cond.id c1; P.Sem.id s1 ] in
        check Alcotest.int "all distinct" 4
          (List.length (List.sort_uniq compare ids)));
    Alcotest.test_case "names default and explicit" `Quick (fun () ->
        let m = P.Mutex.create ~name:"work-queue" () in
        check Alcotest.string "explicit" "work-queue" (P.Mutex.name m);
        let m2 = P.Mutex.create () in
        check Alcotest.bool "default nonempty" true (P.Mutex.name m2 <> ""));
    Alcotest.test_case "sem initial recorded, negative rejected" `Quick
      (fun () ->
        let s = P.Sem.create ~initial:3 () in
        check Alcotest.int "initial" 3 (P.Sem.initial s);
        Alcotest.check_raises "negative"
          (Invalid_argument "Sem.create: negative initial") (fun () ->
            ignore (P.Sem.create ~initial:(-1) ())));
  ]

(* [Program.compile] is total: where eager forcing cannot be used it ends
   the arena in an [op_dyn] node holding the unforced continuation. *)
let has_dyn code = Array.exists (( = ) P.Code.op_dyn) code.P.Code.op

(* The op tags a single thread executes, following each [op_dyn] into the
   arena its continuation compiles to (straight-line programs only). *)
let rec code_ops ?budget code pc acc =
  let op = code.P.Code.op.(pc) in
  if op = P.Code.op_dyn then
    let k = code.P.Code.konts.(code.P.Code.a.(pc)) in
    code_ops ?budget (P.compile ?budget (k 0)) 0 acc
  else if op = P.Code.op_done then List.rev (op :: acc)
  else code_ops ?budget code code.P.Code.nx.(pc) (op :: acc)

let rec tree_ops acc = function
  | P.Done -> List.rev (P.Code.op_done :: acc)
  | P.Compute (_, k) -> tree_ops (P.Code.op_compute :: acc) (k ())
  | P.Stamp (_, k) -> tree_ops (P.Code.op_stamp :: acc) (k ())
  | _ -> Alcotest.fail "tree_ops: straight-line compute/stamp programs only"

(* Each program compiles to code with a lazy node, and its run on ft-sa
   reproduces the observation frozen from the CPS walker. *)
let frozen_run name mk =
  Alcotest.test_case (name ^ " compiles and matches its frozen run") `Quick
    (fun () ->
      check Alcotest.bool "lazy op_dyn emitted" true
        (has_dyn (P.compile (mk ())));
      let _, kconfig, backend = List.hd Oracle.backends in
      check Alcotest.string name (Oracle.frozen name "ft-sa")
        (Oracle.pp_obs (Oracle.observe kconfig backend (mk ()))))

let totality_tests =
  [
    frozen_run "future-get" Oracle.future_get;
    frozen_run "sibling-join" Oracle.sibling_join;
    frozen_run "stamp-child-tid" Oracle.stamp_child_tid;
    frozen_run "over-budget" Oracle.over_budget;
    Alcotest.test_case "no sentinel in scope when a fork is deferred" `Quick
      (fun () ->
        (* The second child's id escapes while the first child's is still
           to be joined: the first fork's continuation is the lazy one. *)
        let code = P.compile (Oracle.two_fork_stamp ~refork:true ()) in
        let count o =
          Array.fold_left (fun n x -> if x = o then n + 1 else n) 0 code.P.Code.op
        in
        check Alcotest.int "one fork compiled" 1 (count P.Code.op_fork);
        check Alcotest.int "one op_dyn" 1 (count P.Code.op_dyn);
        Array.iteri
          (fun pc op ->
            if op = P.Code.op_dyn then
              check Alcotest.int "it continues fork slot 0" 0 code.P.Code.b.(pc))
          code.P.Code.op);
    Alcotest.test_case "a raising continuation is deferred, a host fault is not"
      `Quick (fun () ->
        check Alcotest.bool "failwith deferred to run time" true
          (has_dyn (P.compile (P.Compute (1, fun () -> failwith "later"))));
        match P.compile (P.Compute (1, fun () -> assert false)) with
        | _ -> Alcotest.fail "Assert_failure swallowed by compile"
        | exception Assert_failure _ -> ());
    Alcotest.test_case "budget cuts the arena, op_dyn resumes it" `Quick
      (fun () ->
        let prog () =
          B.to_program
            (B.repeat 1000 (fun i ->
                 if i mod 7 = 0 then B.stamp i else B.compute 1))
        in
        let code = P.compile ~budget:64 (prog ()) in
        check Alcotest.int "budget plus one op_dyn" 65 (P.Code.length code);
        check Alcotest.bool "ends lazily" true (has_dyn code);
        check (Alcotest.list Alcotest.int) "same op sequence"
          (tree_ops [] (prog ()))
          (code_ops ~budget:64 code 0 []));
    Alcotest.test_case "pure fork-join compiles eagerly" `Quick (fun () ->
        let prog =
          B.to_program
            (let open B in
             let* t = fork (P.compute_only 5) in
             let* () = compute 3 in
             join t)
        in
        check Alcotest.bool "no op_dyn" false (has_dyn (P.compile prog)));
    Alcotest.test_case "one program value compiles to one shared arena"
      `Quick (fun () ->
        let mk () = B.to_program (B.repeat 3 (fun _ -> B.compute 1)) in
        let p = mk () in
        let code = P.compile p in
        check Alcotest.bool "same value, same arena" true (P.compile p == code);
        check Alcotest.bool "another value compiles afresh" false
          (P.compile (mk ()) == code);
        let code = P.compile p in
        check Alcotest.bool "another budget compiles afresh" false
          (P.compile ~budget:2 p == code);
        check Alcotest.bool "back to the default budget" false
          (P.compile p == code));
    Alcotest.test_case "each shared fork child compiles once" `Quick
      (fun () ->
        (* 128 distinct children, each forked 10 times in a row: twice the
           64 children the memo holds, so every child must stay memoized
           for as long as it is being forked. *)
        let children = List.init 128 (fun i -> P.compute_only (i + 1)) in
        let prog =
          B.to_program
            (B.iter_list children (fun c ->
                 B.repeat 10 (fun _ -> B.fork_unit c)))
        in
        (* the root's 1,280 forks and done, then one compute and done per
           child *)
        check Alcotest.int "one copy of each child body"
          (1280 + 1 + (128 * 2))
          (P.Code.length (P.compile prog)));
    Alcotest.test_case "fork sites resolve through the thread's bindings"
      `Quick (fun () ->
        let binds = P.Code.(bind (bind no_binds 0 7) 1 9) in
        check (Alcotest.list Alcotest.int) "join targets" [ 5; 7; 9; 0 ]
          (List.map (P.Code.join_target binds) [ 5; -1; -2; -3 ]);
        (* The child's id is used as data, so the fork's continuation
           stays lazy and is forced with the bound id. *)
        let code =
          P.compile
            (B.to_program
               (let open B in
                let* tid = fork P.null in
                stamp tid))
        in
        let pc = code.P.Code.nx.(0) in
        check Alcotest.int "fork then op_dyn" P.Code.op_dyn code.P.Code.op.(pc);
        match P.Code.force code pc (P.Code.bind P.Code.no_binds 0 42) with
        | P.Stamp (42, _) -> ()
        | _ -> Alcotest.fail "expected the bound child id");
  ]

let () =
  Alcotest.run "program"
    [
      ("build", build_tests);
      ("objects", object_tests);
      ("compile", totality_tests);
    ]
