(* Unit and property tests for the discrete-event engine. *)

module Time = Sa_engine.Time
module Calq = Sa_engine.Calq
module Rng = Sa_engine.Rng
module Stats = Sa_engine.Stats
module Trace = Sa_engine.Trace
module Sim = Sa_engine.Sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let time_tests =
  [
    Alcotest.test_case "unit conversions" `Quick (fun () ->
        check Alcotest.int "us" 1_000 (Time.us 1);
        check Alcotest.int "ms" 1_000_000 (Time.ms 1);
        check Alcotest.int "s" 1_000_000_000 (Time.s 1);
        check Alcotest.int "us_f rounds" 1_500 (Time.us_f 1.5));
    Alcotest.test_case "add and diff" `Quick (fun () ->
        let t = Time.add Time.zero (Time.us 5) in
        check Alcotest.int "ns" 5_000 (Time.to_ns t);
        check Alcotest.int "diff" 5_000 (Time.diff t Time.zero));
    Alcotest.test_case "negative construction rejected" `Quick (fun () ->
        Alcotest.check_raises "of_ns" (Invalid_argument "Time.of_ns: negative")
          (fun () -> ignore (Time.of_ns (-1)));
        Alcotest.check_raises "add"
          (Invalid_argument "Time.add: negative result") (fun () ->
            ignore (Time.add Time.zero (-5))));
    Alcotest.test_case "ordering operators" `Quick (fun () ->
        let a = Time.of_ns 10 and b = Time.of_ns 20 in
        check Alcotest.bool "lt" true Time.(a < b);
        check Alcotest.bool "le" true Time.(a <= a);
        check Alcotest.bool "gt" true Time.(b > a);
        check Alcotest.int "min" 10 (Time.to_ns (Time.min a b));
        check Alcotest.int "max" 20 (Time.to_ns (Time.max a b)));
    Alcotest.test_case "span reading" `Quick (fun () ->
        check (Alcotest.float 1e-9) "to us" 2.5 (Time.span_to_us (Time.ns 2_500));
        check (Alcotest.float 1e-9) "to ms" 1.5
          (Time.span_to_ms (Time.us 1_500)));
    Alcotest.test_case "pp adapts unit" `Quick (fun () ->
        let s v = Format.asprintf "%a" Time.pp_span v in
        check Alcotest.string "ns" "500ns" (s 500);
        check Alcotest.string "us" "7.000us" (s (Time.us 7));
        check Alcotest.string "ms" "2.400ms" (s (Time.us 2400)));
  ]

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let pqueue_pop_order =
  QCheck.Test.make ~name:"pqueue pops in (key, seq) order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let q = Pqueue.create () in
      List.iteri (fun i (k, _) -> ignore (Pqueue.add q ~key:k ~seq:i i)) pairs;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, s, _) -> drain ((k, s) :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare out)

let pqueue_cancel_prop =
  QCheck.Test.make ~name:"cancelled entries never pop" ~count:200
    QCheck.(list (pair small_nat bool))
    (fun items ->
      let q = Pqueue.create () in
      let kept = ref [] in
      List.iteri
        (fun i (k, cancel) ->
          let e = Pqueue.add q ~key:k ~seq:i (k, i) in
          if cancel then Pqueue.remove q e else kept := (k, i) :: !kept)
        items;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (_, _, v) -> drain (v :: acc)
        | None -> acc
      in
      let popped = List.sort compare (drain []) in
      popped = List.sort compare !kept)

(* Mass cancellation must not leave the heap full of dead entries: the
   compaction rule (compact once dead > 64 and dead entries dominate) bounds
   the physical heap at max(live + 65, 2 * live + 1), and the surviving
   entries must still pop correctly. *)
let pqueue_compact_bound =
  QCheck.Test.make ~name:"mass cancel compacts the heap and preserves order"
    ~count:30
    QCheck.(int_range 200 2000)
    (fun n ->
      let q = Pqueue.create () in
      let entries =
        Array.init n (fun i -> Pqueue.add q ~key:(i * 7919 mod n) ~seq:i i)
      in
      Array.iteri (fun i e -> if i mod 37 <> 0 then Pqueue.remove q e) entries;
      let live = ((n - 1) / 37) + 1 in
      let bound = Stdlib.max (live + 65) ((2 * live) + 1) in
      let rec drain acc =
        match Pqueue.pop q with
        | Some (_, _, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      Pqueue.length q = 0
      && List.length popped = live
      && List.for_all (fun v -> v mod 37 = 0) popped
      && bound >= Pqueue.heap_size q)

(* pop_pick's kmin-subtree walk must behave exactly like the obvious
   reference: among live entries with the minimal key, listed in ascending
   seq order, return the one [pick] chooses.  Large heaps with few distinct
   keys and interleaved cancellations stress the pruned walk (cancelled
   kmin roots must still be recursed through). *)
let pqueue_pop_pick_reference =
  QCheck.Test.make ~name:"pop_pick agrees with a reference model" ~count:60
    QCheck.(
      pair small_nat
        (list_of_size Gen.(int_range 100 400) (pair (int_range 0 15) bool)))
    (fun (salt, ops) ->
      let q = Pqueue.create () in
      let live = ref [] in
      List.iteri
        (fun i (k, cancel) ->
          let e = Pqueue.add q ~key:k ~seq:i (k, i) in
          if cancel then Pqueue.remove q e else live := (k, i) :: !live)
        ops;
      let model = ref (List.sort compare !live) in
      (* Both sides consult their pick exactly once per >=2-way choice, so
         two counters with the same formula stay in lock-step. *)
      let pick_with turn n =
        incr turn;
        ((!turn * 7) + salt) mod n
      in
      let turn_q = ref 0 and turn_m = ref 0 in
      let ok = ref true in
      let rec drain () =
        match Pqueue.pop_pick q ~pick:(pick_with turn_q) with
        | None -> if !model <> [] then ok := false
        | Some (k, s, v) ->
            (match !model with
            | [] -> ok := false
            | (kmin, _) :: _ ->
                let cands = List.filter (fun (k', _) -> k' = kmin) !model in
                let n = List.length cands in
                let idx = if n >= 2 then pick_with turn_m n else 0 in
                let expected = List.nth cands idx in
                if (k, s) <> expected || v <> expected then ok := false
                else model := List.filter (fun c -> c <> expected) !model);
            if !ok then drain ()
      in
      drain ();
      !ok && !model = [] && Pqueue.length q = 0)

let pqueue_tests =
  [
    Alcotest.test_case "heap size shrinks after mass cancellation" `Quick
      (fun () ->
        let q = Pqueue.create () in
        let entries =
          Array.init 1000 (fun i -> Pqueue.add q ~key:i ~seq:i i)
        in
        Array.iteri (fun i e -> if i >= 10 then Pqueue.remove q e) entries;
        check Alcotest.int "live length" 10 (Pqueue.length q);
        check Alcotest.bool "heap compacted" true (Pqueue.heap_size q <= 75);
        check Alcotest.bool "min survives" true
          (match Pqueue.pop q with Some (0, _, 0) -> true | _ -> false));
    Alcotest.test_case "empty pops None" `Quick (fun () ->
        let q = Pqueue.create () in
        check Alcotest.bool "empty" true (Pqueue.is_empty q);
        check Alcotest.bool "pop" true (Pqueue.pop q = None));
    Alcotest.test_case "fifo among equal keys" `Quick (fun () ->
        let q = Pqueue.create () in
        ignore (Pqueue.add q ~key:5 ~seq:0 "a");
        ignore (Pqueue.add q ~key:5 ~seq:1 "b");
        ignore (Pqueue.add q ~key:5 ~seq:2 "c");
        let vals =
          List.init 3 (fun _ ->
              match Pqueue.pop q with Some (_, _, v) -> v | None -> "?")
        in
        check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] vals);
    Alcotest.test_case "length counts live only" `Quick (fun () ->
        let q = Pqueue.create () in
        let e1 = Pqueue.add q ~key:1 ~seq:0 1 in
        let _e2 = Pqueue.add q ~key:2 ~seq:1 2 in
        Pqueue.remove q e1;
        check Alcotest.int "length" 1 (Pqueue.length q);
        check Alcotest.bool "e1 dead" false (Pqueue.entry_live e1));
    Alcotest.test_case "to_list sorted" `Quick (fun () ->
        let q = Pqueue.create () in
        ignore (Pqueue.add q ~key:3 ~seq:0 'c');
        ignore (Pqueue.add q ~key:1 ~seq:1 'a');
        ignore (Pqueue.add q ~key:2 ~seq:2 'b');
        let keys = List.map (fun (k, _, _) -> k) (Pqueue.to_list q) in
        check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] keys);
    qtest pqueue_pop_order;
    qtest pqueue_cancel_prop;
    qtest pqueue_compact_bound;
    qtest pqueue_pop_pick_reference;
    Alcotest.test_case "backing array shrinks as the queue drains" `Quick
      (fun () ->
        let q = Pqueue.create () in
        for i = 0 to 1023 do
          ignore (Pqueue.add q ~key:i ~seq:i i)
        done;
        check Alcotest.bool "grown" true (Pqueue.heap_capacity q >= 1024);
        for _ = 1 to 1015 do
          ignore (Pqueue.pop q)
        done;
        (* 9 live out of a former 1024: each pop halves the array while
           occupancy sits below a quarter, so it has cascaded down to 32. *)
        check Alcotest.int "shrunk" 32 (Pqueue.heap_capacity q);
        while Pqueue.pop q <> None do
          ()
        done;
        check Alcotest.int "empty settles at the floor" 16
          (Pqueue.heap_capacity q);
        (* and the queue is still usable afterwards *)
        ignore (Pqueue.add q ~key:3 ~seq:0 7);
        check Alcotest.bool "reusable" true (Pqueue.pop q = Some (3, 0, 7)));
  ]

(* ------------------------------------------------------------------ *)
(* Calq: differential suite against the Pqueue reference               *)
(* ------------------------------------------------------------------ *)

(* The calendar queue and the binary heap implement the same contract —
   strict ascending (key, seq) pop order, lazy O(1) cancellation, the
   same-instant candidate set exposed to [pop_pick] in ascending seq —
   and [Sim] treats them as interchangeable.  These properties drive both
   through identical random op sequences and require identical observable
   behaviour at every step, including the [pick] arities (candidate-set
   sizes), so a divergence pinpoints the first differing operation. *)

type diff_op = D_add of int | D_cancel of int | D_pop | D_pick of int

let diff_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> D_add k) (int_range 0 24));
        (2, map (fun i -> D_cancel i) (int_range 0 1000));
        (2, return D_pop);
        (2, map (fun s -> D_pick s) (int_range 0 1000));
      ])

let pp_diff_op = function
  | D_add k -> Printf.sprintf "add key:%d" k
  | D_cancel i -> Printf.sprintf "cancel #%d" i
  | D_pop -> "pop"
  | D_pick s -> Printf.sprintf "pop_pick salt:%d" s

let diff_ops_arb =
  QCheck.make
    ~print:(QCheck.Print.list pp_diff_op)
    QCheck.Gen.(list_size (int_range 50 400) diff_op_gen)

let calq_differential =
  QCheck.Test.make ~name:"calq matches pqueue on random op sequences"
    ~count:150 diff_ops_arb
    (fun ops ->
      let c = Calq.create () and p = Pqueue.create () in
      let n_ops = List.length ops in
      (* Parallel handle stores: slot i holds the two names for the i-th
         inserted entry, so a D_cancel replays on both sides. *)
      let ch = Array.make (max 1 n_ops) Calq.nil_handle in
      let pe = Array.make (max 1 n_ops) None in
      let n_added = ref 0 in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if !ok then begin
            (match op with
            | D_add k ->
                ch.(!n_added) <- Calq.add c ~key:k ~seq:!seq !seq;
                pe.(!n_added) <- Some (Pqueue.add p ~key:k ~seq:!seq !seq);
                incr n_added;
                incr seq
            | D_cancel i ->
                if !n_added > 0 then begin
                  (* May hit an entry already popped or cancelled: both
                     sides must treat that as a no-op. *)
                  let i = i mod !n_added in
                  Calq.cancel c ch.(i);
                  match pe.(i) with
                  | Some e -> Pqueue.remove p e
                  | None -> ()
                end
            | D_pop ->
                if Calq.peek_key c <> Pqueue.peek_key p then ok := false;
                let expected_next =
                  match Pqueue.peek_key p with
                  | None -> max_int
                  | Some (k, _) -> k
                in
                if Calq.next_key c <> expected_next then ok := false;
                if Calq.pop c <> Pqueue.pop p then ok := false
            | D_pick salt ->
                (* Both sides consult [pick] only when >= 2 candidates
                   share the minimal key, so equal arities mean equal
                   same-instant candidate sets. *)
                let arity_c = ref (-1) and arity_p = ref (-1) in
                let pick a n =
                  a := n;
                  salt mod n
                in
                let rc = Calq.pop_pick c ~pick:(pick arity_c) in
                let rp = Pqueue.pop_pick p ~pick:(pick arity_p) in
                if rc <> rp || !arity_c <> !arity_p then ok := false);
            if !ok && Calq.length c <> Pqueue.length p then ok := false
          end)
        ops;
      (* Liveness of every handle ever issued must agree too. *)
      for i = 0 to !n_added - 1 do
        let pl =
          match pe.(i) with Some e -> Pqueue.entry_live e | None -> false
        in
        if Calq.handle_live c ch.(i) <> pl then ok := false
      done;
      !ok
      && Calq.to_list c = Pqueue.to_list p
      &&
      let rec drain () =
        let rc = Calq.pop c and rp = Pqueue.pop p in
        rc = rp && (rc = None || drain ())
      in
      drain ())

(* The simulator always inserts with globally monotone seqs, but the
   contract does not require it: a smaller seq for an already-pending key
   takes the calendar's sorted-insert fallback.  Scrambled unique seqs
   exercise exactly that path. *)
let calq_differential_scrambled_seqs =
  QCheck.Test.make ~name:"calq matches pqueue under non-monotone seqs"
    ~count:100
    QCheck.(
      pair small_nat (list_of_size Gen.(int_range 20 200) (int_range 0 12)))
    (fun (salt, keys) ->
      let n = List.length keys in
      let seqs = Array.init n (fun i -> i) in
      let st = Random.State.make [| salt; n |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = seqs.(i) in
        seqs.(i) <- seqs.(j);
        seqs.(j) <- t
      done;
      let c = Calq.create () and p = Pqueue.create () in
      List.iteri
        (fun i k ->
          ignore (Calq.add c ~key:k ~seq:seqs.(i) i);
          ignore (Pqueue.add p ~key:k ~seq:seqs.(i) i))
        keys;
      Calq.to_list c = Pqueue.to_list p
      &&
      let rec drain () =
        let rc = Calq.pop c and rp = Pqueue.pop p in
        rc = rp && (rc = None || drain ())
      in
      drain ())

let calq_tests =
  [
    Alcotest.test_case "stale handles are inert after slot reuse" `Quick
      (fun () ->
        let q = Calq.create () in
        let h1 = Calq.add q ~key:1 ~seq:0 "a" in
        check Alcotest.bool "live" true (Calq.handle_live q h1);
        check Alcotest.bool "pop a" true (Calq.pop q = Some (1, 0, "a"));
        check Alcotest.bool "dead after pop" false (Calq.handle_live q h1);
        Calq.cancel q h1;
        (* The freed slot is recycled for the next insert; the generation
           tag must shield the new occupant from the stale handle. *)
        let h2 = Calq.add q ~key:2 ~seq:1 "b" in
        Calq.cancel q h1;
        check Alcotest.int "b unaffected" 1 (Calq.length q);
        check Alcotest.bool "h2 live" true (Calq.handle_live q h2);
        Calq.cancel q Calq.nil_handle;
        check Alcotest.bool "nil never live" false
          (Calq.handle_live q Calq.nil_handle);
        check Alcotest.int "nil cancel is a no-op" 1 (Calq.length q);
        check Alcotest.bool "b pops" true (Calq.pop q = Some (2, 1, "b")));
    Alcotest.test_case "steady churn reuses the slab" `Quick (fun () ->
        let q = Calq.create () in
        let window = 32 in
        for i = 0 to 9_999 do
          ignore (Calq.add q ~key:(i land 7) ~seq:i i);
          if Calq.length q > window then ignore (Calq.pop q)
        done;
        (* 10k events through a 32-deep window: the slab must have settled
           at the window's doubling size, not grown with throughput. *)
        check Alcotest.bool "slab bounded" true (Calq.slab_capacity q <= 64);
        check Alcotest.bool "buckets bounded" true (Calq.bucket_count q <= 16));
    Alcotest.test_case "cancel-heavy churn is bounded by the sweep" `Quick
      (fun () ->
        let q = Calq.create () in
        for i = 0 to 4_999 do
          let h = Calq.add q ~key:(i land 15) ~seq:i i in
          if i land 7 <> 0 then Calq.cancel q h
        done;
        (* 625 survivors (every 8th insert).  Dead entries pile up between
           sweeps but the sweep fires once they outnumber the live, so
           occupancy never exceeds ~2x live and the doubling slab stays
           within 4x live — without the sweep it would hold all 5000. *)
        check Alcotest.int "live" 625 (Calq.length q);
        check Alcotest.bool "slab bounded" true
          (Calq.slab_capacity q <= 2_048);
        let rec drain last n =
          match Calq.pop q with
          | None -> n
          | Some (k, s, _) ->
              check Alcotest.bool "ascending" true (last < (k, s));
              drain (k, s) (n + 1)
        in
        check Alcotest.int "survivors pop in order" 625
          (drain (min_int, min_int) 0));
    qtest calq_differential;
    qtest calq_differential_scrambled_seqs;
  ]

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let rng_float_range =
  QCheck.Test.make ~name:"rng float stays in range" ~count:500 QCheck.int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r 10.0 in
      v >= 0.0 && v < 10.0)

let rng_tests =
  [
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          check Alcotest.int "same stream" (Rng.int a 1_000_000)
            (Rng.int b 1_000_000)
        done);
    Alcotest.test_case "copy preserves stream" `Quick (fun () ->
        let a = Rng.create 7 in
        ignore (Rng.int a 100);
        let b = Rng.copy a in
        check Alcotest.int "copies agree" (Rng.int a 1_000) (Rng.int b 1_000));
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = Rng.create 1 in
        let b = Rng.split a in
        let xs = List.init 50 (fun _ -> Rng.int a 1000) in
        let ys = List.init 50 (fun _ -> Rng.int b 1000) in
        check Alcotest.bool "streams differ" true (xs <> ys));
    Alcotest.test_case "mean of uniform is centered" `Quick (fun () ->
        let r = Rng.create 9 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.float r 1.0
        done;
        let mean = !sum /. float_of_int n in
        check Alcotest.bool "0.48 < mean < 0.52" true (mean > 0.48 && mean < 0.52));
    Alcotest.test_case "exponential has right mean" `Quick (fun () ->
        let r = Rng.create 11 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential r ~mean:2.0
        done;
        let mean = !sum /. float_of_int n in
        check Alcotest.bool "1.9 < mean < 2.1" true (mean > 1.9 && mean < 2.1));
    Alcotest.test_case "gaussian is centered" `Quick (fun () ->
        let r = Rng.create 13 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.gaussian r ~mu:5.0 ~sigma:1.0
        done;
        let mean = !sum /. float_of_int n in
        check Alcotest.bool "4.95 < mean < 5.05" true (mean > 4.95 && mean < 5.05));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = Rng.create 3 in
        let a = Array.init 100 (fun i -> i) in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check (Alcotest.array Alcotest.int) "same multiset"
          (Array.init 100 (fun i -> i))
          sorted);
    Alcotest.test_case "bound must be positive" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int (Rng.create 0) 0)));
    qtest rng_range;
    qtest rng_float_range;
  ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let summary_matches_oracle =
  QCheck.Test.make ~name:"summary mean/total match oracle" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let n = List.length xs in
      let total = List.fold_left ( +. ) 0.0 xs in
      let mean = total /. float_of_int n in
      abs_float (Stats.Summary.mean s -. mean) < 1e-6
      && abs_float (Stats.Summary.total s -. total) < 1e-6
      && Stats.Summary.count s = n)

let merge_equals_combined =
  QCheck.Test.make ~name:"summary merge == adding all" ~count:200
    QCheck.(pair (list (float_range 0. 10.)) (list (float_range 0. 10.)))
    (fun (xs, ys) ->
      let a = Stats.Summary.create () and b = Stats.Summary.create () in
      let c = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      List.iter (Stats.Summary.add c) (xs @ ys);
      let m = Stats.Summary.merge a b in
      abs_float (Stats.Summary.mean m -. Stats.Summary.mean c) < 1e-6
      && abs_float (Stats.Summary.variance m -. Stats.Summary.variance c) < 1e-5)

(* The documented accuracy contract: any percentile of a log histogram is
   within [0.5 /. sub_buckets] relative error of the exact ceil-rank
   order statistic, for in-range samples. *)
let log_histogram_percentile_accuracy =
  QCheck.Test.make ~name:"log histogram percentile accuracy" ~count:100
    QCheck.(list_of_size Gen.(int_range 20 300) (int_range 1 9_999_999))
    (fun samples ->
      let sub_buckets = 64 in
      let h = Stats.Log_histogram.create ~lo:1.0 ~hi:1e7 ~sub_buckets in
      let xs = List.map float_of_int samples in
      List.iter (Stats.Log_histogram.add h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let tol = 0.5 /. float_of_int sub_buckets in
      List.for_all
        (fun p ->
          let rank =
            Stdlib.max 1
              (int_of_float (ceil (p /. 100.0 *. float_of_int n)))
          in
          let exact = sorted.(rank - 1) in
          let approx = Stats.Log_histogram.percentile h p in
          Float.abs (approx -. exact) <= (tol *. exact) +. 1e-9)
        [ 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])

let stats_tests =
  [
    Alcotest.test_case "summary basics" `Quick (fun () ->
        let s = Stats.Summary.create () in
        List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
        check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Summary.mean s);
        check (Alcotest.float 1e-9) "min" 1.0 (Stats.Summary.min s);
        check (Alcotest.float 1e-9) "max" 4.0 (Stats.Summary.max s);
        check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0)
          (Stats.Summary.variance s));
    Alcotest.test_case "empty summary" `Quick (fun () ->
        let s = Stats.Summary.create () in
        check (Alcotest.float 0.0) "mean" 0.0 (Stats.Summary.mean s);
        check Alcotest.int "count" 0 (Stats.Summary.count s));
    Alcotest.test_case "log histogram bounds, NaN and exact max" `Quick
      (fun () ->
        let h = Stats.Log_histogram.create ~lo:1.0 ~hi:1e6 ~sub_buckets:32 in
        List.iter (Stats.Log_histogram.add h)
          [ 0.25; 3.0; 40_000.0; 2e7; Float.nan ];
        check Alcotest.int "count" 5 (Stats.Log_histogram.count h);
        check Alcotest.int "under" 1 (Stats.Log_histogram.underflow h);
        check Alcotest.int "over" 1 (Stats.Log_histogram.overflow h);
        check Alcotest.int "nan" 1 (Stats.Log_histogram.nan_count h);
        check (Alcotest.float 1e-9) "max is exact" 2e7
          (Stats.Log_histogram.max h);
        check (Alcotest.float 1e-9) "p100 capped by max" 2e7
          (Stats.Log_histogram.percentile h 100.0));
    Alcotest.test_case "time-weighted average" `Quick (fun () ->
        let w = Stats.Weighted.create ~at:Time.zero ~level:0.0 in
        Stats.Weighted.update w ~at:(Time.of_ns 100) ~level:1.0;
        Stats.Weighted.update w ~at:(Time.of_ns 200) ~level:0.0;
        (* 0 for [0,100), 1 for [100,200): average over [0,200] = 0.5 *)
        check (Alcotest.float 1e-9) "avg" 0.5
          (Stats.Weighted.average w ~upto:(Time.of_ns 200)));
    qtest summary_matches_oracle;
    qtest merge_equals_combined;
    qtest log_histogram_percentile_accuracy;
  ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_tests =
  [
    Alcotest.test_case "records kept oldest-first" `Quick (fun () ->
        let tr = Trace.create ~capacity:8 () in
        Trace.emitf tr ~time:Time.zero Trace.Sim "one";
        Trace.emitf tr ~time:(Time.of_ns 5) Trace.Cpu "two";
        let msgs = List.map (fun r -> r.Trace.message) (Trace.records tr) in
        check (Alcotest.list Alcotest.string) "order" [ "one"; "two" ] msgs);
    Alcotest.test_case "ring evicts oldest" `Quick (fun () ->
        let tr = Trace.create ~capacity:3 () in
        for i = 1 to 5 do
          Trace.emitf tr ~time:Time.zero Trace.Sim "m%d" i
        done;
        let msgs = List.map (fun r -> r.Trace.message) (Trace.records tr) in
        check (Alcotest.list Alcotest.string) "last three" [ "m3"; "m4"; "m5" ]
          msgs;
        check Alcotest.int "total counts all" 5 (Trace.count tr));
    Alcotest.test_case "disabled category drops records" `Quick (fun () ->
        let tr = Trace.create () in
        Trace.enable tr Trace.Cpu false;
        Trace.emit tr ~time:Time.zero Trace.Cpu (lazy "hidden");
        Trace.emitf tr ~time:Time.zero Trace.Kernel "shown";
        check Alcotest.int "one record" 1 (List.length (Trace.records tr)));
    Alcotest.test_case "lazy message not forced when disabled" `Quick (fun () ->
        let tr = Trace.create () in
        Trace.enable tr Trace.Uthread false;
        let forced = ref false in
        Trace.emit tr ~time:Time.zero Trace.Uthread
          (lazy
            (forced := true;
             "x"));
        check Alcotest.bool "not forced" false !forced);
    Alcotest.test_case "emitf performs no formatting when disabled" `Quick
      (fun () ->
        let tr = Trace.create () in
        Trace.enable tr Trace.Cpu false;
        (* A custom %a printer is only invoked if formatting actually runs,
           so the counter proves the disabled path formats nothing. *)
        let formatted = ref 0 in
        let pr ppf () =
          incr formatted;
          Format.pp_print_string ppf "payload"
        in
        Trace.emitf tr ~time:Time.zero Trace.Cpu "cpu %a %d" pr () 3;
        check Alcotest.int "printer never ran" 0 !formatted;
        check Alcotest.int "nothing recorded" 0 (Trace.count tr);
        Trace.emitf tr ~time:Time.zero Trace.Kernel "kernel %a %d" pr () 3;
        check Alcotest.int "printer ran when enabled" 1 !formatted;
        check Alcotest.int "one record" 1 (Trace.count tr));
    Alcotest.test_case "structured records carry ids and render" `Quick
      (fun () ->
        let tr = Trace.create () in
        Trace.span_begin tr ~time:Time.zero ~cpu:2 ~space:1 ~act:7 Trace.Upcall
          "upcall:add-processor";
        Trace.counter tr ~time:(Time.of_ns 10) Trace.Kernel "runq:native" 3.0;
        Trace.span_end tr ~time:(Time.of_ns 20) ~cpu:2 Trace.Upcall
          "upcall:add-processor";
        match Trace.records tr with
        | [ b; c; e ] ->
            check Alcotest.int "cpu" 2 b.Trace.cpu;
            check Alcotest.int "space" 1 b.Trace.space;
            check Alcotest.int "act" 7 b.Trace.act;
            check Alcotest.bool "begin kind" true
              (b.Trace.kind = Trace.Span_begin);
            check Alcotest.bool "counter kind" true
              (c.Trace.kind = Trace.Counter 3.0);
            check Alcotest.string "counter rendering" "runq:native = 3"
              (Trace.render_message c);
            check Alcotest.string "span end rendering"
              "-upcall:add-processor" (Trace.render_message e)
        | l ->
            Alcotest.fail
              (Printf.sprintf "expected 3 records, got %d" (List.length l)));
    Alcotest.test_case "ring wraps structured records oldest-first" `Quick
      (fun () ->
        let tr = Trace.create ~capacity:3 () in
        for i = 1 to 7 do
          Trace.instant tr ~time:(Time.of_ns i) Trace.Kernel
            (Printf.sprintf "ev%d" i)
        done;
        let names = List.map (fun r -> r.Trace.name) (Trace.records tr) in
        check
          (Alcotest.list Alcotest.string)
          "last three, oldest first" [ "ev5"; "ev6"; "ev7" ] names;
        check Alcotest.int "count includes evicted" 7 (Trace.count tr));
    Alcotest.test_case "sinks see the full stream past ring capacity" `Quick
      (fun () ->
        let tr = Trace.create ~capacity:2 () in
        let seen = ref [] in
        Trace.add_sink tr (fun r -> seen := r.Trace.name :: !seen);
        Trace.enable tr Trace.Cpu false;
        Trace.instant tr ~time:Time.zero Trace.Cpu "dropped";
        for i = 1 to 4 do
          Trace.instant tr ~time:(Time.of_ns i) Trace.Kernel
            (Printf.sprintf "k%d" i)
        done;
        check
          (Alcotest.list Alcotest.string)
          "enabled records only, in order" [ "k1"; "k2"; "k3"; "k4" ]
          (List.rev !seen));
  ]

(* ------------------------------------------------------------------ *)
(* Trace_export (Chrome trace-event JSON)                              *)
(* ------------------------------------------------------------------ *)

module Trace_export = Sa_engine.Trace_export
module J = Json_check

let mkrec ~time ~kind ?(cpu = Trace.no_id) ?(space = Trace.no_id)
    ?(act = Trace.no_id) ?(message = "") name =
  { Trace.time; category = Trace.Kernel; kind; name; cpu; space; act; message }

let trace_export_tests =
  [
    Alcotest.test_case "stream is well-formed JSON with every ph kind" `Quick
      (fun () ->
        let records =
          [
            mkrec ~time:Time.zero ~kind:Trace.Span_begin ~cpu:0 ~space:1 "busy";
            mkrec ~time:(Time.of_ns 2_000) ~kind:(Trace.Counter 3.0)
              "runq:native";
            mkrec ~time:(Time.of_ns 3_000) ~kind:Trace.Instant ~cpu:0
              ~message:"detail \"quoted\"\twith\ncontrols"
              "downcall:add-more-processors";
            mkrec ~time:(Time.of_ns 4_000) ~kind:Trace.Span_begin ~act:7
              ~space:1 "io-block";
            mkrec ~time:(Time.of_ns 5_000) ~kind:Trace.Span_end ~cpu:0 "busy";
            mkrec ~time:(Time.of_ns 9_000) ~kind:Trace.Span_end ~act:7 ~space:1
              "io-block";
          ]
        in
        let v = J.parse (Trace_export.to_string records) in
        let events = J.arr (Option.get (J.member "traceEvents" v)) in
        List.iter
          (fun e ->
            check Alcotest.bool "has ph" true (J.member "ph" e <> None);
            check Alcotest.bool "has pid" true (J.member "pid" e <> None);
            check Alcotest.bool "has tid" true (J.member "tid" e <> None))
          events;
        let phs = List.filter_map (J.str_member "ph") events in
        let has p = List.mem p phs in
        check Alcotest.bool "sync span B/E on the cpu track" true
          (has "B" && has "E");
        check Alcotest.bool "async span b/e for the unbound span" true
          (has "b" && has "e");
        check Alcotest.bool "counter" true (has "C");
        check Alcotest.bool "instant" true (has "i");
        check Alcotest.bool "track metadata" true (has "M");
        let counter =
          List.find (fun e -> J.str_member "ph" e = Some "C") events
        in
        let args = Option.get (J.member "args" counter) in
        check (Alcotest.float 1e-9) "counter value" 3.0
          (J.num (Option.get (J.member "value" args))));
    Alcotest.test_case "cpu records and kernel records land on own tracks"
      `Quick (fun () ->
        let records =
          [
            mkrec ~time:Time.zero ~kind:Trace.Instant ~cpu:3 "on-cpu";
            mkrec ~time:Time.zero ~kind:Trace.Instant "unbound";
          ]
        in
        let v = J.parse (Trace_export.to_string records) in
        let events = J.arr (Option.get (J.member "traceEvents" v)) in
        let tid_of name =
          let e =
            List.find (fun e -> J.str_member "name" e = Some name) events
          in
          J.num (Option.get (J.member "tid" e))
        in
        check Alcotest.bool "cpu 3 on tid 4" true (tid_of "on-cpu" = 4.0);
        check Alcotest.bool "unbound on kernel tid 0" true
          (tid_of "unbound" = 0.0));
    Alcotest.test_case "close is idempotent and feed after close no-ops"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let w = Trace_export.create ~out:(Buffer.add_string buf) in
        Trace_export.feed w
          (mkrec ~time:Time.zero ~kind:Trace.Instant "only");
        Trace_export.close w;
        let len = Buffer.length buf in
        Trace_export.close w;
        Trace_export.feed w
          (mkrec ~time:Time.zero ~kind:Trace.Instant "late");
        check Alcotest.int "no further output" len (Buffer.length buf);
        ignore (J.parse (Buffer.contents buf)));
  ]

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let sim_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        ignore (Sim.schedule sim ~at:(Time.of_ns 30) (fun () -> log := 3 :: !log));
        ignore (Sim.schedule sim ~at:(Time.of_ns 10) (fun () -> log := 1 :: !log));
        ignore (Sim.schedule sim ~at:(Time.of_ns 20) (fun () -> log := 2 :: !log));
        Sim.run sim;
        check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
        check Alcotest.int "clock" 30 (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "same-instant events are FIFO" `Quick (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        for i = 1 to 5 do
          ignore
            (Sim.schedule sim ~at:(Time.of_ns 7) (fun () -> log := i :: !log))
        done;
        Sim.run sim;
        check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ]
          (List.rev !log));
    Alcotest.test_case "cancellation" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref false in
        let h = Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> fired := true) in
        Sim.cancel sim h;
        Sim.run sim;
        check Alcotest.bool "not fired" false !fired);
    Alcotest.test_case "scheduling into the past rejected" `Quick (fun () ->
        let sim = Sim.create () in
        ignore (Sim.schedule sim ~at:(Time.of_ns 10) (fun () -> ()));
        Sim.run sim;
        Alcotest.check_raises "past"
          (Invalid_argument "Sim.schedule: event in the past") (fun () ->
            ignore (Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> ()))));
    Alcotest.test_case "run ~until stops at horizon" `Quick (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        let rec tick () =
          incr count;
          ignore (Sim.schedule_after sim ~delay:(Time.us 1) tick)
        in
        ignore (Sim.schedule_after sim ~delay:(Time.us 1) tick);
        Sim.run ~until:(Time.of_ns (Time.us 10)) sim;
        check Alcotest.int "ten ticks" 10 !count);
    Alcotest.test_case "run_while respects predicate" `Quick (fun () ->
        let sim = Sim.create () in
        let count = ref 0 in
        let rec tick () =
          incr count;
          ignore (Sim.schedule_after sim ~delay:(Time.us 1) tick)
        in
        ignore (Sim.schedule_after sim ~delay:(Time.us 1) tick);
        Sim.run_while sim (fun () -> !count < 7);
        check Alcotest.int "seven ticks" 7 !count);
    Alcotest.test_case "events can schedule events" `Quick (fun () ->
        let sim = Sim.create () in
        let result = ref 0 in
        ignore
          (Sim.schedule sim ~at:(Time.of_ns 1) (fun () ->
               ignore
                 (Sim.schedule_after sim ~delay:10 (fun () -> result := 42))));
        Sim.run sim;
        check Alcotest.int "nested" 42 !result;
        check Alcotest.int "time" 11 (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "pending counts live events" `Quick (fun () ->
        let sim = Sim.create () in
        let h = Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> ()) in
        ignore (Sim.schedule sim ~at:(Time.of_ns 6) (fun () -> ()));
        check Alcotest.int "two" 2 (Sim.pending sim);
        Sim.cancel sim h;
        check Alcotest.int "one" 1 (Sim.pending sim));
    Alcotest.test_case "stall raises with diagnostics" `Quick (fun () ->
        let sim = Sim.create () in
        ignore (Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> ()));
        match Sim.stall sim "dead" with
        | _ -> Alcotest.fail "expected Stalled"
        | exception Sim.Stalled msg ->
            let has needle =
              let nh = String.length msg and nn = String.length needle in
              let rec go i =
                i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
              in
              go 0
            in
            check Alcotest.bool "carries reason" true (has "dead");
            check Alcotest.bool "carries clock" true (has "clock=");
            check Alcotest.bool "carries pending count" true (has "pending=1");
            check Alcotest.bool "carries same-instant counter" true
              (has "same-instant="));
    Alcotest.test_case "zero-delay event loops are detected as livelock"
      `Quick (fun () ->
        let sim = Sim.create () in
        Sim.set_same_instant_limit sim 1000;
        let rec spin () = ignore (Sim.schedule_after sim ~delay:0 spin) in
        ignore (Sim.schedule_after sim ~delay:0 spin);
        (match Sim.run sim with
        | () -> Alcotest.fail "expected livelock detection"
        | exception Sim.Stalled msg ->
            check Alcotest.bool "mentions livelock" true
              (String.length msg > 0));
        (* time never advanced *)
        check Alcotest.int "clock still zero" 0 (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "bursts below the limit are fine" `Quick (fun () ->
        let sim = Sim.create () in
        Sim.set_same_instant_limit sim 1000;
        for _ = 1 to 900 do
          ignore (Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> ()))
        done;
        Sim.run sim;
        check Alcotest.int "processed" 5 (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "cancel is idempotent" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref 0 in
        let h = Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> incr fired) in
        Sim.cancel sim h;
        Sim.cancel sim h;
        (* cancelling after the queue drained is also harmless *)
        Sim.run sim;
        Sim.cancel sim h;
        check Alcotest.int "never fired" 0 !fired;
        check Alcotest.int "queue empty" 0 (Sim.pending sim));
    Alcotest.test_case "cancel after firing is harmless" `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref 0 in
        let h = Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> incr fired) in
        Sim.run sim;
        Sim.cancel sim h;
        check Alcotest.int "fired once" 1 !fired);
    Alcotest.test_case "zero-delay events run after queued same-instant peers"
      `Quick (fun () ->
        let sim = Sim.create () in
        let log = ref [] in
        ignore
          (Sim.schedule sim ~at:(Time.of_ns 10) (fun () ->
               (* scheduled first, from inside the earliest event... *)
               ignore
                 (Sim.schedule_after sim ~delay:0 (fun () ->
                      log := "zero" :: !log))));
        ignore
          (Sim.schedule sim ~at:(Time.of_ns 10) (fun () ->
               log := "peer" :: !log));
        Sim.run sim;
        (* ...but the pre-queued peer at the same instant still runs first *)
        check
          (Alcotest.list Alcotest.string)
          "fifo within instant" [ "peer"; "zero" ] (List.rev !log);
        check Alcotest.int "clock stayed" 10 (Time.to_ns (Sim.now sim)));
    Alcotest.test_case "same-instant counter trips exactly at the limit"
      `Quick (fun () ->
        let trip limit chain =
          let sim = Sim.create () in
          Sim.set_same_instant_limit sim limit;
          let n = ref 0 in
          let rec spin () =
            incr n;
            if !n < chain then ignore (Sim.schedule_after sim ~delay:0 spin)
          in
          ignore (Sim.schedule_after sim ~delay:0 spin);
          match Sim.run sim with
          | () -> false
          | exception Sim.Stalled _ -> true
        in
        (* [limit] events at one instant are fine; one more trips *)
        check Alcotest.bool "at limit ok" false (trip 50 50);
        check Alcotest.bool "past limit trips" true (trip 50 52);
        Alcotest.check_raises "zero limit rejected"
          (Invalid_argument "Sim.set_same_instant_limit") (fun () ->
            Sim.set_same_instant_limit (Sim.create ()) 0));
    Alcotest.test_case "same_instant_count resets when the clock moves" `Quick
      (fun () ->
        let sim = Sim.create () in
        for _ = 1 to 3 do
          ignore (Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> ()))
        done;
        ignore (Sim.schedule sim ~at:(Time.of_ns 9) (fun () -> ()));
        ignore (Sim.step sim);
        ignore (Sim.step sim);
        ignore (Sim.step sim);
        check Alcotest.int "two same-instant events" 2
          (Sim.same_instant_count sim);
        ignore (Sim.step sim);
        check Alcotest.int "reset on advance" 0 (Sim.same_instant_count sim));
    Alcotest.test_case "run_while terminates on false predicate and empty queue"
      `Quick (fun () ->
        let sim = Sim.create () in
        let fired = ref false in
        ignore (Sim.schedule sim ~at:(Time.of_ns 5) (fun () -> fired := true));
        (* predicate false from the start: nothing runs *)
        Sim.run_while sim (fun () -> false);
        check Alcotest.bool "not fired" false !fired;
        (* true predicate: drains the queue then stops *)
        Sim.run_while sim (fun () -> true);
        check Alcotest.bool "fired" true !fired;
        check Alcotest.int "queue empty" 0 (Sim.pending sim);
        (* empty queue: returns immediately even with a true predicate *)
        Sim.run_while sim (fun () -> true));
  ]

let () =
  Alcotest.run "engine"
    [
      ("time", time_tests);
      ("pqueue", pqueue_tests);
      ("calq", calq_tests);
      ("rng", rng_tests);
      ("stats", stats_tests);
      ("trace", trace_tests);
      ("trace-export", trace_export_tests);
      ("sim", sim_tests);
    ]
