(* Multiprogramming: two jobs share one six-processor machine.

   Under the paper's kernel the space-sharing allocator gives each address
   space three processors and tells each thread package exactly which
   processors it has; when one job's demand drops, its processors move to
   the other (Table 5's setting).  The example prints the allocator's
   decisions as they happen.

     dune exec examples/multiprogramming.exe *)

module Time = Sa_engine.Time
module Sim = Sa_engine.Sim
module Trace = Sa_engine.Trace
module P = Sa_program.Program
module B = P.Build
module Kernel = Sa_kernel.Kernel
module System = Sa.System

(* A job with two phases: a wide parallel burst (12 x 20 ms), a narrow
   sequential phase (40 ms), then another wide burst — so demand swings and
   the allocator has decisions to make. *)
let phased_job =
  let burst () =
    let open B in
    let* tids =
      let rec go acc i =
        if i = 0 then return acc
        else
          let* tid = fork (P.compute_only (Time.ms 20)) in
          go (tid :: acc) (i - 1)
      in
      go [] 12
    in
    iter_list tids (fun tid -> join tid)
  in
  B.to_program
    (let open B in
     let* () = burst () in
     let* () = compute (Time.ms 40) in
     burst ())

let () =
  let sys = System.create ~cpus:6 () in
  (* Stream only the kernel-allocator trace. *)
  let tr = Sim.trace (System.sim sys) in
  Trace.enable tr Trace.Upcall false;
  Trace.enable tr Trace.Cpu false;
  Trace.add_sink tr (Trace.printer Format.std_formatter);
  let timeline =
    Sa_metrics.Timeline.attach sys ~resolution:(Time.ms 2)
  in
  let j1 = System.submit sys ~backend:`Fastthreads_on_sa ~name:"alpha" phased_job in
  let j2 = System.submit sys ~backend:`Fastthreads_on_sa ~name:"beta" phased_job in
  System.run sys;
  print_newline ();
  print_endline "processor occupancy (a = alpha, b = beta, t = kernel daemons):";
  Sa_metrics.Timeline.render timeline Format.std_formatter;
  print_newline ();
  List.iter
    (fun j ->
      match System.elapsed j with
      | Some d ->
          Printf.printf "%s finished in %.1f ms\n" (System.job_name j)
            (Time.span_to_ms d)
      | None -> ())
    [ j1; j2 ];
  let st = Kernel.stats (System.kernel sys) in
  Printf.printf
    "allocator moved processors %d times; %d processor preemptions; %d upcalls\n"
    st.Kernel.reallocations st.Kernel.preemptions st.Kernel.upcalls
