(* An open-arrival server: the scenario that motivates threads in the
   paper's introduction.  Requests arrive every ~1 ms; most handlers
   perform a 20 ms backend I/O.  Original FastThreads loses a virtual
   processor to every kernel block, so handlers queue behind pinned
   processors and tail latency explodes; scheduler activations hand every
   blocked processor straight back.

     dune exec examples/server_demo.exe *)

module Server = Sa_workload.Server
module Recorder = Sa_workload.Recorder
module Kconfig = Sa_kernel.Kconfig
module System = Sa.System

let () =
  let params = Server.default_params in
  let prog = Server.program params in
  Printf.printf "%-26s %10s %10s %10s %12s\n" "system (4 CPUs)" "mean(ms)"
    "p95(ms)" "p99(ms)" "makespan(ms)";
  let run name kconfig backend =
    let sys = System.create ~cpus:4 ~kconfig () in
    let r = Recorder.create () in
    let _job =
      System.submit sys ~backend ~name ~observer:(Recorder.observer r) prog
    in
    System.run sys;
    let s = Server.summarize r ~requests:params.Server.requests ~slo:max_int in
    Printf.printf "%-26s %10.1f %10.1f %10.1f %12.0f\n" name
      (s.Server.ts_mean_us /. 1000.) (s.Server.ts_p95_us /. 1000.)
      (s.Server.ts_p99_us /. 1000.) s.Server.ts_makespan_ms
  in
  run "Topaz threads" Kconfig.native `Topaz_kthreads;
  run "orig FastThreads" Kconfig.native (`Fastthreads_on_kthreads 4);
  run "new FastThreads" Kconfig.default `Fastthreads_on_sa;
  print_newline ();
  print_endline
    "With only four virtual processors and ~16 I/Os outstanding, original";
  print_endline
    "FastThreads serializes the request stream; the same thread package on";
  print_endline "scheduler activations keeps processors working through every block."
