module Time = Sa_engine.Time

type span = Time.span

type t = {
  procedure_call : span;
  kernel_trap : span;
  ut_fork : span;
  ut_schedule : span;
  ut_finish : span;
  ut_signal : span;
  ut_wait : span;
  ut_join : span;
  ut_lock : span;
  ut_unlock : span;
  ut_block_on_lock : span;
  ut_yield : span;
  ut_sa_busy_accounting : span;
  ut_sa_resume_check : span;
  ut_critical_flag : span;
  kt_fork : span;
  kt_join : span;
  kt_exit : span;
  kt_signal : span;
  kt_wait : span;
  kt_context_switch : span;
  kt_block : span;
  kt_unblock : span;
  kt_wake : span;
  up_fork : span;
  up_join : span;
  up_exit : span;
  up_signal : span;
  up_wait : span;
  upcall : span;
  upcall_untuned_factor : float;
  activation_fresh_alloc : span;
  preempt_interrupt : span;
  io_latency : span;
  time_slice : span;
  daemon_period : span;
  daemon_burst : span;
  idle_spin : span;
}

let firefly_cvax =
  {
    procedure_call = Time.us 7;
    kernel_trap = Time.us 19;
    (* Null-Fork cycle = ut_fork + ut_join + ut_schedule (child dispatch)
       + procedure_call + ut_finish + ut_schedule (parent re-dispatch)
       = 10 + 2 + 4 + 7 + 7 + 4 = 34 us (Table 1). *)
    ut_fork = Time.us 10;
    ut_schedule = Time.us 4;
    ut_finish = Time.us 7;
    ut_join = Time.us 2;
    (* Signal-Wait half-round = ut_signal + ut_wait + ut_schedule
       = 18 + 15 + 4 = 37 us (Table 1). *)
    ut_signal = Time.us 18;
    ut_wait = Time.us 15;
    ut_lock = Time.us 2;
    ut_unlock = Time.us 1;
    ut_block_on_lock = Time.us 14;
    ut_yield = Time.us 9;
    (* +3 us Null Fork, +3/+2 us Signal-Wait under activations (S5.1). *)
    ut_sa_busy_accounting = Time.us 3;
    ut_sa_resume_check = Time.us 2;
    ut_critical_flag = 0;
    (* Null-Fork cycle = kt_fork + kt_join + kt_context_switch (child
       dispatch) + procedure_call + kt_exit + kt_context_switch +
       kt_unblock (parent wakeup processing)
       = 750 + 20 + 50 + 7 + 21 + 50 + 50 = 948 us. *)
    kt_fork = Time.us 750;
    kt_join = Time.us 20;
    kt_exit = Time.us 21;
    (* Signal-Wait half-round = kt_signal + kt_wait + kt_context_switch
       + kt_unblock = 170 + 171 + 50 + 50 = 441 us. *)
    kt_signal = Time.us 170;
    kt_wait = Time.us 171;
    kt_context_switch = Time.us 50;
    kt_block = Time.us 55;
    kt_unblock = Time.us 50;
    kt_wake = Time.us 50;
    (* Null-Fork cycle = 10923 + 100 + 50 + 7 + 120 + 50 + 50 = 11300 us. *)
    up_fork = Time.us 10923;
    up_join = Time.us 100;
    up_exit = Time.us 120;
    (* Signal-Wait half-round = 870 + 870 + 50 + 50 = 1840 us. *)
    up_signal = Time.us 870;
    up_wait = Time.us 870;
    (* A tuned upcall is commensurate with Topaz kernel-thread operations;
       the paper's Modula-2+ prototype was ~5x slower (S5.2). *)
    upcall = Time.us 200;
    upcall_untuned_factor = 5.8;
    activation_fresh_alloc = Time.us 120;
    preempt_interrupt = Time.us 23;
    io_latency = Time.ms 50;
    time_slice = Time.ms 100;
    daemon_period = Time.ms 50;
    daemon_burst = Time.ms 1;
    idle_spin = Time.ms 5;
  }

(* Contemporary magnitudes (order-of-magnitude, a 2020s x86 server):
   user-level ops from pooled-stack fiber libraries, kernel-thread ops from
   pthread/futex costs, a post-KPTI syscall, NVMe-class storage. *)
let modern_x86 =
  {
    procedure_call = Time.ns 5;
    kernel_trap = Time.ns 600;
    ut_fork = Time.ns 90;
    ut_schedule = Time.ns 30;
    ut_finish = Time.ns 40;
    ut_join = Time.ns 20;
    ut_signal = Time.ns 60;
    ut_wait = Time.ns 50;
    ut_lock = Time.ns 15;
    ut_unlock = Time.ns 10;
    ut_block_on_lock = Time.ns 60;
    ut_yield = Time.ns 30;
    ut_sa_busy_accounting = Time.ns 10;
    ut_sa_resume_check = Time.ns 5;
    ut_critical_flag = 0;
    kt_fork = Time.us_f 8.0;
    kt_join = Time.us_f 1.5;
    kt_exit = Time.us_f 2.0;
    kt_signal = Time.us_f 1.2;
    kt_wait = Time.us_f 1.3;
    kt_context_switch = Time.us_f 1.5;
    kt_block = Time.us_f 1.0;
    kt_unblock = Time.us_f 1.0;
    kt_wake = Time.us_f 1.0;
    up_fork = Time.us 60;
    up_join = Time.us 5;
    up_exit = Time.us 30;
    up_signal = Time.us 2;
    up_wait = Time.us 2;
    upcall = Time.us 2;
    upcall_untuned_factor = 3.0;
    activation_fresh_alloc = Time.us 1;
    preempt_interrupt = Time.us 2;
    io_latency = Time.us 100;
    time_slice = Time.ms 4;
    daemon_period = Time.ms 10;
    daemon_burst = Time.us 50;
    idle_spin = Time.us 50;
  }

let pp ppf t =
  let us name v = Format.fprintf ppf "%-24s %8.1f us@." name (Time.span_to_us v) in
  us "procedure_call" t.procedure_call;
  us "kernel_trap" t.kernel_trap;
  us "ut_fork" t.ut_fork;
  us "ut_schedule" t.ut_schedule;
  us "ut_finish" t.ut_finish;
  us "ut_signal" t.ut_signal;
  us "ut_wait" t.ut_wait;
  us "kt_fork" t.kt_fork;
  us "kt_signal" t.kt_signal;
  us "kt_wait" t.kt_wait;
  us "kt_context_switch" t.kt_context_switch;
  us "up_fork" t.up_fork;
  us "upcall" t.upcall;
  Format.fprintf ppf "%-24s %8.2f@." "upcall_untuned_factor" t.upcall_untuned_factor;
  us "io_latency" t.io_latency;
  us "time_slice" t.time_slice
