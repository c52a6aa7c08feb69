(* Closed-form latencies the cost model implies for the paper's two
   latency benchmarks, kept as the oracle the simulated Table 1 / Table 4
   runs are compared against. *)

open Sa_hw.Cost_model

(* One Null-Fork cycle: fork + join + child dispatch + null procedure +
   exit + parent re-dispatch.  34 / 37 / 948 / 11300 us on the Firefly. *)
let null_fork_expected t = function
  | `Fastthreads ->
      t.ut_fork + t.ut_join + t.ut_schedule + t.procedure_call + t.ut_finish
      + t.ut_schedule
  | `Sa ->
      t.ut_fork + t.ut_join + t.ut_schedule + t.procedure_call + t.ut_finish
      + t.ut_schedule + t.ut_sa_busy_accounting
  | `Topaz ->
      t.kt_fork + t.kt_join + t.kt_context_switch + t.procedure_call
      + t.kt_exit + t.kt_context_switch + t.kt_unblock
  | `Ultrix ->
      t.up_fork + t.up_join + t.kt_context_switch + t.procedure_call
      + t.up_exit + t.kt_context_switch + t.kt_unblock

(* One signal-then-wait, half a ping-pong round including the dispatch of
   the next thread.  37 / 42 / 441 / 1840 us on the Firefly. *)
let signal_wait_expected t = function
  | `Fastthreads -> t.ut_signal + t.ut_wait + t.ut_schedule
  | `Sa ->
      t.ut_signal + t.ut_wait + t.ut_schedule + t.ut_sa_busy_accounting
      + t.ut_sa_resume_check
  | `Topaz -> t.kt_signal + t.kt_wait + t.kt_context_switch + t.kt_unblock
  | `Ultrix -> t.up_signal + t.up_wait + t.kt_context_switch + t.kt_unblock
