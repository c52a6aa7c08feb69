(** Upcall event vocabulary (Table 2 of the paper) and saved user contexts.

    A {!user_ctx} is the machine state of a stopped user-level computation:
    the unfinished remainder of the work segment that was executing, plus
    the continuation to run once that remainder has been re-charged on some
    processor.  The kernel ferries these contexts opaquely — it neither
    inspects nor resumes them itself, which is precisely the crucial
    distinction from kernel threads (Section 3.1). *)

type user_ctx = {
  remaining : Sa_engine.Time.span;
      (** work left in the interrupted segment (0 for a context saved at a
          clean boundary, e.g. I/O completion) *)
  resume : unit -> unit;
      (** continuation supplied by the user level when the segment was
          charged; the kernel never calls it *)
}

(** The four upcall points of Table 2.  [act] identifies the scheduler
    activation concerned, so the user level can look up which of its
    threads was running in that activation's context. *)
type event =
  | Add_processor
      (** "Add this processor: execute a runnable user-level thread." *)
  | Processor_preempted of { act : int; ctx : user_ctx }
      (** "Processor has been preempted: return to the ready list the
          user-level thread that was executing in the context of the
          preempted scheduler activation."  Also delivered when the kernel
          borrows one of the space's own processors to make an upcall. *)
  | Activation_blocked of { act : int }
      (** "Scheduler activation has blocked: the blocked scheduler
          activation is no longer using its processor." *)
  | Activation_unblocked of { act : int; ctx : user_ctx }
      (** "Scheduler activation has unblocked: return to the ready list the
          user-level thread that was executing in the context of the blocked
          scheduler activation." *)

val event_name : event -> string
(** Stable kebab-case name of the event kind, used as the trace span name
    ([upcall:<name>]). *)

val pp_event : Format.formatter -> event -> unit
