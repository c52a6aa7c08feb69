(** ddmin shrinking of a failing schedule.

    A failing schedule found by the search typically diverges from the
    default schedule at hundreds of decisions, nearly all irrelevant to the
    violation.  The shrinker minimizes the {e divergence set}: replaying
    the schedule leniently with a subset of divergences active (masked
    decisions answer with the run's own defaults) and asking whether the
    same violation — identified by {!violation_key}, the message stripped
    of its volatile clock suffix and counts — still occurs.  A
    site-group pre-pass (all-draws, all-picks, each site, smallest first)
    finds the decision class driving the violation in a handful of
    replays; classic ddmin then minimizes within it, all under one bounded
    test budget.  The result is re-recorded into a standalone minimal
    schedule that replays the violation under {!Chooser.Strict}. *)

val violation_key : string -> string
(** First line of a violation message with the [" [clock=…"] suffix cut
    off and digit runs normalized to [#] — stable across replays that
    reach the same violation (same check, same structure) with different
    counts or at different instants. *)

type result = {
  schedule : Schedule.t;
      (** the minimal failing run, re-recorded so it stands alone (its
          decisions are exactly the minimal run's, strict-replayable) *)
  run : Search.run_result;  (** outcome of the minimal run *)
  key : string;  (** the violation key being reproduced *)
  kept : int;  (** divergences surviving minimization *)
  dropped : int;  (** divergences eliminated *)
  tests : int;  (** reduction replays executed *)
}

val shrink : spec:Search.spec -> Schedule.t -> (result, string) Result.t
(** Minimize a failing schedule in at most 400 reduction replays; on
    exhaustion the best subset so far is returned.  [Error] if the
    schedule does not reproduce a violation in the first place, or if the
    re-recorded minimal run fails to. *)
