type user_ctx = { remaining : Sa_engine.Time.span; resume : unit -> unit }

type event =
  | Add_processor
  | Processor_preempted of { act : int; ctx : user_ctx }
  | Activation_blocked of { act : int }
  | Activation_unblocked of { act : int; ctx : user_ctx }

let event_name = function
  | Add_processor -> "add-processor"
  | Processor_preempted _ -> "processor-preempted"
  | Activation_blocked _ -> "activation-blocked"
  | Activation_unblocked _ -> "activation-unblocked"

let pp_event ppf = function
  | Add_processor -> Format.pp_print_string ppf "add-processor"
  | Processor_preempted { act; ctx } ->
      Format.fprintf ppf "preempted(act=%d, remaining=%a)" act
        Sa_engine.Time.pp_span ctx.remaining
  | Activation_blocked { act } -> Format.fprintf ppf "blocked(act=%d)" act
  | Activation_unblocked { act; _ } ->
      Format.fprintf ppf "unblocked(act=%d)" act
