module IntSet = Set.Make (Int)

(* The clock suffix appended by [Sim.stall], and the exact counts embedded
   in an invariant message ("holds 2, yet 2 sit free"), vary with the path
   a masked replay takes to the same logical violation; cut the former and
   normalize digit runs so "the same violation" is a stable predicate over
   the check name and its structure. *)
let violation_key msg =
  let line =
    match String.index_opt msg '\n' with
    | Some i -> String.sub msg 0 i
    | None -> msg
  in
  let marker = " [clock=" in
  let mlen = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + mlen > n then line
    else if String.sub line i mlen = marker then String.sub line 0 i
    else find (i + 1)
  in
  let line = find 0 in
  let b = Buffer.create (String.length line) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !in_digits then Buffer.add_char b '#';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char b c
      end)
    line;
  Buffer.contents b

type result = {
  schedule : Schedule.t;
  run : Search.run_result;
  key : string;
  kept : int;
  dropped : int;
  tests : int;
}

(* Classic ddmin over the divergence-index set, with a replay budget.  The
   granularity doubles when neither a chunk nor a complement reproduces,
   and the whole reduction restarts at granularity 2 whenever the set
   shrinks. *)
let ddmin ~test ~max_tests items =
  let tests = ref 0 in
  let check set =
    if !tests >= max_tests then false
    else begin
      incr tests;
      test set
    end
  in
  let split set n =
    let arr = Array.of_list (IntSet.elements set) in
    let len = Array.length arr in
    List.init n (fun i ->
        let lo = i * len / n and hi = (i + 1) * len / n in
        let chunk = ref IntSet.empty in
        for j = lo to hi - 1 do
          chunk := IntSet.add arr.(j) !chunk
        done;
        !chunk)
    |> List.filter (fun s -> not (IntSet.is_empty s))
  in
  let rec go set n =
    let len = IntSet.cardinal set in
    if len <= 1 || !tests >= max_tests then set
    else begin
      let chunks = split set n in
      match List.find_opt check chunks with
      | Some chunk -> go chunk 2
      | None -> (
          let complements =
            if n <= 2 then []
            else List.map (fun c -> IntSet.diff set c) chunks
          in
          match List.find_opt check complements with
          | Some compl -> go compl (max (n - 1) 2)
          | None ->
              if n < len then go set (min len (2 * n)) else set)
    end
  in
  let minimal = go items 2 in
  (minimal, !tests)

(* Divergences bucketed by decision shape — all draws, all picks, each
   site — tried smallest-first as a pre-reduction before ddmin.  A seeded
   violation is usually driven by one site class (say, the injector's
   [inject:demand-drop] draws); finding the class in a handful of replays
   saves ddmin hundreds of chunk tests that a flat start would waste. *)
let site_groups (failing : Schedule.t) divergences =
  let tbl = Hashtbl.create 8 in
  let add key i =
    let cur =
      match Hashtbl.find_opt tbl key with
      | Some s -> s
      | None -> IntSet.empty
    in
    Hashtbl.replace tbl key (IntSet.add i cur)
  in
  IntSet.iter
    (fun i ->
      match failing.Schedule.decisions.(i) with
      | Schedule.Pick p ->
          add "picks" i;
          add ("site:" ^ p.site) i
      | Schedule.Draw d ->
          add "draws" i;
          add ("site:" ^ d.site) i)
    divergences;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.filter (fun s ->
         IntSet.cardinal s < IntSet.cardinal divergences)
  |> List.sort (fun a b ->
         compare (IntSet.cardinal a) (IntSet.cardinal b))

(* Reduction replays one shrink may spend. *)
let max_tests = 400

let shrink ~spec (failing : Schedule.t) =
  let divergences = IntSet.of_list (Schedule.divergences failing) in
  let replay_with set =
    let active i = IntSet.mem i set in
    let r, _ =
      Search.replay ~mode:Chooser.Lenient ~active spec failing
    in
    r
  in
  match (replay_with divergences).Search.outcome with
  | Search.Completed _ | Search.No_completion _ ->
      Error "the schedule does not reproduce a violation"
  | Search.Violation msg0 ->
      let key = violation_key msg0 in
      let used = ref 0 in
      let test set =
        match (replay_with set).Search.outcome with
        | Search.Violation msg -> violation_key msg = key
        | _ -> false
      in
      let start =
        let candidates = site_groups failing divergences in
        let rec try_groups = function
          | [] -> divergences
          | g :: rest ->
              if !used >= max_tests then divergences
              else begin
                incr used;
                if test g then g else try_groups rest
              end
        in
        try_groups candidates
      in
      let minimal, dd_tests =
        ddmin ~test ~max_tests:(max 0 (max_tests - !used)) start
      in
      let tests = !used + dd_tests in
      (* Re-record the minimal run so the shrunk schedule stands alone:
         its decisions are the minimal run's own, not a masked view of the
         original's, and so replay strictly. *)
      let inner, _ =
        Chooser.replaying ~mode:Chooser.Lenient
          ~active:(fun i -> IntSet.mem i minimal)
          failing
      in
      let run, schedule = Search.record ~inner spec in
      (match run.Search.outcome with
      | Search.Violation msg when violation_key msg = key ->
          Ok
            {
              schedule;
              run;
              key;
              kept = IntSet.cardinal minimal;
              dropped =
                IntSet.cardinal divergences - IntSet.cardinal minimal;
              tests;
            }
      | o ->
          Error
            (Printf.sprintf
               "minimal run did not reproduce the violation (got %s)"
               (Search.outcome_name o)))
