type span = Sa_engine.Time.span
type thread_id = int

(* Sync objects are numbered process-wide, and runs may go on in several
   domains at once. *)
let next_object_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_object_id 1 + 1

module Mutex = struct
  type t = { mid : int; mname : string }

  let create ?name () =
    let mid = fresh_id () in
    let mname =
      match name with Some n -> n | None -> Printf.sprintf "mutex#%d" mid
    in
    { mid; mname }

  let id t = t.mid
  let name t = t.mname
end

module Cond = struct
  type t = { cid : int; cname : string }

  let create ?name () =
    let cid = fresh_id () in
    let cname =
      match name with Some n -> n | None -> Printf.sprintf "cond#%d" cid
    in
    { cid; cname }

  let id t = t.cid
  let name t = t.cname
end

module Sem = struct
  type t = { sid : int; sname : string; sinitial : int }

  let create ?name ~initial () =
    if initial < 0 then invalid_arg "Sem.create: negative initial";
    let sid = fresh_id () in
    let sname =
      match name with Some n -> n | None -> Printf.sprintf "sem#%d" sid
    in
    { sid; sname; sinitial = initial }

  let id t = t.sid
  let name t = t.sname
  let initial t = t.sinitial
end

type t =
  | Done
  | Compute of span * (unit -> t)
  | Acquire of Mutex.t * (unit -> t)
  | Release of Mutex.t * (unit -> t)
  | Wait of Cond.t * Mutex.t * (unit -> t)
  | Signal of Cond.t * (unit -> t)
  | Broadcast of Cond.t * (unit -> t)
  | Sem_p of Sem.t * (unit -> t)
  | Sem_v of Sem.t * (unit -> t)
  | Ksem_p of Sem.t * (unit -> t)
  | Ksem_v of Sem.t * (unit -> t)
  | Fork of t * (thread_id -> t)
  | Join of thread_id * (unit -> t)
  | Io of span * (unit -> t)
  | Cache_read of int * (unit -> t)
  | Yield of (unit -> t)
  | Stamp of int * (unit -> t)
  | Set_priority of int * (unit -> t)
  | Dynamic of t
      (* force-dependent marker: the wrapped program's continuations read
         or write host state, so they must be forced at simulated
         execution time; [compile] leaves each one behind an [op_dyn] *)

module Build = struct
  type 'a m = ('a -> t) -> t

  let return x k = k x
  let bind m f k = m (fun x -> f x k)
  let ( let* ) = bind
  let to_program m = m (fun () -> Done)
  let compute d k = Compute (d, fun () -> k ())
  let acquire m k = Acquire (m, fun () -> k ())
  let release m k = Release (m, fun () -> k ())

  let critical m body =
    let* () = acquire m in
    let* () = body in
    release m

  let wait c m k = Wait (c, m, fun () -> k ())
  let signal c k = Signal (c, fun () -> k ())
  let broadcast c k = Broadcast (c, fun () -> k ())
  let sem_p s k = Sem_p (s, fun () -> k ())
  let sem_v s k = Sem_v (s, fun () -> k ())
  let ksem_p s k = Ksem_p (s, fun () -> k ())
  let ksem_v s k = Ksem_v (s, fun () -> k ())
  let fork prog k = Fork (prog, k)
  let fork_unit prog k = Fork (prog, fun _tid -> k ())
  let join tid k = Join (tid, fun () -> k ())
  let io d k = Io (d, fun () -> k ())
  let cache_read b k = Cache_read (b, fun () -> k ())
  let yield k = Yield (fun () -> k ())
  let stamp id k = Stamp (id, fun () -> k ())
  let set_priority p k = Set_priority (p, fun () -> k ())
  let dynamic m k = Dynamic (m k)

  let repeat n f =
    let rec go i = if i >= n then return () else bind (f i) (fun () -> go (i + 1)) in
    go 0

  let iter_list xs f =
    let rec go = function
      | [] -> return ()
      | x :: rest -> bind (f x) (fun () -> go rest)
    in
    go xs

  let when_ cond body = if cond then body else return ()
end

let null = Done
let compute_only d = Compute (d, fun () -> Done)

(* ------------------------------------------------------------------ *)
(* Compiled flat representation                                        *)
(* ------------------------------------------------------------------ *)

module Code = struct
  (* Op tags.  Interpreters match on the integer literals directly (a
     19-way [match] on an int compiles to a jump table); the constants
     below exist so they can sanity-check the numbering at module init. *)
  let op_done = 0
  let op_compute = 1
  let op_acquire = 2
  let op_release = 3
  let op_wait = 4
  let op_signal = 5
  let op_broadcast = 6
  let op_sem_p = 7
  let op_sem_v = 8
  let op_ksem_p = 9
  let op_ksem_v = 10
  let op_fork = 11
  let op_join = 12
  let op_io = 13
  let op_cache_read = 14
  let op_yield = 15
  let op_stamp = 16
  let op_set_priority = 17
  let op_dyn = 18

  type nonrec t = {
    op : int array;  (* op tag *)
    a : int array;
        (* first operand: span (compute/io), sync-object index
           (acquire/release/signal/broadcast/sem/ksem), cond index (wait),
           child entry pc (fork), join target (>= 0: literal runtime tid;
           < 0: [-(slot+1)], resolved through the thread's fork bindings),
           block (cache_read), marker id (stamp), priority, continuation
           index (dyn) *)
    b : int array;
        (* second operand: mutex index (wait), fork slot (fork; dyn, or -1
           when the continuation takes no thread id) *)
    nx : int array;  (* next pc (-1 terminates: op_done and op_dyn) *)
    mutexes : Mutex.t array;  (* code-local index -> object *)
    conds : Cond.t array;
    sems : Sem.t array;
    ksems : Sem.t array;  (* separate index space: matches backend state *)
    konts : (thread_id -> t) array;  (* unforced continuations (dyn) *)
  }

  let length c = Array.length c.op

  (* A thread's fork bindings: the child forked at each slot of its
     region, 0 (no thread's id) where that fork has not run.  Cells past
     the end are unbound too, so a thread that never forks shares the one
     empty array. *)
  type binds = int array

  let no_binds = [||]

  let bind binds slot tid =
    let n = Array.length binds in
    let binds =
      if slot < n then binds
      else begin
        let grown = Array.make (max (slot + 1) (2 * n)) 0 in
        Array.blit binds 0 grown 0 n;
        grown
      end
    in
    binds.(slot) <- tid;
    binds

  let bound binds slot = if slot < Array.length binds then binds.(slot) else 0

  let join_target binds operand =
    if operand >= 0 then operand else bound binds (-operand - 1)

  let force c pc binds =
    let slot = c.b.(pc) in
    c.konts.(c.a.(pc)) (if slot < 0 then 0 else bound binds slot)
end

(* Fork continuations are forced symbolically: each fork site hands its
   continuation a unique, hugely negative sentinel thread id.  A sentinel
   showing up anywhere except a same-thread [Join] target means the program
   computes on thread ids, so that fork's continuation must stay unforced
   until the real id exists.  [min_int/4] leaves sentinel +/- small-int
   arithmetic still recognizably suspicious. *)
let sentinel_base = min_int / 2
let sentinel_threshold = min_int / 4
let sentinel_of_site site = sentinel_base - site
let is_sentinel v = v <= sentinel_base

(* Raised mid-compile: recompile with this fork site's continuation left
   lazy.  The site raised is always the earliest one whose sentinel is in
   scope, so nothing is deferred while any sentinel is in scope, and
   compilation is deterministic: the retry numbers every site up to the
   raising one identically, and a lazy site names the same fork on every
   attempt. *)
exception Lazy_site of int

let no_thunk () = Done

(* One thread-straight-line region under compilation. *)
type region = {
  id : int;
  mutable entry : int;  (* first pc emitted, -1 before *)
  mutable last : int;  (* pc the next emitted instruction is linked after *)
  mutable scope : int;
      (* earliest fork site whose sentinel the code being compiled may
         have captured, -1 for none *)
  mutable slots : int;  (* fork slots numbered so far, 0, 1, 2, ... *)
  mutable cur : t;  (* the node to compile next *)
  mutable produced_by : unit -> t;
      (* the thunk whose forcing produced [cur]; [no_thunk] for the
         region's first node and right after a fork *)
  mutable running : bool;
  mutable dyn : bool;  (* inside a [Dynamic] subtree: one node, then [op_dyn] *)
}

(* The fork-child memo of [compile_once]: a ring of [memo_cap] slots (a
   power of two, so a slot is an insertion count [land] the mask) filled
   by the last [n] insertions.  [memo_find keys pcs n child 1] scans it
   newest first for [child] by physical equality and returns its entry pc,
   or -1. *)
let memo_cap = 64

let rec memo_find keys pcs n child k =
  if k > n || k > memo_cap then -1
  else
    let i = (n - k) land (memo_cap - 1) in
    if Array.unsafe_get keys i == child then Array.unsafe_get pcs i
    else memo_find keys pcs n child (k + 1)

let compile_once ~budget ~lazy_sites prog =
  let cap = ref 8 in
  let op = ref (Array.make !cap 0)
  and a = ref (Array.make !cap 0)
  and b = ref (Array.make !cap 0)
  and nx = ref (Array.make !cap (-1)) in
  let len = ref 0 in
  let emit o av bv =
    if !len >= !cap then begin
      let ncap = !cap * 2 in
      let grow arr fill =
        let n = Array.make ncap fill in
        Array.blit !arr 0 n 0 !len;
        arr := n
      in
      grow op 0; grow a 0; grow b 0; grow nx (-1);
      cap := ncap
    end;
    let pc = !len in
    !op.(pc) <- o;
    !a.(pc) <- av;
    !b.(pc) <- bv;
    !nx.(pc) <- -1;
    incr len;
    pc
  in
  let konts = ref [] and nkonts = ref 0 in
  let add_kont k =
    konts := k :: !konts;
    incr nkonts;
    !nkonts - 1
  in
  (* Sync objects are interned to dense code-local indices, one space per
     kind (user and kernel semaphore state live in separate tables, so a
     [Sem.t] used both ways gets an index in each).  One table serves all
     four kinds, keyed by object id and kind: most arenas are the few
     instructions of an [op_dyn] continuation, where table setup is most
     of the cost of compiling. *)
  let intern tbl lst count key obj =
    match Hashtbl.find_opt tbl key with
    | Some i -> i
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add tbl key i;
        lst := obj :: !lst;
        i
  in
  let tbl = Hashtbl.create 8 in
  let mlst = ref [] and mn = ref 0 in
  let clst = ref [] and cn = ref 0 in
  let slst = ref [] and sn = ref 0 in
  let klst = ref [] and kn = ref 0 in
  let midx m = intern tbl mlst mn (Mutex.id m * 4) m in
  let cidx c = intern tbl clst cn ((Cond.id c * 4) + 1) c in
  let sidx s = intern tbl slst sn ((Sem.id s * 4) + 2) s in
  let kidx s = intern tbl klst kn ((Sem.id s * 4) + 3) s in
  (* Fork sites are numbered across the whole arena, only to name the
     lazy site a retry leaves unforced.  At run time a fork is known by its
     slot, numbered from 0 within its region. *)
  let nsites = ref 0 in
  (* Each compiled instruction has exactly one predecessor (subtrees are
     duplicated, never shared), so every instruction belongs to exactly one
     thread-straight-line region: the root is region 0, each fork child
     opens a fresh region while the continuation stays in the forker's.
     A thread runs one region of its arena, so a region's slots index
     its thread's bindings.  A join on a site issued under a different
     region would look up a fork binding its own thread never
     established, so it escapes like data.  Only sites whose continuation
     was forced with a sentinel have a region here (-1 elsewhere), and
     [site_slot] holds their slot; both are indexed by site number. *)
  let site_region = ref [||] and site_slot = ref [||] in
  let record_site site region slot =
    let n = Array.length !site_region in
    if site >= n then begin
      let grow arr fill =
        let g = Array.make (max (site + 1) (max 16 (2 * n))) fill in
        Array.blit !arr 0 g 0 n;
        arr := g
      in
      grow site_region (-1);
      grow site_slot 0
    end;
    !site_region.(site) <- region;
    !site_slot.(site) <- slot
  in
  let next_region = ref 1 in
  (* Physically-shared fork children compile once and every fork site
     points at the same entry pc.  Fan-out programs fork one shared
     subtree thousands of times; duplicating it would make compilation
     O(instances) and blow the arena for no behavioural gain — joins
     resolve fork sites through each running thread's own bindings, so
     instances sharing code (and fork sites) stay independent.  Keyed on
     physical equality: one value captures the same thread ids wherever it
     is forked, so compiling it once stands for every instance.  The table
     holds the [memo_cap] most recently compiled children ([memo_find]):
     fan-outs fork each child from one stretch of code, so recency keeps
     every child that is still being forked, and the hit is usually the
     newest entry.  It stays short, so [==] scans beat hashing; an arena
     that forks nothing allocates none of it. *)
  let memo_child = ref [||] and memo_pc = ref [||] and memo_n = ref 0 in
  let remember child cpc =
    if !memo_n = 0 then begin
      memo_child := Array.make memo_cap child;
      memo_pc := Array.make memo_cap cpc
    end;
    let i = !memo_n land (memo_cap - 1) in
    !memo_child.(i) <- child;
    !memo_pc.(i) <- cpc;
    incr memo_n
  in
  let link r pc =
    if r.entry = -1 then r.entry <- pc else !nx.(r.last) <- pc;
    r.last <- pc
  in
  let defer r slot k =
    link r (emit Code.op_dyn (add_kont k) slot);
    r.running <- false
  in
  (* A sentinel used as data: make the earliest site in scope lazy (a later
     site that issued [v] becomes lazy when the deferred continuation is
     compiled at run time).  With no sentinel in
     scope, [v] is an ordinary literal. *)
  let escape r v =
    if v < sentinel_threshold && r.scope >= 0 then raise (Lazy_site r.scope);
    v
  in
  (* Leave the current node to run time, redoing the forcing that built
     it: that forcing may have read host state (a future's resolution
     check runs as its chain is built).  Nothing may stay unforced while
     a sentinel is in scope, so the earliest site in scope is made lazy
     instead. *)
  let defer_current r =
    if r.scope >= 0 then raise (Lazy_site r.scope);
    let f = r.produced_by and node = r.cur in
    defer r (-1) (if f == no_thunk then fun _ -> node else fun _ -> f ())
  in
  (* Forcing can raise (a continuation that only makes sense with real
     thread ids or host state): leave it to run time, where it raises at
     the instant program order reaches it.  Host faults are not the
     program's and surface here. *)
  let force r f =
    r.produced_by <- f;
    match f () with
    | node -> r.cur <- node
    | exception ((Out_of_memory | Stack_overflow | Assert_failure _) as e) ->
        raise e
    | exception _ -> defer_current r
  in
  let next r k =
    if r.dyn then defer r (-1) (fun _ -> Dynamic (k ())) else force r k
  in
  let rec go id scope prog =
    let r =
      {
        id;
        entry = -1;
        last = -1;
        scope;
        slots = 0;
        cur = prog;
        produced_by = no_thunk;
        running = true;
        dyn = false;
      }
    in
    while r.running do
      if !len >= budget && not r.dyn then defer_current r
      else
        match r.cur with
        | Done ->
            link r (emit Code.op_done 0 0);
            r.running <- false
        | Compute (d, k) ->
            link r (emit Code.op_compute (escape r d) 0);
            next r k
        | Acquire (m, k) ->
            link r (emit Code.op_acquire (midx m) 0);
            next r k
        | Release (m, k) ->
            link r (emit Code.op_release (midx m) 0);
            next r k
        | Wait (c, m, k) ->
            link r (emit Code.op_wait (cidx c) (midx m));
            next r k
        | Signal (c, k) ->
            link r (emit Code.op_signal (cidx c) 0);
            next r k
        | Broadcast (c, k) ->
            link r (emit Code.op_broadcast (cidx c) 0);
            next r k
        | Sem_p (s, k) ->
            link r (emit Code.op_sem_p (sidx s) 0);
            next r k
        | Sem_v (s, k) ->
            link r (emit Code.op_sem_v (sidx s) 0);
            next r k
        | Ksem_p (s, k) ->
            link r (emit Code.op_ksem_p (kidx s) 0);
            next r k
        | Ksem_v (s, k) ->
            link r (emit Code.op_ksem_v (kidx s) 0);
            next r k
        | Fork (child, k) ->
            let site = !nsites in
            incr nsites;
            let slot = r.slots in
            r.slots <- slot + 1;
            let pc = emit Code.op_fork 0 slot in
            link r pc;
            let child_pc =
              match memo_find !memo_child !memo_pc !memo_n child 1 with
              | -1 ->
                  let child_region = !next_region in
                  incr next_region;
                  let cpc = go child_region r.scope child in
                  remember child cpc;
                  cpc
              | cpc -> cpc
            in
            !a.(pc) <- child_pc;
            if r.dyn then defer r slot (fun tid -> Dynamic (k tid))
            else if List.mem site lazy_sites then begin
              (* The deferred continuation would capture any sentinel in
                 scope, which no run-time binding resolves. *)
              if r.scope >= 0 then raise (Lazy_site r.scope);
              defer r slot k
            end
            else begin
              record_site site r.id slot;
              if r.scope < 0 then r.scope <- site;
              (* The sentinel is in scope from here: a [Dynamic] result or
                 a raise makes a site lazy (see [defer_current]). *)
              r.produced_by <- no_thunk;
              match k (sentinel_of_site site) with
              | node -> r.cur <- node
              | exception
                  ((Out_of_memory | Stack_overflow | Assert_failure _) as e) ->
                  raise e
              | exception _ -> defer_current r
            end
        | Join (tid, k) ->
            let operand =
              if tid >= 0 then tid
              else
                let site = sentinel_base - tid in
                if
                  is_sentinel tid
                  && site < Array.length !site_region
                  && !site_region.(site) = r.id
                then -(!site_slot.(site) + 1)
                else begin
                  ignore (escape r tid);
                  (* no thread has a negative id: joining fails at run
                     time *)
                  max_int
                end
            in
            link r (emit Code.op_join operand 0);
            next r k
        | Io (d, k) ->
            link r (emit Code.op_io (escape r d) 0);
            next r k
        | Cache_read (blk, k) ->
            link r (emit Code.op_cache_read (escape r blk) 0);
            next r k
        | Yield k ->
            link r (emit Code.op_yield 0 0);
            next r k
        | Stamp (id, k) ->
            link r (emit Code.op_stamp (escape r id) 0);
            next r k
        | Set_priority (p, k) ->
            link r (emit Code.op_set_priority (escape r p) 0);
            next r k
        | Dynamic p ->
            (* Force-dependent from here on: its continuations run host
               effects, so each is forced only when execution reaches it.
               Unless the node heads this region with no sentinel in
               scope, the forcing that built it is deferred too. *)
            if r.dyn || (r.produced_by == no_thunk && r.scope < 0) then begin
              r.dyn <- true;
              r.cur <- p
            end
            else defer_current r
    done;
    r.entry
  in
  let root_pc = go 0 (-1) prog in
  assert (root_pc = 0);
  let trim arr = Array.sub !arr 0 !len in
  {
    Code.op = trim op;
    a = trim a;
    b = trim b;
    nx = trim nx;
    mutexes = Array.of_list (List.rev !mlst);
    conds = Array.of_list (List.rev !clst);
    sems = Array.of_list (List.rev !slst);
    ksems = Array.of_list (List.rev !klst);
    konts = Array.of_list (List.rev !konts);
  }

(* The last arena this domain compiled, keyed on its program value by
   physical equality: jobs that submit one value share one arena.  An
   ephemeron, so the cached arena never outlives its program. *)
let last_compiled = Domain.DLS.new_key (fun () -> None)

let compile ?(budget = 1_000_000) prog =
  match
    Option.bind (Domain.DLS.get last_compiled) (fun e ->
        Ephemeron.K1.query e prog)
  with
  | Some (b, code) when b = budget -> code
  | Some _ | None ->
      let rec attempt lazy_sites =
        match compile_once ~budget ~lazy_sites prog with
        | code -> code
        | exception Lazy_site site -> attempt (site :: lazy_sites)
      in
      let code = attempt [] in
      Domain.DLS.set last_compiled
        (Some (Ephemeron.K1.make prog (budget, code)));
      code
