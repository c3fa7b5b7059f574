open Coop_trace

type result = {
  behaviors : Behavior.Set.t;
  executions : int;
  steps : int;  (* always novel_steps + replayed_steps *)
  novel_steps : int;
  replayed_steps : int;
  cache_hits : int;
  complete : bool;
}

(* The object a transition touches, for the dependency relation. *)
type obj =
  | Ovar of Event.var
  | Olock of int
  | Othread of int  (* fork/join of, or park-on-join for, this thread *)
  | Oout  (* print: globally ordered because output order is observable *)
  | Onone

type step_info = {
  tid : int;
  obj : obj;
  is_write : bool;
}

let dependent a b =
  if a.tid = b.tid then false  (* program order needs no backtracking *)
  else begin
    match (a.obj, b.obj) with
    | Ovar v, Ovar w ->
        Event.equal_var v w && (a.is_write || b.is_write)
    | Olock l, Olock m -> l = m
    | Oout, Oout -> true
    | Othread t, _ -> t = b.tid
    | _, Othread t -> t = a.tid
    | _ -> false
  end

(* What the current transition's events touched, written by [sink]. One
   per run. *)
type capture = {
  mutable obj : obj;
  mutable wrote : bool;
  sink : Trace.Sink.t;
}

let capture_event cap (e : Event.t) =
  match e.op with
  | Event.Read v -> cap.obj <- Ovar v
  | Event.Write v ->
      cap.obj <- Ovar v;
      cap.wrote <- true
  | Event.Acquire l | Event.Release l -> cap.obj <- Olock l
  | Event.Fork t | Event.Join t -> cap.obj <- Othread t
  | Event.Out _ -> cap.obj <- Oout
  | Event.Yield -> ()  (* leaves a Wait's Release capture in place *)
  | Event.Enter _ | Event.Exit _ | Event.Atomic_begin | Event.Atomic_end -> ()

let new_capture () =
  let rec cap =
    { obj = Onone; wrote = false; sink = (fun e -> capture_event cap e) }
  in
  cap

let rec transition cap st tid fuel =
  if fuel = 0 then None
  else begin
    match Vm.thread_status st tid with
    | Vm.Reacquiring _ ->
        (* Monitor reacquire: a visible lock transition of its own. *)
        Vm.step st tid ~sink:cap.sink;
        Some { tid; obj = cap.obj; is_write = false }
    | _ -> (
        match Vm.next_instr st tid with
        | Vm.No_frame -> Some { tid; obj = Onone; is_write = false }
        | Vm.Sched_point ->
            Vm.step st tid ~sink:cap.sink;
            let obj =
              match Vm.thread_status st tid with
              | Vm.Blocked_on_lock h | Vm.Waiting h | Vm.Reacquiring h ->
                  Olock h  (* parked or waiting: depends on the monitor *)
              | Vm.Blocked_on_join u -> Othread u
              | _ -> cap.obj
            in
            Some { tid; obj; is_write = cap.wrote }
        | Vm.Invisible -> (
            Vm.step st tid ~sink:cap.sink;
            match Vm.thread_status st tid with
            | Vm.Finished | Vm.Faulted _ ->
                Some { tid; obj = Onone; is_write = false }
            | _ -> transition cap st tid (fuel - 1)))
  end

(* Execute one transition of [tid] in place: the invisible prefix, then
   one visible instruction (or a park). Returns the step summary, or
   [None] when the invisible-prefix budget runs out (leaving [st] part-way
   through the prefix). The visible operation is recovered from the event
   the step emits. *)
let exec_transition ~max_segment cap st tid =
  cap.obj <- Onone;
  cap.wrote <- false;
  transition cap st tid max_segment

(* Frames hold no VM state, only the choice bookkeeping, indexed by
   position in [enabled]: both the backtrack and the tried set are
   subsets of the enabled set. The state before the choice is restored
   from a snapshot in the shared checkpoint store and, on a miss,
   re-derived by replaying the recorded path from the deepest cached
   ancestor — so peak memory is the cache cap, not stack-depth states,
   and backtracked executions skip re-running their shared prefix. A run
   keeps one frame record per stack depth and reuses it for every frame
   pushed there. *)
type frame = {
  mutable n : int;  (* enabled threads *)
  mutable enabled : int array;  (* their tids, ascending, in [0, n) *)
  mutable backtrack : bool array;  (* per position *)
  mutable tried : bool array;  (* per position *)
  mutable taken : step_info;  (* the step executed from this frame *)
  mutable sleep : (int * step_info) list;
      (* threads whose next transition was fully explored in a sibling
         subtree; skipped here, woken by dependent steps (sleep sets) *)
}

let no_step = { tid = -1; obj = Onone; is_write = false }

let empty_frame () =
  { n = 0; enabled = [||]; backtrack = [||]; tried = [||]; taken = no_step;
    sleep = [] }

(* Re-initialize [fr] as the frame of state [st]. *)
let reset_frame fr ~sleep st =
  let n = Vm.runnable_count st in
  if n > Array.length fr.enabled then begin
    let len = max n (2 * Array.length fr.enabled) in
    fr.enabled <- Array.make len 0;
    fr.backtrack <- Array.make len false;
    fr.tried <- Array.make len false
  end;
  Vm.blit_runnable st fr.enabled;
  Array.fill fr.backtrack 0 n false;
  Array.fill fr.tried 0 n false;
  fr.n <- n;
  fr.taken <- no_step;
  fr.sleep <- sleep;
  (* Textbook sleep sets: the first choice is the least awake thread. A
     frame whose every enabled transition is asleep is sleep-blocked —
     each continuation was fully covered in an earlier sibling subtree,
     so exploring any of them here would only re-derive known behaviours.
     Its backtrack set stays empty and the frame records nothing. *)
  let rec first i =
    if i < n then begin
      if List.mem_assoc fr.enabled.(i) sleep then first (i + 1)
      else fr.backtrack.(i) <- true
    end
  in
  first 0

(* The least position marked for backtracking and not yet tried, or -1. *)
let next_pending fr =
  let rec go i =
    if i >= fr.n then -1
    else if fr.backtrack.(i) && not fr.tried.(i) then i
    else go (i + 1)
  in
  go 0

(* The position of [tid] among the enabled threads, or -1. *)
let position fr tid =
  let rec go i =
    if i >= fr.n then -1 else if fr.enabled.(i) = tid then i else go (i + 1)
  in
  go 0

(* Distinguishes checkpoint keys of concurrent/successive runs sharing
   one store; replay only ever hits keys written by the same run. *)
let run_nonce = Atomic.make 0

(* Checkpoint spacing: only every [ckpt_spacing]-th stack depth is parked
   in the store (the root always is); a backtracked choice at an unparked
   depth replays at most [ckpt_spacing - 1] transitions from its nearest
   parked ancestor. A snapshot's weight is O(1), but taking it copies the
   live state — several transitions' worth of work on these programs. On
   perfbench's [dpor] workload (2-vCPU Xeon, three 10 s runs each, same
   executions and novel steps) parking every 1, 2 and 4 depths gave a
   median 534, 705 and 798 k novel transitions/s. Must be a power of
   two. *)
let ckpt_spacing = 4

let parked_depth i = i land (ckpt_spacing - 1) = 0

(* Flush the store's counter deltas attributable to one [run] into the
   telemetry registers (the store itself has no Coop_obs dependency and
   may be shared across runs, hence deltas). *)
let flush_obs c (before : Coop_util.Ckpt_cache.stats) =
  if Coop_obs.enabled () then begin
    let open Coop_util.Ckpt_cache in
    let s = stats c in
    Coop_obs.count "ckpt/hits" (s.hits - before.hits);
    Coop_obs.count "ckpt/misses" (s.misses - before.misses);
    Coop_obs.count "ckpt/evictions" (s.evictions - before.evictions);
    Coop_obs.gauge "ckpt/bytes" (float_of_int s.bytes);
    Coop_obs.gauge "ckpt/peak_bytes" (float_of_int s.peak_bytes)
  end

let default_cache () =
  Coop_util.Ckpt_cache.create
    ~weight:(fun snap -> 8 * Vm.approx_words snap)
    ()

let run ?(yields = Loc.Set.empty) ?(max_executions = 50_000)
    ?(max_depth = 10_000) ?(max_segment = 100_000) ?(no_cache = false)
    ?(sleep_sets = true) ?ckpt prog =
  let cache =
    if no_cache then None
    else Some (match ckpt with Some c -> c | None -> default_cache ())
  in
  let before = Option.map Coop_util.Ckpt_cache.stats cache in
  let behaviors = ref Behavior.Set.empty in
  let executions = ref 0 in
  let novel = ref 0 in
  let replayed = ref 0 in
  let cache_hits = ref 0 in
  let complete = ref true in
  let cap = new_capture () in
  let record st =
    incr executions;
    behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
  in
  (* The execution stack; index 0 is the initial state. Frame records
     are allocated once per depth and reused. *)
  let stack : frame array ref = ref [||] in
  let depth = ref 0 in
  let push ~sleep st =
    let d = !depth in
    if d >= Array.length !stack then begin
      let n = Array.length !stack in
      stack :=
        Array.init (max 64 (2 * n)) (fun i ->
            if i < n then !stack.(i) else empty_frame ())
    end;
    reset_frame !stack.(d) ~sleep st;
    depth := d + 1
  in
  (* Checkpoint keys: one per parked depth, built on first use. A run has
     exactly one live frame per depth; the key's entry is rewritten
     whenever a frame is pushed at that depth, and lookups only ask for
     frames on the current path, so a key never yields a popped sibling's
     state. The run nonce separates runs sharing a store. *)
  let run_key =
    "dpor" ^ string_of_int (Atomic.fetch_and_add run_nonce 1)
  in
  let keys = ref [||] in
  let depth_key d =
    let i = d / ckpt_spacing in
    if i >= Array.length !keys then begin
      let n = Array.length !keys in
      keys :=
        Array.init (max 16 (2 * (i + 1))) (fun j ->
            if j < n then !keys.(j) else "")
    end;
    let k = !keys.(i) in
    if k <> "" then k
    else begin
      let k = run_key ^ "." ^ string_of_int d in
      !keys.(i) <- k;
      k
    end
  in
  (* A state whose subtree is fully explored, recycled by the next
     checkpoint restore instead of allocating a fresh one. *)
  let spare = ref None in
  let restore snap =
    match !spare with
    | Some st ->
        spare := None;
        Vm.restore_into snap st;
        st
    | None -> Vm.restore snap
  in
  (* The initial state, snapshotted once: re-deriving from the root
     restores it rather than re-running [Vm.init], which would rebuild
     the program's code tables. *)
  let st0 = Vm.init ~yields prog in
  let root = Vm.snapshot st0 in
  (* State before the choice at depth [i]: cached checkpoint if present,
     else re-derived by replaying the recorded step of the parent frame
     onto the parent's state (recursively, from the deepest cached
     ancestor). Replay is deterministic — same yields, same fuel — so a
     transition that succeeded when first executed succeeds again. *)
  let rec state_at i =
    match cache with
    | Some c when parked_depth i -> (
        let key = depth_key i in
        match Coop_util.Ckpt_cache.find c key with
        | Some snap ->
            incr cache_hits;
            restore snap
        | None ->
            let st = rederive i in
            Coop_util.Ckpt_cache.add c key (Vm.snapshot st);
            st)
    | _ -> rederive i
  and rederive i =
    if i = 0 then restore root
    else begin
      let st = state_at (i - 1) in
      (* Ancestors always have a taken step, which succeeded when first
         executed. *)
      match
        exec_transition ~max_segment cap st !stack.(i - 1).taken.tid
      with
      | Some _ ->
          incr replayed;
          st
      | None -> assert false
    end
  in
  (* After taking step [info] at depth d (from frame d), add backtrack
     points at the last earlier frame whose taken step is dependent. *)
  let rec add_backtracks info i =
    if i >= 0 then begin
      let fr = !stack.(i) in
      if dependent fr.taken info then begin
        let pos = position fr info.tid in
        if pos >= 0 then fr.backtrack.(pos) <- true
        else Array.fill fr.backtrack 0 fr.n true
      end
      else add_backtracks info (i - 1)
    end
  in
  (* [explore st_here] explores from the frame just pushed, whose
     pre-choice state [st_here] the caller hands over — the first choice
     steps it in place and costs no lookup; later (backtracked) choices
     get a fresh copy of the frame's state through [state_at]. *)
  let rec explore st_here =
    if !executions >= max_executions then complete := false
    else begin
      let d = !depth - 1 in
      let fr = !stack.(d) in
      if fr.n = 0 then record st_here
      else if !depth > max_depth then complete := false
      else begin
        let first = ref true in
        let continue_ = ref true in
        while !continue_ do
          let pos = next_pending fr in
          if pos < 0 then continue_ := false
          else begin
            let p = fr.enabled.(pos) in
            fr.tried.(pos) <- true;
            (* Asleep: this transition's subtree was covered in a sibling
               and nothing dependent has happened since. *)
            if not (List.mem_assoc p fr.sleep) then begin
              let st' =
                if !first then begin
                  first := false;
                  st_here
                end
                else state_at d
              in
              match exec_transition ~max_segment cap st' p with
              | None -> complete := false
              | Some info ->
                  incr novel;
                  fr.taken <- info;
                  add_backtracks info (d - 1);
                  let child_sleep =
                    match fr.sleep with
                    | _ :: _ when sleep_sets ->
                        List.filter
                          (fun (_, i) -> not (dependent i info))
                          fr.sleep
                    | _ -> []
                  in
                  (* The child frame lands at stack index [d + 1]. *)
                  (match cache with
                  | Some c when parked_depth (d + 1) ->
                      Coop_util.Ckpt_cache.add c (depth_key (d + 1))
                        (Vm.snapshot st')
                  | _ -> ());
                  push ~sleep:child_sleep st';
                  explore st';
                  spare := Some st';
                  decr depth;
                  (* The child's subtree is done and no other frame will
                     be at its depth until the next push: drop its
                     checkpoint instead of letting dead snapshots fill the
                     store up to its cap. *)
                  (match cache with
                  | Some c when parked_depth (d + 1) ->
                      Coop_util.Ckpt_cache.remove c (depth_key (d + 1))
                  | _ -> ());
                  if sleep_sets then fr.sleep <- (p, info) :: fr.sleep;
                  if !executions >= max_executions then begin
                    (* Budget exhausted mid-frame: the remaining backtrack
                       choices stay unexplored. *)
                    if next_pending fr >= 0 then complete := false;
                    continue_ := false
                  end
            end
          end
        done
      end
    end
  in
  (match cache with
  | Some c -> Coop_util.Ckpt_cache.add c (depth_key 0) root
  | None -> ());
  push ~sleep:[] st0;
  explore st0;
  (* Every checkpoint of this run is now dead, the root's included: leave
     none behind in a store that outlives the run. *)
  (match (cache, before) with
  | Some c, Some b ->
      Coop_util.Ckpt_cache.remove c (depth_key 0);
      flush_obs c b
  | _ -> ());
  {
    behaviors = !behaviors;
    executions = !executions;
    steps = !novel + !replayed;
    novel_steps = !novel;
    replayed_steps = !replayed;
    cache_hits = !cache_hits;
    complete = !complete;
  }
