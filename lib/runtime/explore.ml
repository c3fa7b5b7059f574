open Coop_trace
module Key_set = Set.Make (String)

type mode =
  | Preemptive
  | Cooperative

type granularity =
  | Every_instruction
  | Visible_only

type result = {
  behaviors : Behavior.Set.t;
  complete : bool;
  states : int;
  deadlocks : int;
  novel_steps : int;
  replayed_steps : int;
  cache_hits : int;
}

(* Per-run base for frontier checkpoint keys shared through one store. *)
let run_nonce = Atomic.make 0

(* A scheduling decision steps [st] in place and reports whether it
   finished within its segment budget. In preemptive mode it executes
   [tid]'s invisible prefix eagerly, then one visible instruction (or
   park). *)
let macro_step ~max_segment st tid =
  let sink = Trace.Sink.ignore in
  let rec go fuel =
    if fuel = 0 then false
    else begin
      match Vm.thread_status st tid with
      | Vm.Reacquiring _ ->
          (* A monitor reacquire is itself a visible transition. *)
          Vm.step st tid ~sink;
          true
      | _ -> (
          match Vm.next_instr st tid with
          | Vm.No_frame -> true
          | Vm.Sched_point ->
              (* Execute the visible instruction (or its injected yield)
                 and stop; if the thread parks instead, the state still
                 changed. *)
              Vm.step st tid ~sink;
              true
          | Vm.Invisible -> (
              Vm.step st tid ~sink;
              match Vm.thread_status st tid with
              | Vm.Finished | Vm.Faulted _ -> true
              | _ -> go (fuel - 1)))
    end
  in
  go max_segment

(* One scheduling decision in cooperative mode: run [tid] until it yields,
   blocks, faults or finishes. *)
let coop_segment ~max_segment st tid =
  let sink = Trace.Sink.ignore in
  let rec go fuel =
    if fuel = 0 then false
    else begin
      Vm.step st tid ~sink;
      Vm.last_step_yielded st
      ||
      match Vm.thread_status st tid with
      | Vm.Finished | Vm.Faulted _ -> true
      | Vm.Blocked_on_lock _ | Vm.Blocked_on_join _ | Vm.Waiting _
      | Vm.Reacquiring _ ->
          true
      | Vm.Runnable -> go (fuel - 1)
    end
  in
  go max_segment

(* One scheduling decision at instruction granularity: a single step. *)
let single_step st tid =
  Vm.step st tid ~sink:Trace.Sink.ignore;
  true

let segment_of ~max_segment mode granularity =
  match (mode, granularity) with
  | Preemptive, Visible_only -> macro_step ~max_segment
  | Preemptive, Every_instruction -> single_step
  | Cooperative, _ -> coop_segment ~max_segment

(* Partial exploration results, mergeable across shards. Terminal deadlock
   states are tracked as a key set (not a counter) so that the same state
   reached from two shards is still counted once in the merge — this keeps
   the [deadlocks] field identical to the sequential run's. *)
type partial = {
  p_behaviors : Behavior.Set.t;
  p_dead : Key_set.t;
  p_states : int;
  p_complete : bool;
  p_novel : int;  (* segments executed on the exploration frontier *)
  p_replayed : int;  (* segments re-executed to re-derive a start state *)
  p_hits : int;  (* checkpoint-store hits *)
}

let merge_partial a b =
  {
    p_behaviors = Behavior.Set.union a.p_behaviors b.p_behaviors;
    p_dead = Key_set.union a.p_dead b.p_dead;
    p_states = a.p_states + b.p_states;
    p_complete = a.p_complete && b.p_complete;
    p_novel = a.p_novel + b.p_novel;
    p_replayed = a.p_replayed + b.p_replayed;
    p_hits = a.p_hits + b.p_hits;
  }

(* The memoized DFS, from an arbitrary start state. *)
let explore_from ~segment ~max_states st0 =
  let seen = Hashtbl.create 1024 in
  let behaviors = ref Behavior.Set.empty in
  let dead = ref Key_set.empty in
  let complete = ref true in
  let states = ref 0 in
  let novel = ref 0 in
  let rec visit st =
    if !states >= max_states then complete := false
    else begin
      let k = Vm.key st in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        incr states;
        match Vm.runnable st with
        | [] ->
            if Vm.deadlocked st then dead := Key_set.add k !dead;
            behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
        | runnable ->
            (* Every branch but the last steps a copy restored from one
               snapshot of [st], taken before the last steps [st]
               itself. *)
            let snap = lazy (Vm.snapshot st) in
            let branch st tid =
              if segment st tid then begin
                incr novel;
                visit st
              end
              else complete := false
            in
            let rec branches = function
              | [] -> ()
              | [ tid ] -> branch st tid
              | tid :: rest ->
                  branch (Vm.restore (Lazy.force snap)) tid;
                  branches rest
            in
            branches runnable
      end
    end
  in
  visit st0;
  {
    p_behaviors = !behaviors;
    p_dead = !dead;
    p_states = !states;
    p_complete = !complete;
    p_novel = !novel;
    p_replayed = 0;
    p_hits = 0;
  }

(* Breadth-first expansion of the top-level branch frontier until it is
   wide enough to keep every worker busy. Terminal states met on the way
   are recorded; interior states are deduplicated by {!Vm.key}. Each
   frontier node is a snapshot plus the tid path that derived it from the
   initial state (first decision first) — its checkpoint key, and the
   recipe for re-deriving the state if the checkpoint gets evicted.
   Returns the frontier plus the partial result of the expansion
   itself. *)
let expand_frontier ~segment ~target st0 =
  let seen = Hashtbl.create 256 in
  let behaviors = ref Behavior.Set.empty in
  let dead = ref Key_set.empty in
  let states = ref 0 in
  let novel = ref 0 in
  let complete = ref true in
  Hashtbl.add seen (Vm.key st0) ();
  let frontier = ref [ (Vm.snapshot st0, []) ] in
  let levels = ref 0 in
  let continue_ = ref true in
  while !continue_ && List.length !frontier < target && !levels < 8 do
    incr levels;
    let next = ref [] in
    let grew = ref false in
    List.iter
      (fun (snap, path) ->
        incr states;
        let st = Vm.restore snap in
        match Vm.runnable st with
        | [] ->
            let k = Vm.key st in
            if Vm.deadlocked st then dead := Key_set.add k !dead;
            behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
        | runnable ->
            List.iter
              (fun tid ->
                let st' = Vm.restore snap in
                if not (segment st' tid) then complete := false
                else begin
                  incr novel;
                  let k = Vm.key st' in
                  if not (Hashtbl.mem seen k) then begin
                    Hashtbl.add seen k ();
                    grew := true;
                    next := (Vm.snapshot st', tid :: path) :: !next
                  end
                end)
              runnable)
      !frontier;
    frontier := List.rev !next;
    if not !grew then continue_ := false
  done;
  ( List.map (fun (snap, path) -> (snap, List.rev path)) !frontier,
    {
      p_behaviors = !behaviors;
      p_dead = !dead;
      p_states = !states;
      p_complete = !complete;
      p_novel = !novel;
      p_replayed = 0;
      p_hits = 0;
    } )

let result_of_partial p =
  {
    behaviors = p.p_behaviors;
    complete = p.p_complete;
    states = p.p_states;
    deadlocks = Key_set.cardinal p.p_dead;
    novel_steps = p.p_novel;
    replayed_steps = p.p_replayed;
    cache_hits = p.p_hits;
  }

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

let run ?pool ?(yields = Loc.Set.empty) ?(max_states = 200_000)
    ?(max_segment = 100_000) ?(granularity = Visible_only)
    ?(no_cache = false) ?ckpt mode prog =
  let segment = segment_of ~max_segment mode granularity in
  let jobs = match pool with Some p -> Coop_util.Pool.jobs p | None -> 1 in
  let init = Vm.init ~yields prog in
  if jobs <= 1 then result_of_partial (explore_from ~segment ~max_states init)
  else begin
    let pool = Option.get pool in
    let frontier, expansion =
      expand_frontier ~segment ~target:(4 * jobs) init
    in
    (* Every frontier node becomes its own pool task, so a node owning a
       disproportionate subtree re-balances onto idle domains via work
       stealing instead of serializing its static shard. Each task
       explores with its own memo table and the full state budget;
       cross-shard duplicates cost extra visits but never change the
       behaviour set. Awaiting in frontier order keeps the merge
       deterministic.

       Frontier snapshots are parked in the checkpoint store rather than
       captured by the task closures: a task re-fetches its start state
       when it actually runs (restoring its own copy), and on a miss (evicted under the byte cap)
       re-derives it by replaying the node's recorded tid path from the
       initial state — so a wide frontier pins at most [cap_bytes], not
       [frontier] states. [~no_cache:true] restores capture-by-closure,
       the differential oracle. *)
    let cache =
      if no_cache then None
      else
        Some
          (match ckpt with
          | Some c -> c
          | None ->
              Coop_util.Ckpt_cache.create
                ~weight:(fun snap -> 8 * Vm.approx_words snap)
                ())
    in
    let before = Option.map Coop_util.Ckpt_cache.stats cache in
    let promises =
      match cache with
      | None ->
          List.map
            (fun (snap, _) ->
              Coop_util.Pool.spawn pool (fun () ->
                  explore_from ~segment ~max_states (Vm.restore snap)))
            frontier
      | Some c ->
          let base =
            "explore" ^ string_of_int (Atomic.fetch_and_add run_nonce 1) ^ ":"
          in
          let init_snap = Vm.snapshot init in
          List.map
            (fun (snap, path) ->
              let key =
                base ^ String.concat "." (List.map string_of_int path)
              in
              Coop_util.Ckpt_cache.add c key snap;
              Coop_util.Pool.spawn pool (fun () ->
                  let hits = ref 0 in
                  let replayed = ref 0 in
                  let st =
                    match Coop_util.Ckpt_cache.find c key with
                    | Some snap ->
                        incr hits;
                        Vm.restore snap
                    | None ->
                        (* Deterministic replay of the recorded path. *)
                        let st = Vm.restore init_snap in
                        List.iter
                          (fun tid ->
                            if segment st tid then incr replayed
                            else assert false  (* succeeded in expand *))
                          path;
                        st
                  in
                  let p = explore_from ~segment ~max_states st in
                  { p with
                    p_replayed = p.p_replayed + !replayed;
                    p_hits = p.p_hits + !hits }))
            frontier
    in
    let shards = List.map (Coop_util.Pool.await pool) promises in
    (match (cache, before) with
    | Some c, Some b -> flush_obs c b
    | _ -> ());
    result_of_partial (List.fold_left merge_partial expansion shards)
  end

let behaviors_equal a b =
  a.complete && b.complete && Behavior.Set.equal a.behaviors b.behaviors
