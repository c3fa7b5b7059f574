type context = {
  mutable runnable : int array;
  mutable n_runnable : int;
  mutable last : int;
  mutable last_yielded : bool;
}

type t = {
  name : string;
  pick : context -> int;
}

let context ?(last = -1) ?(last_yielded = false) runnable =
  let runnable = Array.of_list runnable in
  { runnable; n_runnable = Array.length runnable; last; last_yielded }

let is_runnable ctx tid =
  let rec go i = i < ctx.n_runnable && (ctx.runnable.(i) = tid || go (i + 1)) in
  go 0

let lowest ctx =
  if ctx.n_runnable = 0 then invalid_arg "Sched: empty runnable list";
  ctx.runnable.(0)

(* First runnable tid strictly greater than [cur], wrapping (the lowest
   when [cur] is [-1]). *)
let next_after ctx cur =
  let rec go i =
    if i >= ctx.n_runnable then lowest ctx
    else if ctx.runnable.(i) > cur then ctx.runnable.(i)
    else go (i + 1)
  in
  go 0

let round_robin ~quantum () =
  if quantum <= 0 then invalid_arg "Sched.round_robin: quantum must be positive";
  let used = ref 0 in
  let pick ctx =
    let cur = ctx.last in
    if is_runnable ctx cur && !used < quantum then begin
      incr used;
      cur
    end
    else begin
      used := 1;
      next_after ctx cur
    end
  in
  { name = Printf.sprintf "round-robin(q=%d)" quantum; pick }

let random ~seed () =
  let rng = Coop_util.Rng.create seed in
  let pick ctx =
    if ctx.n_runnable = 0 then invalid_arg "Sched: empty runnable list";
    ctx.runnable.(Coop_util.Rng.int rng ctx.n_runnable)
  in
  { name = Printf.sprintf "random(seed=%d)" seed; pick }

let cooperative () =
  let pick ctx =
    let cur = ctx.last in
    if (not ctx.last_yielded) && is_runnable ctx cur then cur
    else next_after ctx cur
  in
  { name = "cooperative"; pick }

let sequential = { name = "sequential"; pick = lowest }

let pct ~seed ~depth ~change_span () =
  if depth < 1 then invalid_arg "Sched.pct: depth must be >= 1";
  let rng = Coop_util.Rng.create seed in
  (* Distinct initial priorities, all above the demotion range [0, depth);
     [unset] marks tids not seen yet. *)
  let unset = min_int in
  let priorities = ref (Array.make 8 unset) in
  let next_initial = ref depth in
  let ensure tid =
    if tid >= Array.length !priorities then begin
      let bigger = Array.make (2 * (tid + 1)) unset in
      Array.blit !priorities 0 bigger 0 (Array.length !priorities);
      priorities := bigger
    end
  in
  let priority_of tid =
    ensure tid;
    let p = !priorities.(tid) in
    if p <> unset then p
    else begin
      (* Insert at a random rank among the existing initial priorities by
         drawing a fresh value; collisions resolved by tid for
         determinism. *)
      let p = !next_initial + Coop_util.Rng.int rng 1000 in
      incr next_initial;
      !priorities.(tid) <- p;
      p
    end
  in
  let change_points =
    List.init (depth - 1) (fun _ -> Coop_util.Rng.int rng (max 1 change_span))
    |> List.sort_uniq Int.compare
  in
  let remaining = ref change_points in
  let next_demotion = ref 0 in
  let step = ref 0 in
  let pick ctx =
    (* Demote the thread that ran the previous step when we crossed a
       change point. *)
    (match !remaining with
    | cp :: rest when ctx.last >= 0 && !step > cp ->
        remaining := rest;
        ensure ctx.last;
        !priorities.(ctx.last) <- !next_demotion;
        incr next_demotion
    | _ -> ());
    incr step;
    (* The first runnable tid of highest priority; every runnable tid is
       assigned its priority, in ascending order. *)
    let best = ref (lowest ctx) in
    let best_p = ref (priority_of !best) in
    for i = 1 to ctx.n_runnable - 1 do
      let tid = ctx.runnable.(i) in
      let p = priority_of tid in
      if p > !best_p then begin
        best := tid;
        best_p := p
      end
    done;
    !best
  in
  { name = Printf.sprintf "pct(seed=%d,d=%d)" seed depth; pick }

let recorded inner =
  let log = ref [] in
  let pick ctx =
    let t = inner.pick ctx in
    log := t :: !log;
    t
  in
  ((fun () -> List.rev !log), { name = inner.name ^ "+recorded"; pick })

let pinned decisions =
  let rest = ref decisions in
  let pick ctx =
    match !rest with
    | d :: tl when is_runnable ctx d ->
        rest := tl;
        d
    | _ :: tl ->
        rest := tl;
        lowest ctx
    | [] -> lowest ctx
  in
  { name = "pinned"; pick }
