open Coop_trace
module Mover = Coop_core.Mover
module Online = Coop_core.Online

type txn_id =
  | Func of int
  | Block of Loc.t

type warning = {
  tid : int;
  txn : txn_id;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : Online.cause option;
}

type result = {
  warnings : warning list;
  flagged_functions : int list;
  activations : int;
  violated_activations : int;
}

(* Every driver ends here, with its warnings keyed by (position of the
   violating event, activation uid), activations seen and activations
   violated. The two-pass checker meets warnings in trace order, walking
   each stack innermost-first on the flagging event, and uids grow
   outward-in at the same position, so sorting by (seq, uid descending)
   gives that order for every driver. *)
let result_of (keyed, activations, violated_activations) =
  let warnings =
    List.sort
      (fun (s1, u1, _) (s2, u2, _) ->
        match Int.compare s1 s2 with 0 -> Int.compare u2 u1 | c -> c)
      keyed
    |> List.map (fun (_, _, w) -> w)
  in
  let flagged =
    List.fold_left
      (fun acc w -> match w.txn with Func f -> f :: acc | Block _ -> acc)
      [] warnings
    |> List.sort_uniq Int.compare
  in
  { warnings; flagged_functions = flagged; activations; violated_activations }

type phase =
  | Pre
  | Post

(* Per-activation phase machine, with the commit point of the current
   Post phase (cm_seq = 0 = none) reported as the warning's cause, as the
   single-pass drivers do, and the open order [uid] as its merge key. *)
type txn = {
  uid : int;
  id : txn_id;
  mutable phase : phase;
  mutable violated : bool;
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
}

let analysis ?(local_locks = fun _ -> false) ~racy () =
  let stacks : (int, txn list ref) Hashtbl.t = Hashtbl.create 8 in
  let warnings = ref [] in
  let activations = ref 0 in
  let violated = ref 0 in
  let seq = ref 0 in  (* 1-based global position, counts every event *)
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  let push tid id =
    let s = stack_of tid in
    s :=
      { uid = !activations; id; phase = Pre; violated = false; cm_seq = 0;
        cm_loc = Loc.none; cm_op = Event.Yield; cm_mover = Mover.Both }
      :: !s;
    incr activations
  in
  let pop tid =
    let s = stack_of tid in
    match !s with
    | t :: rest ->
        if t.violated then incr violated;
        s := rest
    | [] -> ()
  in
  let feed tid loc op m =
    let s = stack_of tid in
    List.iter
      (fun t ->
        match (t.phase, m) with
        | Pre, (Mover.Right | Mover.Both) -> ()
        | Pre, ((Mover.Non | Mover.Left) as m) ->
            t.phase <- Post;
            t.cm_seq <- !seq;
            t.cm_loc <- loc;
            t.cm_op <- op;
            t.cm_mover <- m
        | Post, (Mover.Left | Mover.Both) -> ()
        | Post, ((Mover.Right | Mover.Non) as m) ->
            if not t.violated then begin
              t.violated <- true;
              let cause =
                if t.cm_seq > 0 then
                  Some
                    { Online.cseq = t.cm_seq; cloc = t.cm_loc;
                      cop = t.cm_op; cmover = t.cm_mover }
                else None
              in
              warnings :=
                (!seq, t.uid, { tid; txn = t.id; loc; op; mover = m; cause })
                :: !warnings
            end)
      !s
  in
  let step (e : Event.t) =
    incr seq;
    match e.op with
    | Event.Enter f -> push e.tid (Func f)
    | Event.Exit _ -> pop e.tid
    | Event.Atomic_begin -> push e.tid (Block e.loc)
    | Event.Atomic_end -> pop e.tid
    | Event.Yield -> ()  (* not a transaction boundary for atomicity *)
    | op -> (
        match Mover.classify ~local_locks ~racy op with
        | None -> ()
        | Some m -> feed e.tid e.loc op m)
  in
  let finalize () =
    (* Close transactions still open at the end of the stream. *)
    Hashtbl.iter
      (fun _ s -> List.iter (fun t -> if t.violated then incr violated) !s)
      stacks;
    result_of (!warnings, !activations, !violated)
  in
  Coop_trace.Analysis.make ~step ~finalize

let check_with_racy ?local_locks ~racy trace =
  Coop_trace.Analysis.run (analysis ?local_locks ~racy ()) trace

(* The single-pass driver behind [online_analysis]. The result is read
   only at the end, and it is just the first violation of each
   activation under final knowledge — so nothing is decided while events
   stream. Each thread appends its phase-relevant ops to one log, once
   whatever the nesting depth; an activation is a range of that log;
   facts only set knowledge bytes; and [finish] evaluates every
   activation once. *)
module Deferred = struct
  module Knowledge = Online.Knowledge

  type act = {
    uid : int;  (* open order *)
    otid : int;  (* original thread id, reported verbatim *)
    txn : txn_id;
    start : int;  (* log range [start, stop) *)
    mutable stop : int;  (* -1 while open *)
  }

  (* One thread's ops inside activations, as parallel arrays. [Out] is
     never logged: a both mover under any knowledge cannot move the
     machine. *)
  type log = {
    mutable seqs : int array;
    mutable locs : Loc.t array;
    mutable ops : Event.op array;
    mutable ids : int array;  (* interned operand *)
    mutable len : int;
    mutable stack : act list;  (* open activations, innermost first *)
    mutable acts : act list;  (* every activation opened *)
  }

  type t = {
    knowledge : Knowledge.t;
    mutable logs : log array;  (* dense tid -> its log *)
    mutable next_uid : int;  (* = activations opened *)
  }

  let create () = { knowledge = Knowledge.create (); logs = [||]; next_uid = 0 }
  let learn d f = ignore (Knowledge.learn d.knowledge f)

  let log_of d tid =
    let n = Array.length d.logs in
    if tid >= n then
      d.logs <-
        Array.init (max (tid + 1) (2 * n)) (fun i ->
            if i < n then d.logs.(i)
            else
              { seqs = [||]; locs = [||]; ops = [||]; ids = [||]; len = 0;
                stack = []; acts = [] });
    d.logs.(tid)

  let append l ~seq ~loc ~op ~id =
    let n = Array.length l.seqs in
    if l.len = n then begin
      let grow a fill =
        let bigger = Array.make (max 8 (2 * n)) fill in
        Array.blit a 0 bigger 0 n;
        bigger
      in
      l.seqs <- grow l.seqs 0;
      l.locs <- grow l.locs Loc.none;
      l.ops <- grow l.ops Event.Yield;
      l.ids <- grow l.ids (-1)
    end;
    l.seqs.(l.len) <- seq;
    l.locs.(l.len) <- loc;
    l.ops.(l.len) <- op;
    l.ids.(l.len) <- id;
    l.len <- l.len + 1

  let push d tid otid txn =
    let l = log_of d tid in
    let a = { uid = d.next_uid; otid; txn; start = l.len; stop = -1 } in
    d.next_uid <- d.next_uid + 1;
    l.stack <- a :: l.stack;
    l.acts <- a :: l.acts

  let step d ~interner ~seq (e : Event.t) =
    let tid = Interner.cur_tid interner in
    match e.op with
    | Event.Enter f -> push d tid e.tid (Func f)
    | Event.Atomic_begin -> push d tid e.tid (Block e.loc)
    | Event.Exit _ | Event.Atomic_end -> (
        if tid < Array.length d.logs then
          let l = d.logs.(tid) in
          match l.stack with
          | a :: rest ->
              a.stop <- l.len;
              l.stack <- rest
          | [] -> ())
    | Event.Yield | Event.Out _ -> ()  (* no boundary / never moves it *)
    | op ->
        if tid < Array.length d.logs && d.logs.(tid).stack <> [] then
          append d.logs.(tid) ~seq ~loc:e.loc ~op
            ~id:(Interner.cur_operand interner)

  (* Under final knowledge the machine's first violation in a range is
     the range's first (R|N) op after its first (N|L) op, the commit
     point. One backward sweep per log finds both "next" positions from
     every index, so each activation then costs O(1) whatever its length
     or depth. Activations still open at the end close at the log's end.
     Returns [result_of]'s argument. *)
  let finish d =
    let keyed = ref [] and violated = ref 0 in
    Array.iter
      (fun l ->
        let n = l.len in
        let mover i =
          Option.get (Knowledge.classify d.knowledge l.ops.(i) l.ids.(i))
        in
        let next_commit = Array.make (n + 1) n in
        let next_viol = Array.make (n + 1) n in
        for i = n - 1 downto 0 do
          let m = mover i in
          next_commit.(i) <-
            (match m with
            | Mover.Non | Mover.Left -> i
            | _ -> next_commit.(i + 1));
          next_viol.(i) <-
            (match m with
            | Mover.Right | Mover.Non -> i
            | _ -> next_viol.(i + 1))
        done;
        List.iter
          (fun a ->
            let stop = if a.stop < 0 then n else a.stop in
            let c = next_commit.(a.start) in
            let v = if c < stop then next_viol.(c + 1) else stop in
            if v < stop then begin
              incr violated;
              let cause =
                { Online.cseq = l.seqs.(c); cloc = l.locs.(c); cop = l.ops.(c);
                  cmover = mover c }
              in
              keyed :=
                ( l.seqs.(v), a.uid,
                  { tid = a.otid; txn = a.txn; loc = l.locs.(v);
                    op = l.ops.(v); mover = mover v; cause = Some cause } )
                :: !keyed
            end)
          l.acts)
      d.logs;
    d.logs <- [||];
    (!keyed, d.next_uid, !violated)
end

let online_analysis ~interner ~subscribe () =
  let d = Deferred.create () in
  subscribe (Deferred.learn d);
  let seq = ref 0 in
  Analysis.make
    ~step:(fun e ->
      incr seq;
      Deferred.step d ~interner ~seq:!seq e)
    ~finalize:(fun () -> result_of (Deferred.finish d))

let check_two_pass trace =
  let racy = Coop_race.Fasttrack.racy_vars_of_trace trace in
  let local_locks = Coop_core.Cooperability.local_locks_of trace in
  check_with_racy ~local_locks ~racy trace

let check ?(two_pass = false) trace =
  if two_pass then check_two_pass trace
  else
    let itn = Interner.create () in
    let fused =
      Analysis.chain (Interner.analysis itn)
        (Analysis.feedback
           (fun ~publish ->
             Coop_race.Fasttrack.analysis ~interner:itn
               ~facts:(Online.facts publish) ())
           (fun ~subscribe -> online_analysis ~interner:itn ~subscribe ()))
    in
    snd (snd (Source.run (Source.of_trace trace) fused))

let pp_txn ppf = function
  | Func f -> Format.fprintf ppf "fn#%d" f
  | Block l -> Format.fprintf ppf "atomic@%a" Loc.pp l

let pp_warning ppf w =
  Format.fprintf ppf "t%d: %a is not atomic: %a at %a (%a in post-commit)"
    w.tid pp_txn w.txn Event.pp_op w.op Loc.pp w.loc Mover.pp w.mover
