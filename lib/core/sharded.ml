open Coop_trace
module Pool = Coop_util.Pool

(* Role bits of one routed message. A single message can carry several:
   an access whose variable and thread share an owner is one message with
   both the detector and the engine role. *)
let r_ft = 1 (* FastTrack (+ lockset): owned access, or broadcast sync *)

let r_engine = 2 (* per-thread transaction engines at the thread's owner *)

let r_aux = 4 (* shard 0: deadlock sync events, client aux stream *)

(* Batch size trades queue traffic against latency; backlog bound trades
   memory against router stalls (a stall drains inline, it never blocks). *)
let batch_events = 2048

let max_backlog = 8

type batch = {
  seqs : int array;
  tids : int array;  (* original thread ids, for reports *)
  dtids : int array;  (* dense thread ids *)
  oids : int array;  (* dense operand ids, -1 when none *)
  roles : int array;
  ops : Event.op array;
  locs : Loc.t array;
  mutable len : int;
}

let new_batch () =
  {
    seqs = Array.make batch_events 0;
    tids = Array.make batch_events 0;
    dtids = Array.make batch_events 0;
    oids = Array.make batch_events 0;
    roles = Array.make batch_events 0;
    ops = Array.make batch_events Event.Yield;
    locs = Array.make batch_events Loc.none;
    len = 0;
  }

(* The fact board: an append-only log of every racy-variable /
   shared-lock fact any shard has published. Appends take the mutex;
   readers snapshot (array, count) under it and then read the immutable
   prefix lock-free. Shards poll at batch boundaries — facts are rare
   (at most one per variable/lock), so this is far off the hot path. *)
type board = {
  bmu : Mutex.t;
  mutable bslots : Online.fact array;
  bcount : int Atomic.t;
}

let board_create () =
  { bmu = Mutex.create (); bslots = [||]; bcount = Atomic.make 0 }

let board_publish b f =
  Mutex.lock b.bmu;
  let n = Atomic.get b.bcount in
  if n = Array.length b.bslots then begin
    let bigger = Array.make (max 16 (2 * n)) f in
    Array.blit b.bslots 0 bigger 0 n;
    b.bslots <- bigger
  end;
  b.bslots.(n) <- f;
  Atomic.set b.bcount (n + 1);
  Mutex.unlock b.bmu

type client = {
  cl_engine_step : seq:int -> Event.t -> unit;
  cl_aux_step : seq:int -> Event.t -> unit;
  cl_fact : Online.fact -> unit;
  cl_finish : unit -> unit;
}

let null_client =
  {
    cl_engine_step = (fun ~seq:_ _ -> ());
    cl_aux_step = (fun ~seq:_ _ -> ());
    cl_fact = (fun _ -> ());
    cl_finish = (fun () -> ());
  }

let combine_clients a b =
  {
    cl_engine_step =
      (fun ~seq e ->
        a.cl_engine_step ~seq e;
        b.cl_engine_step ~seq e);
    cl_aux_step =
      (fun ~seq e ->
        a.cl_aux_step ~seq e;
        b.cl_aux_step ~seq e);
    cl_fact =
      (fun f ->
        a.cl_fact f;
        b.cl_fact f);
    cl_finish =
      (fun () ->
        a.cl_finish ();
        b.cl_finish ());
  }

type shard = {
  sid : int;
  shim : Interner.t;  (* router-fed: ids stored, names bound verbatim *)
  ft : Coop_race.Fasttrack.t;
  ls : Coop_race.Lockset.t option;
  dl : Deadlock.result Analysis.t option;  (* shard 0, when requested *)
  mutable engine : Online.t option;  (* cooperability automaton engine *)
  mutable current : Online.txn option array;  (* dense tid -> open *)
  mutable auto_viols : Online.viol list;
  mutable client : client;
  scratch : Event.t;  (* one reused record fed to every checker *)
  mutable races : (int * Coop_race.Report.t) list;  (* (seq, r), reversed *)
  mutable ls_races : (int * Coop_race.Report.t) list;
  mutable fact_cursor : int;  (* board entries already applied here *)
  mutable events_seen : int;
  (* The batch queue. Only the router pushes; at most one drainer at a
     time pops, guarded by [busy] — which is only ever set by code that
     is running, so spinning on it always makes progress. *)
  qmu : Mutex.t;
  q : batch Queue.t;
  backlog : int Atomic.t;
  busy : bool Atomic.t;
  wake : bool Atomic.t;  (* a drain task has been spawned, not yet run *)
  mutable open_batch : batch;  (* router side, being filled *)
  lane : string;  (* obs queue-depth lane name *)
}

type outcome = {
  races : Coop_race.Report.t list;
  racy : Event.Var_set.t;
  violations : Automaton.violation list;
  lockset_races : Coop_race.Report.t list option;
  deadlock : Deadlock.result option;
  events : int;
  messages : int;
  broadcasts : int;
}

let default_shards () =
  match Sys.getenv_opt "COOP_SHARDS" with
  | Some s -> ( match Pool.parse_jobs s with Some k -> k | None -> 1)
  | None -> 1

(* --- Shard-side processing ------------------------------------------- *)

let apply_fact sh f =
  (match sh.engine with Some eng -> Online.on_fact eng f | None -> ());
  sh.client.cl_fact f

let poll_facts board sh =
  if Atomic.get board.bcount > sh.fact_cursor then begin
    Mutex.lock board.bmu;
    let n = Atomic.get board.bcount in
    let slots = board.bslots in
    Mutex.unlock board.bmu;
    for i = sh.fact_cursor to n - 1 do
      apply_fact sh slots.(i)
    done;
    sh.fact_cursor <- n
  end

let ensure_current sh dtid =
  if dtid >= Array.length sh.current then begin
    let bigger =
      Array.make (max (dtid + 1) (2 * Array.length sh.current)) None
    in
    Array.blit sh.current 0 bigger 0 (Array.length sh.current);
    sh.current <- bigger
  end

(* The yield-to-yield transaction driver of [Automaton.online_analysis],
   with the global sequence supplied by the message instead of a local
   counter — merged violations sort by it. *)
let engine_step sh eng ~seq ~dtid (e : Event.t) =
  match e.op with
  | Event.Yield -> (
      if dtid < Array.length sh.current then
        match sh.current.(dtid) with
        | Some txn ->
            Online.close eng txn;
            sh.current.(dtid) <- None
        | None -> ())
  | _ ->
      ensure_current sh dtid;
      let txn =
        match sh.current.(dtid) with
        | Some txn -> txn
        | None ->
            let txn = Online.open_txn eng ~tid:e.tid in
            sh.current.(dtid) <- Some txn;
            txn
      in
      Online.step eng txn ~seq e

let process_batch sh b =
  let scratch = sh.scratch in
  for i = 0 to b.len - 1 do
    let roles = b.roles.(i) in
    let dtid = b.dtids.(i) in
    scratch.Event.tid <- b.tids.(i);
    scratch.Event.op <- b.ops.(i);
    scratch.Event.loc <- b.locs.(i);
    Interner.bind_tid sh.shim b.tids.(i) ~id:dtid;
    Interner.set_cur sh.shim ~tid:dtid ~operand:b.oids.(i);
    if roles land r_ft <> 0 then begin
      (* Inject the true global position: an owner shard only sees a
         sub-stream, and witness evidence must be byte-identical to the
         sequential detector's. *)
      Coop_race.Fasttrack.set_seq sh.ft b.seqs.(i);
      (match sh.ls with
      | Some ls -> Coop_race.Lockset.set_seq ls b.seqs.(i)
      | None -> ());
      (match Coop_race.Fasttrack.handle sh.ft scratch with
      | [] -> ()
      | rs ->
          let s = b.seqs.(i) in
          List.iter (fun r -> sh.races <- (s, r) :: sh.races) rs);
      match sh.ls with
      | Some ls -> (
          match Coop_race.Lockset.handle ls scratch with
          | [] -> ()
          | rs ->
              let s = b.seqs.(i) in
              List.iter (fun r -> sh.ls_races <- (s, r) :: sh.ls_races) rs)
      | None -> ()
    end;
    if roles land r_engine <> 0 then begin
      (match sh.engine with
      | Some eng -> engine_step sh eng ~seq:b.seqs.(i) ~dtid scratch
      | None -> ());
      sh.client.cl_engine_step ~seq:b.seqs.(i) scratch
    end;
    if roles land r_aux <> 0 then
      match b.ops.(i) with
      | Event.Acquire _ | Event.Release _ -> (
          match sh.dl with Some a -> Analysis.step a scratch | None -> ())
      | _ -> sh.client.cl_aux_step ~seq:b.seqs.(i) scratch
  done;
  sh.events_seen <- sh.events_seen + b.len

let pop sh =
  Mutex.lock sh.qmu;
  let r = if Queue.is_empty sh.q then None else Some (Queue.pop sh.q) in
  Mutex.unlock sh.qmu;
  (match r with Some _ -> Atomic.decr sh.backlog | None -> ());
  r

let queue_empty sh =
  Mutex.lock sh.qmu;
  let e = Queue.is_empty sh.q in
  Mutex.unlock sh.qmu;
  e

(* Drain everything currently queued. Caller holds [busy]. *)
let drain_loop board sh =
  poll_facts board sh;
  let rec go () =
    match pop sh with
    | Some b ->
        process_batch sh b;
        poll_facts board sh;
        go ()
    | None -> ()
  in
  go ()

(* The pool-task body. [busy] is taken *inside* the task, never at spawn
   time, so a task that is queued but not yet running can never make the
   router's inline drain spin on a flag nobody is advancing. *)
let rec drain_task board sh =
  Atomic.set sh.wake false;
  if Atomic.compare_and_set sh.busy false true then begin
    drain_loop board sh;
    Atomic.set sh.busy false;
    (* Wake-up race: batches pushed after the queue looked empty. *)
    if not (queue_empty sh) then drain_task board sh
  end

(* --- Router ----------------------------------------------------------- *)

let make_shard ~board ~lockset ~deadlock ~automaton ~witness ~client ~shards
    sid =
  let shim = Interner.create () in
  let publish f =
    (* The sending end of the fact-propagation flow; each shard that
       learns the fact records a matching end (K-way fan-out). *)
    Coop_obs.flow_begin (Online.flow_name f) ~id:(Online.pack f);
    board_publish board f
  in
  (* Every shard replays all broadcast lock events through its own
     detector (clock bookkeeping), so the lock-ownership scan fires on
     every shard: only the lock's owner publishes, keeping each fact
     single-shot globally. Racy-variable facts need no filter — accesses
     only ever reach their owner. *)
  let facts =
    {
      Coop_race.Fasttrack.on_racy_var = (fun _v id -> publish (Online.Racy id));
      on_shared_lock =
        (fun _l id ->
          if Interner.owner shim id ~shard:shards = sid then
            publish (Online.Shared id));
    }
  in
  let ft = Coop_race.Fasttrack.create ~facts ~interner:shim ~witness () in
  let sh =
    {
      sid;
      shim;
      ft;
      ls =
        (if lockset then
           Some (Coop_race.Lockset.create ~interner:shim ~witness ())
         else None);
      dl = (if deadlock && sid = 0 then Some (Deadlock.analysis ()) else None);
      engine = None;
      current = Array.make 8 None;
      auto_viols = [];
      client = null_client;
      scratch = Event.make ~tid:0 ~op:Event.Yield ~loc:Loc.none;
      races = [];
      ls_races = [];
      fact_cursor = 0;
      events_seen = 0;
      qmu = Mutex.create ();
      q = Queue.create ();
      backlog = Atomic.make 0;
      busy = Atomic.make false;
      wake = Atomic.make false;
      open_batch = new_batch ();
      lane = Printf.sprintf "sharded/queue_depth/s%d" sid;
    }
  in
  if automaton then
    sh.engine <-
      Some
        (Online.create ~interner:shim
           ~on_retire:(fun txn ->
             sh.auto_viols <-
               List.rev_append (Online.violations txn) sh.auto_viols)
           ());
  sh.client <- client ~shard:sid ~interner:shim;
  sh

let run ?pool ?(automaton = true) ?(lockset = false) ?(deadlock = false)
    ?(aux_access = false) ?(witness = false)
    ?(client = fun ~shard:_ ~interner:_ -> null_client) ~shards source =
  if shards < 1 then invalid_arg "Sharded.run: shards must be >= 1";
  let k = shards in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let obs = Coop_obs.enabled () in
  let board = board_create () in
  let shs =
    Array.init k
      (make_shard ~board ~lockset ~deadlock ~automaton ~witness ~client
         ~shards:k)
  in
  let itn = Interner.create () in
  let promises = ref [] in
  let seq = ref 0 in
  let messages = ref 0 in
  let broadcasts = ref 0 in
  let maybe_spawn sh =
    if
      (not (Atomic.get sh.busy)) && Atomic.compare_and_set sh.wake false true
    then promises := Pool.spawn pool (fun () -> drain_task board sh) :: !promises
  in
  (* Over the bound: drain inline if no drainer is active, else wait for
     the active one (it is running right now, so this terminates). *)
  let relieve sh =
    while Atomic.get sh.backlog >= max_backlog do
      if Atomic.compare_and_set sh.busy false true then begin
        let target = max_backlog / 2 in
        let rec go () =
          if Atomic.get sh.backlog > target then
            match pop sh with
            | Some b ->
                process_batch sh b;
                go ()
            | None -> ()
        in
        go ();
        poll_facts board sh;
        Atomic.set sh.busy false
      end
      else Domain.cpu_relax ()
    done
  in
  let flush sh =
    let b = sh.open_batch in
    if b.len > 0 then begin
      sh.open_batch <- new_batch ();
      Mutex.lock sh.qmu;
      Queue.push b sh.q;
      Mutex.unlock sh.qmu;
      let depth = 1 + Atomic.fetch_and_add sh.backlog 1 in
      if obs then Coop_obs.sample sh.lane (float_of_int depth);
      maybe_spawn sh;
      if depth >= max_backlog then relieve sh
    end
  in
  let emit sh ~tid ~dtid ~oid ~role ~op ~loc =
    let b = sh.open_batch in
    let i = b.len in
    b.seqs.(i) <- !seq;
    b.tids.(i) <- tid;
    b.dtids.(i) <- dtid;
    b.oids.(i) <- oid;
    b.roles.(i) <- role;
    b.ops.(i) <- op;
    b.locs.(i) <- loc;
    b.len <- i + 1;
    incr messages;
    if b.len = batch_events then flush sh
  in
  let masks = Array.make k 0 in
  let route (e : Event.t) =
    incr seq;
    Interner.note itn e;
    let dtid = Interner.cur_tid itn in
    let oid = Interner.cur_operand itn in
    Array.fill masks 0 k 0;
    (match e.op with
    | Event.Read _ | Event.Write _ ->
        masks.(Interner.owner itn oid ~shard:k) <- r_ft;
        let ts = Interner.owner itn dtid ~shard:k in
        masks.(ts) <- masks.(ts) lor r_engine;
        if aux_access then masks.(0) <- masks.(0) lor r_aux
    | Event.Acquire _ | Event.Release _ ->
        for s = 0 to k - 1 do
          masks.(s) <- r_ft
        done;
        broadcasts := !broadcasts + (k - 1);
        let ts = Interner.owner itn dtid ~shard:k in
        masks.(ts) <- masks.(ts) lor r_engine;
        if deadlock then masks.(0) <- masks.(0) lor r_aux
    | Event.Fork _ | Event.Join _ ->
        for s = 0 to k - 1 do
          masks.(s) <- r_ft
        done;
        broadcasts := !broadcasts + (k - 1);
        let ts = Interner.owner itn dtid ~shard:k in
        masks.(ts) <- masks.(ts) lor r_engine
    | Event.Yield -> masks.(Interner.owner itn dtid ~shard:k) <- r_engine
    | Event.Enter _ | Event.Exit _ ->
        masks.(Interner.owner itn dtid ~shard:k) <- r_engine;
        if aux_access then masks.(0) <- masks.(0) lor r_aux
    | Event.Atomic_begin | Event.Atomic_end ->
        masks.(Interner.owner itn dtid ~shard:k) <- r_engine
    | Event.Out _ -> ());
    for s = 0 to k - 1 do
      if masks.(s) <> 0 then
        emit shs.(s) ~tid:e.tid ~dtid ~oid ~role:masks.(s) ~op:e.op ~loc:e.loc
    done
  in
  (* One streaming pass: the router is the sink. *)
  source (route : Trace.Sink.t);
  (* Join: flush partial batches, let the pool finish in-flight drains
     (awaiting helps), then take each shard's drain flag and finish its
     queue inline. After every queue is empty the fact board is final;
     one more poll per shard delivers the cross-shard stragglers. *)
  Array.iter flush shs;
  List.iter (Pool.await pool) !promises;
  Array.iter
    (fun sh ->
      while not (Atomic.compare_and_set sh.busy false true) do
        Domain.cpu_relax ()
      done;
      (* Keep [busy]: the merge below is the sole owner from here on. *)
      drain_loop board sh)
    shs;
  Array.iter (fun sh -> poll_facts board sh) shs;
  (* Merge. *)
  let merge () =
    Array.iter
      (fun sh ->
        (match sh.engine with
        | Some eng ->
            Array.iter
              (function Some txn -> Online.close eng txn | None -> ())
              sh.current;
            sh.current <- [||];
            Online.finalize eng
        | None -> ());
        sh.client.cl_finish ())
      shs;
    let merge_tagged per_shard =
      Array.to_list per_shard
      |> List.concat_map List.rev
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    let races = merge_tagged (Array.map (fun (sh : shard) -> sh.races) shs) in
    let lockset_races =
      if lockset then
        Some (merge_tagged (Array.map (fun (sh : shard) -> sh.ls_races) shs))
      else None
    in
    let violations =
      Array.to_list shs
      |> List.concat_map (fun sh -> sh.auto_viols)
      |> List.sort (fun (a : Online.viol) (b : Online.viol) ->
             Int.compare a.vseq b.vseq)
      |> List.map (fun (v : Online.viol) ->
             {
               Automaton.tid = v.vtid;
               loc = v.vloc;
               op = v.vop;
               mover = v.vmover;
               cause = v.vcause;
             })
    in
    let deadlock =
      match shs.(0).dl with Some a -> Some (Analysis.finalize a) | None -> None
    in
    {
      races;
      racy = Coop_race.Report.racy_vars races;
      violations;
      lockset_races;
      deadlock;
      events = !seq;
      messages = !messages;
      broadcasts = !broadcasts;
    }
  in
  let out =
    if obs then Coop_obs.span "sharded/merge" merge else merge ()
  in
  if obs then begin
    Coop_obs.count "sharded/events" !seq;
    Coop_obs.count "sharded/messages" !messages;
    Coop_obs.count "sharded/broadcast" !broadcasts;
    if !messages > 0 then
      Coop_obs.gauge "sharded/broadcast_ratio"
        (float_of_int !broadcasts /. float_of_int !messages);
    Array.iter
      (fun sh ->
        Coop_obs.count
          (Printf.sprintf "sharded/events/s%d" sh.sid)
          sh.events_seen)
      shs
  end;
  out
