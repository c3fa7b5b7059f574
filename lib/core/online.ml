open Coop_trace

(* Facts name variables and locks by the dense ids of the run's shared
   [Interner] — the same interner the publishing race detector and every
   engine client must use, so ids agree across the feedback loop. *)
type fact =
  | Racy of int
  | Shared of int

type publish = fact -> unit
type subscribe = (fact -> unit) -> unit

(* Facts packed into one non-negative int for pending lists and the
   fact-to-transaction index: id*2 for Racy, id*2+1 for Shared. *)
let pack = function Racy id -> 2 * id | Shared id -> (2 * id) + 1

let flow_name = function Racy _ -> "fact/racy" | Shared _ -> "fact/shared"

let facts publish =
  {
    Coop_race.Fasttrack.on_racy_var =
      (fun _v id ->
        let f = Racy id in
        Coop_obs.flow_begin (flow_name f) ~id:(pack f);
        publish f);
    on_shared_lock =
      (fun _l id ->
        let f = Shared id in
        Coop_obs.flow_begin (flow_name f) ~id:(pack f);
        publish f);
  }

(* What the engine currently believes. Facts are monotone — a variable
   never stops being racy, a lock never becomes thread-local again — so
   belief only grows and each classification can only be refined in one
   direction (Both -> Non for accesses, Both -> Right/Left for lock ops).
   Membership is one byte per dense id, grown on demand. *)
module Knowledge = struct
  type t = {
    mutable racy : Bytes.t;  (* dense var id -> known racy *)
    mutable shared : Bytes.t;  (* dense lock id -> known shared *)
  }

  let create () = { racy = Bytes.make 64 '\000'; shared = Bytes.make 16 '\000' }

  let mem b id = id < Bytes.length b && Bytes.get b id = '\001'

  let grown b n =
    let bigger = Bytes.make (max n (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 bigger 0 (Bytes.length b);
    bigger

  let learn k = function
    | Racy id ->
        if mem k.racy id then false
        else begin
          if id >= Bytes.length k.racy then k.racy <- grown k.racy (id + 1);
          Bytes.set k.racy id '\001';
          true
        end
    | Shared id ->
        if mem k.shared id then false
        else begin
          if id >= Bytes.length k.shared then
            k.shared <- grown k.shared (id + 1);
          Bytes.set k.shared id '\001';
          true
        end

  let racy k id = mem k.racy id
  let shared k id = mem k.shared id

  (* The mover of [op] (whose interned operand is [id]) under current
     belief — [Mover.classify_pred] with the predicates inlined as byte
     probes. [None] for ops the phase machine never looks at. *)
  let classify k (op : Event.op) id =
    match op with
    | Event.Read _ | Event.Write _ ->
        Some (if racy k id then Mover.Non else Mover.Both)
    | Event.Acquire _ -> Some (if shared k id then Mover.Right else Mover.Both)
    | Event.Release _ -> Some (if shared k id then Mover.Left else Mover.Both)
    | Event.Fork _ -> Some Mover.Right
    | Event.Join _ -> Some Mover.Left
    | Event.Out _ -> Some Mover.Both
    | Event.Yield | Event.Enter _ | Event.Exit _ | Event.Atomic_begin
    | Event.Atomic_end ->
        None
end

type phase =
  | Pre
  | Post

type cause = {
  cseq : int;
  cloc : Loc.t;
  cop : Event.op;
  cmover : Mover.t;
}

type viol = {
  vseq : int;
  vtid : int;
  vloc : Loc.t;
  vop : Event.op;
  vmover : Mover.t;
  vcause : cause option;
}

(* The digest keeps only what a replay needs: global position, location,
   operation and interned operand of every phase-relevant op, as parallel
   arrays (no per-entry tuple). [Out] is omitted — it is a both mover
   under any knowledge, so it can never change the machine. *)
type txn = {
  uid : int;
  tid : int;
  mutable seqs : int array;
  mutable locs : Loc.t array;
  mutable ops : Event.op array;
  mutable ids : int array;  (* interned operand per digest slot *)
  mutable len : int;
  mutable phase : phase;
  (* The commit point of the current Post phase — the (N|L) op that moved
     the machine out of Pre. Unpacked mutable fields (cm_seq = 0 means
     "none") so cause tracking allocates nothing unless a violation
     actually fires. *)
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
  mutable viols : viol list;  (* reversed *)
  (* Packed facts this txn's classification optimistically assumed away.
     A transaction can touch thousands of distinct operands (matrix
     sweeps between yields), so membership must be O(1) — a list scan
     here turns registration quadratic in the transaction's footprint. *)
  pending : (int, unit) Hashtbl.t;
  mutable closed : bool;
  mutable retired : bool;
}

type t = {
  itn : Interner.t;
  knowledge : Knowledge.t;
  (* packed fact -> transactions that optimistically assumed its negation *)
  mutable index : txn list array;
  (* packed fact -> uid of the last txn that registered it: a cache in
     front of the per-txn pending table. Uids are never reused, so a
     stamp hit is authoritative; on a miss the table decides. Loops and
     repeated sweeps re-touch the same operands, so the hot path is one
     array probe instead of a hash lookup. *)
  mutable reg_stamp : int array;
  on_retire : txn -> unit;
  mutable parked : txn list;  (* closed with unresolved pending; reversed *)
  mutable next_uid : int;
  mark : float ref option;
  timed : bool;
  mutable repair_s : float;
  mutable repairs : int;
}

let create ?mark ~interner ~on_retire () =
  {
    itn = interner;
    knowledge = Knowledge.create ();
    index = Array.make 64 [];
    reg_stamp = Array.make 64 (-1);
    on_retire;
    parked = [];
    next_uid = 0;
    mark;
    timed = Coop_obs.enabled ();
    repair_s = 0.;
    repairs = 0;
  }

let open_txn t ~tid =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  {
    uid;
    tid;
    seqs = Array.make 4 0;
    locs = Array.make 4 Loc.none;
    ops = Array.make 4 Event.Yield;
    ids = Array.make 4 (-1);
    len = 0;
    phase = Pre;
    cm_seq = 0;
    cm_loc = Loc.none;
    cm_op = Event.Yield;
    cm_mover = Mover.Both;
    viols = [];
    pending = Hashtbl.create 4;
    closed = false;
    retired = false;
  }

let txn_uid txn = txn.uid
let violations txn = List.rev txn.viols

let push txn ~seq ~loc ~op ~id =
  let n = Array.length txn.seqs in
  if txn.len = n then begin
    let grow a fill =
      let bigger = Array.make (2 * n) fill in
      Array.blit a 0 bigger 0 n;
      bigger
    in
    txn.seqs <- grow txn.seqs 0;
    txn.locs <- grow txn.locs Loc.none;
    txn.ops <- grow txn.ops Event.Yield;
    txn.ids <- grow txn.ids (-1)
  end;
  txn.seqs.(txn.len) <- seq;
  txn.locs.(txn.len) <- loc;
  txn.ops.(txn.len) <- op;
  txn.ids.(txn.len) <- id;
  txn.len <- txn.len + 1

(* One move of the (R|B)* (N|L) (L|B)* machine — the exact transition
   table of [Automaton.step], including the reset-as-if-yielded rule. *)
let apply txn ~seq ~loc ~op m =
  match (txn.phase, m) with
  | Pre, (Mover.Right | Mover.Both) -> ()
  | Pre, ((Mover.Non | Mover.Left) as m) ->
      txn.phase <- Post;
      (* This op is the commit point: it is the cause of every violation
         until the machine resets. *)
      txn.cm_seq <- seq;
      txn.cm_loc <- loc;
      txn.cm_op <- op;
      txn.cm_mover <- m
  | Post, (Mover.Left | Mover.Both) -> ()
  | Post, ((Mover.Right | Mover.Non) as m) ->
      let vcause =
        if txn.cm_seq > 0 then
          Some
            { cseq = txn.cm_seq; cloc = txn.cm_loc; cop = txn.cm_op;
              cmover = txn.cm_mover }
        else None
      in
      txn.viols <-
        { vseq = seq; vtid = txn.tid; vloc = loc; vop = op; vmover = m; vcause }
        :: txn.viols;
      (match m with
      | Mover.Right ->
          (* Reset-as-if-yielded: the commit the violation was blamed on
             is spent; the next violation needs a fresh one. *)
          txn.phase <- Pre;
          txn.cm_seq <- 0
      | _ -> ())

let bucket_add t packed txn =
  if packed >= Array.length t.index then begin
    let bigger = Array.make (max (packed + 1) (2 * Array.length t.index)) [] in
    Array.blit t.index 0 bigger 0 (Array.length t.index);
    t.index <- bigger
  end;
  t.index.(packed) <- txn :: t.index.(packed)

(* Optimistic classification charged an assumption ("v is race-free",
   "l is thread-local"): remember which fact would invalidate it so a
   late arrival replays exactly the transactions that used it. *)
let register_pending t txn (op : Event.op) id =
  let want =
    match op with
    | Event.Read _ | Event.Write _ ->
        if Knowledge.racy t.knowledge id then -1 else pack (Racy id)
    | Event.Acquire _ | Event.Release _ ->
        if Knowledge.shared t.knowledge id then -1 else pack (Shared id)
    | _ -> -1
  in
  if want >= 0 then
    if want < Array.length t.reg_stamp && t.reg_stamp.(want) = txn.uid then ()
    else begin
      if want >= Array.length t.reg_stamp then begin
        let bigger =
          Array.make (max (want + 1) (2 * Array.length t.reg_stamp)) (-1)
        in
        Array.blit t.reg_stamp 0 bigger 0 (Array.length t.reg_stamp);
        t.reg_stamp <- bigger
      end;
      t.reg_stamp.(want) <- txn.uid;
      if not (Hashtbl.mem txn.pending want) then begin
        Hashtbl.add txn.pending want ();
        bucket_add t want txn
      end
    end

let step t txn ~seq (e : Event.t) =
  let id = Interner.cur_operand t.itn in
  match Knowledge.classify t.knowledge e.op id with
  | None -> ()
  | Some m -> (
      match e.op with
      | Event.Out _ -> ()  (* both mover forever: invisible to the machine *)
      | op ->
          push txn ~seq ~loc:e.loc ~op ~id;
          register_pending t txn op id;
          apply txn ~seq ~loc:e.loc ~op m)

(* Violations are NOT monotone in knowledge. In [rel l1; acq l2; wr v]
   with l1 shared and v racy, optimism about l2 (assumed thread-local,
   so the acquire is a both mover) flags the write — a non mover after
   the release's commit point. When shared(l2) arrives, final knowledge
   instead flags the acquire (a right mover post-commit), and that
   violation RESETS the machine to Pre, so the write now commits
   quietly. One fact moved one violation and deleted another; patching
   the violation list in place is unsound in both directions, hence
   repair recomputes the whole machine over the digest. *)
let replay t txn =
  txn.phase <- Pre;
  txn.cm_seq <- 0;
  txn.viols <- [];
  for i = 0 to txn.len - 1 do
    let op = txn.ops.(i) in
    match Knowledge.classify t.knowledge op txn.ids.(i) with
    | Some m -> apply txn ~seq:txn.seqs.(i) ~loc:txn.locs.(i) ~op m
    | None -> assert false
  done

let retire t txn =
  txn.retired <- true;
  t.on_retire txn

let on_fact t f =
  let t0 = if t.timed then Coop_obs.now_s () else 0. in
  if Knowledge.learn t.knowledge f then begin
    let packed = pack f in
    (* The receiving end of the propagation flow the publisher began. *)
    Coop_obs.flow_end (flow_name f) ~id:packed;
    if packed < Array.length t.index then begin
      let bucket = t.index.(packed) in
      (* The fact is final: nothing will ever point at this bucket
         again, so it is dropped wholesale after the repairs. *)
      t.index.(packed) <- [];
      List.iter
        (fun txn ->
          Hashtbl.remove txn.pending packed;
          replay t txn;
          if txn.closed && (not txn.retired) && Hashtbl.length txn.pending = 0
          then retire t txn)
        bucket
    end
  end;
  if t.timed then begin
    let dt = Coop_obs.now_s () -. t0 in
    t.repair_s <- t.repair_s +. dt;
    t.repairs <- t.repairs + 1;
    (* Repair runs inside the publisher's instrumented step; advancing the
       shared clock mark keeps its cost out of that checker's timer so the
       attribution shares still sum to one. *)
    match t.mark with Some m -> m := !m +. dt | None -> ()
  end

let close t txn =
  txn.closed <- true;
  if Hashtbl.length txn.pending = 0 then retire t txn
  else t.parked <- txn :: t.parked

let finalize t =
  (* Unresolved assumptions at end of stream were all correct (the
     invalidating fact never fired), so parked results are final as-is. *)
  List.iter (fun txn -> if not txn.retired then retire t txn) (List.rev t.parked);
  t.parked <- [];
  if t.timed && t.repairs > 0 then
    Coop_obs.timer_add "checker/repair" t.repair_s t.repairs

(* Checkpointing. The live-transaction graph is shared — a transaction
   sits in [parked] and in one index bucket per pending assumption, and
   the caller holds its open transactions — so copying works uid-wise:
   collect every live transaction once, deep-copy it, and rebuild every
   containing structure through a uid-to-copy table. [roots] are the
   caller's open transactions (the engine has no handle on an open
   transaction with no pending assumption). Retired transactions are
   never reachable from engine structures, so they are not copied; their
   violations already left through [on_retire]. *)
type snapshot = {
  s_racy : Bytes.t;
  s_shared : Bytes.t;
  s_txns : txn list;  (* private deep copies, one per live txn *)
  s_index : (int * int list) list;  (* packed fact -> member uids *)
  s_reg_stamp : int array;
  s_parked : int list;  (* uids, insertion order preserved *)
  s_next_uid : int;
}

let copy_txn txn =
  {
    uid = txn.uid;
    tid = txn.tid;
    seqs = Array.copy txn.seqs;
    locs = Array.copy txn.locs;
    ops = Array.copy txn.ops;
    ids = Array.copy txn.ids;
    len = txn.len;
    phase = txn.phase;
    cm_seq = txn.cm_seq;
    cm_loc = txn.cm_loc;
    cm_op = txn.cm_op;
    cm_mover = txn.cm_mover;
    viols = txn.viols;
    pending = Hashtbl.copy txn.pending;
    closed = txn.closed;
    retired = txn.retired;
  }

let snapshot ~roots t =
  let live : (int, txn) Hashtbl.t = Hashtbl.create 64 in
  let see txn = if not (Hashtbl.mem live txn.uid) then Hashtbl.add live txn.uid txn in
  List.iter see roots;
  List.iter see t.parked;
  Array.iter (fun bucket -> List.iter see bucket) t.index;
  {
    s_racy = Bytes.copy t.knowledge.Knowledge.racy;
    s_shared = Bytes.copy t.knowledge.Knowledge.shared;
    s_txns = Hashtbl.fold (fun _ txn acc -> copy_txn txn :: acc) live [];
    s_index =
      Array.to_list t.index
      |> List.mapi (fun packed bucket ->
             (packed, List.map (fun txn -> txn.uid) bucket))
      |> List.filter (fun (_, uids) -> uids <> []);
    s_reg_stamp = Array.copy t.reg_stamp;
    s_parked = List.map (fun txn -> txn.uid) t.parked;
    s_next_uid = t.next_uid;
  }

let restore t s =
  (* Copy again on load: the snapshot stays loadable into further
     engines, and engines restored from one snapshot never share
     transactions. *)
  let tbl : (int, txn) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun txn -> Hashtbl.replace tbl txn.uid (copy_txn txn)) s.s_txns;
  let of_uid uid =
    match Hashtbl.find_opt tbl uid with
    | Some txn -> txn
    | None -> invalid_arg "Online.restore: snapshot names an unknown txn"
  in
  t.knowledge.Knowledge.racy <- Bytes.copy s.s_racy;
  t.knowledge.Knowledge.shared <- Bytes.copy s.s_shared;
  let width =
    List.fold_left (fun acc (packed, _) -> max acc (packed + 1)) 64 s.s_index
  in
  let index = Array.make width [] in
  List.iter
    (fun (packed, uids) -> index.(packed) <- List.map of_uid uids)
    s.s_index;
  t.index <- index;
  t.reg_stamp <- Array.copy s.s_reg_stamp;
  t.parked <- List.map of_uid s.s_parked;
  t.next_uid <- s.s_next_uid;
  tbl
