open Coop_trace

type phase =
  | Pre
  | Post

type violation = {
  tid : int;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : Online.cause option;
}

(* Per-thread phase plus the commit point of the current Post phase,
   mirroring the engine's per-transaction fields (cm_seq = 0 = none) so
   both paths blame violations on the same op. *)
type tstate = {
  mutable ph : phase;
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
}

type t = {
  threads : (int, tstate) Hashtbl.t;
  mutable seq : int;  (* 1-based global position; counts every step call *)
  mutable violations : violation list;  (* reversed *)
}

let create () = { threads = Hashtbl.create 8; seq = 0; violations = [] }

let tstate t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
      let st =
        { ph = Pre; cm_seq = 0; cm_loc = Loc.none; cm_op = Event.Yield;
          cm_mover = Mover.Both }
      in
      Hashtbl.add t.threads tid st;
      st

let phase t tid =
  match Hashtbl.find_opt t.threads tid with Some st -> st.ph | None -> Pre

let step ?local_locks t ~racy (e : Event.t) =
  t.seq <- t.seq + 1;
  match e.op with
  | Event.Yield ->
      let st = tstate t e.tid in
      st.ph <- Pre;
      st.cm_seq <- 0;
      None
  | op -> (
      match Mover.classify ?local_locks ~racy op with
      | None -> None
      | Some m -> (
          let st = tstate t e.tid in
          match (st.ph, m) with
          | Pre, (Mover.Right | Mover.Both) -> None
          | Pre, ((Mover.Non | Mover.Left) as m) ->
              (* The commit point of this transaction. *)
              st.ph <- Post;
              st.cm_seq <- t.seq;
              st.cm_loc <- e.loc;
              st.cm_op <- op;
              st.cm_mover <- m;
              None
          | Post, (Mover.Left | Mover.Both) -> None
          | Post, ((Mover.Right | Mover.Non) as m) ->
              (* Irreducible: a yield is missing right before this
                 operation. Reset as if it had been there. *)
              let cause =
                if st.cm_seq > 0 then
                  Some
                    { Online.cseq = st.cm_seq; cloc = st.cm_loc;
                      cop = st.cm_op; cmover = st.cm_mover }
                else None
              in
              let v = { tid = e.tid; loc = e.loc; op; mover = m; cause } in
              t.violations <- v :: t.violations;
              (match m with
              | Mover.Right ->
                  st.ph <- Pre;
                  st.cm_seq <- 0
              | Mover.Non -> st.ph <- Post
              | _ -> assert false);
              Some v))

let violations t = List.rev t.violations

let analysis ?local_locks ~racy () =
  let t = create () in
  Analysis.make
    ~step:(fun e -> ignore (step ?local_locks t ~racy e))
    ~finalize:(fun () -> violations t)

(* Checkpoint of the online driver: the engine (live transactions keyed
   by uid), the retired-violation accumulator, the open-transaction slot
   per dense tid (as uids) and the position counter. The interner rides
   along so the whole fused stack restores consistently even when this
   component is resumed first. *)
type online_snapshot = {
  os_itn : Interner.snapshot;
  os_eng : Online.snapshot;
  os_acc : Online.viol list;
  os_cur : int array;  (* dense tid -> open txn uid, -1 = none *)
  os_seq : int;
}

let online_key : online_snapshot Analysis.Key.t =
  Analysis.Key.create "automaton-online"

(* Single-pass variant: each thread's yield-to-yield segment becomes one
   engine transaction, classified optimistically and repaired when facts
   arrive. Per-transaction machines starting in Pre are equivalent to the
   one whole-thread machine above because Yield resets it to Pre. *)
let online_analysis ?mark ~interner ~subscribe () =
  let acc : Online.viol list ref = ref [] in
  let engine =
    Online.create ?mark ~interner
      ~on_retire:(fun txn -> acc := List.rev_append (Online.violations txn) !acc)
      ()
  in
  subscribe (Online.on_fact engine);
  (* dense tid -> open transaction; None between a yield and the next op *)
  let current : Online.txn option array ref = ref (Array.make 8 None) in
  let slot tid =
    if tid >= Array.length !current then begin
      let bigger = Array.make (max (tid + 1) (2 * Array.length !current)) None in
      Array.blit !current 0 bigger 0 (Array.length !current);
      current := bigger
    end;
    !current.(tid)
  in
  let seq = ref 0 in
  let step (e : Event.t) =
    incr seq;
    let tid = Interner.cur_tid interner in
    match e.op with
    | Event.Yield -> (
        match slot tid with
        | Some txn ->
            Online.close engine txn;
            !current.(tid) <- None
        | None -> ())
    | _ ->
        let txn =
          match slot tid with
          | Some txn -> txn
          | None ->
              let txn = Online.open_txn engine ~tid:e.tid in
              !current.(tid) <- Some txn;
              txn
        in
        Online.step engine txn ~seq:!seq e
  in
  let finalize () =
    Array.iter
      (function Some txn -> Online.close engine txn | None -> ())
      !current;
    current := [||];
    Online.finalize engine;
    List.sort
      (fun (a : Online.viol) (b : Online.viol) -> compare a.vseq b.vseq)
      !acc
    |> List.map (fun (v : Online.viol) ->
           { tid = v.vtid; loc = v.vloc; op = v.vop; mover = v.vmover;
             cause = v.vcause })
  in
  let save () =
    let roots =
      Array.to_list !current |> List.filter_map (fun slot -> slot)
    in
    {
      os_itn = Interner.snapshot interner;
      os_eng = Online.snapshot ~roots engine;
      os_acc = !acc;
      os_cur =
        Array.map
          (function Some txn -> Online.txn_uid txn | None -> -1)
          !current;
      os_seq = !seq;
    }
  in
  let load s =
    Interner.restore interner s.os_itn;
    let tbl = Online.restore engine s.os_eng in
    acc := s.os_acc;
    seq := s.os_seq;
    current :=
      Array.map
        (fun uid -> if uid < 0 then None else Hashtbl.find_opt tbl uid)
        s.os_cur
  in
  Analysis.snapshottable ~key:online_key ~save ~load
    (Analysis.make ~step ~finalize)

let pp_violation ppf v =
  Format.fprintf ppf "t%d needs a yield before %a at %a (%a in post-commit)"
    v.tid Event.pp_op v.op Loc.pp v.loc Mover.pp v.mover
