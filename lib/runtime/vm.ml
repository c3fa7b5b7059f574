open Coop_trace
open Coop_lang

type status =
  | Runnable
  | Blocked_on_lock of int
  | Blocked_on_join of int
  | Waiting of int
  | Reacquiring of int
  | Finished
  | Faulted of string

type next_instr =
  | No_frame
  | Sched_point
  | Invisible

(* Everything about a run that never changes once [init] built it: the
   program, per-instruction locations, the injected-yield and
   scheduling-point tables, heap layout and the event payloads the
   program can ever emit (precomputed so the hot loop allocates no
   [Loc.t] and no operation variant for common events). Shared by a
   state, its snapshots and every state restored from them — immutable,
   hence safe to share across domains. Fork, Join and Out payloads stay
   dynamic: their arguments are run-time values and the events are
   rare. *)
type code = {
  prog : Bytecode.program;
  instrs : Bytecode.instr array array;  (* func -> pc -> instruction *)
  locs : Loc.t array array;  (* func -> pc -> location *)
  slots : int array;  (* func -> local slots (parameters included) *)
  yield_at : bool array array;  (* func -> pc -> injected yield point *)
  sched_at : bool array array;
      (* func -> pc -> visible instruction or injected yield point *)
  has_yields : bool;
  n_globals : int;
  cell_base : int array;  (* array id -> heap offset of its cell 0 *)
  heap_size : int;  (* globals, then every array's cells *)
  enter_ops : Event.op array;  (* func -> Enter *)
  exit_ops : Event.op array;  (* func -> Exit *)
  acquire_ops : Event.op array;  (* handle -> Acquire *)
  release_ops : Event.op array;  (* handle -> Release *)
  read_ops : Event.op array;  (* heap slot -> Read *)
  write_ops : Event.op array;  (* heap slot -> Write *)
}

(* One thread. Its frames share one value stack: each frame owns the
   region from its [base] — local slots up to [floor], then its operands —
   and the top frame's region ends at [sp]. The top frame's registers live
   in the record; callers' are saved in [calls] as (func, resume pc, base,
   floor) quadruples, outermost first. *)
type thread = {
  mutable status : status;
  mutable entered : bool;  (* Enter event for the root frame emitted *)
  mutable pending_yield : bool;  (* injected yield at current pc emitted *)
  mutable wait_depth : int;  (* reentrancy depth to restore after a wait *)
  mutable func : int;
  mutable pc : int;
  mutable base : int;
  mutable floor : int;
  mutable sp : int;
  mutable stack : int array;
  mutable depth : int;  (* frames; 0 once the root frame returned *)
  mutable calls : int array;
}

type state = {
  mutable code : code;
  heap : int array;  (* globals at [0, n_globals), then array cells *)
  owner : int array;  (* lock handle -> owning tid, or -1 when free *)
  held : int array;  (* lock handle -> reentrancy depth *)
  conds : int list array;  (* lock handle -> waiting tids, FIFO *)
  mutable threads : thread array;  (* tid -> thread, [0, n_threads) *)
  mutable n_threads : int;
  mutable output_rev : int list;
  mutable failures_rev : (int * string) list;
  mutable last_yielded : bool;
  mutable run_buf : int array;  (* runnable tids, ascending, [0, n_run) *)
  mutable n_run : int;
  mutable dirty : bool;  (* [run_buf] is stale *)
  scratch : Event.t;
      (* reused for every emission: sinks receive the same record with
         fields rewritten (the [Trace.Sink] contract — a sink that retains
         events must [Event.copy]) *)
}

(* A machine image frozen into one int array (layout in [encode]), plus
   what the array cannot hold. Never mutated after [snapshot] built it. *)
type snapshot = {
  s_code : code;
  s_data : int array;
  s_msgs : string list;  (* fault messages, aligned with the image's tids *)
  s_last_yielded : bool;
  s_words : int;
}

exception Fault of string

(* --- Construction -------------------------------------------------------- *)

(* Instructions that touch shared state or another thread, or yield:
   the scheduling points of a preemptive exploration. *)
let visible = function
  | Bytecode.Load_global _ | Bytecode.Store_global _ | Bytecode.Load_elem _
  | Bytecode.Store_elem _ | Bytecode.Acquire | Bytecode.Release
  | Bytecode.Wait | Bytecode.Notify _ | Bytecode.Yield_instr
  | Bytecode.Spawn _ | Bytecode.Join | Bytecode.Print ->
      true
  | Bytecode.Const _ | Bytecode.Load_local _ | Bytecode.Store_local _
  | Bytecode.Array_len _ | Bytecode.Binop _ | Bytecode.Unop _ | Bytecode.Jump _
  | Bytecode.Jump_if_zero _ | Bytecode.Atomic_begin | Bytecode.Atomic_end
  | Bytecode.Call _ | Bytecode.Ret | Bytecode.Assert | Bytecode.Pop
  | Bytecode.Halt ->
      false

let build_code ?(yields = Loc.Set.empty) (prog : Bytecode.program) =
  let n_funcs = Array.length prog.funcs in
  let instrs = Array.map (fun (f : Bytecode.func) -> f.code) prog.funcs in
  let locs =
    Array.init n_funcs (fun func ->
        Array.init (Array.length instrs.(func)) (fun pc ->
            Bytecode.loc prog ~func ~pc))
  in
  (* Slots cover the declared locals, the parameters and every slot the
     code touches, so local access needs no bounds check of its own. *)
  let slots =
    Array.map
      (fun (f : Bytecode.func) ->
        Array.fold_left
          (fun acc -> function
            | Bytecode.Load_local l | Bytecode.Store_local l ->
                if l < 0 then invalid_arg "Vm.init: negative local slot";
                max acc (l + 1)
            | _ -> acc)
          (max f.n_locals f.arity) f.code)
      prog.funcs
  in
  let has_yields = not (Loc.Set.is_empty yields) in
  let yield_at =
    Array.map
      (Array.map (fun loc -> has_yields && Loc.Set.mem loc yields))
      locs
  in
  let sched_at =
    Array.mapi
      (fun func code ->
        let yields = yield_at.(func) in
        let a = Array.make (Array.length code) false in
        for pc = 0 to Array.length code - 1 do
          a.(pc) <- visible code.(pc) || yields.(pc)
        done;
        a)
      instrs
  in
  let n_arrays = Array.length prog.array_sizes in
  let cell_base = Array.make n_arrays 0 in
  let heap_size = ref prog.n_globals in
  for aid = 0 to n_arrays - 1 do
    cell_base.(aid) <- !heap_size;
    heap_size := !heap_size + prog.array_sizes.(aid)
  done;
  let var_of slot =
    if slot < prog.n_globals then Event.Global slot
    else begin
      let aid = ref (n_arrays - 1) in
      while cell_base.(!aid) > slot do decr aid done;
      Event.Cell (!aid, slot - cell_base.(!aid))
    end
  in
  {
    prog;
    instrs;
    locs;
    slots;
    yield_at;
    sched_at;
    has_yields;
    n_globals = prog.n_globals;
    cell_base;
    heap_size = !heap_size;
    enter_ops = Array.init n_funcs (fun f -> Event.Enter f);
    exit_ops = Array.init n_funcs (fun f -> Event.Exit f);
    acquire_ops = Array.init prog.n_locks (fun h -> Event.Acquire h);
    release_ops = Array.init prog.n_locks (fun h -> Event.Release h);
    read_ops = Array.init !heap_size (fun s -> Event.Read (var_of s));
    write_ops = Array.init !heap_size (fun s -> Event.Write (var_of s));
  }

let new_thread ~func ~floor stack =
  { status = Runnable; entered = false; pending_yield = false; wait_depth = 0;
    func; pc = 0; base = 0; floor; sp = floor; stack; depth = 1;
    calls = Array.make 16 0 }

let init ?yields prog =
  let code = build_code ?yields prog in
  let main = prog.Bytecode.main in
  let floor = code.slots.(main) in
  let t0 = new_thread ~func:main ~floor (Array.make (max 64 (2 * floor)) 0) in
  let n_locks = prog.Bytecode.n_locks in
  let heap = Array.make code.heap_size 0 in
  Array.blit prog.Bytecode.global_init 0 heap 0 prog.Bytecode.n_globals;
  {
    code;
    heap;
    owner = Array.make n_locks (-1);
    held = Array.make n_locks 0;
    conds = Array.make n_locks [];
    threads = Array.make 4 t0;
    n_threads = 1;
    output_rev = [];
    failures_rev = [];
    last_yielded = false;
    run_buf = Array.make 4 0;
    n_run = 0;
    dirty = true;
    scratch = Event.make ~tid:(-1) ~op:Event.Yield ~loc:Loc.none;
  }

(* --- Queries ------------------------------------------------------------- *)

let program st = st.code.prog

let thread st tid =
  if tid < 0 || tid >= st.n_threads then raise Not_found;
  st.threads.(tid)

let thread_status st tid = (thread st tid).status

let can_run st tid t =
  match t.status with
  | Runnable -> true
  | Blocked_on_lock h | Reacquiring h ->
      let o = st.owner.(h) in
      o < 0 || o = tid
  | Blocked_on_join u -> (
      match st.threads.(u).status with
      | Finished | Faulted _ -> true
      | _ -> false)
  | Waiting _ | Finished | Faulted _ -> false

(* The runnable set changes only when a thread's status, a lock's owner or
   the thread count does; steps that touch none of these leave [dirty]
   unset and the set is not recomputed. *)
let refresh st =
  if st.dirty then begin
    let n = ref 0 in
    for tid = 0 to st.n_threads - 1 do
      if can_run st tid st.threads.(tid) then begin
        st.run_buf.(!n) <- tid;
        incr n
      end
    done;
    st.n_run <- !n;
    st.dirty <- false
  end

let runnable_count st =
  refresh st;
  st.n_run

let blit_runnable st dst =
  refresh st;
  if Array.length dst < st.n_run then
    invalid_arg "Vm.blit_runnable: destination too short";
  for i = 0 to st.n_run - 1 do
    Array.unsafe_set dst i (Array.unsafe_get st.run_buf i)
  done

let runnable st =
  refresh st;
  let l = ref [] in
  for i = st.n_run - 1 downto 0 do
    l := st.run_buf.(i) :: !l
  done;
  !l

let all_quiescent st =
  let rec go tid =
    tid >= st.n_threads
    || (match st.threads.(tid).status with
       | Finished | Faulted _ -> go (tid + 1)
       | _ -> false)
  in
  go 0

let deadlocked st = runnable_count st = 0 && not (all_quiescent st)

let global_value st slot =
  if slot >= 0 && slot < st.code.n_globals then st.heap.(slot) else 0

let output st = List.rev st.output_rev

let failures st = List.rev st.failures_rev

let last_step_yielded st = st.last_yielded

let next_instr st tid =
  let t = thread st tid in
  match t.status with
  | Finished | Faulted _ -> No_frame
  | _ ->
      let table = st.code.sched_at.(t.func) in
      if t.depth = 0 || t.pc < 0 || t.pc >= Array.length table then No_frame
      else if Array.unsafe_get table t.pc then Sched_point
      else Invisible

(* --- Arithmetic ---------------------------------------------------------- *)

let apply_binop op a b =
  let bool_ v = if v then 1 else 0 in
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Ast.Mod -> if b = 0 then raise (Fault "modulo by zero") else a mod b
  | Ast.Lt -> bool_ (a < b)
  | Ast.Le -> bool_ (a <= b)
  | Ast.Gt -> bool_ (a > b)
  | Ast.Ge -> bool_ (a >= b)
  | Ast.Eq -> bool_ (a = b)
  | Ast.Ne -> bool_ (a <> b)
  | Ast.And -> bool_ (a <> 0 && b <> 0)
  | Ast.Or -> bool_ (a <> 0 || b <> 0)

let apply_unop op a =
  match op with Ast.Neg -> -a | Ast.Not -> if a = 0 then 1 else 0

(* --- Stepping ------------------------------------------------------------ *)

(* A faulting instruction raises before it mutates anything, so a faulted
   thread keeps the frames and operands it had when the instruction
   began. *)
let underflow () = raise (Fault "operand stack underflow")

let[@inline] need t k = if t.sp - k < t.floor then underflow ()

let grow_stack t need =
  let a = Array.make (max need (2 * Array.length t.stack)) 0 in
  Array.blit t.stack 0 a 0 t.sp;
  t.stack <- a

let[@inline] push t v =
  if t.sp >= Array.length t.stack then grow_stack t (t.sp + 1);
  Array.unsafe_set t.stack t.sp v;
  t.sp <- t.sp + 1

let[@inline] set_status st t s =
  if t.status != s then begin
    t.status <- s;
    st.dirty <- true
  end

let check_cell st aid idx =
  let sizes = st.code.prog.Bytecode.array_sizes in
  if aid < 0 || aid >= Array.length sizes then raise (Fault "invalid array id");
  let size = sizes.(aid) in
  if idx < 0 || idx >= size then
    raise
      (Fault
         (Printf.sprintf "array index %d out of bounds for %s[%d]" idx
            st.code.prog.Bytecode.array_names.(aid) size))

let check_global st g =
  if g < 0 || g >= st.code.n_globals then
    raise (Fault (Printf.sprintf "invalid global slot %d" g))

let check_lock st handle =
  if handle < 0 || handle >= st.code.prog.Bytecode.n_locks then
    raise (Fault (Printf.sprintf "invalid lock handle %d" handle))

let not_held st what handle =
  raise
    (Fault
       (Printf.sprintf "%s of lock %s not held" what
          st.code.prog.Bytecode.lock_names.(handle)))

let[@inline] emit sink (scratch : Event.t) tid loc op =
  scratch.Event.tid <- tid;
  scratch.Event.op <- op;
  scratch.Event.loc <- loc;
  sink scratch

(* A new frame for [fi] whose first [nargs] locals are the top [nargs]
   operands of [t]'s current region (consumed in place: they become the
   callee's parameter slots). *)
let push_frame st t fi nargs ~resume =
  let d = t.depth in
  if 4 * d + 4 > Array.length t.calls then begin
    let a = Array.make (2 * Array.length t.calls) 0 in
    Array.blit t.calls 0 a 0 (4 * d);
    t.calls <- a
  end;
  let c = t.calls in
  c.(4 * (d - 1)) <- t.func;
  c.((4 * (d - 1)) + 1) <- resume;
  c.((4 * (d - 1)) + 2) <- t.base;
  c.((4 * (d - 1)) + 3) <- t.floor;
  let base = t.sp - nargs in
  let floor = base + max st.code.slots.(fi) nargs in
  if floor > Array.length t.stack then grow_stack t floor;
  Array.fill t.stack t.sp (floor - t.sp) 0;
  t.func <- fi;
  t.pc <- 0;
  t.base <- base;
  t.floor <- floor;
  t.sp <- floor;
  t.depth <- d + 1

let spawn st t fi nargs =
  let child = st.n_threads in
  let floor = max st.code.slots.(fi) nargs in
  let stack = Array.make (max 64 (2 * floor)) 0 in
  Array.blit t.stack (t.sp - nargs) stack 0 nargs;
  let c = new_thread ~func:fi ~floor stack in
  if child >= Array.length st.threads then begin
    let bigger = Array.make (2 * child) c in
    Array.blit st.threads 0 bigger 0 child;
    st.threads <- bigger;
    st.run_buf <- Array.make (2 * child) 0
  end;
  st.threads.(child) <- c;
  st.n_threads <- child + 1;
  st.dirty <- true;
  child

(* Fault messages are copied so that no two failures share a string: a
   snapshot's word count then matches what it retains, string by string. *)
let fault st t tid msg =
  let msg = Bytes.to_string (Bytes.of_string msg) in
  st.failures_rev <- (tid, msg) :: st.failures_rev;
  set_status st t (Faulted msg)

let step st tid ~sink =
  if tid < 0 || tid >= st.n_threads then invalid_arg "Vm.step: unknown thread";
  let t = st.threads.(tid) in
  if not (can_run st tid t) then invalid_arg "Vm.step: thread cannot run";
  if t.depth = 0 then invalid_arg "Vm.step: thread has no frame";
  let code = st.code in
  let func = t.func and pc = t.pc in
  let table = code.locs.(func) in
  let in_range = pc >= 0 && pc < Array.length table in
  let loc =
    if in_range then Array.unsafe_get table pc
    else Bytecode.loc code.prog ~func ~pc
  in
  let scratch = st.scratch in
  st.last_yielded <- false;
  (* Root-frame Enter event, once per thread. *)
  if not t.entered then begin
    emit sink scratch tid loc code.enter_ops.(func);
    t.entered <- true
  end;
  match t.status with
  | Reacquiring h ->
      (* A woken waiter's step reacquires its monitor at the saved
         reentrancy depth; no instruction executes. *)
      emit sink scratch tid loc code.acquire_ops.(h);
      st.owner.(h) <- tid;
      st.held.(h) <- max 1 t.wait_depth;
      t.wait_depth <- 0;
      set_status st t Runnable;
      st.dirty <- true
  | _ ->
  if code.has_yields && in_range
     && Array.unsafe_get code.yield_at.(func) pc
     && not t.pending_yield
  then begin
    (* Injected yield: its own scheduling point, before the instruction. *)
    emit sink scratch tid loc Event.Yield;
    t.pending_yield <- true;
    set_status st t Runnable;
    st.last_yielded <- true
  end
  else begin
    t.pending_yield <- false;
    try
      match code.instrs.(func).(pc) with
      | Bytecode.Const n ->
          push t n;
          t.pc <- pc + 1
      | Bytecode.Load_global g ->
          check_global st g;
          emit sink scratch tid loc (Array.unsafe_get code.read_ops g);
          push t (Array.unsafe_get st.heap g);
          t.pc <- pc + 1
      | Bytecode.Store_global g ->
          need t 1;
          check_global st g;
          emit sink scratch tid loc (Array.unsafe_get code.write_ops g);
          t.sp <- t.sp - 1;
          Array.unsafe_set st.heap g (Array.unsafe_get t.stack t.sp);
          t.pc <- pc + 1
      | Bytecode.Load_local l ->
          push t (Array.unsafe_get t.stack (t.base + l));
          t.pc <- pc + 1
      | Bytecode.Store_local l ->
          need t 1;
          t.sp <- t.sp - 1;
          Array.unsafe_set t.stack (t.base + l) (Array.unsafe_get t.stack t.sp);
          t.pc <- pc + 1
      | Bytecode.Load_elem aid ->
          need t 1;
          let top = t.sp - 1 in
          let idx = Array.unsafe_get t.stack top in
          check_cell st aid idx;
          let slot = code.cell_base.(aid) + idx in
          emit sink scratch tid loc (Array.unsafe_get code.read_ops slot);
          Array.unsafe_set t.stack top (Array.unsafe_get st.heap slot);
          t.pc <- pc + 1
      | Bytecode.Store_elem aid ->
          need t 2;
          let idx = Array.unsafe_get t.stack (t.sp - 2) in
          check_cell st aid idx;
          let slot = code.cell_base.(aid) + idx in
          emit sink scratch tid loc (Array.unsafe_get code.write_ops slot);
          Array.unsafe_set st.heap slot (Array.unsafe_get t.stack (t.sp - 1));
          t.sp <- t.sp - 2;
          t.pc <- pc + 1
      | Bytecode.Array_len aid ->
          let sizes = code.prog.Bytecode.array_sizes in
          if aid < 0 || aid >= Array.length sizes then
            raise (Fault "invalid array id");
          push t sizes.(aid);
          t.pc <- pc + 1
      | Bytecode.Binop op ->
          need t 2;
          let s = t.stack and top = t.sp - 1 in
          let v =
            apply_binop op (Array.unsafe_get s (top - 1)) (Array.unsafe_get s top)
          in
          Array.unsafe_set s (top - 1) v;
          t.sp <- top;
          t.pc <- pc + 1
      | Bytecode.Unop op ->
          need t 1;
          let top = t.sp - 1 in
          Array.unsafe_set t.stack top
            (apply_unop op (Array.unsafe_get t.stack top));
          t.pc <- pc + 1
      | Bytecode.Jump target -> t.pc <- target
      | Bytecode.Jump_if_zero target ->
          need t 1;
          t.sp <- t.sp - 1;
          t.pc <- (if Array.unsafe_get t.stack t.sp = 0 then target else pc + 1)
      | Bytecode.Acquire ->
          need t 1;
          let h = Array.unsafe_get t.stack (t.sp - 1) in
          check_lock st h;
          let o = st.owner.(h) in
          if o = tid then begin
            (* Reentrant acquire: no event. *)
            st.held.(h) <- st.held.(h) + 1;
            t.sp <- t.sp - 1;
            t.pc <- pc + 1;
            set_status st t Runnable
          end
          else if o >= 0 then
            (* Held by someone else: park without consuming the handle. *)
            set_status st t (Blocked_on_lock h)
          else begin
            emit sink scratch tid loc code.acquire_ops.(h);
            st.owner.(h) <- tid;
            st.held.(h) <- 1;
            st.dirty <- true;
            t.sp <- t.sp - 1;
            t.pc <- pc + 1;
            set_status st t Runnable
          end
      | Bytecode.Release ->
          need t 1;
          let h = Array.unsafe_get t.stack (t.sp - 1) in
          check_lock st h;
          if st.owner.(h) <> tid then not_held st "release" h;
          if st.held.(h) = 1 then begin
            emit sink scratch tid loc code.release_ops.(h);
            st.owner.(h) <- -1;
            st.held.(h) <- 0;
            st.dirty <- true
          end
          else st.held.(h) <- st.held.(h) - 1;
          t.sp <- t.sp - 1;
          t.pc <- pc + 1
      | Bytecode.Wait ->
          need t 1;
          let h = Array.unsafe_get t.stack (t.sp - 1) in
          check_lock st h;
          if st.owner.(h) <> tid then not_held st "wait on" h;
          (* Release the monitor fully and park on its condition. The
             event encoding is Release;Yield now and Acquire at resume,
             which makes wait a scheduling point for the cooperative
             semantics and gives the analyses the right happens-before
             edges with no new event kinds. *)
          emit sink scratch tid loc code.release_ops.(h);
          emit sink scratch tid loc Event.Yield;
          t.wait_depth <- st.held.(h);
          st.owner.(h) <- -1;
          st.held.(h) <- 0;
          st.conds.(h) <- st.conds.(h) @ [ tid ];
          t.sp <- t.sp - 1;
          t.pc <- pc + 1;
          set_status st t (Waiting h);
          st.last_yielded <- true
      | Bytecode.Notify all ->
          need t 1;
          let h = Array.unsafe_get t.stack (t.sp - 1) in
          check_lock st h;
          if st.owner.(h) <> tid then not_held st "notify on" h;
          let woken =
            match st.conds.(h) with
            | [] -> []
            | w :: rest when not all ->
                st.conds.(h) <- rest;
                [ w ]
            | ws ->
                st.conds.(h) <- [];
                ws
          in
          List.iter
            (fun w -> set_status st st.threads.(w) (Reacquiring h))
            woken;
          t.sp <- t.sp - 1;
          t.pc <- pc + 1
      | Bytecode.Yield_instr ->
          emit sink scratch tid loc Event.Yield;
          t.pc <- pc + 1;
          st.last_yielded <- true
      | Bytecode.Atomic_begin ->
          emit sink scratch tid loc Event.Atomic_begin;
          t.pc <- pc + 1
      | Bytecode.Atomic_end ->
          emit sink scratch tid loc Event.Atomic_end;
          t.pc <- pc + 1
      | Bytecode.Spawn (fi, nargs) ->
          need t nargs;
          emit sink scratch tid loc (Event.Fork st.n_threads);
          let child = spawn st t fi nargs in
          t.sp <- t.sp - nargs;
          push t child;
          t.pc <- pc + 1
      | Bytecode.Join ->
          need t 1;
          let u = Array.unsafe_get t.stack (t.sp - 1) in
          if u < 0 || u >= st.n_threads then
            raise (Fault (Printf.sprintf "join on unknown thread %d" u));
          (match st.threads.(u).status with
          | Finished | Faulted _ ->
              emit sink scratch tid loc (Event.Join u);
              t.sp <- t.sp - 1;
              t.pc <- pc + 1;
              set_status st t Runnable
          | _ -> set_status st t (Blocked_on_join u))
      | Bytecode.Call (fi, nargs) ->
          need t nargs;
          emit sink scratch tid loc code.enter_ops.(fi);
          push_frame st t fi nargs ~resume:(pc + 1)
      | Bytecode.Ret ->
          need t 1;
          let v = Array.unsafe_get t.stack (t.sp - 1) in
          emit sink scratch tid loc code.exit_ops.(func);
          let d = t.depth - 1 in
          if d = 0 then begin
            t.depth <- 0;
            t.sp <- 0;
            set_status st t Finished
          end
          else begin
            let c = t.calls and i = 4 * (d - 1) in
            t.sp <- t.base;
            t.func <- c.(i);
            t.pc <- c.(i + 1);
            t.base <- c.(i + 2);
            t.floor <- c.(i + 3);
            t.depth <- d;
            push t v
          end
      | Bytecode.Print ->
          need t 1;
          t.sp <- t.sp - 1;
          let v = Array.unsafe_get t.stack t.sp in
          emit sink scratch tid loc (Event.Out v);
          st.output_rev <- v :: st.output_rev;
          t.pc <- pc + 1
      | Bytecode.Assert ->
          need t 1;
          if Array.unsafe_get t.stack (t.sp - 1) = 0 then
            raise
              (Fault (Printf.sprintf "assertion failed at line %d" loc.Loc.line));
          t.sp <- t.sp - 1;
          t.pc <- pc + 1
      | Bytecode.Pop ->
          need t 1;
          t.sp <- t.sp - 1;
          t.pc <- pc + 1
      | Bytecode.Halt -> set_status st t Finished
    with Fault msg -> fault st t tid msg
  end

(* --- Images: snapshots and keys ------------------------------------------ *)

(* The image layout, every field an int:

     n_threads
     n_outputs, outputs (latest first)
     n_failures, faulted tids (latest first)
     heap (heap_size cells)
     per lock: owner, depth, n_waiters, waiters (FIFO)
     per thread: status, status arg, flags (entered | pending_yield << 1),
       wait_depth, depth, sp, then per frame (outermost first):
       func, pc, local slots, region length, region values

   That is the whole configuration except fault messages and
   [last_yielded]: [key] ignores both, and [snapshot] keeps them beside
   the image. *)

let image_size st =
  let n =
    ref
      (3 + List.length st.output_rev + List.length st.failures_rev
     + st.code.heap_size)
  in
  Array.iter (fun q -> n := !n + 3 + List.length q) st.conds;
  for tid = 0 to st.n_threads - 1 do
    let t = st.threads.(tid) in
    n := !n + 6 + (4 * t.depth) + t.sp
  done;
  !n

let status_code = function
  | Runnable -> (0, 0)
  | Blocked_on_lock h -> (1, h)
  | Blocked_on_join u -> (2, u)
  | Waiting h -> (3, h)
  | Reacquiring h -> (4, h)
  | Finished -> (5, 0)
  | Faulted _ -> (6, 0)

let encode st =
  let a = Array.make (image_size st) 0 in
  let i = ref 0 in
  let put v =
    Array.unsafe_set a !i v;
    incr i
  in
  put st.n_threads;
  put (List.length st.output_rev);
  List.iter put st.output_rev;
  put (List.length st.failures_rev);
  List.iter (fun (tid, _) -> put tid) st.failures_rev;
  Array.blit st.heap 0 a !i st.code.heap_size;
  i := !i + st.code.heap_size;
  Array.iteri
    (fun h q ->
      put st.owner.(h);
      put st.held.(h);
      put (List.length q);
      List.iter put q)
    st.conds;
  for tid = 0 to st.n_threads - 1 do
    let t = st.threads.(tid) in
    let code, arg = status_code t.status in
    put code;
    put arg;
    put ((if t.entered then 1 else 0) lor if t.pending_yield then 2 else 0);
    put t.wait_depth;
    put t.depth;
    put t.sp;
    let frame func pc base floor stop =
      put func;
      put pc;
      put (floor - base);
      put (stop - base);
      Array.blit t.stack base a !i (stop - base);
      i := !i + (stop - base)
    in
    for d = 0 to t.depth - 2 do
      let c = t.calls and j = 4 * d in
      let stop = if d = t.depth - 2 then t.base else t.calls.(j + 6) in
      frame c.(j) c.(j + 1) c.(j + 2) c.(j + 3) stop
    done;
    if t.depth > 0 then frame t.func t.pc t.base t.floor t.sp
  done;
  assert (!i = Array.length a);
  a

(* Exact words retained by a snapshot's own blocks (headers included):
   the record, the image, and the fault-message list with its strings.
   The shared [code] is excluded. *)
let snapshot_words data msgs =
  let bytes_per_word = Sys.word_size / 8 in
  6 + Array.length data + 1
  + List.fold_left
      (fun acc m -> acc + 3 + (String.length m / bytes_per_word) + 2)
      0 msgs

let snapshot st =
  let data = encode st in
  let msgs = List.map snd st.failures_rev in
  { s_code = st.code; s_data = data; s_msgs = msgs;
    s_last_yielded = st.last_yielded; s_words = snapshot_words data msgs }

let approx_words s = s.s_words

(* Decode [s] into [st] in place. Its heap, lock arrays and the records
   of its first [st.n_threads] threads are reused (a thread slot past
   [n_threads] may alias a live record: see [init] and [spawn]). *)
let restore_into s st =
  if st.code.prog != s.s_code.prog then
    invalid_arg "Vm.restore_into: snapshot of another program";
  st.code <- s.s_code;
  let a = s.s_data and code = s.s_code in
  let i = ref 0 in
  let get () =
    let v = a.(!i) in
    incr i;
    v
  in
  let list_of n =
    let start = !i in
    i := !i + n;
    let l = ref [] in
    for j = start + n - 1 downto start do
      l := a.(j) :: !l
    done;
    !l
  in
  let n_threads = get () in
  st.output_rev <- list_of (get ());
  st.failures_rev <- List.combine (list_of (get ())) s.s_msgs;
  Array.blit a !i st.heap 0 code.heap_size;
  i := !i + code.heap_size;
  for h = 0 to code.prog.Bytecode.n_locks - 1 do
    st.owner.(h) <- get ();
    st.held.(h) <- get ();
    st.conds.(h) <- list_of (get ())
  done;
  let decode tid t =
    let scode = get () in
    let arg = get () in
    t.status <-
      (match scode with
      | 0 -> Runnable
      | 1 -> Blocked_on_lock arg
      | 2 -> Blocked_on_join arg
      | 3 -> Waiting arg
      | 4 -> Reacquiring arg
      | 5 -> Finished
      | _ -> Faulted (List.assoc tid st.failures_rev));
    let flags = get () in
    t.entered <- flags land 1 <> 0;
    t.pending_yield <- flags land 2 <> 0;
    t.wait_depth <- get ();
    t.depth <- get ();
    t.sp <- get ();
    if Array.length t.stack < t.sp then t.stack <- Array.make (t.sp + 32) 0;
    if Array.length t.calls < 4 * t.depth then
      t.calls <- Array.make ((4 * t.depth) + 16) 0;
    let base = ref 0 in
    for d = 0 to t.depth - 1 do
      if d > 0 then begin
        (* The frame decoded last is a caller: save its registers. *)
        let j = 4 * (d - 1) in
        t.calls.(j) <- t.func;
        t.calls.(j + 1) <- t.pc;
        t.calls.(j + 2) <- t.base;
        t.calls.(j + 3) <- t.floor
      end;
      t.func <- get ();
      t.pc <- get ();
      t.base <- !base;
      t.floor <- !base + get ();
      let len = get () in
      Array.blit a !i t.stack !base len;
      i := !i + len;
      base := !base + len
    done
  in
  let reusable = st.n_threads in
  let fresh () = new_thread ~func:0 ~floor:0 [||] in
  if n_threads > Array.length st.threads then
    st.threads <-
      Array.init n_threads (fun tid ->
          if tid < reusable then st.threads.(tid) else fresh ())
  else
    for tid = reusable to n_threads - 1 do
      st.threads.(tid) <- fresh ()
    done;
  for tid = 0 to n_threads - 1 do
    decode tid st.threads.(tid)
  done;
  st.n_threads <- n_threads;
  if Array.length st.run_buf < n_threads then
    st.run_buf <- Array.make n_threads 0;
  st.last_yielded <- s.s_last_yielded;
  st.n_run <- 0;
  st.dirty <- true

let restore s =
  let code = s.s_code in
  let n_locks = code.prog.Bytecode.n_locks in
  let st =
    {
      code;
      heap = Array.make code.heap_size 0;
      owner = Array.make n_locks (-1);
      held = Array.make n_locks 0;
      conds = Array.make n_locks [];
      threads = [||];
      n_threads = 0;
      output_rev = [];
      failures_rev = [];
      last_yielded = false;
      run_buf = [||];
      n_run = 0;
      dirty = true;
      scratch = Event.make ~tid:(-1) ~op:Event.Yield ~loc:Loc.none;
    }
  in
  restore_into s st;
  st

(* Zigzag varints of the image: compact, and canonical because the image
   is. *)
let key st =
  let a = encode st in
  let buf = Buffer.create (2 * Array.length a) in
  Array.iter
    (fun v ->
      let z = ref ((v lsl 1) lxor (v asr (Sys.int_size - 1))) in
      while !z land lnot 0x7f <> 0 do
        Buffer.add_char buf (Char.unsafe_chr (!z land 0x7f lor 0x80));
        z := !z lsr 7
      done;
      Buffer.add_char buf (Char.unsafe_chr !z))
    a;
  Buffer.contents buf
