(** The benchmark's inputs: which programs each workload runs, at which
    sizes and budgets. The workload seed only chooses among these (and
    orders the ops); the expected digests in [expected.tsv] cover every
    input any seed can pick. *)

val check_programs : (string * int) list
(** [(registry name, size)] for the [check] and [trace] workloads: 8x the
    default size, except sor (4x), moldyn (2x) and lufact (1x), whose
    barrier spins under a random scheduler grow much faster than their
    size (lufact at 2x already runs into the 10M step budget). *)

val sched_seeds : int list
(** The pool of [Sched.random] seeds a [(program, seed)] pair draws from. *)

val seeds_per_program : int
(** How many pool seeds one run picks per program. *)

val pair_key : string -> int -> int -> string
(** [pair_key name size seed]: the digest key shared by [check] and
    [trace], so both must reach the same verdict on the same pair. *)

val registry_source : ?threads:int -> size:int -> string -> string
(** CoopLang source of a registry workload. *)

val dpor_cases : unit -> (string * string) list
(** [(key, source)]: the replay suite (racy_counter 2x2/3x1,
    locked_counter 2x3, check_then_act 2, single_transaction 3, bank t2
    s2) plus philo t3 s1 and bank t3 s1. *)

val infer_programs : unit -> (string * string) list
(** [(key, source)] at default size: barrier programs (sor, lufact,
    moldyn, queue, elevator, hedc) and quick ones (philo, bank, tsp,
    raytracer, crypt). *)

val infer_max_steps : int
(** Per-run step budget for [infer] (50k): every program infers the same
    yields in the same number of rounds as at the 10M default. *)

val infer_jobs : int
(** Domains in the [infer] pool: 1, because on a 2-vCPU shared host a
    second domain makes the run measure the host's scheduler (see
    NOTES.md). *)
