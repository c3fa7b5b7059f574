(** Verdict digests: what an op must reproduce to count as correct.

    Each digest is the MD5 of a canonical text rendering of the verdict,
    one line per fact with its lines sorted, so it does not depend on the
    order a layer reports races, violations or warnings in, and the
    expected values fit in one line per input of [expected.tsv]. *)

val pipeline : Coop_pipeline.result -> string
(** Races, racy variables, violation locations, deadlock cycles, Atomizer
    warnings and the stream length. *)

val dpor : Coop_runtime.Dpor.result -> string
(** Behaviour set, executions and novel steps. *)

val infer : Coop_core.Infer.result -> string
(** Inferred yields and rounds. *)

val load : string -> (string, string) Hashtbl.t
(** Read [key<TAB>digest] lines; [#] starts a comment line. *)
