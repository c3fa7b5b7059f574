open Coop_trace

(* The rendered lines are sorted before hashing: a verdict is a multiset
   of races, violations, cycles and warnings, whatever order a layer
   reports them in. Each line starts with its section's tag. *)
let render f =
  let b = Buffer.create 1024 in
  f b;
  Buffer.contents b |> String.split_on_char '\n' |> List.sort compare
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let p = Printf.bprintf

let str pp x = Format.asprintf "%a" pp x

let kind = function
  | Coop_race.Report.Write_write -> "ww"
  | Read_write -> "rw"
  | Write_read -> "wr"

let pipeline (r : Coop_pipeline.result) =
  render (fun b ->
      p b "events %d\n" r.events;
      List.iter
        (fun (x : Coop_race.Report.t) ->
          p b "race %s %s %d %d %s\n" (str Event.pp_var x.var) (kind x.kind)
            x.first_tid x.second_tid (Loc.to_string x.second_loc))
        r.races;
      Event.Var_set.iter (fun v -> p b "racy %s\n" (str Event.pp_var v)) r.racy;
      List.iter
        (fun (v : Coop_core.Automaton.violation) ->
          p b "viol %d %s %s\n" v.tid (Loc.to_string v.loc)
            (str Event.pp_op v.op))
        r.violations;
      List.iter
        (fun c ->
          p b "cycle %s\n" (String.concat "," (List.map string_of_int c)))
        r.deadlock.Coop_core.Deadlock.cycles;
      match r.atomizer with
      | None -> p b "atomizer off\n"
      | Some a ->
          List.iter
            (fun (w : Coop_atomicity.Atomizer.warning) ->
              p b "atom %d %s %s\n" w.tid (Loc.to_string w.loc)
                (str Event.pp_op w.op))
            a.Coop_atomicity.Atomizer.warnings)

let dpor (r : Coop_runtime.Dpor.result) =
  render (fun b ->
      p b "executions %d novel %d\n" r.executions r.novel_steps;
      Coop_runtime.Behavior.Set.iter
        (fun x -> p b "behavior %s\n" (str Coop_runtime.Behavior.pp x))
        r.behaviors)

let infer (r : Coop_core.Infer.result) =
  render (fun b ->
      p b "rounds %d\n" r.rounds;
      Loc.Set.iter (fun l -> p b "yield %s\n" (Loc.to_string l)) r.yields)

let load path =
  let t = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.split_on_char '\t' line with
               | [ k; d ] -> Hashtbl.replace t k d
               | _ -> failwith ("perfbench: bad expected digest: " ^ line)));
  t
