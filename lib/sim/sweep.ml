type point = {
  label : string;
  seed : int;
  engine : Scenario.engine;
  sched : Scenario.sched_spec option;
  scenario : Scenario.t;
}

type outcome = {
  p_label : string;
  p_seed : int;
  p_engine : string;
  p_sched : string option;
  rendered : string;
}

let engine_name = function
  | Scenario.Engine_fast -> "fast"
  | Scenario.Engine_sharded n -> Printf.sprintf "sharded%d" n

(* Scenario-major, then seed, then engine: the grid order is part of the
   output contract — [run] merges positionally, so the rendered sweep is
   identical whatever [jobs] is. *)
let grid ?sched ~scenarios ~seeds ~engines () =
  let points = ref [] in
  List.iter
    (fun (label, scenario) ->
      List.iter
        (fun seed ->
          List.iter
            (fun engine ->
              points := { label; seed; engine; sched; scenario } :: !points)
            engines)
        seeds)
    scenarios;
  Array.of_list (List.rev !points)

let derived_seeds ?(seed = 42) n = Array.to_list (Midrr_par.Par.split_seeds ~seed n)

let run_point point =
  let sched =
    Option.map
      (fun spec () -> Scenario.make_sched ~engine:point.engine spec)
      point.sched
  in
  let report =
    Scenario.run ~seed:point.seed ~engine:point.engine ?sched point.scenario
  in
  let p_sched = Option.map Scenario.sched_name point.sched in
  let sched_suffix =
    match p_sched with Some n -> Printf.sprintf " sched=%s" n | None -> ""
  in
  {
    p_label = point.label;
    p_seed = point.seed;
    p_engine = engine_name point.engine;
    p_sched;
    rendered =
      Format.asprintf "=== %s seed=%d engine=%s%s ===@.%a" point.label
        point.seed (engine_name point.engine) sched_suffix Scenario.pp_report
        report;
  }

let run ?jobs ?sched ~scenarios ~seeds ~engines () =
  Midrr_par.Par.map ?jobs run_point (grid ?sched ~scenarios ~seeds ~engines ())

let render outcomes =
  let buf = Buffer.create 4096 in
  Array.iter (fun o -> Buffer.add_string buf o.rendered) outcomes;
  Buffer.contents buf
