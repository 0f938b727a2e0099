(* Golden-trace regression for the scheduler-event stream.

   [golden/fig6_trace_prefix.jsonl.gz] is the first 2500 lines of
   `midrr run scenarios/fig6.scn --trace` as emitted when the trace
   format and the reference engine were frozen.  The shipped engines and
   the reference engine (from the test oracle) must all reproduce it
   byte for byte: the trace carries every enqueue, turn, flag reset and
   serve (with its post-serve deficit), so any change to
   scheduling order, deficit arithmetic or the JSONL schema shows up as
   a divergent line.  On mismatch the failure prints the first divergent
   event of each stream, which names the flow/interface and step where
   behavior changed.

   The fixture is gzipped to keep the repository small; it is inflated
   through the system gzip so no compression library is needed. *)

let golden_path = "golden/fig6_trace_prefix.jsonl.gz"
let scenario_path = "../scenarios/fig6.scn"

let read_golden () =
  let ic = Unix.open_process_in (Printf.sprintf "gzip -dc %s" golden_path) in
  let rec go acc =
    match In_channel.input_line ic with
    | Some line -> go (line :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "gzip -dc %s failed" golden_path);
  if lines = [] then Alcotest.failf "empty golden trace %s" golden_path;
  lines

(* Which implementation runs the scenario: a shipped engine, or the
   reference implementation of its discipline from the test oracle. *)
type impl = Engine of Midrr_sim.Scenario.engine | Reference

(* Capture the first [limit] trace lines of a scenario run, formatted
   exactly as `midrr run --trace` writes them. *)
let trace_prefix impl ~limit =
  let text = In_channel.with_open_text scenario_path In_channel.input_all in
  let lines = ref [] and count = ref 0 in
  let sink ~time ev =
    if !count < limit then begin
      lines := Midrr_obs.Jsonl.to_string ~time ev :: !lines;
      incr count
    end
  in
  (match Midrr_sim.Scenario.parse text with
  | Ok scenario -> (
      match impl with
      | Engine engine -> ignore (Midrr_sim.Scenario.run ~sink ~engine scenario)
      | Reference ->
          ignore
            (Midrr_sim.Scenario.run ~sink
               ~sched:(Midrr_oracle.Reference.sched_of scenario)
               scenario))
  | Error e -> Alcotest.failf "scenario error: %s" e);
  List.rev !lines

let check_against_golden name impl () =
  let golden = read_golden () in
  let got = trace_prefix impl ~limit:(List.length golden) in
  let rec compare i = function
    | [], [] -> ()
    | g :: _, [] ->
        Alcotest.failf "%s: trace ends at line %d; golden continues with:\n%s"
          name i g
    | [], l :: _ ->
        Alcotest.failf "%s: trace has extra line %d beyond golden:\n%s" name i
          l
    | g :: gs, l :: ls ->
        if String.equal g l then compare (i + 1) (gs, ls)
        else
          Alcotest.failf
            "%s: first divergent event at line %d\n  golden: %s\n  got:    %s"
            name i g l
  in
  compare 1 (golden, got)

(* The fast and reference engines must also agree with each other over a
   much longer horizon than the committed prefix. *)
let engines_agree () =
  let limit = 50_000 in
  let fast = trace_prefix (Engine Midrr_sim.Scenario.Engine_fast) ~limit in
  let refe = trace_prefix Reference ~limit in
  let rec compare i = function
    | [], [] -> ()
    | g :: _, [] | [], g :: _ ->
        Alcotest.failf "engines: stream lengths differ at line %d (%s)" i g
    | f :: fs, r :: rs ->
        if String.equal f r then compare (i + 1) (fs, rs)
        else
          Alcotest.failf
            "engines: first divergent event at line %d\n  fast: %s\n  ref:  %s"
            i f r
  in
  compare 1 (fast, refe)

let () =
  Alcotest.run "golden"
    [
      ( "fig6 trace",
        [
          Alcotest.test_case "fast engine matches golden" `Quick
            (check_against_golden "fast"
               (Engine Midrr_sim.Scenario.Engine_fast));
          Alcotest.test_case "ref engine matches golden" `Quick
            (check_against_golden "ref" Reference);
          Alcotest.test_case "sharded engine (shards=1) matches golden" `Quick
            (check_against_golden "sharded1"
               (Engine (Midrr_sim.Scenario.Engine_sharded 1)));
          Alcotest.test_case "sharded engine (shards=4) matches golden" `Quick
            (check_against_golden "sharded4"
               (Engine (Midrr_sim.Scenario.Engine_sharded 4)));
          Alcotest.test_case "engines agree beyond the prefix" `Quick
            engines_agree;
        ] );
    ]
