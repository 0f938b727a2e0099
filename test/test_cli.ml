(* Command-line validation: every numeric flag that sizes or times a run
   rejects out-of-range values at parse time, with cmdliner's usage-error
   exit code and a message naming the flag, instead of raising deep in
   the run or hanging. *)

let exe = "../bin/midrr_cli.exe"
let scn = "../scenarios/handover.scn"

(* Run the CLI with [args]; return its exit code and stderr.  The
   [timeout] guards the suite against a regression back to a hang. *)
let run args =
  let err = Filename.temp_file "midrr_cli" ".err" in
  let cmd =
    Printf.sprintf "timeout 60 %s %s > /dev/null 2> %s" exe
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let rejected flag args () =
  let code, stderr = run args in
  Alcotest.(check int) "usage-error exit code" 124 code;
  let named = Printf.sprintf "option '%s'" flag in
  if not (contains ~sub:named stderr) then
    Alcotest.failf "stderr does not name %s:\n%s" flag stderr

let accepted args () =
  let code, stderr = run args in
  if not (Int.equal code 0) then
    Alcotest.failf "exit %d for %s:\n%s" code (String.concat " " args) stderr

let bad =
  [
    ("--days", [ "fig7"; "--days=0" ]);
    ("--days", [ "fig7"; "--days=-1" ]);
    ("--days", [ "fig7"; "--days=nan" ]);
    ("--days", [ "fig7"; "--days=inf" ]);
    ("--shards", [ "run"; scn; "--engine=sharded"; "--shards=0" ]);
    ("--shards", [ "run"; scn; "--engine=sharded"; "--shards=-2" ]);
    ("--shards", [ "sweep"; scn; "--engines=sharded"; "--shards=0" ]);
    ("--shards", [ "sweep"; scn; "--engines=sharded"; "--shards=-2" ]);
    ("--metrics-interval", [ "run"; scn; "--metrics-interval=nan" ]);
    ("--metrics-interval", [ "run"; scn; "--metrics-interval=0" ]);
    ("--nseeds", [ "sweep"; scn; "--nseeds=-1" ]);
    ("--jobs", [ "sweep"; scn; "--jobs=0" ]);
  ]

let good =
  [
    [ "fig7"; "--days=0.5" ];
    [ "run"; scn; "--engine=sharded"; "--shards=2"; "--metrics-interval=5" ];
    [ "sweep"; scn; "--engines=sharded"; "--shards=2"; "--nseeds=1"; "--jobs=1" ];
  ]

let name args = String.concat " " (List.map Filename.basename args)

let () =
  Alcotest.run "cli"
    [
      ( "rejected",
        List.map
          (fun (flag, args) ->
            Alcotest.test_case (name args) `Quick (rejected flag args))
          bad );
      ( "accepted",
        List.map
          (fun args -> Alcotest.test_case (name args) `Quick (accepted args))
          good );
    ]
