(* The midrr benchmark: three closed-loop workloads driven through the
   public entry points of Scenario, Bridge and Shard_engine.

     main.exe --workload sim-telemetry|bridge-fig9|fleet-churn --seed N
              --seconds S --trace 0|1 [--commit C] [--nproc N] [--spans FILE]

   With --trace 0 it measures the end-to-end metrics with no tracing;
   with --trace 1 it interleaves untraced repetitions with repetitions in
   which every call into a layer is wrapped in a span (see [Tr]), and
   reports the per-layer metrics plus the tracing overhead.  The last
   stdout line is the result object; the line before it carries the
   environment and the exact counts of one repetition.  See README.md. *)

open Midrr_core
module Rng = Midrr_stats.Rng
module Scenario = Midrr_sim.Scenario
module Busmetrics = Midrr_obs.Busmetrics
module Bridge = Midrr_bridge.Bridge
module Vif = Midrr_bridge.Vif
module Maxmin = Midrr_flownet.Maxmin
module Instance = Midrr_flownet.Instance
module Fleet = Midrr_trace.Fleet
module Par = Midrr_par.Par
module S = Tr.Samples

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | I of int
  | F of float
  | Str of string
  | B of bool
  | O of (string * json) list
  | L of json list

let rec json_to buf = function
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Str s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | B b -> Buffer.add_string buf (string_of_bool b)
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:" k);
          json_to buf v)
        kvs;
      Buffer.add_char buf '}'
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          json_to buf v)
        xs;
      Buffer.add_char buf ']'

let json_string j =
  let buf = Buffer.create 1024 in
  json_to buf j;
  Buffer.contents buf

(* --- measurement helpers ------------------------------------------------- *)

let now = Tr.now_ns
let secs ns = Float.of_int ns /. 1e9

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* All domains' minor words (joined domains included), unlike
   [Gc.minor_words], which counts the calling domain only. *)
let minor_words_all () = (Gc.quick_stat ()).minor_words
let major_gcs () = (Gc.quick_stat ()).major_collections

(* [top_heap_words] is not monotone once domains have come and gone (a
   reading after a multi-domain [run_ops] can exceed a later one), so the
   peak is the highest reading taken after set-up and after every
   repetition. *)
let peak_words = ref 0
let note_peak () = peak_words := max !peak_words (Gc.quick_stat ()).top_heap_words

let peak_heap_mb () =
  note_peak ();
  Float.of_int (!peak_words * (Sys.word_size / 8)) /. 1048576.0

(* The best of the repetitions' figures: the highest when higher is
   better, else the lowest.  Other load on a shared machine only ever
   slows a repetition down, and slows it by up to 2x in bursts, so the
   best of many short repetitions is the figure that repeats from run to
   run; a change in the code moves it like any other repetition. *)
let best ~higher = function
  | [] -> 0.0
  | x :: xs -> List.fold_left (if higher then Float.max else Float.min) x xs

(* Set-up: input generation plus instantiation.  Workloads set up again
   before every untraced repetition (fleet-churn, whose set-up is longer,
   five times before the first), so the median of [setup_times] spans the
   whole run rather than one moment of it.  A full major collection before
   each keeps the previous set-up's garbage out of this one's time. *)
let setup_times = ref []

let setup f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  setup_times := secs (now () - t0) :: !setup_times;
  note_peak ();
  r

(* Every repetition starts from a collected heap, so none pays for the
   garbage of the one before and the peak heap does not depend on where
   the collector's cycle happened to stand. *)
let start_rep () = Gc.full_major ()

(* Repeat [f] until [deadline] has passed, at least [min_reps] times. *)
let repeat_until ~deadline ~min_reps f =
  let k = ref 0 in
  while !k < min_reps || now () < deadline do
    f !k;
    note_peak ();
    incr k
  done

(* One measured repetition, untraced.  Latency-only repetitions (the
   inline fleet replay) leave [pps] and [words_pp] unused. *)
type rep = {
  pps : float;
  p50 : float;
  p99 : float;
  samples : int;
  words_pp : float;
}

let rep_of ~packets ~elapsed_ns ~words lat =
  let p50, p99 =
    match S.quantiles lat [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  {
    pps = Float.of_int packets /. secs elapsed_ns;
    p50;
    p99;
    samples = S.length lat;
    words_pp = words /. Float.of_int (max 1 packets);
  }

(* --- result --------------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
  detail : (string * json) list;
}

let e2e_metrics ?(lat_reps = []) ~reps () =
  let lat_reps = if lat_reps = [] then reps else lat_reps in
  let pick ~higher f rs = best ~higher (List.map f rs) in
  [
    ("pkts_per_s", "1/s", pick ~higher:true (fun r -> r.pps) reps);
    ("transmit_ns_p50", "ns", pick ~higher:false (fun r -> r.p50) lat_reps);
    ("transmit_ns_p99", "ns", pick ~higher:false (fun r -> r.p99) lat_reps);
    ("minor_words_per_pkt", "words", pick ~higher:false (fun r -> r.words_pp) reps);
    ("peak_heap_mb", "MB", peak_heap_mb ());
    ("setup_s", "s", median !setup_times);
  ]

(* Every repetition's figures, next to the best one the result reports. *)
let rep_detail ?(lat_reps = []) reps =
  let lat_reps = if lat_reps = [] then reps else lat_reps in
  [
    ("reps", I (List.length reps));
    ("transmit_reps", I (List.length lat_reps));
    ( "transmit_samples_per_rep",
      I (match lat_reps with r :: _ -> r.samples | [] -> 0) );
    ("rep_pkts_per_s", L (List.map (fun r -> F (Float.round r.pps)) reps));
    ("rep_transmit_ns_p50", L (List.map (fun r -> F r.p50) lat_reps));
    ("rep_transmit_ns_p99", L (List.map (fun r -> F r.p99) lat_reps));
    ("setup_ms", L (List.rev_map (fun t -> F (t *. 1e3)) !setup_times));
  ]

(* The per-layer metrics, in output order, with their units.  A workload
   fills what it measures; a layer it bypasses reads 0. *)
let layer_units =
  [
    ("core.next_packet_ns_p50", "ns");
    ("core.enqueue_ns_p50", "ns");
    ("core.words_per_decision", "words");
    ("core.considered_per_decision", "count");
    ("core.useful_decision_ratio", "ratio");
    ("core.add_flow_ns_p50", "ns");
    ("core.remove_flow_ns_p50", "ns");
    ("core.set_weight_ns_p50", "ns");
    ("core.serve_ns_per_decision", "ns");
    ("core.self_ns_per_pkt", "ns");
    ("bridge.transmit_self_ns_p50", "ns");
    ("bridge.words_per_frame", "words");
    ("bridge.self_ns_per_pkt", "ns");
    ("obs.sink_ns_per_event", "ns");
    ("obs.events_per_pkt", "count");
    ("obs.words_per_event", "words");
    ("obs.self_ns_per_pkt", "ns");
    ("sim.self_ns_per_pkt", "ns");
    ("sim.maxmin_dev_pct", "%");
    ("flownet.solve_us", "us");
    ("shard.single_s", "s");
    ("shard.inline_s", "s");
    ("shard.route_ratio", "ratio");
    ("shard.pipeline_ratio", "ratio");
    ("shard.record_merge_s", "s");
    ("trace.fleet_gen_s", "s");
    ("runtime.major_gcs", "count");
    ("bench.tracing_overhead", "ratio");
  ]

let layer_metrics values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value (List.assoc_opt name values) ~default:0.0))
    layer_units

let per f n = if n = 0 then 0.0 else f /. Float.of_int n

(* Best untraced throughput over best traced throughput. *)
let tracing_overhead plain traced =
  best ~higher:true (List.map (fun r -> r.pps) plain)
  /. best ~higher:true (List.map (fun r -> r.pps) traced)

let p50_of op = S.quantile Tr.self_samples.(op) 0.5

(* Per-layer values every workload derives the same way from the spans
   recorded in its traced repetitions. *)
let common_layers ~packets ~decisions =
  let layer_self l = Float.of_int (Tr.layer_self_ns l) in
  [
    ("core.next_packet_ns_p50", p50_of Tr.op_next_packet);
    ("core.enqueue_ns_p50", p50_of Tr.op_enqueue);
    ( "core.words_per_decision",
      per Tr.self_words.(Tr.op_next_packet) Tr.calls.(Tr.op_next_packet) );
    ("core.useful_decision_ratio", per (Float.of_int packets) decisions);
    ("core.add_flow_ns_p50", p50_of Tr.op_add_flow);
    ("core.remove_flow_ns_p50", p50_of Tr.op_remove_flow);
    ("core.set_weight_ns_p50", p50_of Tr.op_set_weight);
    ("core.self_ns_per_pkt", per (layer_self 0) packets);
    ("bridge.self_ns_per_pkt", per (layer_self 1) packets);
    ( "obs.sink_ns_per_event",
      per (Float.of_int Tr.total_ns.(Tr.op_sink)) Tr.calls.(Tr.op_sink) );
    ("obs.events_per_pkt", per (Float.of_int Tr.calls.(Tr.op_sink)) packets);
    ( "obs.words_per_event",
      per Tr.self_words.(Tr.op_sink) Tr.calls.(Tr.op_sink) );
    ("obs.self_ns_per_pkt", per (layer_self 2) packets);
  ]

(* --- sim-telemetry ------------------------------------------------------- *)

(* Fig. 6 (three flows over two interfaces) with rates x4 (about 0.55 M
   packets a repetition, so a run holds dozens) and the seed drawing rates
   and weights around the paper's values.  Six phases, separated by a
   link-rate step (t=20), an [at] weight change (t=40), the finite flow a
   finishing (t=55), an [at] allow change (t=70) and the finite flow b
   finishing (t=85).  Finite sizes come from the fluid water-filling plan,
   so the completions land on those times; each phase gets a measure
   window with 3 s margins. *)

let sim_rate_scale = 4.0
let sim_bounds = [| 0.0; 20.0; 40.0; 55.0; 70.0; 85.0; 100.0 |]
let sim_targets = [ ("a", 55.0); ("b", 85.0) ]

type sim_plan = {
  text : string;
  refs : (string list * Instance.t * float array) array;
      (** per window: alive flows, their instance, water-filling bits/s *)
}

let sim_plan seed =
  let rng = Rng.create ~seed in
  let u lo hi = Rng.uniform rng ~lo ~hi in
  let rate base lo hi = Float.round (base *. 1e6 *. sim_rate_scale *. u lo hi) in
  let weight base lo hi =
    Float.of_string (Printf.sprintf "%.3f" (base *. u lo hi))
  in
  (* The ranges keep flow a alone on interface 1 until it finishes
     (b and c's share of interface 2 stays above interface 1's rate), the
     regime in which Theorem 3's allocation is the water-filling one. *)
  let c1 = rate 3.0 0.8 0.95 and c2 = rate 10.0 1.05 1.2 in
  let c2_step = Float.round (c2 *. u 1.2 1.4) in
  let wa = 1.0 and wb = weight 2.0 0.9 1.1 and wc = weight 1.0 0.9 1.1 in
  let wc2 = weight wc 0.5 0.8 in
  let phase k =
    let caps = [| c1; (if k >= 1 then c2_step else c2) |] in
    let c_allowed = if k >= 4 then [| true; true |] else [| false; true |] in
    let flows =
      (if k < 3 then [ ("a", wa, [| true; false |]) ] else [])
      @ (if k < 5 then [ ("b", wb, [| true; true |]) ] else [])
      @ [ ("c", (if k >= 2 then wc2 else wc), c_allowed) ]
    in
    let inst =
      Instance.make
        ~weights:(Array.of_list (List.map (fun (_, w, _) -> w) flows))
        ~capacities:caps
        ~allowed:(Array.of_list (List.map (fun (_, _, a) -> a) flows))
    in
    (List.map (fun (n, _, _) -> n) flows, inst, (Maxmin.solve inst).rates)
  in
  let phases = Array.init (Array.length sim_bounds - 1) phase in
  let bytes_of name =
    let acc = ref 0.0 in
    Array.iteri
      (fun k (names, _, rates) ->
        List.iteri
          (fun i n ->
            if n = name then
              acc :=
                !acc
                +. (rates.(i) *. (sim_bounds.(k + 1) -. sim_bounds.(k)) /. 8.0))
          names)
      phases;
    Float.to_int !acc
  in
  let windows =
    Array.init (Array.length phases) (fun k ->
        (sim_bounds.(k) +. 3.0, sim_bounds.(k + 1) -. 3.0))
  in
  let buf = Buffer.create 512 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "scheduler midrr";
  line "iface 1 constant %.0f" c1;
  line "iface 2 steps %.0f %.0f:%.0f" c2 sim_bounds.(1) c2_step;
  line "flow a weight=%g ifaces=1 finite bytes=%d pkt=1500" wa (bytes_of "a");
  line "flow b weight=%g ifaces=1,2 finite bytes=%d pkt=1500" wb (bytes_of "b");
  line "flow c weight=%g ifaces=2 backlogged pkt=1500" wc;
  line "at %g weight c %g" sim_bounds.(2) wc2;
  line "at %g allow c 1" sim_bounds.(4);
  Array.iter (fun (t0, t1) -> line "measure %g %g" t0 t1) windows;
  line "run %g" sim_bounds.(Array.length sim_bounds - 1);
  { text = Buffer.contents buf; refs = phases }

type sim_rep = {
  s_rep : rep;
  s_packets : int;
  s_decisions : int;
  s_considered : int;
  s_gcs : int;
  s_dev_pct : float;
  s_worst : string;  (** where the worst deviation was *)
  s_failed : int;
  s_checks : int;
  s_errors : string list;
}

(* Check a report against the plan: every window's reference equals the
   plan's water-filling rates, both finite flows complete within 1 s of
   their planned time, and the worst deviation of a measured rate from its
   reference stays under 1%.  Returns (checks, failures, errors, dev%). *)
let check_sim_report plan (report : Scenario.report) =
  let checks = ref 0 and failures = ref [] in
  let check ok msg =
    incr checks;
    if not ok then failures := msg :: !failures
  in
  let dev = ref 0.0 and worst = ref "" in
  List.iteri
    (fun k (w : Scenario.window_report) ->
      let names, _, rates = plan.refs.(k) in
      check
        (List.length w.reference = List.length names)
        (Printf.sprintf "window %d: %d reference flows, plan has %d" k
           (List.length w.reference) (List.length names));
      List.iter
        (fun (name, r) ->
          (match List.find_index (String.equal name) names with
          | Some i ->
              let want = Types.to_mbps rates.(i) in
              check
                (Float.abs (r -. want) <= 1e-6 *. want)
                (Printf.sprintf "window %d flow %s: reference %.6f, plan %.6f" k
                   name r want)
          | None -> check false (Printf.sprintf "window %d: unplanned flow %s" k name));
          match List.assoc_opt name w.rates with
          | Some m when r > 0.0 ->
              let d = 100.0 *. Float.abs (m -. r) /. r in
              if d > !dev then worst := Printf.sprintf "window %d flow %s" k name;
              dev := Float.max !dev d
          | _ -> check false (Printf.sprintf "window %d: no rate for %s" k name))
        w.reference)
    report.windows;
  List.iter
    (fun (name, target) ->
      match List.assoc_opt name report.completions with
      | Some t ->
          check
            (Float.abs (t -. target) <= 1.0)
            (Printf.sprintf "flow %s completed at %.3f, planned %.1f" name t target)
      | None -> check false (Printf.sprintf "flow %s never completed" name))
    sim_targets;
  check (!dev <= 1.0) (Printf.sprintf "max-min deviation %.4f%% > 1%%" !dev);
  (!checks, List.length !failures, List.rev !failures, !dev, !worst)

let sim_rep ~seed ~traced ~lat plan =
  let e = Midrr.create () in
  let probe = Probe.create ~traced ~timed:(not traced) ~lat e in
  let bm = Busmetrics.create () in
  let sched () = Probe.packed probe in
  start_rep ();
  let w0 = minor_words_all () and g0 = major_gcs () in
  let t0 = now () in
  let result =
    if traced then begin
      let sink ~time ev =
        Tr.enter ();
        Busmetrics.on_event bm ~time ev;
        Tr.leave Tr.op_sink
      in
      let publish ~time:_ =
        Tr.enter ();
        Busmetrics.publish bm;
        Tr.leave Tr.op_publish
      in
      Tr.enter ();
      let r = Scenario.run_text ~sink ~ticks:(1.0, publish) ~seed ~sched plan.text in
      Tr.leave Tr.op_run;
      r
    end
    else
      Scenario.run_text ~metrics:bm
        ~ticks:(1.0, fun ~time:_ -> Busmetrics.publish bm)
        ~seed ~sched plan.text
  in
  let t1 = now () in
  let words = minor_words_all () -. w0 in
  let gcs = major_gcs () - g0 in
  let checks, failed, errors, dev, worst =
    match result with
    | Ok report -> check_sim_report plan report
    | Error msg -> (1, 1, [ "scenario rejected: " ^ msg ], 0.0, "")
  in
  {
    s_rep = rep_of ~packets:probe.packets ~elapsed_ns:(t1 - t0) ~words probe.lat;
    s_packets = probe.packets;
    s_decisions = probe.decisions;
    s_considered = Drr_engine.considered e;
    s_gcs = gcs;
    s_dev_pct = dev;
    s_worst = worst;
    s_failed = failed + probe.violations;
    s_checks = checks + probe.packets;
    s_errors =
      (if probe.violations > 0 then
         Printf.sprintf "%d packets served on a disallowed interface"
           probe.violations
         :: errors
       else errors);
  }

let sim_counts r =
  O
    [
      ("packets", I r.s_packets);
      ("decisions", I r.s_decisions);
      ("considered", I r.s_considered);
      ("maxmin_dev_pct", F r.s_dev_pct);
      ("maxmin_worst", Str r.s_worst);
    ]

(* Shared shape of the sim and bridge runs: set up, warm up with one
   repetition, then either measure untraced repetitions until the
   deadline, or alternate untraced and traced ones. *)
let interleave ~seconds ~trace ~warmup ~untraced ~traced =
  warmup ();
  let deadline = now () + Float.to_int (seconds *. 1e9) in
  let plain = ref [] and spanned = ref [] in
  if not trace then
    repeat_until ~deadline ~min_reps:1 (fun _ -> plain := untraced () :: !plain)
  else begin
    Tr.reset ();
    repeat_until ~deadline ~min_reps:2 (fun k ->
        if k mod 2 = 0 then plain := untraced () :: !plain
        else spanned := traced () :: !spanned)
  end;
  (List.rev !plain, List.rev !spanned)

let run_sim ~seed ~seconds ~trace =
  let sim_setup () =
    setup (fun () ->
        let plan = sim_plan seed in
        (match Scenario.parse plan.text with
        | Ok _ -> ()
        | Error msg -> failwith ("generated scenario rejected: " ^ msg));
        plan)
  in
  let plan = sim_setup () in
  (* room for a repetition's packets at the top of the seed's rate ranges *)
  let lat = S.create ~capacity:(1 lsl 20) () in
  let plain, spanned =
    interleave ~seconds ~trace
      ~warmup:(fun () -> ignore (sim_rep ~seed ~traced:false ~lat plan))
      ~untraced:(fun () -> sim_rep ~seed ~traced:false ~lat (sim_setup ()))
      ~traced:(fun () ->
        let r = sim_rep ~seed ~traced:true ~lat plan in
        (* the cost a live fairness fold would pay per recompute *)
        Array.iter
          (fun (_, inst, _) ->
            Tr.enter ();
            ignore (Maxmin.solve inst);
            Tr.leave Tr.op_solve)
          plan.refs;
        r)
  in
  let all = plain @ spanned in
  let first = List.hd plain in
  let errors = List.concat_map (fun r -> r.s_errors) all in
  let nondeterministic =
    List.exists
      (fun r ->
        r.s_packets <> first.s_packets
        || r.s_decisions <> first.s_decisions
        || r.s_considered <> first.s_considered)
      all
  in
  let detail =
    [
      ("scenario_packets", I first.s_packets);
      ("counts", sim_counts first);
      ( "traced_counts",
        match spanned with r :: _ -> sim_counts r | [] -> O [] );
      ("errors", O (List.mapi (fun i e -> (string_of_int i, Str e)) errors));
    ]
    @ rep_detail (List.map (fun r -> r.s_rep) plain)
  in
  let attempted = List.fold_left (fun a r -> a + r.s_checks) 0 all in
  let failed =
    List.fold_left (fun a r -> a + r.s_failed) 0 all
    + if nondeterministic then 1 else 0
  in
  let metrics =
    if not trace then
      e2e_metrics ~reps:(List.map (fun r -> r.s_rep) plain) ()
    else begin
      let packets = List.fold_left (fun a r -> a + r.s_packets) 0 spanned in
      let decisions = List.fold_left (fun a r -> a + r.s_decisions) 0 spanned in
      let t = List.hd spanned in
      layer_metrics
        (common_layers ~packets ~decisions
        @ [
            ( "core.considered_per_decision",
              per (Float.of_int t.s_considered) t.s_decisions );
            ( "core.serve_ns_per_decision",
              per (Float.of_int Tr.total_ns.(Tr.op_next_packet)) decisions );
            ( "sim.self_ns_per_pkt",
              per (Float.of_int Tr.self_ns.(Tr.op_run)) packets );
            ("sim.maxmin_dev_pct", t.s_dev_pct);
            ("flownet.solve_us", p50_of Tr.op_solve /. 1e3);
            ("runtime.major_gcs", Float.of_int first.s_gcs);
            ( "bench.tracing_overhead",
              tracing_overhead (List.map (fun r -> r.s_rep) plain)
                (List.map (fun r -> r.s_rep) spanned) );
          ])
    end
  in
  { attempted; failed; metrics; detail }

(* --- bridge-fig9 --------------------------------------------------------- *)

(* Fig. 9's largest point: 16 ports, 32 flows willing to use every port,
   1,000 packets queued, no sink.  Each repetition builds a fresh bridge,
   then makes [bridge_rep_len] transmits round-robin over the ports, each
   followed by one send that keeps 1,000 packets queued.  The seed draws
   the flow and size of every packet sent. *)

let n_ports = 16
let n_bflows = 32
let queue_depth = 1000
let bridge_rep_len = 50_000

let port_local j =
  Vif.addr ~mac:(Int64.of_int (0x02_00_00_01_00_00 + j)) ~ip:(Int32.of_int (0x0A01_0001 + j))

let port_gateway j =
  Vif.addr ~mac:(Int64.of_int (0x06_00_00_01_00_00 + j)) ~ip:(Int32.of_int (0x0A01_FF01 + j))

type bridge_inputs = { flows : int array; sizes : int array }

let bridge_inputs seed =
  let rng = Rng.create ~seed in
  let n = queue_depth + bridge_rep_len in
  let flows = Array.init n (fun _ -> Rng.int rng ~bound:n_bflows) in
  let sizes = Array.init n (fun _ -> Rng.int_range rng ~lo:64 ~hi:1500) in
  { flows; sizes }

let all_ports = List.init n_ports Fun.id
let locals = Array.init n_ports port_local
let gateways = Array.init n_ports port_gateway

let send_span ~traced b inputs k =
  let p = Packet.create ~flow:inputs.flows.(k) ~size:inputs.sizes.(k) ~arrival:0.0 in
  if traced then begin
    Tr.enter ();
    let ok = Bridge.send b p in
    Tr.leave Tr.op_send;
    ok
  end
  else Bridge.send b p

let build_bridge ~traced sched inputs =
  let b = Bridge.create ~sched () in
  Array.iteri
    (fun j local -> Bridge.add_port b j ~local ~gateway:gateways.(j))
    locals;
  for flow = 0 to n_bflows - 1 do
    if traced then Tr.enter ();
    Bridge.register_flow b ~flow ~weight:1.0 ~allowed:all_ports ();
    if traced then Tr.leave Tr.op_register
  done;
  let refused = ref 0 in
  for k = 0 to queue_depth - 1 do
    if not (send_span ~traced b inputs k) then incr refused
  done;
  (b, !refused)

let addr_equal (a : Vif.addr) (b : Vif.addr) =
  Int64.equal a.mac b.mac && Int32.equal a.ip b.ip

type bridge_rep = {
  b_rep : rep;
  b_packets : int;
  b_considered : int;
  b_gcs : int;
  b_failed : int;
}

(* Every frame must leave with its port's local and gateway addresses
   and carry a flow registered as willing to use that port (here: any of
   the [n_bflows] flows, which allow every port). *)
let frame_ok (fr : Vif.frame) j =
  addr_equal fr.src locals.(j)
  && addr_equal fr.dst gateways.(j)
  && fr.payload.Packet.flow >= 0
  && fr.payload.Packet.flow < n_bflows

let bridge_rep ~traced ~lat seed =
  let make () =
    let inputs = bridge_inputs seed in
    let e = Midrr.create () in
    let probe = Probe.create ~traced e in
    let sched = if traced then Probe.packed probe else Midrr.packed e in
    let b, refused = build_bridge ~traced sched inputs in
    (inputs, e, probe, b, refused)
  in
  let inputs, e, probe, b, refused = if traced then make () else setup make in
  S.clear lat;
  let failed = ref refused and packets = ref 0 in
  start_rep ();
  let w0 = minor_words_all () and g0 = major_gcs () in
  let t0 = now () in
  for i = 0 to bridge_rep_len - 1 do
    let j = i land (n_ports - 1) in
    let r =
      if traced then begin
        Tr.enter ();
        let r = Bridge.transmit b j in
        Tr.leave Tr.op_transmit;
        r
      end
      else begin
        let t0 = now () in
        let r = Bridge.transmit b j in
        S.push lat (now () - t0);
        r
      end
    in
    match r with
    | None -> incr failed
    | Some fr ->
        incr packets;
        if not (frame_ok fr j) then incr failed;
        if not (send_span ~traced b inputs (queue_depth + i)) then incr failed
  done;
  let t1 = now () in
  let words = minor_words_all () -. w0 in
  {
    b_rep = rep_of ~packets:!packets ~elapsed_ns:(t1 - t0) ~words lat;
    b_packets = !packets;
    b_considered = Drr_engine.considered e;
    b_gcs = major_gcs () - g0;
    b_failed = !failed + probe.violations;
  }

let bridge_counts r =
  O
    [
      ("packets", I r.b_packets);
      ("decisions", I bridge_rep_len);
      ("considered", I r.b_considered);
    ]

let run_bridge ~seed ~seconds ~trace =
  let lat = S.create ~capacity:bridge_rep_len () in
  let plain, spanned =
    interleave ~seconds ~trace
      ~warmup:(fun () -> ignore (bridge_rep ~traced:false ~lat seed))
      ~untraced:(fun () -> bridge_rep ~traced:false ~lat seed)
      ~traced:(fun () -> bridge_rep ~traced:true ~lat seed)
  in
  let all = plain @ spanned in
  let first = List.hd plain in
  let nondeterministic =
    List.exists
      (fun r -> r.b_packets <> first.b_packets || r.b_considered <> first.b_considered)
      all
  in
  let attempted = List.length all * bridge_rep_len in
  let failed =
    List.fold_left (fun a r -> a + r.b_failed) 0 all
    + if nondeterministic then 1 else 0
  in
  let detail =
    [
      ("counts", bridge_counts first);
      ("traced_counts", match spanned with r :: _ -> bridge_counts r | [] -> O []);
    ]
    @ rep_detail (List.map (fun r -> r.b_rep) plain)
  in
  let metrics =
    if not trace then
      e2e_metrics ~reps:(List.map (fun r -> r.b_rep) plain) ()
    else begin
      let packets = List.fold_left (fun a r -> a + r.b_packets) 0 spanned in
      let decisions = List.length spanned * bridge_rep_len in
      let t = List.hd spanned in
      layer_metrics
        (common_layers ~packets ~decisions
        @ [
            ( "core.considered_per_decision",
              per (Float.of_int t.b_considered) bridge_rep_len );
            ( "core.serve_ns_per_decision",
              per (Float.of_int Tr.total_ns.(Tr.op_next_packet)) decisions );
            ("bridge.transmit_self_ns_p50", p50_of Tr.op_transmit);
            ( "bridge.words_per_frame",
              per Tr.self_words.(Tr.op_transmit) packets );
            ("runtime.major_gcs", Float.of_int first.b_gcs);
            ( "bench.tracing_overhead",
              tracing_overhead (List.map (fun r -> r.b_rep) plain)
                (List.map (fun r -> r.b_rep) spanned) );
          ])
    end
  in
  { attempted; failed; metrics; detail }

(* --- fleet-churn --------------------------------------------------------- *)

(* [Fleet.ops] at a reduced [million_params] scale, replayed through
   [Shard_engine.run_ops] with nproc - 1 shards (at least 1): the router
   plus the workers use at most nproc domains.  Untraced, repetitions
   alternate between the pipeline (throughput) and an inline replay that
   drives every serve sweep one [Shard_engine.next_packet] at a time
   (transmit latency).  Traced, the run times the shard pipeline stage
   by stage and replays the ops one call at a time against a single
   Drr_engine with a span per call. *)

let same_stats (a : Shard_engine.run_stats) (b : Shard_engine.run_stats) =
  a.rs_decisions = b.rs_decisions
  && a.rs_sent = b.rs_sent
  && a.rs_sent_bytes = b.rs_sent_bytes
  && a.rs_enqueued = b.rs_enqueued
  && a.rs_dropped = b.rs_dropped

let stats_json (s : Shard_engine.run_stats) =
  O
    [
      ("packets", I s.rs_sent);
      ("decisions", I s.rs_decisions);
      ("sent_bytes", I s.rs_sent_bytes);
      ("enqueued", I s.rs_enqueued);
      ("dropped", I s.rs_dropped);
    ]

let new_sharded shards = Shard_engine.create ~shards ~strict:true Drr_engine.Service_flags

(* Drive the ops inline, expanding each serve sweep into single
   [next_packet] calls (the same stop-at-first-None rule as [Op_serve])
   and timing each call that returns a packet. *)
let inline_transmits shards ops lat =
  let t = new_sharded shards in
  start_rep ();
  let sent = ref 0 and decisions = ref 0 in
  Array.iter
    (fun (op : Shard_engine.op) ->
      match op with
      | Op_serve { iface; budget } ->
          let k = ref 0 in
          while !k < budget do
            incr decisions;
            let t0 = now () in
            let r = Shard_engine.next_packet t iface in
            let t1 = now () in
            match r with
            | Some _ ->
                S.push lat (t1 - t0);
                incr sent;
                incr k
            | None -> k := budget
          done
      | _ -> Shard_engine.apply t op)
    ops;
  (!sent, !decisions, Shard_engine.considered t)

(* One call at a time against a single Drr_engine, a span per call when
   [traced].  Returns (packets, decisions, elapsed ns). *)
let replay ~traced ops =
  let e = Drr_engine.create Drr_engine.Service_flags in
  let sent = ref 0 and decisions = ref 0 in
  let span f op = if traced then (Tr.enter (); f (); Tr.leave op) else f () in
  start_rep ();
  let t0 = now () in
  Array.iter
    (fun (op : Shard_engine.op) ->
      match op with
      | Op_add_iface j -> span (fun () -> Drr_engine.add_iface e j) Tr.op_core_other
      | Op_remove_iface j ->
          span (fun () -> Drr_engine.remove_iface e j) Tr.op_core_other
      | Op_add_flow { flow; weight; allowed } ->
          span (fun () -> Drr_engine.add_flow e ~flow ~weight ~allowed) Tr.op_add_flow
      | Op_remove_flow f -> span (fun () -> Drr_engine.remove_flow e f) Tr.op_remove_flow
      | Op_set_weight { flow; weight } ->
          span (fun () -> Drr_engine.set_weight e flow weight) Tr.op_set_weight
      | Op_set_allowed { flow; allowed } ->
          span (fun () -> Drr_engine.set_allowed e flow allowed) Tr.op_set_allowed
      | Op_enqueue { flow; size; arrival } ->
          let p = Packet.create ~flow ~size ~arrival in
          span (fun () -> ignore (Drr_engine.enqueue e p)) Tr.op_enqueue
      | Op_serve { iface; budget } ->
          if traced then Tr.enter ();
          let k = ref 0 in
          while !k < budget do
            incr decisions;
            if traced then Tr.enter ();
            let p = Drr_engine.next_packet_noalloc e iface in
            if traced then Tr.leave Tr.op_next_packet;
            if Packet.is_none p then k := budget
            else begin
              incr sent;
              incr k
            end
          done;
          if traced then Tr.leave Tr.op_serve)
    ops;
  (!sent, !decisions, now () - t0, Drr_engine.considered e)

(* 50,000 registered flows: the write-heavy regime at a heap that stays
   well under a gigabyte. *)
let fleet_scale = 0.05

(* 20 modeled seconds (a sixth of [million_params]'s horizon), with a
   teardown/re-register storm every 10: about 0.6M ops and 0.5M packets, so
   a run holds many repetitions. *)
let fleet_horizon = 20.0
let fleet_storm_every = 40

let run_fleet ~seed ~seconds ~trace =
  let params =
    {
      (Fleet.scale Fleet.million_params fleet_scale) with
      Fleet.horizon = fleet_horizon;
      storm_every = fleet_storm_every;
    }
  in
  let shards = max 1 (Par.recommended_jobs () - 1) in
  let ops = ref [||] in
  for _ = 1 to 5 do
    ops := [||];
    ops :=
      setup (fun () ->
          let ops = Fleet.ops ~seed params in
          ignore (Sys.opaque_identity (new_sharded shards));
          ops)
  done;
  let ops = !ops in
  let n_enqueue =
    Array.fold_left
      (fun n (op : Shard_engine.op) ->
        match op with Op_enqueue _ -> n + 1 | _ -> n)
      0 ops
  in
  let failed = ref 0 and attempted = ref 0 and errors = ref [] in
  let fail msg =
    incr failed;
    errors := msg :: !errors
  in
  (* [span], in the traced run, times [run_ops] alone. *)
  let pipeline ?(record = false) ?(span = -1) () =
    let t = new_sharded shards in
    start_rep ();
    let w0 = minor_words_all () and g0 = major_gcs () in
    let t0 = now () in
    if span >= 0 then Tr.enter ();
    let st = Shard_engine.run_ops ~record t ops in
    if span >= 0 then Tr.leave span;
    let t1 = now () in
    attempted := !attempted + Array.length ops;
    if st.rs_enqueued + st.rs_dropped <> n_enqueue then
      fail
        (Printf.sprintf "enqueued %d + dropped %d <> %d Op_enqueue" st.rs_enqueued
           st.rs_dropped n_enqueue);
    (st, t1 - t0, minor_words_all () -. w0, major_gcs () - g0)
  in
  let reference, _, _, _ = pipeline () (* warm-up *) in
  let check_same what st =
    if not (same_stats st reference) then
      fail (what ^ " run_stats differ from the first run_ops")
  in
  let deadline = now () + Float.to_int (seconds *. 1e9) in
  let reps = ref [] and lat_reps = ref [] and gcs = ref 0 in
  let inline_counts = ref (0, 0, 0) in
  let metrics, detail =
    if not trace then begin
      let lat = S.create ~capacity:(1 lsl 20) () and no_samples = S.create () in
      repeat_until ~deadline ~min_reps:2 (fun k ->
          if k mod 2 = 0 then begin
            let st, ns, words, _ = pipeline () in
            check_same "run_ops" st;
            reps := rep_of ~packets:st.rs_sent ~elapsed_ns:ns ~words no_samples :: !reps
          end
          else begin
            S.clear lat;
            let ((sent, _, _) as c) = inline_transmits shards ops lat in
            attempted := !attempted + Array.length ops;
            inline_counts := c;
            if sent <> reference.rs_sent then
              fail
                (Printf.sprintf "inline next_packet sent %d, run_ops %d" sent
                   reference.rs_sent);
            lat_reps := rep_of ~packets:sent ~elapsed_ns:1 ~words:0.0 lat :: !lat_reps
          end);
      ( e2e_metrics ~reps:!reps ~lat_reps:!lat_reps (),
        rep_detail ~lat_reps:!lat_reps !reps )
    end
    else begin
      Tr.reset ();
      start_rep ();
      Tr.enter ();
      ignore (Sys.opaque_identity (Fleet.ops ~seed params));
      Tr.leave Tr.op_fleet_gen;
      let e = Drr_engine.create Drr_engine.Service_flags in
      start_rep ();
      Tr.enter ();
      let single = Shard_engine.run_ops_single e ops in
      Tr.leave Tr.op_run_ops_single;
      attempted := !attempted + Array.length ops;
      check_same "run_ops_single" single;
      let t = new_sharded shards in
      start_rep ();
      Tr.enter ();
      Array.iter (Shard_engine.apply t) ops;
      Tr.leave Tr.op_apply_inline;
      attempted := !attempted + Array.length ops;
      let st, _, _, g = pipeline ~span:Tr.op_run_ops () in
      check_same "run_ops" st;
      gcs := g;
      let st_rec, _, _, _ = pipeline ~record:true ~span:Tr.op_run_ops_record () in
      check_same "run_ops ~record:true" st_rec;
      let replays = ref [] and counts = ref (0, 0, 0) in
      let serve_ns0 = Tr.total_ns.(Tr.op_serve) in
      repeat_until ~deadline ~min_reps:2 (fun k ->
          let traced = k mod 2 = 1 in
          let sent, decisions, ns, considered = replay ~traced ops in
          attempted := !attempted + Array.length ops;
          if sent <> reference.rs_sent || decisions <> reference.rs_decisions then
            fail
              (Printf.sprintf "replay made %d decisions / %d packets, run_ops %d / %d"
                 decisions sent reference.rs_decisions reference.rs_sent);
          if traced then counts := (sent, decisions, considered);
          replays := (traced, Float.of_int sent /. secs ns) :: !replays);
      let sent, decisions, considered = !counts in
      let n_traced = List.length (List.filter fst !replays) in
      let pps_of flag =
        best ~higher:true
          (List.filter_map (fun (t, p) -> if t = flag then Some p else None) !replays)
      in
      let s op = secs Tr.total_ns.(op) in
      let single_s = s Tr.op_run_ops_single in
      inline_counts := (sent, decisions, considered);
      ( layer_metrics
          (common_layers ~packets:(sent * n_traced) ~decisions:(decisions * n_traced)
          @ [
              ("core.considered_per_decision", per (Float.of_int considered) decisions);
              ( "core.serve_ns_per_decision",
                per (Float.of_int (Tr.total_ns.(Tr.op_serve) - serve_ns0)) (decisions * n_traced) );
              ("shard.single_s", single_s);
              ("shard.inline_s", s Tr.op_apply_inline);
              ("shard.route_ratio", s Tr.op_apply_inline /. single_s);
              ("shard.pipeline_ratio", s Tr.op_run_ops /. single_s);
              ("shard.record_merge_s", s Tr.op_run_ops_record -. s Tr.op_run_ops);
              ("trace.fleet_gen_s", s Tr.op_fleet_gen);
              ("runtime.major_gcs", Float.of_int !gcs);
              ("bench.tracing_overhead", pps_of false /. pps_of true);
            ]),
        [ ("replays", I (List.length !replays)) ] )
    end
  in
  let sent, decisions, considered = !inline_counts in
  let detail =
    [
      ("ops", I (Array.length ops));
      ("registered_flows", I (Fleet.registered_flows params));
      ("counts", stats_json reference);
      ( "one_call_counts",
        O [ ("packets", I sent); ("decisions", I decisions); ("considered", I considered) ] );
      ("errors", O (List.mapi (fun i e -> (string_of_int i, Str e)) (List.rev !errors)));
    ]
    @ detail
  in
  { attempted = !attempted; failed = !failed; metrics; detail }

(* --- command line -------------------------------------------------------- *)

let usage =
  "main.exe --workload sim-telemetry|bridge-fig9|fleet-churn --seed N \
   --seconds S --trace 0|1 [--commit C] [--nproc N] [--spans FILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) in
  let commit = ref "unknown" and nproc = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer");
      ("--commit", Arg.Set_string commit, "C commit recorded in the result");
      ("--nproc", Arg.Set_int nproc, "N processor count recorded in the result");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let o =
    match !workload with
    | "sim-telemetry" -> run_sim ~seed ~seconds ~trace
    | "bridge-fig9" -> run_bridge ~seed ~seconds ~trace
    | "fleet-churn" -> run_fleet ~seed ~seconds ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if trace && !spans <> "" then Tr.write_chrome !spans;
  let env =
    O
      [
        ("commit", Str !commit);
        ("nproc", I !nproc);
        ("recommended_jobs", I (Par.recommended_jobs ()));
        ("shards", I (max 1 (Par.recommended_jobs () - 1)));
        ("fleet_scale", F fleet_scale);
        ("seed", I seed);
        ("seconds", F seconds);
        ("trace", B trace);
        ("ocaml", Str Sys.ocaml_version);
      ]
  in
  print_endline
    (json_string
       (O [ ("workload", Str !workload); ("env", env); ("detail", O o.detail) ]));
  print_endline
    (json_string
       (O
          [
            ("correct", B (o.failed = 0));
            ("attempted", I o.attempted);
            ("failed", I o.failed);
            ( "metrics",
              O
                (List.map
                   (fun (name, unit, v) ->
                     (name, O [ ("value", F v); ("unit", Str unit) ]))
                   o.metrics) );
          ]))
