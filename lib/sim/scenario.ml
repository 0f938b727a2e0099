open Midrr_core
module Maxmin = Midrr_flownet.Maxmin

type source_spec =
  | S_backlogged of int
  | S_finite of int * int
  | S_cbr of float * int
  | S_poisson of float * int
  | S_tb of float * float * int

type sched_spec =
  | Sched_midrr of int option
  | Sched_drr
  | Sched_wfq
  | Sched_rr
  | Sched_sprio
  | Sched_srpt
  | Sched_edf
  | Sched_lstf

(* The discipline registry: every name accepted by `scheduler NAME` in a
   scenario file and by `--sched NAME` on the CLI.  "midrr" carries its
   optional counter= knob and so is special-cased where parsed. *)
let sched_names =
  [
    "midrr";
    "drr";
    "wfq";
    "rr";
    "sprio";
    "srpt";
    "edf";
    "lstf";
  ]

let sched_of_name = function
  | "midrr" -> Some (Sched_midrr None)
  | "drr" -> Some Sched_drr
  | "wfq" -> Some Sched_wfq
  | "rr" -> Some Sched_rr
  | "sprio" -> Some Sched_sprio
  | "srpt" -> Some Sched_srpt
  | "edf" -> Some Sched_edf
  | "lstf" -> Some Sched_lstf
  | _ -> None

let sched_name = function
  | Sched_midrr _ -> "midrr"
  | Sched_drr -> "drr"
  | Sched_wfq -> "wfq"
  | Sched_rr -> "rr"
  | Sched_sprio -> "sprio"
  | Sched_srpt -> "srpt"
  | Sched_edf -> "edf"
  | Sched_lstf -> "lstf"

type event =
  | E_weight of string * float
  | E_allow of string * int
  | E_deny of string * int
  | E_stop of string

type flow_spec = {
  fs_name : string;
  fs_weight : float;
  fs_ifaces : int list;
  fs_source : source_spec;
}

type t = {
  sched : sched_spec;
  ifaces : (int * Link.t) list;
  flow_specs : flow_spec list;
  events : (float * event) list;
  measure_windows : (float * float) list;
  horizon : float;
}

type window_report = {
  t0 : float;
  t1 : float;
  rates : (string * float) list;
  reference : (string * float) list;
}

type report = {
  windows : window_report list;
  completions : (string * float) list;
}

(* --- value parsing ------------------------------------------------------- *)

(* Every number a scenario accepts is finite: [float_of_string] takes
   "nan" and "inf", which would poison rates or never let the event loop
   reach the horizon. *)
let finite v = if Float.is_finite v then Some v else None
let finite_float s = Option.bind (float_of_string_opt s) finite

let parse_suffixed ~suffixes s =
  let rec try_suffixes = function
    | [] -> finite_float s
    | (suffix, scale) :: rest ->
        if
          String.length s > String.length suffix
          && String.(
               equal
                 (sub s (length s - length suffix) (length suffix))
                 suffix)
        then
          let body = String.sub s 0 (String.length s - String.length suffix) in
          Option.bind (finite_float body) (fun v -> finite (v *. scale))
        else try_suffixes rest
  in
  try_suffixes suffixes

let parse_rate s =
  parse_suffixed ~suffixes:[ ("kb", 1e3); ("Mb", 1e6); ("Gb", 1e9) ] s

(* Byte counts must also fit an [int]. *)
let parse_bytes s =
  Option.bind
    (parse_suffixed ~suffixes:[ ("kB", 1e3); ("MB", 1e6); ("GB", 1e9) ] s)
    (fun v -> if Float.abs v < 0x1p62 then Some (int_of_float v) else None)

let parse_iface_id s =
  Option.bind (int_of_string_opt s) (fun j -> if j >= 0 then Some j else None)

let field key tokens =
  List.find_map
    (fun tok ->
      let prefix = key ^ "=" in
      if String.length tok > String.length prefix
         && String.sub tok 0 (String.length prefix) = prefix
      then Some (String.sub tok (String.length prefix)
                   (String.length tok - String.length prefix))
      else None)
    tokens

(* --- line parsing ---------------------------------------------------------- *)

type directive =
  | D_sched of sched_spec
  | D_iface of int * Link.t
  | D_flow of flow_spec
  | D_at of float * event
  | D_measure of float * float
  | D_run of float

let err lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt

let parse_iface lineno tokens =
  let profile id make =
    match parse_iface_id id with
    | None -> err lineno "bad interface id %S (want an integer >= 0)" id
    | Some id -> (
        try Ok (D_iface (id, make ()))
        with Invalid_argument m -> err lineno "%s" m)
  in
  match tokens with
  | [ id; "constant"; rate ] -> (
      match parse_rate rate with
      | Some r -> profile id (fun () -> Link.constant r)
      | None -> err lineno "bad iface constant")
  | id :: "steps" :: initial :: changes -> (
      match parse_rate initial with
      | Some r0 ->
          let parsed =
            List.map
              (fun c ->
                match String.split_on_char ':' c with
                | [ at; rate ] -> (
                    match (finite_float at, parse_rate rate) with
                    | Some a, Some r -> Some (a, r)
                    | _ -> None)
                | _ -> None)
              changes
          in
          if List.exists Option.is_none parsed then err lineno "bad step"
          else
            profile id (fun () ->
                Link.steps ~initial:r0 (List.filter_map Fun.id parsed))
      | None -> err lineno "bad iface steps")
  | _ -> err lineno "bad iface directive"

let parse_source lineno tokens =
  let pkt () =
    match Option.bind (field "pkt" tokens) int_of_string_opt with
    | Some n when n > 0 -> Ok n
    | _ -> err lineno "missing or bad pkt="
  in
  if List.mem "backlogged" tokens then
    Result.map (fun p -> S_backlogged p) (pkt ())
  else if List.mem "finite" tokens then
    match Option.bind (field "bytes" tokens) parse_bytes with
    | Some b when b > 0 -> Result.map (fun p -> S_finite (b, p)) (pkt ())
    | _ -> err lineno "missing or bad bytes="
  else if List.mem "cbr" tokens then
    match Option.bind (field "rate" tokens) parse_rate with
    | Some r when r > 0.0 -> Result.map (fun p -> S_cbr (r, p)) (pkt ())
    | _ -> err lineno "missing or bad rate="
  else if List.mem "poisson" tokens then
    match Option.bind (field "rate" tokens) parse_rate with
    | Some r when r > 0.0 -> Result.map (fun p -> S_poisson (r, p)) (pkt ())
    | _ -> err lineno "missing or bad rate="
  else if List.mem "tb" tokens then
    match
      ( Option.bind (field "rate" tokens) parse_rate,
        Option.bind (field "burst" tokens) parse_bytes )
    with
    | Some r, Some b when r > 0.0 && b > 0 ->
        Result.bind (pkt ()) (fun p ->
            (* A burst smaller than one packet would make the source's
               time_until infinite: nothing could ever be sent. *)
            if b < p then err lineno "tb burst= must be >= pkt="
            else Ok (S_tb (r, Float.of_int b, p)))
    | _ -> err lineno "missing or bad rate=/burst="
  else err lineno "unknown source (want backlogged|finite|cbr|poisson|tb)"

let parse_flow lineno tokens =
  match tokens with
  | name :: rest -> (
      let weight =
        match field "weight" rest with
        | None -> Some 1.0
        | Some w -> finite_float w
      in
      let ifaces =
        Option.map
          (fun s -> List.map parse_iface_id (String.split_on_char ',' s))
          (field "ifaces" rest)
      in
      match (weight, ifaces) with
      | Some w, Some ifaces when w > 0.0 -> (
          match List.filter_map Fun.id ifaces with
          | ids when List.length ids < List.length ifaces ->
              err lineno "bad ifaces= entry (want interface ids >= 0)"
          | ids when List.length (List.sort_uniq Int.compare ids) < List.length ids
            ->
              err lineno "ifaces= lists an interface twice"
          | ids ->
              Result.map
                (fun source ->
                  D_flow
                    {
                      fs_name = name;
                      fs_weight = w;
                      fs_ifaces = ids;
                      fs_source = source;
                    })
                (parse_source lineno rest))
      | _ -> err lineno "flow needs weight>0 and ifaces=I[,J...]")
  | [] -> err lineno "flow needs a name"

let parse_at lineno tokens =
  match tokens with
  | time :: rest -> (
      match (finite_float time, rest) with
      | Some at, _ when at < 0.0 -> err lineno "at time must be >= 0"
      | Some at, [ "weight"; name; w ] -> (
          match finite_float w with
          | Some w when w > 0.0 -> Ok (D_at (at, E_weight (name, w)))
          | _ -> err lineno "bad weight value")
      | Some at, [ "allow"; name; iface ] -> (
          match parse_iface_id iface with
          | Some j -> Ok (D_at (at, E_allow (name, j)))
          | None -> err lineno "bad interface id")
      | Some at, [ "deny"; name; iface ] -> (
          match parse_iface_id iface with
          | Some j -> Ok (D_at (at, E_deny (name, j)))
          | None -> err lineno "bad interface id")
      | Some at, [ "stop"; name ] -> Ok (D_at (at, E_stop name))
      | _ -> err lineno "bad at directive")
  | [] -> err lineno "at needs a time"

let parse_sched lineno = function
  | [ "midrr" ] -> Ok (D_sched (Sched_midrr None))
  | [ "midrr"; opt ] -> (
      match Option.bind (field "counter" [ opt ]) int_of_string_opt with
      | Some k when k >= 1 -> Ok (D_sched (Sched_midrr (Some k)))
      | _ -> err lineno "bad midrr option %S (want counter=K, K >= 1)" opt)
  | [ name ] -> (
      match sched_of_name name with
      | Some s -> Ok (D_sched s)
      | None ->
          err lineno "unknown scheduler %S (valid: %s)" name
            (String.concat ", " sched_names))
  | _ ->
      err lineno "unknown scheduler (valid: %s)"
        (String.concat ", " sched_names)

let parse_line lineno line =
  let stripped = String.trim line in
  if stripped = "" || stripped.[0] = '#' then Ok None
  else
    let tokens =
      String.split_on_char ' ' stripped |> List.filter (fun t -> t <> "")
    in
    let result =
      match tokens with
      | "scheduler" :: rest -> parse_sched lineno rest
      | "iface" :: rest -> parse_iface lineno rest
      | "flow" :: rest -> parse_flow lineno rest
      | "at" :: rest -> parse_at lineno rest
      | [ "measure"; t0; t1 ] -> (
          match (finite_float t0, finite_float t1) with
          | Some a, Some b when 0.0 <= a && b > a -> Ok (D_measure (a, b))
          | _ -> err lineno "bad measure window")
      | [ "run"; horizon ] -> (
          match finite_float horizon with
          | Some h when h > 0.0 -> Ok (D_run h)
          | _ -> err lineno "bad run horizon")
      | d :: _ -> err lineno "unknown directive %S" d
      | [] -> err lineno "empty directive"
    in
    Result.map (fun d -> Some d) result

(* --- cross-line checks ---------------------------------------------------- *)

exception Rejected of string

let reject lineno fmt =
  Printf.ksprintf
    (fun m -> raise (Rejected (Printf.sprintf "line %d: %s" lineno m)))
    fmt

(* What no single line can check: every interface and flow is declared
   once, every reference names a declaration (anywhere in the file),
   nothing happens to a flow after its [stop], and every measure window
   ends by the horizon.  Raises [Rejected]. *)
let check_references directives ~horizon =
  let ifaces = Hashtbl.create 8 and flows = Hashtbl.create 8 in
  List.iter
    (fun (lineno, d) ->
      match d with
      | D_iface (id, _) ->
          if Hashtbl.mem ifaces id then
            reject lineno "interface %d declared twice" id;
          Hashtbl.replace ifaces id ()
      | D_flow f ->
          if Hashtbl.mem flows f.fs_name then
            reject lineno "flow %S declared twice" f.fs_name;
          Hashtbl.replace flows f.fs_name ()
      | D_sched _ | D_at _ | D_measure _ | D_run _ -> ())
    directives;
  let iface lineno j =
    if not (Hashtbl.mem ifaces j) then
      reject lineno "undeclared interface %d" j
  in
  let flow lineno name =
    if not (Hashtbl.mem flows name) then reject lineno "unknown flow %S" name
  in
  (* Events run in time order, file order on ties; a flow's first stop in
     that order removes it. *)
  let in_run_order =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (List.filter_map
         (function lineno, D_at (at, e) -> Some (at, lineno, e) | _ -> None)
         directives)
  in
  let stopped = Hashtbl.create 8 in
  List.iter
    (fun (at, lineno, e) ->
      let name =
        match e with
        | E_weight (name, _) | E_stop name -> name
        | E_allow (name, j) | E_deny (name, j) ->
            iface lineno j;
            name
      in
      flow lineno name;
      (match Hashtbl.find_opt stopped name with
      | Some (line, t) ->
          reject lineno "flow %S is already stopped at %g (line %d)" name t
            line
      | None -> ());
      match e with
      | E_stop _ -> Hashtbl.replace stopped name (lineno, at)
      | E_weight _ | E_allow _ | E_deny _ -> ())
    in_run_order;
  List.iter
    (fun (lineno, d) ->
      match d with
      | D_flow f -> List.iter (iface lineno) f.fs_ifaces
      | D_measure (_, t1) when t1 > horizon ->
          reject lineno "measure window ends after the run horizon %g" horizon
      | D_sched _ | D_iface _ | D_at _ | D_measure _ | D_run _ -> ())
    directives

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Ok None -> go (lineno + 1) acc rest
        | Ok (Some d) -> go (lineno + 1) ((lineno, d) :: acc) rest
        | Error e -> Error e)
  in
  match go 1 [] lines with
  | Error e -> Error e
  | Ok directives -> (
      let sched = ref (Sched_midrr None) in
      let ifaces = ref [] and flow_specs = ref [] in
      let events = ref [] and measure_windows = ref [] in
      let horizon = ref None in
      List.iter
        (fun (_, d) ->
          match d with
          | D_sched s -> sched := s
          | D_iface (id, profile) -> ifaces := (id, profile) :: !ifaces
          | D_flow f -> flow_specs := f :: !flow_specs
          | D_at (at, e) -> events := (at, e) :: !events
          | D_measure (a, b) -> measure_windows := (a, b) :: !measure_windows
          | D_run h -> horizon := Some h)
        directives;
      match !horizon with
      | None -> Error "missing 'run T' directive"
      | Some horizon -> (
          if !ifaces = [] then Error "no interfaces declared"
          else if !flow_specs = [] then Error "no flows declared"
          else
            match check_references directives ~horizon with
            | exception Rejected e -> Error e
            | () ->
                Ok
                  {
                    sched = !sched;
                    ifaces = List.rev !ifaces;
                    flow_specs = List.rev !flow_specs;
                    events = List.rev !events;
                    measure_windows = List.rev !measure_windows;
                    horizon;
                  }))

(* --- introspection -------------------------------------------------------- *)

let sched_spec t = t.sched
let flow_specs t = t.flow_specs
let iface_profiles t = t.ifaces
let horizon t = t.horizon
let has_events t = t.events <> []

(* --- execution --------------------------------------------------------------- *)

type engine = Engine_fast | Engine_sharded of int

let make_sched ?(engine = Engine_fast) spec =
  match (spec, engine) with
  | Sched_midrr counter, Engine_fast ->
      Midrr.packed (Midrr.create ?counter_max:counter ())
  | Sched_midrr counter, Engine_sharded n ->
      Sched_intf.Packed
        ( (module Shard_engine),
          Shard_engine.create ?counter_max:counter ~shards:n
            Drr_engine.Service_flags )
  | Sched_drr, Engine_fast -> Drr.packed (Drr.create ())
  | Sched_drr, Engine_sharded n ->
      Sched_intf.Packed
        ((module Shard_engine), Shard_engine.create ~shards:n Drr_engine.Plain)
  | Sched_wfq, _ -> Prog_wfq.packed (Prog_wfq.create ())
  | Sched_rr, _ -> Prog_rr.packed (Prog_rr.create ())
  | Sched_sprio, _ -> Prog_sprio.packed (Prog_sprio.create ())
  | Sched_srpt, _ -> Prog_srpt.packed (Prog_srpt.create ())
  | Sched_edf, _ -> Prog_edf.packed (Prog_edf.create ())
  | Sched_lstf, _ -> Prog_lstf.packed (Prog_lstf.create ())

let run ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched t =
  let sched =
    match sched with Some f -> f () | None -> make_sched ?engine t.sched
  in
  let sim = Netsim.create ?seed ~bin:0.5 ?sink ?metrics ?spans ~sched () in
  (* Periodic telemetry callbacks (exporter flushes, top snapshots):
     fire every [interval] seconds of simulation time up to the
     horizon, starting one interval in. *)
  (match ticks with
  | None -> ()
  | Some (interval, f) ->
      if not (interval > 0.0) then
        invalid_arg "Scenario.run: tick interval <= 0";
      let rec tick at =
        if at <= t.horizon then
          Netsim.at sim at (fun () ->
              f ~time:at;
              tick (at +. interval))
      in
      tick interval);
  List.iter (fun (j, profile) -> Netsim.add_iface sim j profile) t.ifaces;
  let ids = Hashtbl.create 16 in
  List.iteri
    (fun i fs ->
      Hashtbl.replace ids fs.fs_name i;
      let source =
        match fs.fs_source with
        | S_backlogged pkt -> Netsim.Backlogged { pkt_size = pkt }
        | S_finite (bytes, pkt) ->
            Netsim.Finite { total_bytes = bytes; pkt_size = pkt }
        | S_cbr (rate, pkt) -> Netsim.Cbr { rate; pkt_size = pkt; stop = None }
        | S_poisson (rate, pkt) ->
            Netsim.Poisson { rate; pkt_size = pkt; stop = None }
        | S_tb (rate, burst, pkt) ->
            Netsim.Tb { rate; burst; pkt_size = pkt; stop = None }
      in
      Netsim.add_flow sim i ~weight:fs.fs_weight ~allowed:fs.fs_ifaces source)
    t.flow_specs;
  let flow_id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Scenario.run: unknown flow %S" name)
  in
  List.iter
    (fun (at, event) ->
      Netsim.at sim at (fun () ->
          match event with
          | E_weight (name, w) -> Netsim.set_weight sim (flow_id name) w
          | E_allow (name, j) ->
              let f = flow_id name in
              let current = Sched_intf.Packed.allowed_ifaces sched f in
              if not (List.mem j current) then
                Netsim.set_allowed sim f (List.sort compare (j :: current))
          | E_deny (name, j) ->
              let f = flow_id name in
              let current = Sched_intf.Packed.allowed_ifaces sched f in
              Netsim.set_allowed sim f (List.filter (fun k -> k <> j) current)
          | E_stop name -> Netsim.remove_flow sim (flow_id name)))
    t.events;
  let names = List.map (fun fs -> fs.fs_name) t.flow_specs in
  (* Capture the reference allocation at each window's end, when the flow
     population and preferences reflect that window. *)
  let captured = List.map (fun _ -> ref []) t.measure_windows in
  List.iteri
    (fun k (_, t1) ->
      let slot = List.nth captured k in
      Netsim.at sim t1 (fun () ->
          let alive =
            List.filter
              (fun name ->
                Sched_intf.Packed.has_flow sched (flow_id name)
                && Sched_intf.Packed.is_backlogged sched (flow_id name))
              names
          in
          match alive with
          | [] -> ()
          | _ ->
              let flows = List.map flow_id alive in
              let inst =
                Netsim.instance_of sim ~flows ~ifaces:(List.map fst t.ifaces)
              in
              let alloc = Maxmin.solve inst in
              slot :=
                List.mapi
                  (fun k name -> (name, Types.to_mbps alloc.rates.(k)))
                  alive))
    t.measure_windows;
  Netsim.run sim ~until:t.horizon;
  let windows =
    List.map2
      (fun (t0, t1) slot ->
        let rates =
          List.map
            (fun name -> (name, Netsim.avg_rate sim (flow_id name) ~t0 ~t1))
            names
        in
        { t0; t1; rates; reference = !slot })
      t.measure_windows captured
  in
  let completions =
    List.filter_map
      (fun fs ->
        match fs.fs_source with
        | S_finite _ ->
            Option.map
              (fun at -> (fs.fs_name, at))
              (Netsim.completion_time sim (flow_id fs.fs_name))
        | _ -> None)
      t.flow_specs
  in
  { windows; completions }

let run_text ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched text =
  Result.map (run ?sink ?metrics ?spans ?ticks ?seed ?engine ?sched) (parse text)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun w ->
      Format.fprintf ppf "window %.1f-%.1fs:@," w.t0 w.t1;
      List.iter
        (fun (name, rate) ->
          let reference =
            match List.assoc_opt name w.reference with
            | Some r -> Printf.sprintf " (reference %.3f)" r
            | None -> ""
          in
          Format.fprintf ppf "  %-12s %8.3f Mb/s%s@," name rate reference)
        w.rates)
    r.windows;
  List.iter
    (fun (name, at) ->
      Format.fprintf ppf "%s completed at %.2fs@," name at)
    r.completions;
  Format.fprintf ppf "@]"
