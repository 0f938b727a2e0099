(* The programmable scheduling substrate, tested three ways:

   1. [Pifo] against a sorted-list model under random op sequences —
      ordering, stable FIFO ties, O(log n) remove/update included.
   2. Lockstep differential runs: the substrate re-expressions of WFQ
      and round robin ([Prog_wfq], [Prog_rr]) against the bespoke
      [Wfq]/[Rrobin] implementations, driven through long randomized
      churn (enqueues, serves, flow/iface add/remove, weight and
      preference changes) with full event-stream and observable-state
      equality after every step — the PR 2 differential template applied
      across implementations rather than engines.
   3. Semantic spot checks of the disciplines with no bespoke twin:
      strict priority, SRPT, EDF, LSTF. *)

open Midrr_core
open Midrr_oracle
module Event = Midrr_obs.Event
module Packed = Sched_intf.Packed

(* --- 1. Pifo vs sorted-list model ---------------------------------------- *)

(* The model mirrors the implementation's default-tie counter, so model
   and heap assign identical (rank, tie) pairs push for push. *)
let model_before (_, (ra, ta)) (_, (rb, tb)) =
  let c = Float.compare ra rb in
  if c = 0 then ta < tb else c < 0

let model_min model =
  List.fold_left
    (fun best e ->
      match best with
      | None -> Some e
      | Some b -> if model_before e b then Some e else Some b)
    None model

let prop_pifo_model =
  (* ops: 0-2 push, 3-4 pop, 5 remove, 6 update, 7 peek/mem audit *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300) (triple (int_range 0 7) (int_range 0 15) (int_range 0 4)))
  in
  QCheck.Test.make ~count:200 ~name:"pifo matches sorted-list model"
    (QCheck.make gen) (fun ops ->
      let h = Pifo.create ~capacity:2 () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (op, key, r) ->
          let rank = Float.of_int r in
          match op with
          | 0 | 1 | 2 ->
              if not (Pifo.mem h key) then begin
                Pifo.push h ~key ~rank;
                model := (key, (rank, !seq)) :: !model;
                incr seq
              end
          | 3 | 4 -> (
              match (Pifo.pop h, model_min !model) with
              | None, None -> ()
              | Some e, Some (k, (mr, mt)) ->
                  check
                    (e.Pifo.key = k
                    && Float.equal e.Pifo.rank mr
                    && e.Pifo.tie = mt);
                  model := List.filter (fun (k', _) -> k' <> k) !model
              | _ -> check false)
          | 5 ->
              let removed = Pifo.remove h key in
              check (removed = List.mem_assoc key !model);
              model := List.remove_assoc key !model
          | 6 ->
              if Pifo.mem h key then begin
                (* re-rank, keeping the existing tie *)
                let _, (_, tie) = List.find (fun (k, _) -> k = key) !model in
                Pifo.update h ~key ~rank;
                model :=
                  (key, (rank, tie)) :: List.remove_assoc key !model
              end
          | _ ->
              check (Pifo.length h = List.length !model);
              check (Pifo.is_empty h = (!model = []));
              for k = 0 to 15 do
                check (Pifo.mem h k = List.mem_assoc k !model)
              done;
              (match (Pifo.peek h, model_min !model) with
              | None, None -> ()
              | Some e, Some (k, (mr, mt)) ->
                  check
                    (e.Pifo.key = k
                    && Float.equal e.Pifo.rank mr
                    && e.Pifo.tie = mt)
              | _ -> check false))
        ops;
      (* Drain both; full order must agree. *)
      let rec drain () =
        match (Pifo.pop h, model_min !model) with
        | None, None -> ()
        | Some e, Some (k, _) ->
            check (e.Pifo.key = k);
            model := List.filter (fun (k', _) -> k' <> k) !model;
            drain ()
        | _ -> check false
      in
      drain ();
      !ok)

let pifo_fifo_ties () =
  let h = Pifo.create () in
  List.iter (fun k -> Pifo.push h ~key:k ~rank:1.0) [ 7; 3; 9; 1 ];
  let order = ref [] in
  let rec go () =
    match Pifo.pop h with
    | Some e ->
        order := e.Pifo.key :: !order;
        go ()
    | None -> ()
  in
  go ();
  Alcotest.(check (list int))
    "equal ranks pop in push order" [ 7; 3; 9; 1 ] (List.rev !order)

let pifo_errors () =
  let h = Pifo.create () in
  Pifo.push h ~key:3 ~rank:0.5;
  Alcotest.check_raises "duplicate push" (Invalid_argument "Pifo.push: duplicate key")
    (fun () -> Pifo.push h ~key:3 ~rank:0.7);
  Alcotest.check_raises "negative key" (Invalid_argument "Pifo.push: negative key")
    (fun () -> Pifo.push h ~key:(-1) ~rank:0.0);
  Alcotest.check_raises "update absent" (Invalid_argument "Pifo.update: key not queued")
    (fun () -> Pifo.update h ~key:9 ~rank:0.0);
  Alcotest.(check bool) "remove absent" false (Pifo.remove h 9);
  Alcotest.(check bool) "remove present" true (Pifo.remove h 3);
  Alcotest.(check bool) "now empty" true (Pifo.is_empty h)

let pifo_update_rerank () =
  let h = Pifo.create () in
  Pifo.push h ~key:0 ~rank:5.0;
  Pifo.push h ~key:1 ~rank:6.0;
  Pifo.push h ~key:2 ~rank:7.0;
  Pifo.update h ~key:2 ~rank:0.0;
  (match Pifo.peek h with
  | Some e -> Alcotest.(check int) "re-ranked to front" 2 e.Pifo.key
  | None -> Alcotest.fail "empty");
  (* explicit tie overrides FIFO: same rank, lower tie wins *)
  Pifo.update ~tie:(-1) h ~key:1 ~rank:0.0;
  match Pifo.pop h with
  | Some e -> Alcotest.(check int) "explicit tie wins" 1 e.Pifo.key
  | None -> Alcotest.fail "empty"

(* --- 2. lockstep differential: substrate vs bespoke ---------------------- *)

type pair = {
  a : Sched_intf.packed; (* substrate *)
  b : Sched_intf.packed; (* bespoke reference *)
  a_ev : Event.t list ref; (* newest first *)
  b_ev : Event.t list ref;
}

let make_pair make_a make_b =
  let a = make_a () and b = make_b () in
  let a_ev = ref [] and b_ev = ref [] in
  Packed.set_sink a (Some (fun e -> a_ev := e :: !a_ev));
  Packed.set_sink b (Some (fun e -> b_ev := e :: !b_ev));
  { a; b; a_ev; b_ev }

let ev_str e = Format.asprintf "%a" Event.pp e

let check_events label seed step p =
  let a = List.rev !(p.a_ev) and b = List.rev !(p.b_ev) in
  p.a_ev := [];
  p.b_ev := [];
  if a <> b then begin
    let rec first_diff i = function
      | [], [] -> (i, "<none>", "<none>")
      | e :: _, [] -> (i, ev_str e, "<missing>")
      | [], e :: _ -> (i, "<missing>", ev_str e)
      | x :: tx, y :: ty ->
          if x = y then first_diff (i + 1) (tx, ty) else (i, ev_str x, ev_str y)
    in
    let i, x, y = first_diff 0 (a, b) in
    Alcotest.failf "%s (seed %#x) step %d: event %d diverges: %s vs %s" label
      seed step i x y
  end

let check_state label seed step ~flows ~ifaces p =
  let fail fmt =
    Printf.ksprintf
      (fun m -> Alcotest.failf "%s (seed %#x) step %d: %s" label seed step m)
      fmt
  in
  if Packed.flows p.a <> Packed.flows p.b then fail "flow sets differ";
  if Packed.ifaces p.a <> Packed.ifaces p.b then fail "iface sets differ";
  List.iter
    (fun f ->
      if Packed.backlog_bytes p.a f <> Packed.backlog_bytes p.b f then
        fail "flow %d backlog: %d vs %d" f
          (Packed.backlog_bytes p.a f)
          (Packed.backlog_bytes p.b f);
      if Packed.backlog_packets p.a f <> Packed.backlog_packets p.b f then
        fail "flow %d backlog pkts" f;
      if Packed.is_backlogged p.a f <> Packed.is_backlogged p.b f then
        fail "flow %d backlogged bit" f;
      if Packed.served_bytes p.a f <> Packed.served_bytes p.b f then
        fail "flow %d served: %d vs %d" f
          (Packed.served_bytes p.a f)
          (Packed.served_bytes p.b f);
      if Packed.allowed_ifaces p.a f <> Packed.allowed_ifaces p.b f then
        fail "flow %d allowed set" f;
      List.iter
        (fun j ->
          if
            Packed.served_bytes_on p.a ~flow:f ~iface:j
            <> Packed.served_bytes_on p.b ~flow:f ~iface:j
          then fail "pair (%d,%d) served" f j)
        ifaces)
    flows

let max_flows = 32
let iface_pool = [ 0; 1; 2; 3; 4 ]

let lockstep ~label ~seed ~steps make_a make_b =
  let st = Random.State.make [| seed |] in
  let rand n = Random.State.int st n in
  let pick l = List.nth l (rand (List.length l)) in
  let p = make_pair make_a make_b in
  let flows = ref []
  and ifaces = ref []
  and next_flow = ref 0
  and retired = ref []
  and clock = ref 0.0 in
  let fresh_flow_id () =
    match !retired with
    | id :: rest when rand 3 = 0 ->
        retired := rest;
        id
    | _ ->
        let id = !next_flow in
        incr next_flow;
        id
  in
  let random_allowed () =
    let all = List.filter (fun _ -> rand 3 > 0) iface_pool in
    if all = [] then [ pick iface_pool ] else all
  in
  let add_flow () =
    if List.length !flows < max_flows then begin
      let id = fresh_flow_id () in
      let weight = 0.5 +. (float_of_int (rand 8) /. 2.0) in
      let allowed = random_allowed () in
      Packed.add_flow p.a ~flow:id ~weight ~allowed;
      Packed.add_flow p.b ~flow:id ~weight ~allowed;
      flows := id :: !flows
    end
  in
  let add_iface () =
    match List.filter (fun j -> not (List.mem j !ifaces)) iface_pool with
    | [] -> ()
    | offline ->
        let j = pick offline in
        Packed.add_iface p.a j;
        Packed.add_iface p.b j;
        ifaces := j :: !ifaces
  in
  let serve j =
    let pa = Packed.next_packet p.a j and pb = Packed.next_packet p.b j in
    match (pa, pb) with
    | None, None -> ()
    | Some x, Some y
      when x.Packet.seq = y.Packet.seq && x.Packet.size = y.Packet.size ->
        ()
    | _ ->
        let show = function
          | None -> "idle"
          | Some (q : Packet.t) ->
              Printf.sprintf "flow %d seq %d (%dB)" q.flow q.seq q.size
        in
        Alcotest.failf "%s (seed %#x): serve on %d: %s vs %s" label seed j
          (show pa) (show pb)
  in
  add_iface ();
  add_iface ();
  add_flow ();
  add_flow ();
  check_events label seed (-1) p;
  for step = 0 to steps - 1 do
    clock := !clock +. 0.001;
    (match rand 100 with
    | n when n < 34 ->
        if !flows <> [] then begin
          let f = pick !flows in
          let size = 64 + rand 1437 in
          let pkt = Packet.create ~flow:f ~size ~arrival:!clock in
          let aa = Packed.enqueue p.a pkt and ab = Packed.enqueue p.b pkt in
          if aa <> ab then
            Alcotest.failf "%s step %d: enqueue accept: %b vs %b" label step aa
              ab
        end
    | n when n < 74 -> if !ifaces <> [] then serve (pick !ifaces)
    | n when n < 80 -> add_flow ()
    | n when n < 84 ->
        if !flows <> [] then begin
          let f = pick !flows in
          Packed.remove_flow p.a f;
          Packed.remove_flow p.b f;
          flows := List.filter (fun g -> g <> f) !flows;
          retired := f :: !retired
        end
    | n when n < 88 -> add_iface ()
    | n when n < 91 ->
        if !ifaces <> [] then begin
          let j = pick !ifaces in
          Packed.remove_iface p.a j;
          Packed.remove_iface p.b j;
          ifaces := List.filter (fun k -> k <> j) !ifaces
        end
    | n when n < 95 ->
        if !flows <> [] then begin
          let f = pick !flows in
          let w = 0.5 +. (float_of_int (rand 10) /. 2.0) in
          Packed.set_weight p.a f w;
          Packed.set_weight p.b f w
        end
    | n when n < 98 ->
        if !flows <> [] then begin
          let f = pick !flows in
          let allowed = random_allowed () in
          Packed.set_allowed p.a f allowed;
          Packed.set_allowed p.b f allowed
        end
    | _ ->
        (* unknown-flow enqueue: both reject with a Drop event *)
        let pkt = Packet.create ~flow:9999 ~size:700 ~arrival:!clock in
        let aa = Packed.enqueue p.a pkt and ab = Packed.enqueue p.b pkt in
        if aa || ab then
          Alcotest.failf "%s step %d: unknown-flow enqueue accepted" label step);
    check_events label seed step p;
    check_state label seed step ~flows:!flows ~ifaces:!ifaces p
  done;
  (* Drain every interface to idle, still in lockstep. *)
  List.iter
    (fun j ->
      let budget = ref 200_000 in
      let continue = ref true in
      while !continue && !budget > 0 do
        decr budget;
        match (Packed.next_packet p.a j, Packed.next_packet p.b j) with
        | None, None -> continue := false
        | Some x, Some y when x.Packet.seq = y.Packet.seq -> ()
        | _ -> Alcotest.failf "%s drain: divergence on iface %d" label j
      done;
      check_events label seed steps p)
    !ifaces;
  check_state label seed steps ~flows:!flows ~ifaces:!ifaces p

let seeds =
  [ 0xA1; 0xB2; 0xC3; 0xD4; 0xE5; 0xF6; 0x1A7; 0x2B8; 0x3C9; 0x4DA; 0x5EB; 0x6FC ]

let wfq_lockstep () =
  List.iter
    (fun seed ->
      lockstep ~label:"pifo-wfq vs wfq" ~seed ~steps:5_000
        (fun () -> Prog_wfq.packed (Prog_wfq.create ()))
        (fun () -> Wfq.packed (Wfq.create ())))
    seeds

let rr_lockstep () =
  List.iter
    (fun seed ->
      lockstep ~label:"pifo-rr vs rrobin" ~seed ~steps:5_000
        (fun () -> Prog_rr.packed (Prog_rr.create ()))
        (fun () -> Rrobin.packed (Rrobin.create ())))
    seeds

(* --- 3. semantic spot checks --------------------------------------------- *)

let setup packed ~flows =
  Packed.add_iface packed 0;
  List.iter
    (fun (f, weight) -> Packed.add_flow packed ~flow:f ~weight ~allowed:[ 0 ])
    flows;
  packed

let enq packed ~flow ~size ~arrival =
  assert (Packed.enqueue packed (Packet.create ~flow ~size ~arrival))

let serve_order packed n =
  List.init n (fun _ ->
      match Packed.next_packet packed 0 with
      | Some pkt -> pkt.Packet.flow
      | None -> Alcotest.fail "unexpected idle")

let sprio_semantics () =
  let s = setup (Prog_sprio.packed (Prog_sprio.create ())) ~flows:[ (0, 1.0); (1, 5.0) ] in
  for _ = 1 to 3 do
    enq s ~flow:0 ~size:100 ~arrival:0.0;
    enq s ~flow:1 ~size:100 ~arrival:0.0
  done;
  Alcotest.(check (list int))
    "heavier flow drains first" [ 1; 1; 1; 0; 0; 0 ] (serve_order s 6);
  (* raising a weight mid-run re-ranks the backlog *)
  enq s ~flow:0 ~size:100 ~arrival:1.0;
  enq s ~flow:1 ~size:100 ~arrival:1.0;
  Packed.set_weight s 0 9.0;
  Alcotest.(check (list int)) "weight change re-ranks" [ 0; 1 ] (serve_order s 2)

let srpt_semantics () =
  let s = setup (Prog_srpt.packed (Prog_srpt.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* flow 1: one small packet; flow 0: a large backlog *)
  for _ = 1 to 4 do
    enq s ~flow:0 ~size:1400 ~arrival:0.0
  done;
  enq s ~flow:1 ~size:200 ~arrival:0.0;
  Alcotest.(check (list int))
    "smallest remaining backlog first" [ 1; 0; 0; 0; 0 ] (serve_order s 5)

let edf_semantics () =
  let s = setup (Prog_edf.packed (Prog_edf.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* later arrival = later deadline at equal weight *)
  enq s ~flow:1 ~size:500 ~arrival:2.0;
  enq s ~flow:0 ~size:500 ~arrival:1.0;
  Alcotest.(check (list int)) "earlier deadline first" [ 0; 1 ] (serve_order s 2);
  (* a heavier flow has a tighter relative deadline *)
  enq s ~flow:0 ~size:500 ~arrival:3.0;
  enq s ~flow:1 ~size:500 ~arrival:3.0;
  Packed.set_weight s 1 4.0;
  Alcotest.(check (list int)) "tighter deadline wins" [ 1; 0 ] (serve_order s 2)

let lstf_semantics () =
  let s = setup (Prog_lstf.packed (Prog_lstf.create ())) ~flows:[ (0, 1.0); (1, 1.0) ] in
  (* equal deadlines; the flow with the larger backlog has less slack *)
  enq s ~flow:0 ~size:100 ~arrival:0.0;
  for _ = 1 to 5 do
    enq s ~flow:1 ~size:1400 ~arrival:0.0
  done;
  match Packed.next_packet s 0 with
  | Some pkt -> Alcotest.(check int) "less slack first" 1 pkt.Packet.flow
  | None -> Alcotest.fail "idle"

let () =
  let rand =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> Random.State.make [| int_of_string s |]
    | None -> Random.State.make [| 20130109 |]
  in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "sched_prog"
    [
      ( "pifo",
        [
          to_alcotest prop_pifo_model;
          Alcotest.test_case "FIFO on equal ranks" `Quick pifo_fifo_ties;
          Alcotest.test_case "error cases" `Quick pifo_errors;
          Alcotest.test_case "update re-ranks" `Quick pifo_update_rerank;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case
            (Printf.sprintf "pifo-wfq vs wfq (%d seeds x 5k steps)"
               (List.length seeds))
            `Slow wfq_lockstep;
          Alcotest.test_case
            (Printf.sprintf "pifo-rr vs rrobin (%d seeds x 5k steps)"
               (List.length seeds))
            `Slow rr_lockstep;
        ] );
      ( "programs",
        [
          Alcotest.test_case "strict priority" `Quick sprio_semantics;
          Alcotest.test_case "srpt" `Quick srpt_semantics;
          Alcotest.test_case "edf" `Quick edf_semantics;
          Alcotest.test_case "lstf" `Quick lstf_semantics;
        ] );
    ]
