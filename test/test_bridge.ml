(* Tests for the packet-steering bridge substrate and the Fig. 9 profiler. *)

open Midrr_core
module Vif = Midrr_bridge.Vif
module Bridge = Midrr_bridge.Bridge
module Profiler = Midrr_bridge.Profiler
module Vif_spec = Midrr_oracle.Vif_spec

let addr i =
  Vif.addr ~mac:(Int64.of_int (0x020000 + i)) ~ip:(Int32.of_int (10 + i))

(* --- Vif --------------------------------------------------------------- *)

let test_addr_validation () =
  Alcotest.check_raises "wide mac"
    (Invalid_argument "Vif.addr: MAC wider than 48 bits") (fun () ->
      ignore (Vif.addr ~mac:0x1_0000_0000_0000L ~ip:0l))

let test_frame_checksum_valid () =
  let f =
    Vif.make ~src:(addr 1) ~dst:(addr 2)
      (Packet.create ~flow:0 ~size:1500 ~arrival:0.0)
  in
  Alcotest.(check bool) "fresh frame valid" true (Vif.checksum_valid f)

let test_rewrite_updates_checksum () =
  let p = Packet.create ~flow:0 ~size:1000 ~arrival:0.0 in
  let f = Vif.make ~src:(addr 1) ~dst:(addr 2) p in
  let g = Vif.rewrite f ~src:(addr 3) ~dst:(addr 4) in
  Alcotest.(check bool) "rewritten valid" true (Vif.checksum_valid g);
  Alcotest.(check bool) "checksum changed" true (f.checksum <> g.checksum);
  (* Tampering without recomputation is detected. *)
  let tampered = { g with src = addr 9 } in
  Alcotest.(check bool) "tamper detected" false (Vif.checksum_valid tampered)

let test_checksum_depends_on_length () =
  let c1 = Vif.header_checksum ~src:(addr 1) ~dst:(addr 2) ~payload_len:100 in
  let c2 = Vif.header_checksum ~src:(addr 1) ~dst:(addr 2) ~payload_len:101 in
  Alcotest.(check bool) "length matters" true (c1 <> c2)

(* --- Bridge ------------------------------------------------------------- *)

let make_bridge () =
  let sched = Midrr.create () in
  let bridge = Bridge.create ~sched:(Midrr.packed sched) () in
  Bridge.add_port bridge 0 ~local:(addr 10) ~gateway:(addr 20);
  Bridge.add_port bridge 1 ~local:(addr 11) ~gateway:(addr 21);
  bridge

let test_bridge_steering_respects_preferences () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  Bridge.register_flow bridge ~flow:2 ~allowed:[ 1 ] ();
  for _ = 1 to 10 do
    ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:500 ~arrival:0.0));
    ignore (Bridge.send bridge (Packet.create ~flow:2 ~size:500 ~arrival:0.0))
  done;
  for _ = 1 to 10 do
    (match Bridge.transmit bridge 0 with
    | Some f -> Alcotest.(check int) "port 0 only flow 1" 1 f.payload.flow
    | None -> Alcotest.fail "port 0 starved");
    match Bridge.transmit bridge 1 with
    | Some f -> Alcotest.(check int) "port 1 only flow 2" 2 f.payload.flow
    | None -> Alcotest.fail "port 1 starved"
  done

let test_bridge_rewrites_to_port_addresses () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:500 ~arrival:0.0));
  match Bridge.transmit bridge 0 with
  | Some f ->
      Alcotest.(check bool) "src is port local" true (f.src = addr 10);
      Alcotest.(check bool) "dst is gateway" true (f.dst = addr 20);
      Alcotest.(check bool) "valid checksum" true (Vif.checksum_valid f)
  | None -> Alcotest.fail "no frame"

let test_bridge_counters () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0 ] ();
  for _ = 1 to 5 do
    ignore (Bridge.send bridge (Packet.create ~flow:1 ~size:100 ~arrival:0.0))
  done;
  for _ = 1 to 5 do
    ignore (Bridge.transmit bridge 0)
  done;
  Alcotest.(check int) "tx frames" 5 (Bridge.tx_frames bridge 0);
  Alcotest.(check int) "rewrites" 5 (Bridge.rewrites bridge);
  Alcotest.(check bool) "empty now" true (Bridge.transmit bridge 0 = None)

let test_bridge_unknown_flow_rejected () =
  let bridge = make_bridge () in
  Alcotest.(check bool) "unknown flow" false
    (Bridge.send bridge (Packet.create ~flow:42 ~size:100 ~arrival:0.0))

let test_bridge_remove_port () =
  let bridge = make_bridge () in
  Bridge.remove_port bridge 1;
  Alcotest.(check (list int)) "one port left" [ 0 ] (Bridge.ports bridge)

(* --- Checksum against the list-based spec -------------------------------- *)

(* Header words at their extremes: all zero, all ones, the sign bits of
   both int64 and int32, and MACs with bits above 48 that [Vif.addr]
   refuses but [Vif.addr_sum] must still sum word by word. *)
let mac_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0L);
        (1, return (-1L));
        (1, return 0xFFFF_FFFF_FFFFL);
        (1, return Int64.min_int);
        (4, ui64);
        (4, map (fun m -> Int64.logand m 0xFFFF_FFFF_FFFFL) ui64);
      ])

let mac48_gen = QCheck.Gen.map (fun m -> Int64.logand m 0xFFFF_FFFF_FFFFL) mac_gen

let ip_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0l);
        (1, return (-1l));
        (1, return Int32.min_int);
        (3, map (fun ip -> Int32.logor ip Int32.min_int) ui32);
        (4, ui32);
      ])

let len_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; 1; 0xFFFF; 0x10000; 0x1FFFF; 0x2FFFF ]);
        (6, int_range 0 0x2FFFF);
      ])

let fields_gen =
  QCheck.Gen.(
    let* src_mac = mac_gen in
    let* src_ip = ip_gen in
    let* dst_mac = mac_gen in
    let* dst_ip = ip_gen in
    let* payload_len = len_gen in
    return (src_mac, src_ip, dst_mac, dst_ip, payload_len))

let print_fields (src_mac, src_ip, dst_mac, dst_ip, payload_len) =
  Printf.sprintf "src=%Lx/%lx dst=%Lx/%lx len=%d" src_mac src_ip dst_mac
    dst_ip payload_len

let prop_sum_matches_spec =
  QCheck.Test.make ~count:2000
    ~name:"addr_sum + checksum_of_sum equals the list-based spec"
    (QCheck.make ~print:print_fields fields_gen)
    (fun (src_mac, src_ip, dst_mac, dst_ip, payload_len) ->
      Int.equal
        (Vif.checksum_of_sum
           (Vif.addr_sum ~src_mac ~src_ip ~dst_mac ~dst_ip)
           ~payload_len)
        (Vif_spec.header_checksum_fields ~src_mac ~src_ip ~dst_mac ~dst_ip
           ~payload_len))

let prop_header_checksum_matches_spec =
  QCheck.Test.make ~count:2000
    ~name:"header_checksum, make and rewrite equal the list-based spec"
    (QCheck.make ~print:print_fields
       QCheck.Gen.(
         let* src_mac = mac48_gen in
         let* src_ip = ip_gen in
         let* dst_mac = mac48_gen in
         let* dst_ip = ip_gen in
         let* payload_len = len_gen in
         return (src_mac, src_ip, dst_mac, dst_ip, payload_len)))
    (fun (src_mac, src_ip, dst_mac, dst_ip, payload_len) ->
      let src = Vif.addr ~mac:src_mac ~ip:src_ip in
      let dst = Vif.addr ~mac:dst_mac ~ip:dst_ip in
      let spec = Vif_spec.header_checksum ~src ~dst ~payload_len in
      let size = max 1 payload_len in
      let pkt = Packet.create ~flow:0 ~size ~arrival:0.0 in
      let made = Vif.make ~src ~dst pkt in
      let rewritten = Vif.rewrite (Vif.make ~src:dst ~dst:src pkt) ~src ~dst in
      let spec_size = Vif_spec.header_checksum ~src ~dst ~payload_len:size in
      Int.equal spec (Vif.header_checksum ~src ~dst ~payload_len)
      && Int.equal spec_size made.checksum
      && Int.equal spec_size rewritten.checksum
      && Vif.checksum_valid made && Vif.checksum_valid rewritten)

(* Random bridges: a few ports with arbitrary addresses, flows allowed on
   random port subsets, packets of any size; every frame [transmit]
   returns must carry the spec checksum for its port's addresses. *)
type bridge_case = {
  port_addrs : (int * (int64 * int32) * (int64 * int32)) list;
  flow_ports : int list list;
  sends : (int * int) list;  (** flow index, size *)
}

let bridge_case_gen =
  QCheck.Gen.(
    let* n_ports = int_range 1 6 in
    let* ids = shuffle_l (List.init 16 Fun.id) in
    let ids = List.filteri (fun i _ -> i < n_ports) ids in
    let* port_addrs =
      flatten_l
        (List.map
           (fun j ->
             let* lm = mac48_gen in
             let* li = ip_gen in
             let* gm = mac48_gen in
             let* gi = ip_gen in
             return (j, (lm, li), (gm, gi)))
           ids)
    in
    let* n_flows = int_range 1 6 in
    let* flow_ports =
      list_repeat n_flows
        (let* keep = list_repeat n_ports bool in
         let allowed =
           List.filteri (fun i _ -> List.nth keep i) ids
         in
         match allowed with
         | [] -> map (fun k -> [ List.nth ids k ]) (int_range 0 (n_ports - 1))
         | l -> return l)
    in
    let* sends =
      list_size (int_range 0 60)
        (pair (int_range 0 (n_flows - 1)) (int_range 1 0x2FFFF))
    in
    return { port_addrs; flow_ports; sends })

let prop_bridge_frames_match_spec =
  QCheck.Test.make ~count:200
    ~name:"every transmitted frame carries the spec checksum"
    (QCheck.make bridge_case_gen) (fun c ->
      let bridge = Bridge.create ~sched:(Midrr.packed (Midrr.create ())) () in
      let ports =
        List.map
          (fun (j, (lm, li), (gm, gi)) ->
            let local = Vif.addr ~mac:lm ~ip:li in
            let gateway = Vif.addr ~mac:gm ~ip:gi in
            Bridge.add_port bridge j ~local ~gateway;
            (j, local, gateway))
          c.port_addrs
      in
      List.iteri
        (fun flow allowed -> Bridge.register_flow bridge ~flow ~allowed ())
        c.flow_ports;
      List.iter
        (fun (flow, size) ->
          ignore
            (Bridge.send bridge (Packet.create ~flow ~size ~arrival:0.0)))
        c.sends;
      let frames = ref 0 in
      let rec drain () =
        let progressed =
          List.fold_left
            (fun progressed (j, local, gateway) ->
              match Bridge.transmit bridge j with
              | None -> progressed
              | Some (f : Vif.frame) ->
                  incr frames;
                  let spec =
                    Vif_spec.header_checksum ~src:local ~dst:gateway
                      ~payload_len:f.payload.size
                  in
                  if f.src != local || f.dst != gateway then
                    QCheck.Test.fail_reportf "port %d: wrong addresses" j;
                  if not (Int.equal f.checksum spec && Vif.checksum_valid f)
                  then
                    QCheck.Test.fail_reportf
                      "port %d, size %d: checksum %04x, spec %04x" j
                      f.payload.size f.checksum spec;
                  true)
            false ports
        in
        if progressed then drain ()
      in
      drain ();
      Int.equal !frames (List.length c.sends))

(* Frames are fresh values: holding many of them must not let a later
   transmit overwrite an earlier frame's payload or checksum. *)
let test_held_frames_do_not_alias () =
  let bridge = make_bridge () in
  Bridge.register_flow bridge ~flow:1 ~allowed:[ 0; 1 ] ();
  let n = 1000 in
  let sent =
    Array.init n (fun i ->
        let p = Packet.create ~flow:1 ~size:(64 + (i * 37 mod 1437)) ~arrival:0.0 in
        ignore (Bridge.send bridge p);
        p)
  in
  let held =
    Array.init n (fun i ->
        match Bridge.transmit bridge (i land 1) with
        | Some f -> f
        | None -> Alcotest.failf "transmit %d returned nothing" i)
  in
  Alcotest.(check bool) "queue drained" true
    (Option.is_none (Bridge.transmit bridge 0));
  Array.iteri
    (fun i (f : Vif.frame) ->
      let local, gateway =
        if i land 1 = 0 then (addr 10, addr 20) else (addr 11, addr 21)
      in
      (* One flow is served in FIFO order, so frame [i] carries packet [i]. *)
      if f.payload != sent.(i) then
        Alcotest.failf "frame %d carries seq %d, expected %d" i f.payload.seq
          sent.(i).seq;
      Alcotest.(check int)
        (Printf.sprintf "frame %d checksum" i)
        (Vif_spec.header_checksum ~src:local ~dst:gateway
           ~payload_len:f.payload.size)
        f.checksum;
      Alcotest.(check bool)
        (Printf.sprintf "frame %d addresses" i)
        true
        (f.src = local && f.dst = gateway))
    held

(* --- Profiler ------------------------------------------------------------- *)

let test_profiler_produces_samples () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:4 () in
  Alcotest.(check int) "sample count" 500 (Array.length r.samples_ns);
  Array.iter
    (fun s -> if s < 0.0 then Alcotest.failf "negative sample %f" s)
    r.samples_ns;
  let summary = Profiler.summary r in
  (* A scheduling decision takes well under a millisecond. *)
  if summary.median > 1e6 then
    Alcotest.failf "median decision %.0f ns implausibly slow" summary.median

let test_profiler_cdf_monotone () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:8 () in
  let cdf = Profiler.cdf r in
  let points = Midrr_stats.Cdf.points cdf in
  let rec check_pairs = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
        if p2 < p1 then Alcotest.fail "CDF not monotone";
        check_pairs rest
    | _ -> ()
  in
  check_pairs (Array.to_list points)

let test_profiler_transmit_target () =
  let r = Profiler.run ~decisions:200 ~n_ifaces:4 ~target:Profiler.Transmit () in
  Alcotest.(check int) "sample count" 200 (Array.length r.samples_ns)

let test_profiler_supported_rate_positive () =
  let r = Profiler.run ~decisions:500 ~n_ifaces:4 () in
  let gbps = Profiler.supported_rate_gbps r ~pkt_size:1000 in
  if gbps <= 0.0 then Alcotest.failf "non-positive rate %.3f" gbps

let () =
  let rand = Random.State.make [| 20261018 |] in
  let to_alcotest t = QCheck_alcotest.to_alcotest ~rand t in
  Alcotest.run "bridge"
    [
      ( "vif",
        [
          Alcotest.test_case "addr validation" `Quick test_addr_validation;
          Alcotest.test_case "checksum valid" `Quick test_frame_checksum_valid;
          Alcotest.test_case "rewrite updates checksum" `Quick
            test_rewrite_updates_checksum;
          Alcotest.test_case "checksum covers length" `Quick
            test_checksum_depends_on_length;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "steering preferences" `Quick
            test_bridge_steering_respects_preferences;
          Alcotest.test_case "rewrite addresses" `Quick
            test_bridge_rewrites_to_port_addresses;
          Alcotest.test_case "counters" `Quick test_bridge_counters;
          Alcotest.test_case "unknown flow" `Quick
            test_bridge_unknown_flow_rejected;
          Alcotest.test_case "remove port" `Quick test_bridge_remove_port;
          Alcotest.test_case "held frames do not alias" `Quick
            test_held_frames_do_not_alias;
        ] );
      ( "checksum spec",
        List.map to_alcotest
          [
            prop_sum_matches_spec;
            prop_header_checksum_matches_spec;
            prop_bridge_frames_match_spec;
          ] );
      ( "profiler",
        [
          Alcotest.test_case "produces samples" `Quick
            test_profiler_produces_samples;
          Alcotest.test_case "cdf monotone" `Quick test_profiler_cdf_monotone;
          Alcotest.test_case "transmit target" `Quick
            test_profiler_transmit_target;
          Alcotest.test_case "supported rate" `Quick
            test_profiler_supported_rate_positive;
        ] );
    ]
