open Midrr_core

type port = {
  local : Vif.addr;
  gateway : Vif.addr;
  sum : int;  (* [Vif.addr_sum] of local -> gateway, fixed per port *)
  mutable tx_frames : int;
}

type t = {
  vif : Vif.addr;
  sched : Sched_intf.packed;
  ports : (Types.iface_id, port) Hashtbl.t;
  mutable rewrites : int;
}

let default_vif =
  Vif.addr ~mac:0x02_00_5E_00_00_01L ~ip:0x0A00_0001l (* 10.0.0.1 *)

let create ?(vif_addr = default_vif) ?sink ~sched () =
  let t = { vif = vif_addr; sched; ports = Hashtbl.create 8; rewrites = 0 } in
  (match sink with
  | None -> ()
  | Some s ->
      (* The bridge runs on the wall clock: stamp events with seconds
         since the bridge came up. *)
      let t0 = Monotonic_clock.now () in
      let clock () =
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
      in
      Sched_intf.Packed.subscribe sched (Midrr_obs.Sink.stamp ~clock s));
  t

let vif_addr t = t.vif

let add_port t j ~(local : Vif.addr) ~(gateway : Vif.addr) =
  if Hashtbl.mem t.ports j then invalid_arg "Bridge.add_port: duplicate";
  let sum =
    Vif.addr_sum ~src_mac:local.mac ~src_ip:local.ip ~dst_mac:gateway.mac
      ~dst_ip:gateway.ip
  in
  Hashtbl.replace t.ports j { local; gateway; sum; tx_frames = 0 };
  Sched_intf.Packed.add_iface t.sched j

let remove_port t j =
  if Hashtbl.mem t.ports j then begin
    Hashtbl.remove t.ports j;
    Sched_intf.Packed.remove_iface t.sched j
  end

let ports t =
  Hashtbl.fold (fun j _ acc -> j :: acc) t.ports [] |> List.sort Int.compare

let register_flow t ~flow ?(weight = 1.0) ~allowed () =
  Sched_intf.Packed.add_flow t.sched ~flow ~weight ~allowed

let send t pkt = Sched_intf.Packed.enqueue t.sched pkt

let transmit t j =
  match Hashtbl.find t.ports j with
  | exception Not_found -> invalid_arg "Bridge.transmit: unknown port"
  | port -> (
      match Sched_intf.Packed.next_packet t.sched j with
      | None -> None
      | Some pkt ->
          (* The application addressed the packet to the virtual interface;
             emit it with the physical port's addresses.  Only the payload
             length varies per frame, so the checksum is the port's
             address sum with the length folded in. *)
          t.rewrites <- t.rewrites + 1;
          port.tx_frames <- port.tx_frames + 1;
          Some
            {
              Vif.src = port.local;
              dst = port.gateway;
              payload = pkt;
              checksum =
                Vif.checksum_of_sum port.sum ~payload_len:pkt.Packet.size;
            })

let tx_frames t j =
  match Hashtbl.find t.ports j with
  | exception Not_found -> invalid_arg "Bridge.tx_frames: unknown port"
  | port -> port.tx_frames

let rewrites t = t.rewrites
