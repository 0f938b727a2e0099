(* A Drr_engine (miDRR) instance behind a Sched_intf.S shim, handed to a
   platform (Scenario, Bridge) through [packed].

   The shim counts decisions and packets, and checks every packet it
   hands out against the flow's interface preference as the wrapped
   scheduler reports it ([allowed_ifaces], re-read after every change).
   With [traced] it records a core-layer span around every call; with
   [timed] (untraced runs) it only times the decisions that return a
   packet, which is the transmit latency the simulator sees. *)

open Midrr_core

let max_flows = 256
let max_ifaces = 64

type t = {
  e : Drr_engine.t;
  traced : bool;
  timed : bool;
  lat : Tr.Samples.t;
  allow : Bytes.t;  (** [max_flows * max_ifaces] preference bits *)
  mutable decisions : int;
  mutable packets : int;
  mutable violations : int;
}

let create ?(traced = false) ?(timed = false) ?(lat = Tr.Samples.create ()) e =
  Tr.Samples.clear lat;
  {
    e;
    traced;
    timed;
    lat;
    allow = Bytes.make (max_flows * max_ifaces) '\000';
    decisions = 0;
    packets = 0;
    violations = 0;
  }

let refresh_allow t flow =
  if flow >= 0 && flow < max_flows then begin
    Bytes.fill t.allow (flow * max_ifaces) max_ifaces '\000';
    List.iter
      (fun j ->
        if j >= 0 && j < max_ifaces then
          Bytes.unsafe_set t.allow ((flow * max_ifaces) + j) '\001')
      (Drr_engine.allowed_ifaces t.e flow)
  end

let allowed t ~flow ~iface =
  flow >= 0 && flow < max_flows && iface >= 0 && iface < max_ifaces
  && Bytes.unsafe_get t.allow ((flow * max_ifaces) + iface) = '\001'

(* [Sched_intf.S] *)

let name t = Drr_engine.name t.e

let add_iface t j =
  if t.traced then Tr.enter ();
  Drr_engine.add_iface t.e j;
  if t.traced then Tr.leave Tr.op_core_other

let remove_iface t j =
  if t.traced then Tr.enter ();
  Drr_engine.remove_iface t.e j;
  if t.traced then Tr.leave Tr.op_core_other

let has_iface t j = Drr_engine.has_iface t.e j
let ifaces t = Drr_engine.ifaces t.e

let add_flow t ~flow ~weight ~allowed =
  if t.traced then Tr.enter ();
  Drr_engine.add_flow t.e ~flow ~weight ~allowed;
  if t.traced then Tr.leave Tr.op_add_flow;
  refresh_allow t flow

let remove_flow t flow =
  if t.traced then Tr.enter ();
  Drr_engine.remove_flow t.e flow;
  if t.traced then Tr.leave Tr.op_remove_flow;
  refresh_allow t flow

let has_flow t flow = Drr_engine.has_flow t.e flow
let flows t = Drr_engine.flows t.e

let set_weight t flow w =
  if t.traced then Tr.enter ();
  Drr_engine.set_weight t.e flow w;
  if t.traced then Tr.leave Tr.op_set_weight

let set_allowed t flow allowed =
  if t.traced then Tr.enter ();
  Drr_engine.set_allowed t.e flow allowed;
  if t.traced then Tr.leave Tr.op_set_allowed;
  refresh_allow t flow

let allowed_ifaces t flow = Drr_engine.allowed_ifaces t.e flow

let enqueue t p =
  if t.traced then begin
    Tr.enter ();
    let ok = Drr_engine.enqueue t.e p in
    Tr.leave Tr.op_enqueue;
    ok
  end
  else Drr_engine.enqueue t.e p

let next_packet t j =
  let r =
    if t.traced then begin
      Tr.enter ();
      let r = Drr_engine.next_packet t.e j in
      Tr.leave Tr.op_next_packet;
      r
    end
    else if t.timed then begin
      let t0 = Tr.now_ns () in
      let r = Drr_engine.next_packet t.e j in
      let t1 = Tr.now_ns () in
      if Option.is_some r then Tr.Samples.push t.lat (t1 - t0);
      r
    end
    else Drr_engine.next_packet t.e j
  in
  t.decisions <- t.decisions + 1;
  (match r with
  | Some p ->
      t.packets <- t.packets + 1;
      if not (allowed t ~flow:p.Packet.flow ~iface:j) then
        t.violations <- t.violations + 1
  | None -> ());
  r

let backlog_bytes t flow = Drr_engine.backlog_bytes t.e flow
let backlog_packets t flow = Drr_engine.backlog_packets t.e flow
let is_backlogged t flow = Drr_engine.is_backlogged t.e flow
let served_bytes t flow = Drr_engine.served_bytes t.e flow
let served_bytes_on t ~flow ~iface = Drr_engine.served_bytes_on t.e ~flow ~iface
let set_sink t s = Drr_engine.set_sink t.e s
let sink t = Drr_engine.sink t.e

let packed t =
  Sched_intf.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let add_iface = add_iface
        let remove_iface = remove_iface
        let has_iface = has_iface
        let ifaces = ifaces
        let add_flow = add_flow
        let remove_flow = remove_flow
        let has_flow = has_flow
        let flows = flows
        let set_weight = set_weight
        let set_allowed = set_allowed
        let allowed_ifaces = allowed_ifaces
        let enqueue = enqueue
        let next_packet = next_packet
        let backlog_bytes = backlog_bytes
        let backlog_packets = backlog_packets
        let is_backlogged = is_backlogged
        let served_bytes = served_bytes
        let served_bytes_on = served_bytes_on
        let set_sink = set_sink
        let sink = sink
      end : Sched_intf.S
        with type t = t),
      t )
