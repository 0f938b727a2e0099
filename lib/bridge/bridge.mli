(** The packet-steering bridge of paper §5 / Figure 3.

    Applications send through one virtual interface; the bridge classifies
    each packet to a flow, hands it to the packet scheduler, and — when a
    physical port is free — pulls the scheduler's decision, rewrites the
    headers from the virtual to the chosen physical interface and emits the
    frame.  The address part of each port's header checksum is summed once
    in {!add_port}; a transmit folds in only the packet's length
    (RFC 1624's precomputed-sum update), so one frame costs one small
    integer fold on top of the decision.  This mirrors the 1,010-line Linux kernel module functionally:
    virtual address transparency, per-port rewriting, and a scheduling
    decision on every transmit opportunity. *)

open Midrr_core

type t

val create :
  ?vif_addr:Vif.addr -> ?sink:Midrr_obs.Sink.t -> sched:Sched_intf.packed ->
  unit -> t
(** [vif_addr] is the arbitrary address presented to applications.
    [sink] subscribes to the scheduler's event stream, stamped with
    seconds since the bridge was created (monotonic clock). *)

val vif_addr : t -> Vif.addr

val add_port :
  t -> Types.iface_id -> local:Vif.addr -> gateway:Vif.addr -> unit
(** Attach a physical interface with its own addresses, and precompute
    their checksum sum ({!Vif.addr_sum}) for the port.  Raises
    [Invalid_argument] if the port is already attached. *)

val remove_port : t -> Types.iface_id -> unit

val ports : t -> Types.iface_id list

val register_flow :
  t -> flow:Types.flow_id -> ?weight:float -> allowed:Types.iface_id list -> unit -> unit
(** Install the user's preferences for a flow. *)

val send : t -> Packet.t -> bool
(** Application-side entry: accept a packet addressed to the virtual
    interface.  [false] when the flow is unknown or its queue is full. *)

val transmit : t -> Types.iface_id -> Vif.frame option
(** Pull one frame for the physical port: asks the scheduler which packet
    to send and emits it with the port's addresses.  Its checksum is the
    port's precomputed address sum with the payload length folded in,
    equal to [Vif.header_checksum ~src:local ~dst:gateway ~payload_len].
    Each call returns a fresh frame.  [None] when nothing is eligible;
    raises [Invalid_argument] for an unknown port. *)

val tx_frames : t -> Types.iface_id -> int
(** Frames emitted through the port so far. *)

val rewrites : t -> int
(** Total header rewrites performed. *)
