(** The typed scheduler-event stream.

    Every observable state change in a scheduler or platform substrate is
    one constructor of {!t}.  Producers ({!Midrr_core.Drr_engine}, the
    PIFO rank programs, [Oracle], the simulator, the bridge, the HTTP
    proxy) emit into an optional sink; consumers (ring-buffer recorder,
    per-cell counters, the fairness monitor, the JSONL exporter)
    subscribe to the one stream instead of polling three incompatible
    substrates.

    Flow and interface identifiers are plain [int]s so this library stays
    dependency-free; they are the same values as
    [Midrr_core.Types.flow_id] / [iface_id]. *)

type t =
  | Enqueue of { flow : int; bytes : int }
      (** a packet was accepted into the flow's queue *)
  | Drop of { flow : int; bytes : int }
      (** a packet was rejected (unknown flow or full queue) *)
  | Serve of { flow : int; iface : int; bytes : int; deficit : float }
      (** the scheduling decision: [iface] dequeued [bytes] from [flow];
          [deficit] is the remaining per-link deficit after the send (0 for
          schedulers without deficit state) *)
  | Turn of { flow : int; iface : int }
      (** the interface's round-robin cursor granted the flow a service
          turn (quantum top-up in DRR terms) *)
  | Flag_reset of { flow : int; iface : int }
      (** miDRR skipped the flow and consumed one unit of its service
          flag/counter (Algorithm 3.2's skip-and-clear) *)
  | Iface_up of { iface : int }
  | Iface_down of { iface : int }
  | Flow_add of { flow : int; weight : float }
  | Flow_remove of { flow : int }
  | Weight_change of { flow : int; weight : float }
  | Complete of { flow : int; iface : int; bytes : int }
      (** platform-level delivery: the bytes finished transmission on the
          interface (emitted by the simulator / proxy, not by schedulers) *)

val flow : t -> int option
(** The flow the event concerns, when it concerns one. *)

val iface : t -> int option

val bytes : t -> int option
(** Byte payload of [Enqueue]/[Drop]/[Serve]/[Complete] events. *)

val label : t -> string
(** Short lowercase tag, e.g. ["serve"]; stable across versions (used as
    the ["ev"] field of the JSONL export). *)

val pp : Format.formatter -> t -> unit
