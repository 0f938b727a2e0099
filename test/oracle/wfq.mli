(** Per-interface weighted fair queueing baseline (start-time fair
    queueing).

    Implements the strategy the paper's introduction analyzes and rejects:
    run WFQ independently on every interface over the flows willing to use
    it.  Each interface keeps its own virtual time and per-flow finish tags;
    the next packet is the one whose flow has the smallest start tag.  On a
    single interface this closely packetizes GPS; across interfaces it
    yields per-interface fair shares, which Figure 1(c) shows violate the
    aggregate max-min allocation (flow a gets 1.5 Mb/s, flow b 0.5 Mb/s).

    Decisions are O(active flows) per packet — fine for a baseline.  This
    bespoke version is test-only: the shipped WFQ is {!Midrr_core.Prog_wfq},
    held equal to it by the lockstep differential. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t

val packed : t -> Sched_intf.packed

val virtual_time : t -> Types.iface_id -> float
(** Interface [j]'s virtual clock (normalized bytes). *)

val finish_tag : t -> flow:Types.flow_id -> iface:Types.iface_id -> float
(** Flow [i]'s finish tag at interface [j]; 0 before any service. *)
