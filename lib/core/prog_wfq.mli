(** WFQ expressed as a {!Sched_prog} program.

    Rank = the flow's per-interface finish tag [F_ij]; floor = the
    interface's virtual time [v_j]; service sets [v_j := rank] and
    [F_ij := rank + size/weight].  This is the one shipped WFQ: [wfq] in
    scenario files and [--sched] resolves here.  It is behaviorally
    identical to the bespoke scan-based [Wfq] kept in the test-only
    [midrr_oracle] library (verified by lockstep differential test), but
    each decision is O(log backlogged) instead of a scan over every
    flow. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed

val virtual_time : t -> Types.iface_id -> float
(** The interface's current virtual time ([neg_infinity] when the
    interface is offline). *)
