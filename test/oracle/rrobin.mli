(** Packet-by-packet round robin baseline.

    Each interface rotates over the flows willing to use it and sends one
    packet per turn regardless of size.  Included as the simplest baseline:
    it is work-conserving but fair in packets rather than bytes, so flows
    with large packets are favored — the defect DRR's deficit counter
    fixes.  This bespoke version is test-only: the shipped round robin is
    {!Midrr_core.Prog_rr}, held equal to it by the lockstep differential. *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t

val packed : t -> Sched_intf.packed
