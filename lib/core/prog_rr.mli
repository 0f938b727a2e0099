(** Round robin expressed as a {!Sched_prog} program.

    Rank = a per-interface monotone position counter ("back of the
    rotation"); ineligible flows encountered during a lap are re-ranked
    to the back, eligible ones are served and re-ranked to the back.
    This is the one shipped round robin: [rr] in scenario files and
    [--sched] resolves here.  It is behaviorally identical to the
    reference [Rrobin] kept in the test-only [midrr_oracle] library
    (verified by lockstep differential test). *)

include Sched_intf.S

val create : ?queue_capacity:int -> unit -> t
val packed : t -> Sched_intf.packed
