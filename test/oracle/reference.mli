(** The reference implementation of each scenario discipline.

    [midrr] and [drr] resolve to {!Drr_engine_ref} (the executable spec),
    [wfq] and [rr] to the bespoke {!Wfq} and {!Rrobin}; the rank-program
    disciplines with no bespoke twin resolve to their shipped program.
    Passing {!sched_of} as [Scenario.run ~sched] runs a scenario entirely
    on the references, which is how the golden, sweep and telemetry
    suites pin the shipped engines to the spec. *)

val sched : Midrr_sim.Scenario.sched_spec -> Sched_intf.packed
(** A fresh reference instance of the discipline. *)

val sched_of : Midrr_sim.Scenario.t -> unit -> Sched_intf.packed
(** [sched_of s] builds the reference for [s]'s [scheduler] directive. *)
