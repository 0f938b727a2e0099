module Scenario = Midrr_sim.Scenario

let sched : Scenario.sched_spec -> Sched_intf.packed = function
  | Sched_midrr counter ->
      Sched_intf.Packed
        ( (module Drr_engine_ref),
          Drr_engine_ref.create ?counter_max:counter
            Drr_engine_ref.Service_flags )
  | Sched_drr ->
      Sched_intf.Packed
        ((module Drr_engine_ref), Drr_engine_ref.create Drr_engine_ref.Plain)
  | Sched_wfq -> Wfq.packed (Wfq.create ())
  | Sched_rr -> Rrobin.packed (Rrobin.create ())
  | (Sched_sprio | Sched_srpt | Sched_edf | Sched_lstf) as spec ->
      Scenario.make_sched spec

let sched_of scenario () = sched (Scenario.sched_spec scenario)
