open Midrr_core
module Netsim = Midrr_sim.Netsim
module Link = Midrr_sim.Link
module Instance = Midrr_flownet.Instance
module Maxmin = Midrr_flownet.Maxmin

type scenario = {
  label : string;
  description : string;
  reference : float array;
  measured : (string * float array) list;
}

type result = scenario list

type spec = {
  s_label : string;
  s_desc : string;
  ifaces : (Types.iface_id * float) list;
  flows : (Types.flow_id * float * Types.iface_id list) list;
}

let specs =
  [
    {
      s_label = "fig1a";
      s_desc = "one 2 Mb/s interface, equal weights";
      ifaces = [ (1, Types.mbps 2.0) ];
      flows = [ (0, 1.0, [ 1 ]); (1, 1.0, [ 1 ]) ];
    };
    {
      s_label = "fig1b";
      s_desc = "two 1 Mb/s interfaces, no interface preferences";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 1.0, [ 1; 2 ]) ];
    };
    {
      s_label = "fig1c";
      s_desc = "flow b restricted to interface 2, equal weights";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 1.0, [ 2 ]) ];
    };
    {
      s_label = "fig1c-weighted";
      s_desc = "flow b restricted to interface 2, phi_b = 2 phi_a (infeasible)";
      ifaces = [ (1, Types.mbps 1.0); (2, Types.mbps 1.0) ];
      flows = [ (0, 1.0, [ 1; 2 ]); (1, 2.0, [ 2 ]) ];
    };
  ]

let algorithms spec =
  let caps = spec.ifaces in
  [
    ("midrr", Midrr.packed (Midrr.create ()));
    ("drr-naive", Drr.packed (Drr.create ()));
    ("wfq", Prog_wfq.packed (Prog_wfq.create ()));
    ("round-robin", Prog_rr.packed (Prog_rr.create ()));
    ( "oracle",
      Oracle.packed
        (Oracle.create
           ~capacity:(fun j -> List.assoc j caps)
           ()) );
  ]

let reference_of spec =
  let weights = Array.of_list (List.map (fun (_, w, _) -> w) spec.flows) in
  let capacities = Array.of_list (List.map snd spec.ifaces) in
  let iface_ids = List.map fst spec.ifaces in
  let allowed =
    Array.of_list
      (List.map
         (fun (_, _, ok) ->
           Array.of_list (List.map (fun j -> List.mem j ok) iface_ids))
         spec.flows)
  in
  let inst = Instance.make ~weights ~capacities ~allowed in
  Array.map Types.to_mbps (Maxmin.solve inst).rates

let measure ~horizon spec (name, sched) =
  let sim = Netsim.create ~bin:0.5 ~sched () in
  List.iter (fun (j, r) -> Netsim.add_iface sim j (Link.constant r)) spec.ifaces;
  List.iter
    (fun (f, w, allowed) ->
      Netsim.add_flow sim f ~weight:w ~allowed
        (Netsim.Backlogged { pkt_size = 1000 }))
    spec.flows;
  Netsim.run sim ~until:horizon;
  let rates =
    List.map
      (fun (f, _, _) ->
        Netsim.avg_rate sim f ~t0:(horizon /. 5.0) ~t1:horizon)
      spec.flows
  in
  (name, Array.of_list rates)

let run ?(horizon = 30.0) () =
  List.map
    (fun spec ->
      {
        label = spec.s_label;
        description = spec.s_desc;
        reference = reference_of spec;
        measured = List.map (measure ~horizon spec) (algorithms spec);
      })
    specs

let print ppf result =
  Format.fprintf ppf "@[<v>Figure 1 / Section 1 examples (rates in Mb/s)@,";
  List.iter
    (fun s ->
      Format.fprintf ppf "@,%s: %s@," s.label s.description;
      Format.fprintf ppf "  %-14s a=%.3f b=%.3f@," "reference"
        s.reference.(0) s.reference.(1);
      List.iter
        (fun (name, rates) ->
          Format.fprintf ppf "  %-14s a=%.3f b=%.3f@," name rates.(0)
            rates.(1))
        s.measured)
    result;
  Format.fprintf ppf "@]"
