(* Clock, sample buffers and the span tracer of the benchmark.

   Spans are recorded by the benchmark's own code around every call it
   makes into a layer's public functions.  Each span belongs to one
   operation, and each operation to one layer.  A span's self time is
   its duration minus the time its child spans cover; self minor words
   are computed the same way.  Per-operation totals are exact; the first
   [span_cap] spans are also kept in memory with their parent and root
   span, and written out as a Chrome trace when the run ends.

   Everything here runs on the calling domain and allocates nothing per
   span (the clock is a [noalloc] C stub, [Gc.minor_words] is unboxed),
   so the word counts a span reports are the callee's. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* --- sample buffers ------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  (* Beyond this many samples a buffer keeps the first [cap] only.  A
     buffer created with the capacity its workload needs never grows, so
     its size is the same in every run. *)
  let cap = 1 lsl 21
  let create ?(capacity = 4096) () = { a = Array.make capacity 0; n = 0 }
  let clear s = s.n <- 0
  let length s = s.n

  let push s v =
    if s.n >= Array.length s.a && s.n < cap then begin
      let a = Array.make (min cap (2 * Array.length s.a)) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    if s.n < Array.length s.a then begin
      Array.unsafe_set s.a s.n v;
      s.n <- s.n + 1
    end

  (* Heapsort of the first [n] elements in place: sorting copies nothing,
     so the heap the benchmark measures never holds a second buffer. *)
  let sort_prefix (a : int array) n =
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(i) then begin
          swap i c;
          sift c len
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for last = n - 1 downto 1 do
      swap 0 last;
      sift 0 last
    done

  (* Exact nearest-rank quantiles from the sorted samples (which leaves
     the buffer sorted). *)
  let quantiles s qs =
    if s.n = 0 then List.map (fun _ -> 0.0) qs
    else begin
      sort_prefix s.a s.n;
      List.map
        (fun q ->
          let rank = int_of_float (Float.ceil (q *. Float.of_int s.n)) in
          Float.of_int s.a.(max 0 (min (s.n - 1) (rank - 1))))
        qs
    end

  let quantile s q = List.hd (quantiles s [ q ])
end

(* --- layers and operations ---------------------------------------------- *)

let layer_names = [| "core"; "bridge"; "obs"; "sim"; "flownet"; "shard"; "trace" |]

(* Operation codes; [op_layer] maps each to its layer. *)
let op_next_packet = 0
let op_enqueue = 1
let op_add_flow = 2
let op_remove_flow = 3
let op_set_weight = 4
let op_set_allowed = 5
let op_core_other = 6
let op_serve = 7
let op_transmit = 8
let op_send = 9
let op_register = 10
let op_sink = 11
let op_publish = 12
let op_run = 13
let op_solve = 14
let op_run_ops_single = 15
let op_apply_inline = 16
let op_run_ops = 17
let op_run_ops_record = 18
let op_fleet_gen = 19

let op_names =
  [|
    "next_packet"; "enqueue"; "add_flow"; "remove_flow"; "set_weight";
    "set_allowed"; "core_other"; "serve"; "transmit"; "send"; "register_flow";
    "sink"; "publish"; "run_text"; "maxmin_solve"; "run_ops_single";
    "apply_inline"; "run_ops"; "run_ops_record"; "fleet_ops";
  |]

let op_layer = [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2; 3; 4; 5; 5; 5; 5; 6 |]
let n_ops = Array.length op_names

(* --- tracer state -------------------------------------------------------- *)

let max_depth = 32
let st_ns = Array.make max_depth 0
let st_words : float array = Array.make max_depth 0.0
let ch_ns = Array.make max_depth 0
let ch_words : float array = Array.make max_depth 0.0
let st_span = Array.make max_depth (-1)
let depth = ref 0
let calls = Array.make n_ops 0
let total_ns = Array.make n_ops 0
let self_ns = Array.make n_ops 0
let self_words : float array = Array.make n_ops 0.0
let self_samples = Array.init n_ops (fun _ -> Samples.create ())
let span_cap = 100_000
let sp_op = Array.make span_cap 0
let sp_parent = Array.make span_cap (-1)
let sp_root = Array.make span_cap (-1)
let sp_start = Array.make span_cap 0
let sp_stop = Array.make span_cap 0
let n_spans = ref 0

let reset () =
  depth := 0;
  Array.fill calls 0 n_ops 0;
  Array.fill total_ns 0 n_ops 0;
  Array.fill self_ns 0 n_ops 0;
  Array.fill self_words 0 n_ops 0.0;
  Array.iter Samples.clear self_samples

let enter () =
  let d = !depth in
  ch_ns.(d) <- 0;
  ch_words.(d) <- 0.0;
  if !n_spans < span_cap then begin
    st_span.(d) <- !n_spans;
    incr n_spans
  end
  else st_span.(d) <- -1;
  depth := d + 1;
  st_words.(d) <- Gc.minor_words ();
  st_ns.(d) <- now_ns ()

let leave op =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let dur = t1 - st_ns.(d) in
  let words = w1 -. st_words.(d) in
  let self = dur - ch_ns.(d) in
  calls.(op) <- calls.(op) + 1;
  total_ns.(op) <- total_ns.(op) + dur;
  self_ns.(op) <- self_ns.(op) + self;
  self_words.(op) <- self_words.(op) +. (words -. ch_words.(d));
  Samples.push self_samples.(op) self;
  if d > 0 then begin
    ch_ns.(d - 1) <- ch_ns.(d - 1) + dur;
    ch_words.(d - 1) <- ch_words.(d - 1) +. words
  end;
  let s = st_span.(d) in
  if s >= 0 then begin
    sp_op.(s) <- op;
    sp_parent.(s) <- (if d > 0 then st_span.(d - 1) else -1);
    sp_root.(s) <- (if d > 0 then st_span.(0) else s);
    sp_start.(s) <- st_ns.(d);
    sp_stop.(s) <- t1
  end

(* Self time summed over the operations of one layer. *)
let layer_self_ns layer =
  let acc = ref 0 in
  Array.iteri (fun op l -> if l = layer then acc := !acc + self_ns.(op)) op_layer;
  !acc

(* Spans as a Chrome trace: one complete ("X") event per span, with the
   parent and the root span (the request the span belongs to) as args.
   Spans whose parent was never closed (a run cut short) are skipped. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let t0 = if !n_spans > 0 then sp_start.(0) else 0 in
  let first = ref true in
  for s = 0 to !n_spans - 1 do
    if sp_stop.(s) >= sp_start.(s) && sp_stop.(s) > 0 then begin
      if not !first then output_char oc ',';
      first := false;
      let op = sp_op.(s) in
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"root\":%d}}"
        op_names.(op)
        layer_names.(op_layer.(op))
        (Float.of_int (sp_start.(s) - t0) /. 1e3)
        (Float.of_int (sp_stop.(s) - sp_start.(s)) /. 1e3)
        s sp_parent.(s) sp_root.(s)
    end
  done;
  output_string oc "\n]}\n";
  close_out oc
