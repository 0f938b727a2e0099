(* The list-based checksum the bridge shipped before the address sum was
   precomputed per port, kept verbatim as the executable spec.  The body
   takes the header fields directly so that properties can also feed it
   MACs wider than [Vif.addr] admits. *)

let header_checksum_fields ~src_mac ~src_ip ~dst_mac ~dst_ip ~payload_len =
  let words = ref [] in
  let push64 v =
    for shift = 0 to 3 do
      words :=
        Int64.to_int (Int64.logand (Int64.shift_right_logical v (16 * shift)) 0xFFFFL)
        :: !words
    done
  in
  let push32 v =
    words := Int32.to_int (Int32.logand v 0xFFFFl) :: !words;
    words :=
      Int32.to_int (Int32.logand (Int32.shift_right_logical v 16) 0xFFFFl)
      :: !words
  in
  push64 src_mac;
  push64 dst_mac;
  push32 src_ip;
  push32 dst_ip;
  words := payload_len land 0xFFFF :: !words;
  let sum =
    List.fold_left
      (fun acc w ->
        let s = acc + w in
        (s land 0xFFFF) + (s lsr 16))
      0 !words
  in
  lnot sum land 0xFFFF

let header_checksum ~(src : Midrr_bridge.Vif.addr) ~(dst : Midrr_bridge.Vif.addr)
    ~payload_len =
  header_checksum_fields ~src_mac:src.mac ~src_ip:src.ip ~dst_mac:dst.mac
    ~dst_ip:dst.ip ~payload_len
