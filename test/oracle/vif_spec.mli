(** The executable spec of the bridge's header checksum: the 16-bit
    ones'-complement sum of the header's 16-bit words, built as a list and
    folded word by word with end-around carry, then complemented.  The
    shipped [Vif] computes the same value in plain int arithmetic from a
    per-port precomputed address sum; the test suites hold the two
    equal. *)

val header_checksum_fields :
  src_mac:int64 ->
  src_ip:int32 ->
  dst_mac:int64 ->
  dst_ip:int32 ->
  payload_len:int ->
  int
(** Checksum over raw header fields: the four 16-bit words of each MAC
    (all 64 bits), the two of each IP, and the low 16 bits of
    [payload_len]. *)

val header_checksum :
  src:Midrr_bridge.Vif.addr -> dst:Midrr_bridge.Vif.addr -> payload_len:int -> int
(** [header_checksum_fields] over two addresses. *)
