type addr = { mac : int64; ip : int32 }

let addr ~mac ~ip =
  if not (Int64.equal (Int64.logand mac 0xFFFF_0000_0000_0000L) 0L) then
    invalid_arg "Vif.addr: MAC wider than 48 bits";
  { mac; ip }

type frame = {
  src : addr;
  dst : addr;
  payload : Midrr_core.Packet.t;
  checksum : int;
}

(* The header checksum is the 16-bit ones'-complement sum of its words,
   the way IPv4 header checksums are computed.  That sum does not depend
   on word order, so it is taken in plain int arithmetic: add the words,
   then fold the carries back in.  Only [Int64.to_int]/[Int32.to_int] and
   [Int64.compare] touch the boxed fields, none of which allocates. *)

(* Sum of the four 16-bit words of a 64-bit value.  [Int64.to_int] keeps
   bits 0..62; bit 63 is the sign. *)
let sum64 v =
  let i = Int64.to_int v in
  (i land 0xFFFF)
  + ((i lsr 16) land 0xFFFF)
  + ((i lsr 32) land 0xFFFF)
  + ((i lsr 48) land 0x7FFF)
  + if Int64.compare v 0L < 0 then 0x8000 else 0

(* Sum of the two 16-bit words of a 32-bit value. *)
let sum32 v =
  let i = Int32.to_int v land 0xFFFF_FFFF in
  (i land 0xFFFF) + (i lsr 16)

(* End-around carry until the sum fits 16 bits.  The result is 0 only for
   an all-zero sum, as with word-by-word folding. *)
let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s

let addr_sum ~src_mac ~src_ip ~dst_mac ~dst_ip =
  fold (sum64 src_mac + sum64 dst_mac + sum32 src_ip + sum32 dst_ip)

let checksum_of_sum sum ~payload_len =
  lnot (fold (sum + (payload_len land 0xFFFF))) land 0xFFFF

let header_checksum ~src ~dst ~payload_len =
  checksum_of_sum
    (addr_sum ~src_mac:src.mac ~src_ip:src.ip ~dst_mac:dst.mac ~dst_ip:dst.ip)
    ~payload_len

let make ~src ~dst payload =
  {
    src;
    dst;
    payload;
    checksum =
      header_checksum ~src ~dst ~payload_len:payload.Midrr_core.Packet.size;
  }

let rewrite frame ~src ~dst =
  {
    frame with
    src;
    dst;
    checksum =
      header_checksum ~src ~dst
        ~payload_len:frame.payload.Midrr_core.Packet.size;
  }

let checksum_valid frame =
  Int.equal frame.checksum
    (header_checksum ~src:frame.src ~dst:frame.dst
       ~payload_len:frame.payload.Midrr_core.Packet.size)

let pp_addr ppf a = Format.fprintf ppf "%012Lx/%08lx" a.mac a.ip

let pp ppf f =
  Format.fprintf ppf "%a -> %a (%a, csum=%04x)" pp_addr f.src pp_addr f.dst
    Midrr_core.Packet.pp f.payload f.checksum
