(** Virtual-interface frames and header rewriting.

    The paper's Linux bridge (Fig. 3) presents applications with one
    virtual interface holding an arbitrary address; before transmission on
    the physical interface chosen by the scheduler, the bridge rewrites
    the Ethernet/IP headers to the physical interface's addresses and fixes
    the checksum.  This module models that datapath: compact address
    records, a frame type carrying a header with a real 16-bit
    ones'-complement checksum, and the two halves of that checksum.  The
    address part ({!addr_sum}) is fixed per (source, destination) pair, so
    the bridge computes it once per port; per frame only the payload
    length is folded in ({!checksum_of_sum}), the precomputed-sum update
    of RFC 1624. *)

type addr = private { mac : int64;  (** 48-bit MAC in the low bits *) ip : int32 }
(** Built only through {!addr}, so every MAC fits 48 bits. *)

val addr : mac:int64 -> ip:int32 -> addr
(** Raises [Invalid_argument] if [mac] does not fit 48 bits. *)

type frame = {
  src : addr;
  dst : addr;
  payload : Midrr_core.Packet.t;
  checksum : int;  (** header checksum, 16-bit *)
}

val make : src:addr -> dst:addr -> Midrr_core.Packet.t -> frame
(** Build a frame with a freshly computed checksum. *)

val rewrite : frame -> src:addr -> dst:addr -> frame
(** Replace addresses (virtual -> physical) and recompute the checksum. *)

val checksum_valid : frame -> bool
(** Recompute and compare — the invariant tests rely on. *)

val header_checksum : src:addr -> dst:addr -> payload_len:int -> int
(** The 16-bit internet checksum over the modeled header fields: the
    four 16-bit words of each MAC, the two of each IP, and the low 16
    bits of [payload_len].  Equal to
    [checksum_of_sum (addr_sum ...) ~payload_len]. *)

val addr_sum :
  src_mac:int64 -> src_ip:int32 -> dst_mac:int64 -> dst_ip:int32 -> int
(** Ones'-complement sum, folded to 16 bits, of the address words of a
    header: all 64 bits of each MAC and all 32 of each IP.  Allocates
    nothing. *)

val checksum_of_sum : int -> payload_len:int -> int
(** [checksum_of_sum s ~payload_len] folds the low 16 bits of
    [payload_len] into the non-negative partial sum [s] (typically from
    {!addr_sum}) and returns the complemented 16-bit checksum.  Allocates
    nothing. *)

val pp_addr : Format.formatter -> addr -> unit
val pp : Format.formatter -> frame -> unit
