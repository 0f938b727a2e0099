(** Intrusive circular doubly-linked rings.

    Like the test oracle's [Ring], but the prev/next/linked node state
    lives {e inside} the element itself instead of in a separately
    allocated node, so linking and unlinking an element allocates nothing
    and needs no [option] indirection on the hot path.  The fast DRR engine threads one
    ring per interface through its per-(flow, interface) link records: only
    backlogged, flag-eligible flows are linked, which is what makes a
    scheduling decision O(active flows) rather than O(total flows).

    The ring type ['a t] is polymorphic so it can appear inside the
    element's own (mutually recursive) type definition; the operations
    come from {!Make}, instantiated once the element type exists.

    Ordering semantics are identical to [Ring] — same head movement on
    removal, same insert-before-head meaning of [push_back] — so an engine
    built on either structure visits flows in the same order. *)

type 'a t
(** A ring of intrusive elements of type ['a]. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val head : 'a t -> 'a option

(** How to reach the node state embedded in an element.  [prev]/[next] may
    return anything for an unlinked element; [linked] must be [false] for
    an element never yet inserted. *)
module type ELT = sig
  type t

  val prev : t -> t
  val set_prev : t -> t -> unit
  val next : t -> t
  val set_next : t -> t -> unit
  val linked : t -> bool
  val set_linked : t -> bool -> unit
end

module Make (E : ELT) : sig
  val push_back : E.t t -> E.t -> unit
  (** Insert at the "end" of the ring: just before the head, so a full
      traversal starting at the head visits it last.  Raises
      [Invalid_argument] if the element is already linked. *)

  val insert_before : E.t t -> anchor:E.t -> E.t -> unit
  (** Insert immediately before [anchor].  The head does not move.  Raises
      [Invalid_argument] on an unlinked anchor or an already linked
      element. *)

  val remove : E.t t -> E.t -> unit
  (** Unlink the element; if it was the head, the head moves to its
      successor.  Raises [Invalid_argument] if not linked. *)

  val next : E.t t -> E.t -> E.t
  (** Clockwise successor, wrapping.  Raises [Invalid_argument] on an
      unlinked element or empty ring. *)

  val iter : E.t t -> (E.t -> unit) -> unit
  (** Visit each element once, starting at the head. *)

  val to_list : E.t t -> E.t list
end
