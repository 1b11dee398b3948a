(** The closed-loop engine's issue queue: a binary min-heap of
    processor indices ordered by [(keys.(p), p)].

    The keys live in a caller-owned [float array] indexed by processor,
    so pushing, reading the minimum and re-keying it pass only integers
    and allocate nothing.  Ties on the key break toward the lower
    processor index.  A processor's key may change only while it is
    the minimum (followed by {!fix_min}) or while it is out of the
    heap; keys must not be NaN. *)

type t

val create : keys:float array -> capacity:int -> t
(** An empty heap for at most [capacity] processors, each an index
    into [keys]. *)

val is_empty : t -> bool

val push : t -> int -> unit
(** @raise Invalid_argument when the heap already holds [capacity]
    processors. *)

val min : t -> int
(** The processor with the least [(key, index)].
    @raise Invalid_argument when empty. *)

val pop : t -> unit
(** Remove {!min}.  @raise Invalid_argument when empty. *)

val fix_min : t -> unit
(** Restore the order after the caller rewrote the key of {!min}. *)
