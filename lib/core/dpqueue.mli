(** MOD durable priority queue — a sixth datastructure produced by the
    paper's recipe (Section 4.2) from a purely functional leftist heap
    ({!Pfds.Pheap}).  A {!Durable.S} with [elt = int] (a priority;
    [add] = [insert]); [iter_elts] is unordered. *)

include Durable.S with type t = Handle.t and type elt = int

val insert : t -> int -> unit
val find_min : t -> int option
val delete_min : t -> int option
val insert_many : t -> int list -> unit
val cardinal : t -> int
val fold : t -> (int -> 'a -> 'a) -> 'a -> 'a
