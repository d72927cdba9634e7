(** MOD durable queue: {!Pfds.Pqueue} (Okasaki batched queue) under
    Functional Shadowing. *)

(* Backup-policy op log *)
let op_enqueue = 0
let op_dequeue = 1

include Durable.Make (struct
  type elt = Pmem.Word.t

  let structure = "dqueue"
  let descriptor = true
  let empty_version = Pfds.Pqueue.create
  let shape = ("queue descriptor (2 scanned words)", Some 2)

  let apply heap version ~opcode ~a0 ~a1:_ =
    match opcode with
    | 0 -> Pfds.Pqueue.enqueue heap version a0
    | 1 -> (
        match Pfds.Pqueue.dequeue heap version with
        | Some (_, shadow) -> shadow
        | None -> version)
    | _ -> Printf.ksprintf failwith "dqueue: unknown log opcode %d" opcode

  let add_op = "enqueue"
  let add_pure = Pfds.Pqueue.enqueue
  let add_entry = Durable.scalar_entry op_enqueue
  let size_in = Pfds.Pqueue.length
  let is_empty_in = Pfds.Pqueue.is_empty
  let iter_in = Pfds.Pqueue.iter
end)

let dequeue_pure = Pfds.Pqueue.dequeue
let enqueue = add
let enqueue_many = add_many

let dequeue t =
  take t "dequeue" ~entry:(Durable.nullary_entry op_dequeue) dequeue_pure

let length = size
let iter = iter_elts
let to_list t = Pfds.Pqueue.to_list (Handle.heap t) (Handle.current t)
