(** MOD durable priority queue — a sixth datastructure produced by the
    paper's recipe (Section 4.2) from a purely functional leftist heap
    ({!Pfds.Pheap}).  Included to demonstrate that new MOD datastructures
    really are a recipe application: the whole module is one
    {!Durable.PURE} instance plus [find_min] / [delete_min]. *)

(* Backup-policy op log *)
let op_insert = 0
let op_delete_min = 1

include Durable.Make (struct
  type elt = int

  let structure = "dpqueue"
  let descriptor = false
  let empty_version _heap = Pfds.Pheap.empty
  let shape = ("leftist-heap node (4 scanned words)", Some 4)

  let apply heap version ~opcode ~a0 ~a1:_ =
    match opcode with
    | 0 -> Pfds.Pheap.insert heap version (Pmem.Word.to_int a0)
    | 1 -> (
        match Pfds.Pheap.delete_min heap version with
        | Some (_, shadow) -> shadow
        | None -> version)
    | _ -> Printf.ksprintf failwith "dpqueue: unknown log opcode %d" opcode

  let add_op = "insert"
  let add_pure = Pfds.Pheap.insert
  let add_entry p = Some (op_insert, Pmem.Word.of_int p, Pmem.Word.of_int 0)
  let size_in = Pfds.Pheap.cardinal
  let is_empty_in _heap version = Pfds.Pheap.is_empty version

  (* Unordered: the leftist heap has no cheap in-order traversal short of
     draining it. *)
  let iter_in heap version fn =
    Pfds.Pheap.fold heap version (fun p () -> fn p) ()
end)

let insert = add
let insert_many = add_many

let find_min t =
  span t "find_min" (fun () ->
      Pfds.Pheap.find_min (Handle.heap t) (Handle.current t))

let delete_min t =
  take t "delete_min" ~entry:(Durable.nullary_entry op_delete_min)
    Pfds.Pheap.delete_min

let cardinal = size
let fold t fn acc = Pfds.Pheap.fold (Handle.heap t) (Handle.current t) fn acc
