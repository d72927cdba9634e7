(** MOD durable stack: {!Pfds.Pstack} under Functional Shadowing.

    The version word is the list head (null = empty): push allocates one
    node, pop shares the tail, each Basic-interface operation is a
    one-fence FASE. *)

(* Backup-policy op log *)
let op_push = 0
let op_pop = 1

include Durable.Make (struct
  type elt = Pmem.Word.t

  let structure = "dstack"
  let descriptor = false
  let empty_version _heap = Pfds.Pstack.empty
  let shape = ("stack cons cell (2 scanned words)", Some 2)

  let apply heap version ~opcode ~a0 ~a1:_ =
    match opcode with
    | 0 -> Pfds.Pstack.push heap version a0
    | 1 -> (
        match Pfds.Pstack.pop heap version with
        | Some (_, shadow) -> shadow
        | None -> version)
    | _ -> Printf.ksprintf failwith "dstack: unknown log opcode %d" opcode

  let add_op = "push"
  let add_pure = Pfds.Pstack.push
  let add_entry = Durable.scalar_entry op_push
  let size_in = Pfds.Pstack.length
  let is_empty_in _heap version = Pfds.Pstack.is_empty version
  let iter_in = Pfds.Pstack.iter
end)

let push = add
let push_many = add_many

let pop t =
  take t "pop" ~entry:(Durable.nullary_entry op_pop) Pfds.Pstack.pop

let peek t =
  span t "peek" (fun () ->
      Pfds.Pstack.peek (Handle.heap t) (Handle.current t))

let length = size
let iter = iter_elts
let to_list t = Pfds.Pstack.to_list (Handle.heap t) (Handle.current t)
