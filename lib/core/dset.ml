(** MOD durable set: a CHAMP trie with unit values (the paper's set
    shares the map's CHAMP implementation the same way). *)

module Make (K : Pfds.Kv.CODEC) = struct
  module T = Pfds.Champ.Make (K) (Pfds.Kv.Unit)

  (* Backup-policy op log: the map's opcodes, so a set slot replays
     exactly as a map-to-unit slot would *)
  let op_add = 0
  let op_remove = 1
  let remove_pure heap version key = T.remove heap version key

  include Durable.Make (struct
    type elt = K.t

    let structure = "dset"
    let descriptor = false
    let empty_version _heap = T.empty
    let shape = ("CHAMP node (scanned block)", None)
    let add_pure heap version key = fst (T.insert heap version key ())

    let apply heap version ~opcode ~a0 ~a1:_ =
      match opcode with
      | 0 -> add_pure heap version (K.read heap a0)
      | 1 -> fst (remove_pure heap version (K.read heap a0))
      | _ -> Printf.ksprintf failwith "dset: unknown log opcode %d" opcode

    let add_op = "add"

    let add_entry key =
      Option.bind (K.log_word key) (Durable.scalar_entry op_add)

    let size_in = T.cardinal
    let is_empty_in _heap version = Pmem.Word.is_null version
    let iter_in heap version fn = T.iter heap version (fun k () -> fn k)
  end)

  let mem_in heap version key = T.mem heap version key

  let remove t key =
    let entry = Option.bind (K.log_word key) (Durable.scalar_entry op_remove) in
    Option.is_some
      (take t "remove" ?entry (fun heap cur ->
           match remove_pure heap cur key with
           | shadow, true -> Some ((), shadow)
           | _, false -> None))

  let mem t key =
    span t "mem" (fun () -> mem_in (Handle.heap t) (Handle.current t) key)

  let cardinal = size
  let iter = iter_elts

  let fold t fn acc =
    T.fold (Handle.heap t) (Handle.current t) (fun k () acc -> fn k acc) acc
end
