(** MOD durable map (Section 4: CHAMP trie + Functional Shadowing).

    The installed version is the CHAMP root itself (null = empty map), so
    each update flushes exactly the copied tree path and nothing else.

    Basic interface: [insert], [remove] are self-contained FASEs with one
    ordering point.  Composition interface: [insert_pure] / [remove_pure]
    return shadow versions for multi-update FASEs, installed with
    [Handle.commit] or {!Commit.siblings} / {!Commit.unrelated}. *)

module Make (K : Pfds.Kv.CODEC) (V : Pfds.Kv.CODEC) = struct
  module T = Pfds.Champ.Make (K) (V)

  let insert_pure heap version key value =
    let tree', _grew = T.insert heap version key value in
    tree'

  (* Returns the unchanged version itself (un-owned) when the key was
     absent; callers skip the commit in that case. *)
  let remove_pure heap version key = T.remove heap version key

  (* Backup-policy op log *)
  let op_insert = 0
  let op_remove = 1

  include Durable.Make (struct
    type elt = K.t * V.t

    let structure = "dmap"
    let descriptor = false
    let empty_version _heap = T.empty
    let shape = ("CHAMP node (scanned block)", None)

    let apply heap version ~opcode ~a0 ~a1 =
      match opcode with
      | 0 -> insert_pure heap version (K.read heap a0) (V.read heap a1)
      | 1 -> fst (remove_pure heap version (K.read heap a0))
      | _ -> Printf.ksprintf failwith "dmap: unknown log opcode %d" opcode

    let add_op = "insert"
    let add_pure heap version (key, value) = insert_pure heap version key value

    let add_entry (key, value) =
      match (K.log_word key, V.log_word value) with
      | Some kw, Some vw -> Some (op_insert, kw, vw)
      | _ -> None

    (* O(n): cardinality is not materialized in the versioned state. *)
    let size_in = T.cardinal
    let is_empty_in _heap version = Pmem.Word.is_null version
    let iter_in heap version fn = T.iter heap version (fun k v -> fn (k, v))
  end)

  let find_in heap version key = T.find heap version key
  let mem_in heap version key = T.mem heap version key
  let insert t key value = add t (key, value)
  let insert_many = add_many

  let remove t key =
    let entry = Option.bind (K.log_word key) (Durable.scalar_entry op_remove) in
    Option.is_some
      (take t "remove" ?entry (fun heap cur ->
           match remove_pure heap cur key with
           | shadow, true -> Some ((), shadow)
           | _, false -> None))

  let find t key =
    span t "find" (fun () -> find_in (Handle.heap t) (Handle.current t) key)

  let mem t key =
    span t "mem" (fun () -> mem_in (Handle.heap t) (Handle.current t) key)

  let cardinal = size
  let iter t fn = T.iter (Handle.heap t) (Handle.current t) fn
  let fold t fn acc = T.fold (Handle.heap t) (Handle.current t) fn acc
end
