(** MOD durable sequence: the RRB tree ({!Pfds.Rrb}) under Functional
    Shadowing — the paper's vector structure with its full interface
    (reference [44]), including failure-atomic O(log n) concatenation and
    slicing.  Append-heavy workloads should prefer {!Dvec}, whose tail
    buffer makes push_back cheaper; [Dseq] is the general sequence. *)

(* Backup-policy op log *)
let op_push_back = 0
let op_set = 1
let op_restrict = 2

include Durable.Make (struct
  type elt = Pmem.Word.t

  let structure = "dseq"
  let descriptor = true
  let empty_version = Pfds.Rrb.create
  let shape = ("RRB descriptor (3 scanned words)", Some 3)

  let apply heap version ~opcode ~a0 ~a1 =
    match opcode with
    | 0 -> Pfds.Rrb.push_back heap version a0
    | 1 -> Pfds.Rrb.set heap version (Pmem.Word.to_int a0) a1
    | 2 ->
        Pfds.Rrb.slice heap version ~pos:(Pmem.Word.to_int a0)
          ~len:(Pmem.Word.to_int a1)
    | _ -> Printf.ksprintf failwith "dseq: unknown log opcode %d" opcode

  let add_op = "push_back"
  let add_pure = Pfds.Rrb.push_back
  let add_entry = Durable.scalar_entry op_push_back
  let size_in = Pfds.Rrb.size
  let is_empty_in heap version = Pfds.Rrb.size heap version = 0
  let iter_in = Pfds.Rrb.iter
end)

let push_back = add
let push_back_many = add_many

let set t i w =
  let entry =
    if Pmem.Word.is_ptr w then None else Some (op_set, Pmem.Word.of_int i, w)
  in
  update t "set" ?entry (fun heap cur -> Pfds.Rrb.set heap cur i w)

(* The other handle's version is not expressible in a log entry, so a
   Backup slot takes a checkpoint here. *)
let append t other =
  update t "append" (fun heap cur ->
      Pfds.Rrb.concat heap cur (Handle.current other))

let restrict t ~pos ~len =
  update t "restrict"
    ~entry:(op_restrict, Pmem.Word.of_int pos, Pmem.Word.of_int len)
    (fun heap cur -> Pfds.Rrb.slice heap cur ~pos ~len)

let get t i =
  span t "get" (fun () -> Pfds.Rrb.get (Handle.heap t) (Handle.current t) i)

let iter = iter_elts
let to_list t = Pfds.Rrb.to_list (Handle.heap t) (Handle.current t)
