(** MOD durable vector: {!Pfds.Pvec} under Functional Shadowing.

    The version word is the vector descriptor.  [swap] is the paper's
    Figure 7b multi-update FASE: two pure updates chained through an
    intermediate shadow, one CommitSingle. *)

(* Backup-policy op log *)
let op_push_back = 0
let op_set = 1
let op_pop_back = 2
let op_swap = 3

(* The two pure updates of a swap: returns the intermediate shadow and
   the final one. *)
let swap_pure heap v i j =
  let vi = Pfds.Pvec.get heap v i in
  let vj = Pfds.Pvec.get heap v j in
  let shadow = Pfds.Pvec.set heap v i vj in
  (shadow, Pfds.Pvec.set heap shadow j vi)

include Durable.Make (struct
  type elt = Pmem.Word.t

  let structure = "dvec"
  let descriptor = true
  let empty_version = Pfds.Pvec.create
  let shape = ("vector descriptor (4 scanned words)", Some 4)

  let apply heap version ~opcode ~a0 ~a1 =
    match opcode with
    | 0 -> Pfds.Pvec.push_back heap version a0
    | 1 -> Pfds.Pvec.set heap version (Pmem.Word.to_int a0) a1
    | 2 -> snd (Pfds.Pvec.pop_back heap version)
    | 3 ->
        let shadow, shadow_shadow =
          swap_pure heap version (Pmem.Word.to_int a0) (Pmem.Word.to_int a1)
        in
        Commit.release_version heap shadow;
        shadow_shadow
    | _ -> Printf.ksprintf failwith "dvec: unknown log opcode %d" opcode

  let add_op = "push_back"
  let add_pure = Pfds.Pvec.push_back
  let add_entry = Durable.scalar_entry op_push_back
  let size_in = Pfds.Pvec.size
  let is_empty_in heap version = Pfds.Pvec.size heap version = 0
  let iter_in = Pfds.Pvec.iter
end)

let push_back = add
let push_back_many = add_many

let set t i w =
  let entry =
    if Pmem.Word.is_ptr w then None else Some (op_set, Pmem.Word.of_int i, w)
  in
  update t "set" ?entry (fun heap cur -> Pfds.Pvec.set heap cur i w)

let pop_back t =
  take t "pop_back" ~entry:(Durable.nullary_entry op_pop_back)
    (fun heap cur -> Some (Pfds.Pvec.pop_back heap cur))
  |> Option.get

(* Figure 7b: the first update produces VectorPtrShadow, the second
   VectorPtrShadowShadow; Commit installs the latter and reclaims the
   intermediate.  Under Backup the whole multi-update FASE is one log
   entry: replay re-derives both element values from the version it
   rebuilds. *)
let swap t i j =
  ignore
    (take t "swap"
       ~entry:(op_swap, Pmem.Word.of_int i, Pmem.Word.of_int j)
       ~intermediates:(fun shadow -> [ shadow ])
       (fun heap v -> Some (swap_pure heap v i j)))

let get t i =
  span t "get" (fun () -> Pfds.Pvec.get (Handle.heap t) (Handle.current t) i)

let iter = iter_elts
let to_list t = Pfds.Pvec.to_list (Handle.heap t) (Handle.current t)
