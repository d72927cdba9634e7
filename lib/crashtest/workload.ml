(** Deterministic workload scripts for the crash-point explorer.

    A workload is a fixed, seed-determined sequence of operations against
    one durable structure, paired with a purely volatile model of the
    abstract state after every prefix of operations.  States are rendered
    canonically (sorted, fully explicit) so the durable-linearizability
    oracle can compare a recovered structure against model prefixes with
    plain string equality.

    [make] builds a per-heap instance whose closures apply operations,
    recover after a crash, and dump the recovered abstract state.
    Instance construction itself performs no PM work; [init] does, so a
    crash can land inside initialization too.

    Adding a workload is one spec: the single-slot workloads differ only
    in their script generator, model, structure call and element reader
    ({!spec}); everything else comes from {!single}. *)

type state = string

type instance = {
  init : unit -> unit;  (** durable initialization (may commit) *)
  run_op : int -> unit;  (** apply operation [i] through the structure *)
  dump : unit -> state;  (** canonical view of the (recovered) state *)
  recover : unit -> unit;  (** post-crash recovery for this workload *)
}

type t = {
  name : string;
  ops : int;
  negative : bool;
      (** negative control: the oracle is expected to report violations *)
  check_trace : bool;
      (** also run the Section 5.4 trace checker (MOD-only invariant) *)
  persist : Pmalloc.Heap.policy;  (** the commit policy it was built under *)
  model : state array;  (** [model.(i)] = state after [i] operations *)
  make : Pmalloc.Heap.t -> instance;
}

let seed_of name ~ops = (Hashtbl.hash name * 65599) + ops

(* Backup-policy plumbing.  A workload built with [~persist:Backup] runs
   the same script against the same model (seeds key off the canonical
   name), but the structure commits under the "don't persist all" policy:
   interior nodes stay volatile-clean and recovery replays the slot's op
   log.  Dumps therefore reconstruct before reading -- a no-op under Full
   -- because the kill-9 harness dumps a freshly reopened heap and the
   explorer dumps after recovery cleared the volatile backup state.  The
   log append is an in-place write pattern by design, so the Section 5.4
   MOD trace invariant is only checked under Full. *)
let is_backup = function Some Pmalloc.Heap.Backup -> true | _ -> false

(* -- canonical renderings ------------------------------------------------- *)

let render_ints l =
  "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let render_pairs l =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)
  ^ "}"

(* -- the builder ---------------------------------------------------------- *)

(* The abstract model: its initial state, one scripted op's effect, and
   the canonical rendering the oracle compares. *)
type ('op, 's) model = {
  start : 's;
  step : 's -> 'op -> 's;
  render : 's -> state;
}

(* [prefix_states m script] is the ops+1 rendered states after every
   prefix of [script]. *)
let prefix_states m script =
  let _, acc =
    Array.fold_left
      (fun (cur, acc) op ->
        let next = m.step cur op in
        (next, next :: acc))
      (m.start, [ m.start ])
      script
  in
  Array.of_list (List.rev_map m.render acc)

(* The one record every sequential workload is: the script [gen] draws
   from the seed of [seed] (default [name]) at [ops], its model's prefix
   states, and [make script] as the per-heap instance. *)
let scripted ?persist ?(negative = false) ?seed ~check_trace name ~ops gen
    model make =
  let rng =
    Random.State.make [| seed_of (Option.value seed ~default:name) ~ops |]
  in
  let script = Array.of_list (gen rng ~ops) in
  {
    name;
    ops;
    negative;
    check_trace;
    persist = Option.value persist ~default:Pmalloc.Heap.Full;
    model = prefix_states model script;
    make = make script;
  }

let draws op rng ~ops = List.init ops (fun _ -> op rng)

(* A single-slot workload: one durable structure at root slot 0.  The
   open and the Backup reconstruct come from the structure's
   {!Mod_core.Durable.S}; [run] is the structure call for one scripted
   op (applied once per heap, so it may allocate per-instance state) and
   [read] the structure's own element reader.  Readers stay per
   structure: which exception a corrupted image raises, and so the
   fault-sweep counts, depends on them. *)
type ('op, 's) spec = {
  script : Random.State.t -> ops:int -> 'op list;
  model : ('op, 's) model;
  structure : (module Mod_core.Durable.S with type t = Mod_core.Handle.t);
  run : Pmalloc.Heap.t -> Mod_core.Handle.t -> 'op -> unit;
  read : Pmalloc.Heap.t -> Mod_core.Handle.t -> 's;
}

let dump (s : (_, _) spec) heap =
  let (module S) = s.structure in
  S.reconstruct heap ~slot:0;
  s.model.render (s.read heap (Mod_core.Handle.make heap ~slot:0))

let recover_exn ?stm ?norec heap =
  ignore (Mod_core.Recovery.recover_exn ?stm ?norec heap)

(* [opens:false] leaves the slot unopened: the broken map swings its
   root by hand. *)
let single ?persist ?negative ?(opens = true) ?seed name (s : (_, _) spec)
    ~ops =
  let (module S) = s.structure in
  scripted ?persist ?negative ?seed ~check_trace:(not (is_backup persist))
    name ~ops s.script s.model (fun script heap ->
      let h = Mod_core.Handle.make heap ~slot:0 in
      let run = s.run heap h in
      {
        init =
          (fun () ->
            if opens then ignore (S.open_or_create ?persist heap ~slot:0));
        run_op = (fun i -> run script.(i));
        dump = (fun () -> dump s heap);
        recover = (fun () -> recover_exn heap);
      })

(* -- keyed structures: map and set ---------------------------------------- *)

module IntMap = Map.Make (Int)
module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module Iset = Mod_core.Dset.Make (Pfds.Kv.Int)

(* A set is modelled as a map to unit, so maps and sets share one op
   type, one generator and one model step. *)
type 'v key_op = Add of int * 'v | Remove of int

let key_op ~keys value rng =
  let k = Random.State.int rng keys in
  if Random.State.int rng 3 < 2 then Add (k, value rng) else Remove k

let map_value rng = Random.State.int rng 1000
let set_value _ = ()

let key_step m = function
  | Add (k, v) -> IntMap.add k v m
  | Remove k -> IntMap.remove k m

let key_model render = { start = IntMap.empty; step = key_step; render }
let map_model = key_model (fun m -> render_pairs (IntMap.bindings m))

let set_model =
  key_model (fun m -> render_ints (List.map fst (IntMap.bindings m)))

(* The pure half of one keyed op: the shadow to commit, or [None] when a
   remove finds nothing (the version is returned unchanged). *)
let key_pure ~add ~remove heap version = function
  | Add (k, v) -> Some (add heap version k v)
  | Remove k -> (
      match remove heap version k with
      | shadow, true -> Some shadow
      | _, false -> None)

let map_pure = key_pure ~add:Imap.insert_pure ~remove:Imap.remove_pure

let set_pure =
  key_pure
    ~add:(fun heap version k () -> Iset.add_pure heap version k)
    ~remove:Iset.remove_pure

let map_spec =
  {
    script = draws (key_op ~keys:24 map_value);
    model = map_model;
    structure = (module Imap);
    run =
      (fun _ h -> function
        | Add (k, v) -> Imap.insert h k v
        | Remove k -> ignore (Imap.remove h k : bool));
    read = (fun _ h -> Imap.fold h IntMap.add IntMap.empty);
  }

let set_spec =
  {
    script = draws (key_op ~keys:24 set_value);
    model = set_model;
    structure = (module Iset);
    run =
      (fun _ h -> function
        | Add (k, ()) -> Iset.add h k
        | Remove k -> ignore (Iset.remove h k : bool));
    read = (fun _ h -> Iset.fold h (fun k m -> IntMap.add k () m) IntMap.empty);
  }

(* A deliberately broken MOD map: commits swing the root pointer without
   the preceding sfence, so the durable root can point at a shadow whose
   nodes never became durable.  The Section 5.4 trace checker does not
   catch this (it only inspects flush-before-fence pairs, and there are
   no fences); only the durable-linearizability oracle does. *)
let map_nofence_spec =
  let broken_commit heap version =
    let old = Pmalloc.Heap.root_get heap 0 in
    (* missing ordering point: no sfence before the root swing *)
    Pmalloc.Heap.root_set heap 0 version;
    if Pmem.Word.is_ptr old && not (Pmem.Word.is_null old) then
      Pmalloc.Heap.release heap (Pmem.Word.to_ptr old)
  in
  {
    map_spec with
    run =
      (fun heap h op ->
        Option.iter (broken_commit heap)
          (map_pure heap (Mod_core.Handle.current h) op));
  }

(* -- stack / queue / priority queue --------------------------------------- *)

type sq_op = Push of int | Pop

let sq_script rng ~ops =
  let rec gen i depth acc =
    if i = ops then List.rev acc
    else if depth > 0 && Random.State.int rng 3 = 0 then
      gen (i + 1) (depth - 1) (Pop :: acc)
    else gen (i + 1) (depth + 1) (Push (Random.State.int rng 1000) :: acc)
  in
  gen 0 0 []

let ints_model step = { start = []; step; render = render_ints }
let tail = function [] -> [] | _ :: tl -> tl
let words l = List.map Pmem.Word.to_int l

(* descriptor-rooted structures read an unopened slot as empty *)
let opened to_list h =
  if not (Mod_core.Handle.is_initialized h) then [] else words (to_list h)

let stack_spec =
  {
    script = sq_script;
    model =
      ints_model (fun s -> function Push v -> v :: s | Pop -> tail s);
    structure = (module Mod_core.Dstack);
    run =
      (fun _ h -> function
        | Push v -> Mod_core.Dstack.push h (Pmem.Word.of_int v)
        | Pop -> ignore (Mod_core.Dstack.pop h));
    read = (fun _ h -> words (Mod_core.Dstack.to_list h));
  }

let queue_spec =
  {
    script = sq_script;
    model =
      ints_model (fun q -> function Push v -> q @ [ v ] | Pop -> tail q);
    structure = (module Mod_core.Dqueue);
    run =
      (fun _ h -> function
        | Push v -> Mod_core.Dqueue.enqueue h (Pmem.Word.of_int v)
        | Pop -> ignore (Mod_core.Dqueue.dequeue h));
    read = (fun _ -> opened Mod_core.Dqueue.to_list);
  }

let pqueue_spec =
  {
    script = sq_script;
    model =
      ints_model (fun s -> function
        | Push p -> List.sort compare (p :: s) | Pop -> tail s);
    structure = (module Mod_core.Dpqueue);
    run =
      (fun _ h -> function
        | Push p -> Mod_core.Dpqueue.insert h p
        | Pop -> ignore (Mod_core.Dpqueue.delete_min h));
    read =
      (fun heap h ->
        Pfds.Pheap.to_sorted_list_model heap (Mod_core.Handle.current h));
  }

(* -- vector / sequence ---------------------------------------------------- *)

type vec_op = Vpush of int | Vset of int * int | Vpop

let vec_script rng ~ops =
  let rec gen i size acc =
    if i = ops then List.rev acc
    else
      let choice = if size = 0 then 0 else Random.State.int rng 4 in
      match choice with
      | 0 | 3 ->
          gen (i + 1) (size + 1) (Vpush (Random.State.int rng 1000) :: acc)
      | 1 ->
          gen (i + 1) size
            (Vset (Random.State.int rng size, Random.State.int rng 1000)
            :: acc)
      | _ -> gen (i + 1) (size - 1) (Vpop :: acc)
  in
  gen 0 0 []

let vec_model =
  ints_model (fun l -> function
    | Vpush v -> l @ [ v ]
    | Vset (i, v) -> List.mapi (fun j x -> if j = i then v else x) l
    | Vpop -> List.rev (tail (List.rev l)))

let vec_spec =
  {
    script = vec_script;
    model = vec_model;
    structure = (module Mod_core.Dvec);
    run =
      (fun _ h -> function
        | Vpush v -> Mod_core.Dvec.push_back h (Pmem.Word.of_int v)
        | Vset (j, v) -> Mod_core.Dvec.set h j (Pmem.Word.of_int v)
        | Vpop -> ignore (Mod_core.Dvec.pop_back h));
    read = (fun _ -> opened Mod_core.Dvec.to_list);
  }

let seq_spec =
  {
    script = vec_script;
    model = vec_model;
    structure = (module Mod_core.Dseq);
    run =
      (fun _ h -> function
        | Vpush v -> Mod_core.Dseq.push_back h (Pmem.Word.of_int v)
        | Vset (j, v) -> Mod_core.Dseq.set h j (Pmem.Word.of_int v)
        | Vpop ->
            let size = Mod_core.Dseq.size h in
            Mod_core.Dseq.restrict h ~pos:0 ~len:(size - 1));
    read = (fun _ -> opened Mod_core.Dseq.to_list);
  }

(* -- group-commit batching (Batch / CommitSiblings / CommitUnrelated) ----- *)

(* Each logical operation is a group of [batch_group] map sub-operations
   staged into one {!Mod_core.Batch} and retired by a single
   CommitSingle: a crash inside the group must recover to either the
   state before the whole group or after it, never in between. *)
let batch_group = 3

let batched_spec =
  {
    script =
      (fun rng ~ops ->
        let flat =
          Array.of_list (map_spec.script rng ~ops:(ops * batch_group))
        in
        List.init ops (fun i -> Array.sub flat (i * batch_group) batch_group));
    model =
      {
        map_model with
        step = (fun m group -> Array.fold_left key_step m group);
      };
    structure = (module Imap);
    run =
      (fun heap _ ->
        let b = Mod_core.Batch.create heap in
        fun group ->
          Array.iter
            (fun op ->
              Mod_core.Batch.stage b ~slot:0 (fun version ->
                  Option.value ~default:version (map_pure heap version op)))
            group;
          ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
    read = map_spec.read;
  }

(* CommitSiblings under crash: one parent object at slot 0 whose two
   fields are independent stacks; every op updates both fields through
   {!Mod_core.Batch.stage_field} and retires them with one fresh parent
   and one fence.  Recovery must see both stacks move together. *)
let siblings_workload ~ops =
  let render (a, b) = render_ints a ^ "|" ^ render_ints b in
  let model =
    {
      start = ([], []);
      render;
      step =
        (fun (a, b) -> function
          | Push v -> (v :: a, (v + 500) :: b)
          | Pop -> (
              match (a, b) with
              | _ :: ta, _ :: tb -> (ta, tb)
              | _ -> (a, b)));
    }
  in
  let dump heap =
    let root = Pmalloc.Heap.root_get heap 0 in
    if Pmem.Word.is_null root then render model.start
    else
      let parent = Pmem.Word.to_ptr root in
      let stack f =
        words (Pfds.Pstack.to_list heap (Pfds.Node.get heap parent f))
      in
      render (stack 0, stack 1)
  in
  scripted ~check_trace:true "siblings" ~ops sq_script model (fun script heap ->
      let b = Mod_core.Batch.create heap in
      {
        init =
          (fun () ->
            (* one FASE: build the two-field parent, install it *)
            let parent = Pfds.Node.alloc heap ~words:2 in
            Pfds.Node.set heap parent 0 Pfds.Pstack.empty;
            Pfds.Node.set heap parent 1 Pfds.Pstack.empty;
            Pfds.Node.finish heap parent;
            Mod_core.Commit.single heap ~slot:0 (Pmem.Word.of_ptr parent));
        run_op =
          (fun i ->
            let stage_stack field f =
              Mod_core.Batch.stage_field b ~slot:0 ~field f
            in
            (match script.(i) with
            | Push v ->
                stage_stack 0 (fun w ->
                    Pfds.Pstack.push heap w (Pmem.Word.of_int v));
                stage_stack 1 (fun w ->
                    Pfds.Pstack.push heap w (Pmem.Word.of_int (v + 500)))
            | Pop ->
                let pop w =
                  match Pfds.Pstack.pop heap w with
                  | None -> w
                  | Some (_, shadow) -> shadow
                in
                stage_stack 0 pop;
                stage_stack 1 pop);
            ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
        dump = (fun () -> dump heap);
        recover = (fun () -> recover_exn heap);
      })

(* CommitUnrelated under crash: two maps at unrelated root slots 0 and 1,
   both updated in one batch, retired by the shadow fence plus the
   embedded PM-STM root-swing transaction.  A crash inside that
   transaction must roll back both root swings together (the WAL is the
   atomicity mechanism, exactly Figure 8d). *)
let unrelated_workload ~ops =
  let op rng =
    let k = Random.State.int rng 24 in
    let v = Random.State.int rng 1000 in
    (k, v, Random.State.int rng 3 < 2)
  in
  let model =
    {
      start = (IntMap.empty, IntMap.empty);
      step =
        (fun (m0, m1) (k, v, add1) ->
          ( IntMap.add k v m0,
            key_step m1 (if add1 then Add (k, v + 1) else Remove k) ));
      render =
        (fun (m0, m1) -> map_model.render m0 ^ "|" ^ map_model.render m1);
    }
  in
  let dump heap =
    dump map_spec heap ^ "|"
    ^ map_model.render (map_spec.read heap (Mod_core.Handle.make heap ~slot:1))
  in
  (* the embedded PM-STM transaction writes in place by design, so the
     Section 5.4 MOD trace invariant does not apply *)
  scripted ~check_trace:false "unrelated" ~ops (draws op) model
    (fun script heap ->
      let tx = ref None in
      let batch = ref None in
      {
        init =
          (fun () ->
            let t = Pmstm.Tx.create heap ~version:Pmstm.Tx.V1_5 in
            tx := Some t;
            batch := Some (Mod_core.Batch.create ~tx:t heap));
        run_op =
          (fun i ->
            let b = Option.get !batch in
            let k, v, add1 = script.(i) in
            Mod_core.Batch.stage b ~slot:0 (fun version ->
                Imap.insert_pure heap version k v);
            Mod_core.Batch.stage b ~slot:1 (fun version ->
                if add1 then Imap.insert_pure heap version k (v + 1)
                else fst (Imap.remove_pure heap version k));
            ignore (Mod_core.Batch.commit b : Mod_core.Batch.commit_point));
        dump = (fun () -> dump heap);
        recover = (fun () -> recover_exn ?stm:!tx heap);
      })

(* -- PM-STM baselines ----------------------------------------------------- *)

(* An 8-cell counter array updated in place under PMDK-style transactions.
   The undo log makes every committed transaction durable, so recovery
   must observe exactly the last committed state (positive control).  The
   [broken] variant skips the snapshot fences and the commit-time data
   flushes -- the oracle must catch it. *)
let stm_cells = 8
let stm_op rng = (Random.State.int rng stm_cells, 1 + Random.State.int rng 99)
let render_cells c = render_ints (Array.to_list c)

(* The cell array at root slot 1: zeroed, flushed and installed. *)
let alloc_cells heap =
  let b = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words:stm_cells in
  for i = 0 to stm_cells - 1 do
    Pmalloc.Heap.store heap (b + i) (Pmem.Word.of_int 0)
  done;
  Pmalloc.Heap.flush_block heap b;
  Pmalloc.Heap.root_set heap 1 (Pmem.Word.of_ptr b);
  Pmalloc.Heap.sfence heap;
  b

let dump_cells heap =
  let root = Pmalloc.Heap.root_get heap 1 in
  if Pmem.Word.is_null root then render_cells (Array.make stm_cells 0)
  else
    let body = Pmem.Word.to_ptr root in
    render_ints
      (List.init stm_cells (fun i ->
           Pmem.Word.to_int (Pmalloc.Heap.load heap (body + i))))

let stm_workload name version ~broken ~ops =
  let model =
    {
      start = Array.make stm_cells 0;
      step =
        (fun c (idx, delta) ->
          let c' = Array.copy c in
          c'.(idx) <- c'.(idx) + delta;
          c');
      render = render_cells;
    }
  in
  (* in-place by design: invariant 1 never holds *)
  scripted ~negative:broken ~check_trace:false name ~ops (draws stm_op) model
    (fun script heap ->
      let tx = ref None in
      let body = ref (-1) in
      {
        init =
          (fun () ->
            let t = Pmstm.Tx.create heap ~version ~broken_ordering:broken in
            tx := Some t;
            body := alloc_cells heap);
        run_op =
          (fun i ->
            let t = Option.get !tx in
            let idx, delta = script.(i) in
            let off = !body + idx in
            Pmstm.Tx.run t (fun () ->
                Pmstm.Tx.add t ~off ~words:1;
                let v = Pmem.Word.to_int (Pmstm.Tx.load t off) in
                Pmstm.Tx.store t off (Pmem.Word.of_int (v + delta))));
        dump = (fun () -> dump_cells heap);
        recover = (fun () -> recover_exn ?stm:!tx heap);
      })

(* -- concurrent workloads ------------------------------------------------- *)

(* A concurrent workload scripts [cwriters] writers, each with its own
   deterministic operation sequence over one shared structure; the
   interleaving explorer runs them as cooperative fibers.  The shared
   volatile model advances at each commit's linearization point -- the
   {!Oracle.tracker} hooks fire inside the commit protocol, where the
   simulator guarantees no preemption -- so the tracked history is the
   exact total order the root-record CAS (or the NOrec sequence lock)
   serialized. *)

type cinstance = {
  c_init : unit -> unit;  (** single-writer durable initialization *)
  c_writers : (unit -> unit) array;  (** one closure per writer *)
  c_tracker : Oracle.tracker;
  c_dump : unit -> state;
  c_recover : unit -> unit;
}

type ct = {
  cname : string;
  cwriters : int;
  cops : int;  (** operations per writer *)
  cnegative : bool;
  cmake : Pmalloc.Heap.t -> cinstance;
}

(* One script per writer, each seeded by [seed]-w<i>.  [make heap
   fibers] builds the instance; [fibers run_op] are the writer bodies,
   each running its script through [run_op writer]. *)
let concurrent ?(negative = false) ?seed name ~writers ~ops op make =
  let seed = Option.value seed ~default:name in
  let scripts =
    Array.init writers (fun w ->
        let rng =
          Random.State.make
            [| seed_of (Printf.sprintf "%s-w%d" seed w) ~ops |]
        in
        Array.init ops (fun _ -> op rng))
  in
  let fibers run_op =
    Array.init writers (fun w () -> Array.iter (run_op w) scripts.(w))
  in
  {
    cname = name;
    cwriters = writers;
    cops = ops;
    cnegative = negative;
    cmake = (fun heap -> make heap fibers);
  }

(* A commit step: install the shadow [build] derives from the current
   root, calling [before_swing] at each swing attempt and [after_swing]
   once the swing wins. *)
type commit =
  Mod_core.Handle.t ->
  build:(Pmem.Word.t -> Pmem.Word.t option) ->
  before_swing:(unit -> unit) ->
  after_swing:(unit -> unit) ->
  unit

(* reclaim:false -- a racing writer may still be mid-build over the
   superseded version; recovery GC scrubs the garbage *)
let cas_commit : commit =
 fun h ~build ~before_swing ~after_swing ->
  ignore
    (Mod_core.Handle.update_cas h ~reclaim:false
       ~build:(fun old -> Option.map (fun s -> (s, [])) (build old))
       ~before_swing ~after_swing
      : int)

(* The concurrent negative control's commit: a lock-free CAS whose
   pre-swing sfence is missing, so the root record can become durable
   while the shadow nodes it points at are still in flight.  Losing
   attempts leak their shadows on purpose (recovery reclaims them -- a
   real power failure would not unwind the loser either). *)
let nofence_commit : commit =
 fun h ~build ~before_swing ~after_swing ->
  let heap = Mod_core.Handle.heap h in
  let rec attempt () =
    let old, old_seq = Pmalloc.Heap.root_get_versioned heap 0 in
    match build old with
    | None -> ()
    | Some shadow ->
        (* missing ordering point: no sfence before the swing *)
        before_swing ();
        if
          Pmalloc.Heap.root_cas heap 0 ~expected:old ~expected_seq:old_seq
            ~desired:shadow
        then after_swing ()
        else attempt ()
  in
  attempt ()

(* Lock-free CAS commits of one keyed structure ([s] with its pure ops
   [pure]), every writer's model step tracked at its linearization
   point. *)
let keyed_cas ?negative ?seed name (s : ('v key_op, 'v IntMap.t) spec) pure
    value ~(commit : commit) ~writers ~ops =
  let (module S) = s.structure in
  let render = s.model.render in
  (* per-writer scripts draw from a small key range so writers genuinely
     contend: overlapping keys force CAS retries *)
  concurrent ?negative ?seed name ~writers ~ops (key_op ~keys:12 value)
    (fun heap fibers ->
      let tr = Oracle.tracker ~writers ~init:(render s.model.start) in
      let model = ref s.model.start in
      let h = Mod_core.Handle.make heap ~slot:0 in
      let run_op w op =
        let next () = s.model.step !model op in
        commit h ~build:(fun old -> pure heap old op)
          ~before_swing:(fun () ->
            Oracle.track_pending tr ~writer:w (render (next ())))
          ~after_swing:(fun () ->
            model := next ();
            Oracle.track_commit tr ~writer:w (render !model))
      in
      {
        c_init = (fun () -> ignore (S.open_or_create heap ~slot:0));
        c_writers = fibers run_op;
        c_tracker = tr;
        c_dump = (fun () -> dump s heap);
        c_recover = (fun () -> recover_exn heap);
      })

(* Writers over the NOrec STM: read-modify-write increments of a shared
   counter array, each commit serialized by the sequence lock and made
   durable by the published redo log.  The model advances at the publish
   fence (the durable linearization point). *)
let cstm_norec_workload ~writers ~ops =
  concurrent "cstm-norec" ~seed:"cstm" ~writers ~ops stm_op
    (fun heap fibers ->
      let model = Array.make stm_cells 0 in
      let tr = Oracle.tracker ~writers ~init:(render_cells model) in
      let stm = ref None in
      let body = ref (-1) in
      let run_op w (idx, delta) =
        let s = Option.get !stm in
        let off = !body + idx in
        Pmstm.Norec.run
          ~before_publish:(fun () ->
            let c = Array.copy model in
            c.(idx) <- c.(idx) + delta;
            Oracle.track_pending tr ~writer:w (render_cells c))
          ~after_publish:(fun () ->
            model.(idx) <- model.(idx) + delta;
            Oracle.track_commit tr ~writer:w (render_cells model))
          s
          (fun tx ->
            let v = Pmem.Word.to_int (Pmstm.Norec.read tx off) in
            Pmstm.Norec.write tx off (Pmem.Word.of_int (v + delta)))
      in
      {
        c_init =
          (fun () ->
            body := alloc_cells heap;
            let s = Pmstm.Norec.create heap in
            Pmstm.Norec.set_yield s Interleave.yield;
            stm := Some s);
        c_writers = fibers run_op;
        c_tracker = tr;
        c_dump = (fun () -> dump_cells heap);
        c_recover = (fun () -> recover_exn ~norec:true heap);
      })

let concurrent_positive_names = [ "cmap"; "cset"; "cstm-norec" ]
let concurrent_negative_names = [ "cmap-nofence" ]
let concurrent_names = concurrent_positive_names @ concurrent_negative_names

let cbuild name ~writers ~ops =
  if writers < 1 then invalid_arg "Workload.cbuild: writers must be >= 1";
  match name with
  | "cmap" ->
      keyed_cas "cmap" map_spec map_pure map_value ~commit:cas_commit
        ~writers ~ops
  | "cset" ->
      keyed_cas "cset" set_spec set_pure set_value ~commit:cas_commit
        ~writers ~ops
  | "cstm-norec" -> cstm_norec_workload ~writers ~ops
  | "cmap-nofence" ->
      keyed_cas ~negative:true ~seed:"cmap" "cmap-nofence" map_spec map_pure
        map_value ~commit:nofence_commit ~writers ~ops
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Workload.cbuild: unknown concurrent workload %S (expected %s)"
           name
           (String.concat ", " concurrent_names))

(* -- registry ------------------------------------------------------------- *)

let mod_names =
  [
    "map"; "queue"; "stack"; "vec"; "set"; "pqueue"; "seq"; "batched";
    "siblings"; "unrelated";
  ]

(* The seven basic MOD structures: the fault-injection sweep covers
   exactly these.  The composition/STM workloads ride an undo log whose
   count-then-entries protocol is not torn-write-safe by design (the
   paper's FASEs never write multi-word records that must survive
   tearing; the log is the PMDK baseline), so torn faults there would
   report protocol limits, not datastructure bugs. *)
let basic_names = [ "map"; "queue"; "stack"; "vec"; "set"; "pqueue"; "seq" ]

let stm_names = [ "stm14"; "stm15" ]
let negative_names = [ "stm-broken"; "map-nofence" ]
let names = mod_names @ stm_names @ negative_names

(* The workloads that can run under [~persist:Backup]: the seven basic
   structures plus the single-slot batched group commit (whose Single
   commit point becomes a checkpoint).  Siblings/unrelated need
   multi-slot commit points and stage_field, which the Backup policy
   rejects; the STM and negative controls are policy-free baselines. *)
let backup_names = basic_names @ [ "batched" ]

let build ?persist name ~ops =
  (if is_backup persist && not (List.mem name backup_names) then
     invalid_arg
       (Printf.sprintf
          "Workload.build: workload %S does not support the Backup policy \
           (expected %s)"
          name
          (String.concat ", " backup_names)));
  match name with
  | "map" -> single ?persist name map_spec ~ops
  | "queue" -> single ?persist name queue_spec ~ops
  | "stack" -> single ?persist name stack_spec ~ops
  | "vec" -> single ?persist name vec_spec ~ops
  | "set" -> single ?persist name set_spec ~ops
  | "pqueue" -> single ?persist name pqueue_spec ~ops
  | "seq" -> single ?persist name seq_spec ~ops
  | "batched" -> single ?persist name batched_spec ~ops
  | "siblings" -> siblings_workload ~ops
  | "unrelated" -> unrelated_workload ~ops
  | "stm14" -> stm_workload name Pmstm.Tx.V1_4 ~broken:false ~ops
  | "stm15" -> stm_workload name Pmstm.Tx.V1_5 ~broken:false ~ops
  | "stm-broken" -> stm_workload name Pmstm.Tx.V1_4 ~broken:true ~ops
  | "map-nofence" ->
      single ~negative:true ~opens:false ~seed:"map" name map_nofence_spec
        ~ops
  | _ ->
      invalid_arg
        (Printf.sprintf "Workload.build: unknown workload %S (expected %s)"
           name (String.concat ", " names))
