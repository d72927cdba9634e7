(** The shared shape of every MOD durable datastructure, and the one
    functor that builds it.

    The paper's recipe (Section 4.2) makes every MOD structure from two
    parts: a purely functional structure and CommitSingle.  {!Make}
    applies that recipe once.  Given the pure half ({!PURE}) it derives
    the handle, the validated and policy-aware open paths, the Basic
    interface's one-fence FASEs (its [update] / [take] helpers) and the
    group-committed [add_many].  Each [D*] module is one [PURE] instance
    plus its domain operations ([push], [dequeue], [swap], ...), so an
    eighth structure is one more [PURE] module.

    {!S} is the surface every structure shares, with the historically
    divergent names unified ([add]/[add_pure]/[add_many] for the
    structure's natural insertion, [size] for cardinal/length,
    [iter_elts] for element iteration).  Generic code -- the
    signature-conformance tests, the telemetry demos -- is written once
    against it and instantiated over all seven structures. *)

module type S = sig
  type t
  (** A handle bound to a root slot (the structure's identity). *)

  type elt
  (** What one logical insertion carries: a key/value pair for maps, an
      element word for the sequence structures, a priority for the
      priority queue. *)

  val structure : string
  (** Telemetry label; also the structure's name in exported metrics. *)

  val open_or_create :
    ?persist:Pmalloc.Heap.policy -> Pmalloc.Heap.t -> slot:int -> t
  (** Bind [slot], installing an empty version if the slot is null.
      No validation: trusts the slot's contents.  [persist] selects the
      commit policy: omitted, the slot's durable policy word governs
      (and a Backup slot is reconstructed); [Backup] promotes a Full
      slot; [Full] on a Backup-committed slot is [Invalid_argument] --
      demotion would silently drop the log's tail. *)

  val open_result : Pmalloc.Heap.t -> slot:int -> (t, Error.t) result
  (** Like [open_or_create] (following the stored policy), but validates
      the slot first: range check, pointer check, and a best-effort
      shape check of the root block against this structure's layout
      (the Backup descriptor's, when the slot commits as Backup). *)

  val reconstruct : Pmalloc.Heap.t -> slot:int -> unit
  (** Rebuild a Backup slot's volatile current version by replaying its
      op log from the checkpoint anchor ({!Commit.reconstruct}).
      Idempotent; a no-op on Full slots. *)

  val handle : t -> Handle.t

  val empty_version : Pmalloc.Heap.t -> Pmem.Word.t
  (** A fresh empty version (null for structures whose empty state needs
      no descriptor). *)

  (** {2 Composition interface (Section 4.3.2)} *)

  val add_pure : Pmalloc.Heap.t -> Pmem.Word.t -> elt -> Pmem.Word.t
  (** Pure insertion: returns the successor shadow version; commit it
      with {!Handle.commit}, {!Commit} or a {!Batch}. *)

  val size_in : Pmalloc.Heap.t -> Pmem.Word.t -> int
  (** Element count of an arbitrary version. *)

  (** {2 Basic interface (Section 4.3.1): one-fence FASEs} *)

  val add : t -> elt -> unit

  val add_many : t -> elt list -> unit
  (** [add_many t es] retires all of [es] under one ordering point
      (group commit, Figure 8).  [add_many t []] touches nothing and
      records no span. *)

  (** {2 Queries} *)

  val size : t -> int
  val is_empty : t -> bool
  val iter_elts : t -> (elt -> unit) -> unit
end

(** A Backup op-log record: [(opcode, a0, a1)] ({!Handle.commit}). *)
type entry = int * Pmem.Word.t * Pmem.Word.t

(** The pure half of a structure: what {!Make} cannot derive. *)
module type PURE = sig
  type elt

  val structure : string
  (** Telemetry label, e.g. ["dmap"]; capitalised, it also names the
      module in error messages. *)

  val descriptor : bool
  (** [true] when the empty state is a descriptor block the slot must
      hold (installed on first open); [false] when it is null. *)

  val empty_version : Pmalloc.Heap.t -> Pmem.Word.t

  val shape : string * int option
  (** The root block's expected description and scanned word count,
      for {!Handle.expect_shape}. *)

  val apply :
    Pmalloc.Heap.t ->
    Pmem.Word.t ->
    opcode:int ->
    a0:Pmem.Word.t ->
    a1:Pmem.Word.t ->
    Pmem.Word.t
  (** Backup replay: re-run one logged operation on a version. *)

  val add_op : string
  (** Span label of [add]; [add_many] is labelled [add_op ^ "_many"]. *)

  val add_pure : Pmalloc.Heap.t -> Pmem.Word.t -> elt -> Pmem.Word.t

  val add_entry : elt -> entry option
  (** The log record of one [add]; [None] forces a Backup checkpoint. *)

  val size_in : Pmalloc.Heap.t -> Pmem.Word.t -> int
  val is_empty_in : Pmalloc.Heap.t -> Pmem.Word.t -> bool
  val iter_in : Pmalloc.Heap.t -> Pmem.Word.t -> (elt -> unit) -> unit
end

(** The log record of a one-word operation.  Only scalar words can ride
    in a log entry; a pointer-valued argument (a blob element) forces a
    checkpoint instead. *)
let scalar_entry opcode w =
  if Pmem.Word.is_ptr w then None else Some (opcode, w, Pmem.Word.of_int 0)

(** The log record of an argument-free operation ([pop], [dequeue]). *)
let nullary_entry opcode = (opcode, Pmem.Word.of_int 0, Pmem.Word.of_int 0)

module Make (P : PURE) = struct
  type t = Handle.t
  type elt = P.elt

  let structure = P.structure
  let handle t = t
  let empty_version = P.empty_version
  let add_pure = P.add_pure
  let size_in = P.size_in
  let span t op f = Pmalloc.Heap.span (Handle.heap t) ~structure ~op f

  let reconstruct heap ~slot =
    Commit.reconstruct heap ~slot ~apply:(P.apply heap)

  (* A null version is a valid empty state; a descriptor-rooted
     structure installs its empty descriptor under the Full protocol. *)
  let initialize h =
    if P.descriptor && not (Handle.is_initialized h) then
      Handle.initialize h (P.empty_version (Handle.heap h))

  let open_or_create ?persist heap ~slot =
    let h = Handle.make heap ~slot in
    (match (persist, Pmalloc.Heap.get_policy heap slot) with
    | Some Pmalloc.Heap.Full, Pmalloc.Heap.Backup ->
        Printf.ksprintf invalid_arg
          "%s.open_or_create: slot is committed as Backup"
          (String.capitalize_ascii structure)
    | (None | Some Pmalloc.Heap.Full), Pmalloc.Heap.Full -> initialize h
    | Some Pmalloc.Heap.Backup, Pmalloc.Heap.Full ->
        (* the promotion commit anchors the freshly installed version *)
        initialize h;
        Commit.enable heap ~slot
    | _, Pmalloc.Heap.Backup -> reconstruct heap ~slot);
    h

  let open_result heap ~slot =
    let expected, words = P.shape in
    match
      Handle.open_slot heap ~slot
        ~validate:(fun h -> Handle.expect_shape ~expected ?words h)
    with
    | Error _ as e -> e
    | Ok h ->
        if Pmalloc.Heap.get_policy heap slot = Pmalloc.Heap.Backup then
          reconstruct heap ~slot
        else initialize h;
        Ok h

  (** The one-fence FASE behind every Basic-interface update, spanned as
      [op]: run the pure update [f] against the current version (inside
      the Backup bracket) and commit the shadow it returns.  [f] returns
      [None] for a no-op (nothing is committed) or [Some (r, shadow)];
      [intermediates r] are superseded shadows reclaimed at the commit
      (Figure 7b).  [entry] is the Backup log record. *)
  let take t op ?entry ?(intermediates = fun _ -> []) f =
    span t op (fun () ->
        match Handle.pure t (f (Handle.heap t)) with
        | None -> None
        | Some (r, shadow) ->
            Handle.commit ~intermediates:(intermediates r) ?entry t shadow;
            Some r)

  (** {!take} for an update that always commits and returns nothing. *)
  let update t op ?entry f =
    ignore (take t op ?entry (fun heap cur -> Some ((), f heap cur)))

  let add t e =
    update t P.add_op ?entry:(P.add_entry e) (fun heap cur ->
        P.add_pure heap cur e)

  let add_many_op = P.add_op ^ "_many"

  let add_many t es =
    match es with
    | [] -> ()
    | _ ->
        Pmalloc.Heap.span (Handle.heap t) ~structure ~op:add_many_op
          ~ops:(List.length es) (fun () ->
            let heap = Handle.heap t in
            let b = Batch.create heap in
            List.iter
              (fun e ->
                Batch.stage b ~slot:(Handle.slot t) (fun version ->
                    P.add_pure heap version e))
              es;
            ignore (Batch.commit b : Batch.commit_point))

  let size t = P.size_in (Handle.heap t) (Handle.current t)
  let is_empty t = P.is_empty_in (Handle.heap t) (Handle.current t)
  let iter_elts t fn = P.iter_in (Handle.heap t) (Handle.current t) fn
end
