(* Signature-conformance tests for the unified {!Mod_core.Durable.S}
   interface: one functor exercised over all seven durable structures,
   plus the typed open-path errors ({!Mod_core.Error.t}). *)

let mk_heap ?(capacity = 1 lsl 18) () =
  Pmalloc.Heap.create ~capacity_words:capacity ()

module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int)
module Iset = Mod_core.Dset.Make (Pfds.Kv.Int)

(* The conformance suite itself: everything here is written against
   Durable.S alone, so it compiles once and runs for each structure. *)
module Conf (D : Mod_core.Durable.S) (E : sig
  val mk : int -> D.elt
end) =
struct
  (* With [?persist:Backup] the slot is promoted before the suite runs,
     so every check below exercises the Backup commit path (op-log
     appends, checkpoint on add_many's batch) and the descriptor-aware
     open/validate path.  With [~commit_mode:Cas] every Full-policy
     commit routes its root swing through the counted-CAS record update
     concurrent writers use, instead of the single-writer atomic store. *)
  let run ?persist ?(commit_mode = Pmalloc.Heap.Swing) () =
    let heap = mk_heap () in
    Pmalloc.Heap.set_commit_mode heap commit_mode;
    (match persist with
    | None -> ()
    | Some p -> ignore (D.open_or_create ~persist:p heap ~slot:0));
    let t =
      match D.open_result heap ~slot:0 with
      | Ok t -> t
      | Error e ->
          Alcotest.failf "%s: open_result on fresh slot: %s" D.structure
            (Mod_core.Error.to_string e)
    in
    Alcotest.(check bool) "fresh is_empty" true (D.is_empty t);
    Alcotest.(check int) "fresh size" 0 (D.size t);
    D.add t (E.mk 1);
    D.add_many t (List.map E.mk [ 2; 3; 4 ]);
    Alcotest.(check int) "size after add + add_many" 4 (D.size t);
    Alcotest.(check bool) "non-empty" false (D.is_empty t);
    let seen = ref 0 in
    D.iter_elts t (fun _ -> incr seen);
    Alcotest.(check int) "iter_elts visits size elements" 4 !seen;
    (* a populated root must re-validate *)
    (match D.open_result heap ~slot:0 with
    | Ok t2 -> Alcotest.(check int) "reopen size" 4 (D.size t2)
    | Error e ->
        Alcotest.failf "%s: reopen: %s" D.structure
          (Mod_core.Error.to_string e));
    (* Composition interface: pure insertion into a fresh empty version *)
    let v = D.add_pure heap (D.empty_version heap) (E.mk 42) in
    Alcotest.(check int) "size_in of pure singleton" 1 (D.size_in heap v);
    (* handle projection exists and is bound to the slot *)
    Alcotest.(check bool)
      "handle is non-null after inserts" false
      (Pmem.Word.is_null (Mod_core.Handle.current (D.handle t)));
    (* out-of-range slot is a typed error, not an exception *)
    (match D.open_result heap ~slot:Pmalloc.Heap.root_slots with
    | Error (Mod_core.Error.Slot_out_of_range _) -> ()
    | Ok _ -> Alcotest.failf "%s: out-of-range slot opened" D.structure
    | Error e ->
        Alcotest.failf "%s: out-of-range slot: wrong error %s" D.structure
          (Mod_core.Error.to_string e));
    (* the policy matrix: demoting a Backup-committed slot to Full would
       silently drop the log's tail, so it must raise *)
    ignore (D.open_or_create ~persist:Pmalloc.Heap.Backup heap ~slot:1);
    match D.open_or_create ~persist:Pmalloc.Heap.Full heap ~slot:1 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: demotion to Full accepted silently" D.structure

  (* An empty group commit retires nothing: the size is unchanged and no
     telemetry row appears, so every row keeps [r_ops >= r_spans]. *)
  let empty_batch ?persist ?(commit_mode = Pmalloc.Heap.Swing) () =
    let heap = mk_heap () in
    Pmalloc.Heap.set_commit_mode heap commit_mode;
    let t = D.open_or_create ?persist heap ~slot:0 in
    D.add t (E.mk 1);
    let c = Pmalloc.Heap.attach_telemetry heap in
    let rows () = (Telemetry.report c).Telemetry.rows in
    D.add_many t [];
    Alcotest.(check int) "size unchanged" 1 (D.size t);
    Alcotest.(check int) "no telemetry row" 0 (List.length (rows ()));
    D.add_many t (List.map E.mk [ 2; 3 ]);
    List.iter
      (fun r ->
        let open Telemetry in
        if r.r_ops < r.r_spans then
          Alcotest.failf "%s/%s: r_ops %d < r_spans %d" r.r_structure r.r_op
            r.r_ops r.r_spans)
      (rows ())

  (* The panel's cases for this structure, named after it. *)
  let cases ?persist ?commit_mode () =
    [
      Alcotest.test_case D.structure `Quick (run ?persist ?commit_mode);
      Alcotest.test_case
        (D.structure ^ " add_many []")
        `Quick
        (empty_batch ?persist ?commit_mode);
    ]
end

module Conf_map =
  Conf
    (Imap)
    (struct
      let mk i = (i, i * 10)
    end)

module Conf_set =
  Conf
    (Iset)
    (struct
      let mk i = i
    end)

module Word_elt = struct
  let mk i = Pmem.Word.of_int i
end

module Conf_vec = Conf (Mod_core.Dvec) (Word_elt)
module Conf_stack = Conf (Mod_core.Dstack) (Word_elt)
module Conf_queue = Conf (Mod_core.Dqueue) (Word_elt)
module Conf_seq = Conf (Mod_core.Dseq) (Word_elt)

module Conf_pqueue =
  Conf
    (Mod_core.Dpqueue)
    (struct
      let mk i = i
    end)

(* ------------------------------------------------------------------ *)
(* Typed open-path errors                                             *)
(* ------------------------------------------------------------------ *)

let test_scalar_root () =
  let heap = mk_heap () in
  Pmalloc.Heap.root_set heap 3 (Pmem.Word.of_int 17);
  match Mod_core.Dvec.open_result heap ~slot:3 with
  | Error (Mod_core.Error.Corrupt_root { slot; _ }) ->
      Alcotest.(check int) "error names the slot" 3 slot
  | Ok _ -> Alcotest.fail "scalar root accepted as a vector"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e)

let test_codec_mismatch () =
  let heap = mk_heap () in
  (* a vector descriptor is 4 scanned words; the RRB and stack layouts
     differ, so opening the same slot as those structures must fail *)
  let v = Mod_core.Dvec.open_or_create heap ~slot:0 in
  Mod_core.Dvec.push_back v (Pmem.Word.of_int 1);
  (match Mod_core.Dseq.open_result heap ~slot:0 with
  | Error (Mod_core.Error.Codec_mismatch { slot; expected; found }) ->
      Alcotest.(check int) "slot" 0 slot;
      Alcotest.(check bool) "expected is non-empty" true (expected <> "");
      Alcotest.(check bool) "found is non-empty" true (found <> "")
  | Ok _ -> Alcotest.fail "vector root accepted as an RRB sequence"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e));
  match Mod_core.Dstack.open_result heap ~slot:0 with
  | Error (Mod_core.Error.Codec_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "vector root accepted as a stack"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Mod_core.Error.to_string e)

let test_error_strings () =
  let open Mod_core.Error in
  Alcotest.(check bool)
    "Slot_out_of_range mentions the limit" true
    (let s = to_string (Slot_out_of_range { slot = 99; limit = 16 }) in
     String.length s > 0);
  Alcotest.(check bool)
    "get_ok returns the payload" true
    (get_ok (Ok true));
  match get_ok (Error (Corrupt_root { slot = 1; detail = "boom" })) with
  | exception Error _ -> ()
  | _ -> Alcotest.fail "get_ok on Error did not raise"

let test_recover_result () =
  let heap = mk_heap () in
  let m = Imap.open_or_create heap ~slot:0 in
  Imap.insert m 1 2;
  match Mod_core.Recovery.recover heap with
  | Ok _report -> ()
  | Error e ->
      Alcotest.failf "recover on a consistent heap: %s"
        (Mod_core.Error.to_string e)

(* One panel: every structure's cases under one policy / commit mode. *)
let conformance ?persist ?commit_mode () =
  List.concat_map
    (fun cases -> cases ?persist ?commit_mode ())
    [
      Conf_map.cases;
      Conf_set.cases;
      Conf_vec.cases;
      Conf_stack.cases;
      Conf_queue.cases;
      Conf_seq.cases;
      Conf_pqueue.cases;
    ]

let () =
  Alcotest.run "intf"
    [
      ("durable-conformance", conformance ());
      ( "durable-conformance-backup",
        conformance ~persist:Pmalloc.Heap.Backup () );
      ("durable-conformance-cas", conformance ~commit_mode:Pmalloc.Heap.Cas ());
      (* Backup x concurrent commit: skipped by design, with the reason
         encoded as the Invalid_argument the combination raises -- a
         Backup slot's commit order is its op-log append order, which a
         lock-free root CAS cannot serialize. *)
      ( "durable-conformance-backup-cas",
        [
          Alcotest.test_case "backup slot rejects update_cas" `Quick
            (fun () ->
              let heap = mk_heap () in
              let m = Imap.open_or_create heap ~slot:0 in
              Imap.insert m 1 2;
              Mod_core.Commit.enable heap ~slot:0;
              let h = Mod_core.Handle.make heap ~slot:0 in
              match
                Mod_core.Handle.update_cas h ~build:(fun _ -> None)
              with
              | exception Invalid_argument msg ->
                  Alcotest.(check bool)
                    "reason names the policy" true
                    (String.length msg > 0)
              | (_ : int) ->
                  Alcotest.fail
                    "update_cas on a Backup slot should raise \
                     Invalid_argument");
        ] );
      ( "typed-errors",
        [
          Alcotest.test_case "scalar root" `Quick test_scalar_root;
          Alcotest.test_case "codec mismatch" `Quick test_codec_mismatch;
          Alcotest.test_case "error strings" `Quick test_error_strings;
          Alcotest.test_case "recover returns result" `Quick
            test_recover_result;
        ] );
    ]
