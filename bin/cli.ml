(* Shared argument surface for the modpm subcommands.

   One definition of the cross-cutting flags -- --persist, --writers,
   --json, --baseline, --seed, --shards -- instead of the per-subcommand
   copies that had drifted apart: every subcommand that accepts one of
   these spells it, parses it and documents it identically.  (bench's
   hand-rolled parser mirrors the same names.) *)

open Cmdliner

(* --persist: commit policy for whatever structure the subcommand
   drives.  "full" maps to None (the structures' default) so
   policy-free paths stay untouched. *)
let persist_conv =
  let parse = function
    | "full" -> Ok None
    | "backup" -> Ok (Some Pmalloc.Heap.Backup)
    | s -> Error (`Msg (Printf.sprintf "unknown --persist %S (full|backup)" s))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "full"
    | Some p -> Format.pp_print_string ppf (Pmalloc.Heap.policy_name p)
  in
  Arg.conv (parse, print)

let persist_arg =
  let doc =
    "Commit policy for the driven structure(s): $(b,full) (persist every \
     node eagerly, the default) or $(b,backup) (persist only the backup \
     data and a bounded op log; recovery reconstructs the interior nodes)."
  in
  Arg.(value & opt persist_conv None & info [ "persist" ] ~docv:"POLICY" ~doc)

let seed_arg ?(default = 1) () =
  let doc = "Master seed all of the run's determinism derives from." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc = "Write a machine-readable summary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let baseline_arg =
  let doc =
    "Gate the run against a committed baseline JSON (bench/BASELINE.json \
     shape): exit 1 when a bound is violated, 2 when the file is \
     unreadable, bad JSON or lacks a key.  Rejected (exit 2) where the \
     selected path runs no gate."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let writers_arg =
  let doc =
    "Concurrent writers (0 = sequential): sweep this many interleaved \
     writers per workload, judged by the concurrent oracle."
  in
  Arg.(value & opt int 0 & info [ "writers" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Shard count for the serving layer: partition keys across $(docv) \
     heaps (one telemetry collector and, where applicable, one domain \
     each) instead of the single-instance path."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
