(** Minimal-repro replay and shrinking.

    Every explorer failure is identified by a small tuple: (workload/ops,
    commit policy, crash event index, mode, survival seed), or for a
    fault-schedule sample (workload/ops, policy, crash event index, the
    sweep's master seed).  [replay] re-runs exactly that crash
    deterministically, [command] prints the CLI incantation that does the
    same, and [minimize] shrinks the workload to the smallest operation
    count that still reproduces the failure.

    Replay always executes on a fresh heap -- no workers, no journaled
    scratch heap -- so a repro command reproduces bit-for-bit regardless
    of the [snapshot_mode] ([--full-snapshots]) and [jobs] ([--jobs])
    settings the sweep that found it ran under. *)

(* Re-run one crash point, single sample.  [None] means the crash index
   lies beyond the workload's last PM event (nothing to inject). *)
let replay ?(cfg = Explorer.default) (w : Workload.t) ~crash_index ~mode
    ?seed () =
  match Explorer.run_until cfg w ~budget:(Some crash_index) with
  | `Completed _ -> None
  | `Crashed c ->
      Pmalloc.Heap.crash ~mode ?seed c.Explorer.c_heap;
      Some (Explorer.recover_and_check c)

(* Re-run one crash point's fault schedule (torn crashes plus armed
   media faults) under [cfg.seed], through the sweep's own sampler. *)
let replay_faults ?(cfg = Explorer.default) w ~crash_index =
  Explorer.sample_at { cfg with modes = []; faults = true } w ~crash_index

let command (f : Explorer.failure) =
  Printf.sprintf "modpm crashtest --workload %s --ops %d%s --replay %d %s"
    f.workload f.ops
    (match f.persist with
    | Pmalloc.Heap.Backup -> " --persist backup"
    | Pmalloc.Heap.Full -> "")
    f.crash_index
    (match (f.faults, f.survival_seed) with
    | Some seed, _ -> Printf.sprintf "--faults --seed %d" seed
    | None, Some s ->
        Printf.sprintf "--mode %s --survival-seed %d"
          (Explorer.mode_name f.mode) s
    | None, None -> "--mode " ^ Explorer.mode_name f.mode)

(* The violation [f] names, re-run with the workload at [ops]
   operations under [f]'s policy: its detail, or [None] if the crash
   point now recovers consistently (or lies past the last PM event). *)
let violation ?cfg (f : Explorer.failure) ~ops =
  let w = Workload.build ~persist:f.persist f.workload ~ops in
  match f.faults with
  | None -> (
      match
        replay ?cfg w ~crash_index:f.crash_index ~mode:f.mode
          ?seed:f.survival_seed ()
      with
      | Some (Oracle.Violation detail) -> Some detail
      | Some Oracle.Consistent | None -> None)
  | Some seed ->
      let cfg = { (Option.value cfg ~default:Explorer.default) with seed } in
      Option.bind (replay_faults ~cfg w ~crash_index:f.crash_index)
        (List.find_map (fun (g : Explorer.failure) ->
             if g.survival_seed = f.survival_seed then Some g.detail
             else None))

let reproduces ?cfg (f : Explorer.failure) =
  Option.is_some (violation ?cfg f ~ops:f.ops)

(* Shrink the workload length: try 1, 2, 4, ... operations and keep the
   first count whose execution still reaches the crash index and still
   violates the oracle there (the crash index and seeds are preserved,
   so the repro stays bit-for-bit deterministic). *)
let minimize ?cfg (f : Explorer.failure) =
  let rec go ops =
    if ops >= f.ops then f
    else
      match violation ?cfg f ~ops with
      | Some detail -> { f with ops; detail }
      | None -> go (ops * 2)
  in
  go 1

(* -- concurrent failures -------------------------------------------------- *)

(* A concurrent crash point is the pair (schedule, crash event index):
   the interleaving is a pure function of the schedule, so re-running
   the writers under the same schedule and budget reconstructs the same
   interrupted image bit-for-bit.  [crash_index = -1] replays the
   uncrashed serializability check instead of a crash. *)
let creplay ?(cfg = Explorer.default) (cw : Workload.ct) ~schedule
    ~crash_index ~mode ?seed () =
  let budget = if crash_index < 0 then None else Some crash_index in
  match Explorer.crun_until cfg cw ~schedule ~budget with
  | `Completed (_, _, inst) ->
      if crash_index < 0 then Some (Explorer.serialized inst) else None
  | `Crashed (heap, inst) ->
      Pmalloc.Heap.crash ~mode ?seed heap;
      Some (Explorer.crecover_and_check inst)

let ccommand (f : Explorer.cfailure) =
  Printf.sprintf
    "modpm crashtest --workload %s --writers %d --ops %d --schedule %s \
     --replay %d --mode %s%s"
    f.Explorer.cf_workload f.Explorer.cf_writers f.Explorer.cf_ops
    (Interleave.schedule_name f.Explorer.cf_schedule)
    f.Explorer.cf_crash_index
    (Explorer.mode_name f.Explorer.cf_mode)
    (match f.Explorer.cf_survival_seed with
    | Some s -> Printf.sprintf " --survival-seed %d" s
    | None -> "")

let creproduces ?cfg (f : Explorer.cfailure) =
  let cw =
    Workload.cbuild f.Explorer.cf_workload ~writers:f.Explorer.cf_writers
      ~ops:f.Explorer.cf_ops
  in
  match
    creplay ?cfg cw ~schedule:f.Explorer.cf_schedule
      ~crash_index:f.Explorer.cf_crash_index ~mode:f.Explorer.cf_mode
      ?seed:f.Explorer.cf_survival_seed ()
  with
  | Some (Oracle.Violation _) -> true
  | Some Oracle.Consistent | None -> false
