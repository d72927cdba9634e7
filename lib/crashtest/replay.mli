(** Minimal-repro replay and shrinking.

    Every explorer failure is identified by a small tuple -- sequential:
    (workload/ops, commit policy, crash event index, mode, survival
    seed), or for a fault-schedule sample (workload/ops, policy, crash
    event index, the sweep's master seed); concurrent: (workload/ops,
    writers, interleaving schedule, crash event index, mode, survival
    seed).  [replay]/[replay_faults]/[creplay] re-run exactly that crash
    deterministically, [command]/[ccommand] print the CLI incantation
    that does the same, and [minimize] shrinks a sequential workload to
    the smallest operation count that still reproduces.  Replay always
    executes on a fresh heap -- no workers, no journaled scratch heap --
    so a repro command reproduces bit-for-bit regardless of the sweep
    settings that found it. *)

val replay :
  ?cfg:Explorer.config ->
  Workload.t ->
  crash_index:int ->
  mode:Pmem.Region.crash_mode ->
  ?seed:int ->
  unit ->
  Oracle.verdict option
(** Re-run one crash point, single sample.  [None] means the crash
    index lies beyond the workload's last PM event. *)

val replay_faults :
  ?cfg:Explorer.config ->
  Workload.t ->
  crash_index:int ->
  Explorer.failure list option
(** Re-run one crash point's fault schedule (torn crashes plus armed
    media faults, seeded by [cfg.seed]) through the sweep's sampler:
    the fault-sample failures the sweep found there.  [None] past the
    last PM event. *)

val command : Explorer.failure -> string
(** The repro command: [--replay N --mode M [--survival-seed S]], or
    [--replay N --faults --seed S] for a fault-schedule sample; with
    [--persist backup] when the workload ran under Backup. *)

val reproduces : ?cfg:Explorer.config -> Explorer.failure -> bool
(** Rebuilds the workload under the failure's policy and re-runs its
    crash point (its fault schedule, for a fault-sample failure). *)

val minimize : ?cfg:Explorer.config -> Explorer.failure -> Explorer.failure
(** Shrink the operation count (1, 2, 4, ...) to the smallest workload
    that still reaches the crash index and still violates there. *)

(** {1 Concurrent failures} *)

val creplay :
  ?cfg:Explorer.config ->
  Workload.ct ->
  schedule:Interleave.schedule ->
  crash_index:int ->
  mode:Pmem.Region.crash_mode ->
  ?seed:int ->
  unit ->
  Oracle.verdict option
(** Re-run one concurrent crash point: the interleaving is a pure
    function of the schedule, so the same (schedule, budget) pair
    reconstructs the same interrupted image bit-for-bit.
    [crash_index = -1] replays the uncrashed serializability check. *)

val ccommand : Explorer.cfailure -> string
val creproduces : ?cfg:Explorer.config -> Explorer.cfailure -> bool
