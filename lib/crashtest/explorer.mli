(** Exhaustive crash-point exploration.

    A workload is re-run deterministically with the {!Pmem.Region}
    crash scheduler armed at budget 1, 2, ..., so a simulated power
    failure is injected after every single PM event; each crash point
    is sampled under the crash modes (and survival seeds, under
    [Randomize]), recovered, and checked against the
    durable-linearizability oracle.  Concurrent workloads add a
    schedule axis: every (interleaving schedule, crash point) pair is
    swept and judged by the concurrent oracle. *)

type config = {
  stride : int;  (** test every [stride]-th crash point *)
  randomize_samples : int;  (** survival samples per point in Randomize *)
  seed : int;  (** master seed survival seeds are derived from *)
  modes : Pmem.Region.crash_mode list;
  capacity_words : int;
  heap_seed : int;
  max_points : int option;  (** cap on tested points (strided sweeps) *)
  snapshot_mode : Pmem.Region.snapshot_mode;
      (** [Journal] = O(touched) copy-on-write sweeps (default);
          [Full_copy] = the original O(capacity) reference path *)
  jobs : int;  (** worker processes; 1 = sequential, 0 = one per core *)
  faults : bool;
      (** also sample each crash point under the fault schedule (torn
          lines + armed media faults) against the degradation contract *)
  worker_kill : int option;
      (** test hook: the given parallel worker index dies before doing
          any work, exercising the shard-resweep path *)
  log : string -> unit;
}

val default : config

type failure = {
  workload : string;
  ops : int;
  persist : Pmalloc.Heap.policy;  (** the policy the workload was built under *)
  crash_index : int;  (** PM event the power failed after *)
  mode : Pmem.Region.crash_mode;
  survival_seed : int option;  (** Randomize line-survival seed *)
  faults : int option;
      (** [Some seed]: a fault-schedule sample of a sweep whose master
          seed was [seed] ([survival_seed] is its torn crash's seed) *)
  detail : string;
}

type result = {
  workload : string;
  ops : int;
  total_events : int;
  points_tested : int;
  points_skipped : int;
  crashes_sampled : int;
  fault_samples : int;
  fault_recovered : int;
  fault_degraded : int;
  fault_fallbacks : int;
  shards_resequenced : int;
  wall_seconds : float;
  trace_report : Mod_core.Consistency.report option;
  failures : failure list;
}

val ok : result -> bool
val points_per_sec : result -> float
val mode_name : Pmem.Region.crash_mode -> string
val mode_of_name : string -> (Pmem.Region.crash_mode, string) Stdlib.result

val survival_seed : config -> crash_index:int -> k:int -> int
(** The survival seed of sample [k] at a crash point: a pure function
    of the master seed, so failures replay from their triple. *)

type crashed = {
  c_heap : Pmalloc.Heap.t;
  c_inst : Workload.instance;
  c_history : Workload.state list;
      (** distinct committed states, newest first *)
  c_pending : Workload.state option;
}

type scratch

val run_until :
  ?scratch:scratch ->
  config ->
  Workload.t ->
  budget:int option ->
  [ `Completed of int * Pmalloc.Heap.t | `Crashed of crashed ]
(** Run the workload on a fresh deterministic heap; with a budget, power
    fails after that many PM events and the interrupted execution is
    returned ([`Completed] carries the total event count). *)

val recover_and_check : crashed -> Oracle.verdict

val sample_at : config -> Workload.t -> crash_index:int -> failure list option
(** Re-run the workload on a fresh heap to one crash point and sample it
    exactly as a sweep does: every mode and survival seed of [config]
    and, with [faults], the fault schedule.  Its failures in sweep
    order; [None] past the workload's last PM event. *)

val explore : ?cfg:config -> Workload.t -> result
(** The full sweep: every strided crash point x every mode x every
    survival seed, plus the uncrashed trace check. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_result : Format.formatter -> result -> unit

(** {1 Concurrent sweeps}

    A concurrent crash point is identified by (schedule, budget): the
    interleaving is a pure function of the schedule, so re-running the
    writers under the same schedule and budget reproduces the same
    interrupted image bit-for-bit. *)

type cfailure = {
  cf_workload : string;
  cf_writers : int;
  cf_ops : int;  (** per writer *)
  cf_schedule : Interleave.schedule;
  cf_crash_index : int;  (** -1 = uncrashed-run final-state check *)
  cf_mode : Pmem.Region.crash_mode;
  cf_survival_seed : int option;
  cf_detail : string;
}

type cresult = {
  cr_workload : string;
  cr_writers : int;
  cr_ops : int;
  cr_schedules : int;
  cr_total_events : int;  (** summed over schedules *)
  cr_points_tested : int;
  cr_points_skipped : int;
  cr_crashes_sampled : int;
  cr_wall_seconds : float;
  cr_failures : cfailure list;
}

val cok : cresult -> bool

val default_schedules : Interleave.schedule list
(** Round-robin at co-prime quanta plus seeded random walks. *)

val crun_until :
  ?scratch:scratch ->
  config ->
  Workload.ct ->
  schedule:Interleave.schedule ->
  budget:int option ->
  [ `Completed of int * Pmalloc.Heap.t * Workload.cinstance
  | `Crashed of Pmalloc.Heap.t * Workload.cinstance ]

val crecover_and_check : Workload.cinstance -> Oracle.verdict

val serialized : Workload.cinstance -> Oracle.verdict
(** The uncrashed run's serializability check: its final durable state
    must equal the newest tracked model state. *)

val explore_concurrent :
  ?cfg:config -> ?schedules:Interleave.schedule list -> Workload.ct -> cresult
(** Sweep every (schedule, strided crash point, mode, survival seed)
    tuple sequentially, preceded per schedule by an uncrashed run whose
    final state must equal the newest tracked model state (the
    serializability check; reported as [cf_crash_index = -1]). *)

val pp_cfailure : Format.formatter -> cfailure -> unit
val pp_cresult : Format.formatter -> cresult -> unit
