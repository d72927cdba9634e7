(** Exhaustive crash-point exploration.

    A workload is re-run deterministically with the {!Pmem.Region} crash
    scheduler armed at budget 1, 2, ..., so a simulated power failure is
    injected after every single PM event (store / clwb / sfence).  At
    each crash point the memory image is snapshotted and sampled under
    the three crash modes -- [Drop_inflight] and [Keep_inflight] are
    deterministic corner cases; [Randomize] is sampled K times from
    explicit, replayable survival seeds -- then recovered and checked
    against the durable-linearizability oracle.  A full (uncrashed) run
    is also traced and fed to the Section 5.4 consistency checker as a
    second invariant.

    Sweeps default to the fast path: the region journals copy-on-write
    undo records ({!Pmem.Region.snapshot_mode} [Journal]), so each crash
    point costs O(state touched) instead of O(capacity), and one scratch
    heap is rewound to a pristine snapshot between budgets instead of
    being rebuilt.  [snapshot_mode = Full_copy] selects the original
    full-image path, kept as a differential reference: both paths must
    produce identical oracle verdicts.  With [jobs > 1] the budget list
    is partitioned round-robin across forked worker processes and the
    per-worker reports are merged deterministically (identical to a
    sequential sweep); on platforms without [fork] the sweep falls back
    to sequential.

    Large runs can be strided or capped; whatever is skipped is reported
    through [log] rather than silently dropped. *)

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
      (** also sample each crash point under the fault schedule: torn
          (per-word) line persistence plus armed media faults, asserting
          the degradation contract -- recovery succeeds or fails with a
          typed error, never silently corrupts *)
  worker_kill : int option;
      (** test hook: the given parallel worker index dies before doing
          any work, exercising the shard-resweep path *)
  log : string -> unit;
}

let default =
  {
    stride = 1;
    randomize_samples = 3;
    seed = 1;
    modes =
      [
        Pmem.Region.Drop_inflight;
        Pmem.Region.Keep_inflight;
        Pmem.Region.Randomize;
      ];
    capacity_words = 1 lsl 14;
    heap_seed = 42;
    max_points = None;
    snapshot_mode = Pmem.Region.Journal;
    jobs = 1;
    faults = false;
    worker_kill = None;
    log = ignore;
  }

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
  fault_samples : int;  (** fault-schedule samples (torn / media) *)
  fault_recovered : int;  (** fault samples recovery fully absorbed *)
  fault_degraded : int;  (** fault samples that failed with a typed error *)
  fault_fallbacks : int;  (** root reads rescued by the secondary copy *)
  shards_resequenced : int;
      (** parallel-sweep shards re-run sequentially after a worker died *)
  wall_seconds : float;
  trace_report : Mod_core.Consistency.report option;
  failures : failure list;
}

let ok r =
  r.failures = []
  && match r.trace_report with
     | Some rep -> Mod_core.Consistency.ok rep
     | None -> true

let points_per_sec r =
  if r.wall_seconds <= 0.0 then 0.0
  else float_of_int r.points_tested /. r.wall_seconds

let mode_name = function
  | Pmem.Region.Drop_inflight -> "drop"
  | Pmem.Region.Keep_inflight -> "keep"
  | Pmem.Region.Randomize -> "randomize"

let mode_of_name = function
  | "drop" -> Ok Pmem.Region.Drop_inflight
  | "keep" -> Ok Pmem.Region.Keep_inflight
  | "randomize" | "random" -> Ok Pmem.Region.Randomize
  | s -> Error (Printf.sprintf "unknown crash mode %S (drop|keep|randomize)" s)

(* Survival seeds are a pure function of (master seed, crash point,
   sample index): any failure replays bit-for-bit from its triple. *)
let survival_seed cfg ~crash_index ~k =
  (cfg.seed * 1_000_003) + (crash_index * 131) + k

(* Fault-schedule seeds live in a distinct stream so torn-crash samples
   never collide with the plain Randomize samples of the same point. *)
let fault_seed cfg ~crash_index ~k =
  (cfg.seed * 7_368_787) + (crash_index * 257) + k

(* Per-point fault schedule: sample [k = 0..3] cycles through the four
   injection kinds on top of a torn crash. *)
let fault_kinds = 4

type crashed = {
  c_heap : Pmalloc.Heap.t;
  c_inst : Workload.instance;
  c_history : Workload.state list;  (** distinct committed states, newest first *)
  c_pending : Workload.state option;
}

(* A reusable execution context: one heap whose region journals undo
   records, rewound to its pristine snapshot between crash points.
   Equivalent to a fresh heap per budget (the reference behavior) but
   O(state touched) instead of O(capacity + cache hierarchy). *)
type scratch = { s_heap : Pmalloc.Heap.t; s_pristine : Pmem.Region.snapshot }

let make_scratch cfg =
  let heap =
    Pmalloc.Heap.create ~capacity_words:cfg.capacity_words ~trace:true
      ~seed:cfg.heap_seed ()
  in
  Pmem.Region.set_snapshot_mode (Pmalloc.Heap.region heap) Pmem.Region.Journal;
  { s_heap = heap; s_pristine = Pmalloc.Heap.pristine_snapshot heap }

(* The scratch a sweep reuses: the journaled path rewinds one heap, the
   full-copy reference builds a fresh heap per point. *)
let scratch_for cfg =
  match cfg.snapshot_mode with
  | Pmem.Region.Journal -> Some (make_scratch cfg)
  | Pmem.Region.Full_copy -> None

(* Build an instance with [make] on a fresh deterministic heap (or the
   rewound scratch heap) and [run] it; if [budget] is given, power fails
   after that many PM events (counted from just after heap creation) and
   the interrupted execution is returned. *)
let execute ?scratch cfg ~budget make run =
  let heap =
    match scratch with
    | Some s ->
        Pmalloc.Heap.reset_fresh s.s_heap ~pristine:s.s_pristine;
        s.s_heap
    | None ->
        Pmalloc.Heap.create ~capacity_words:cfg.capacity_words ~trace:true
          ~seed:cfg.heap_seed ()
  in
  let region = Pmalloc.Heap.region heap in
  let base_events = Pmem.Region.pm_events region in
  Option.iter (Pmem.Region.set_crash_after region) budget;
  let inst = make heap in
  match run region inst with
  | () ->
      Pmem.Region.clear_crash_point region;
      `Completed (Pmem.Region.pm_events region - base_events, heap, inst)
  | exception Pmem.Region.Crash_point -> `Crashed (heap, inst)

let run_until ?scratch cfg (w : Workload.t) ~budget =
  let history = ref [ w.model.(0) ] in
  let pending = ref None in
  match
    execute ?scratch cfg ~budget w.make (fun _ inst ->
        inst.Workload.init ();
        for i = 0 to w.ops - 1 do
          pending := Some w.model.(i + 1);
          inst.Workload.run_op i;
          pending := None;
          if w.model.(i + 1) <> List.hd !history then
            history := w.model.(i + 1) :: !history
        done)
  with
  | `Completed (events, heap, _) -> `Completed (events, heap)
  | `Crashed (heap, inst) ->
      `Crashed
        { c_heap = heap; c_inst = inst; c_history = !history;
          c_pending = !pending }

(* The concurrent workload under [schedule]; a crash point is the pair
   (schedule, budget). *)
let crun_until ?scratch cfg (cw : Workload.ct) ~schedule ~budget =
  execute ?scratch cfg ~budget cw.cmake (fun region inst ->
      inst.Workload.c_init ();
      Interleave.run region ~schedule inst.Workload.c_writers)

(* An interrupted execution as the sampler sees it: the workload's
   recovery and dump, and the oracle judging the recovered state (the
   sequential window, or the concurrent cut). *)
type point = {
  p_recover : unit -> unit;
  p_dump : unit -> Workload.state;
  p_judge : (Workload.state, exn) Stdlib.result -> Oracle.verdict;
}

let point (c : crashed) =
  {
    p_recover = c.c_inst.recover;
    p_dump = c.c_inst.dump;
    p_judge =
      (fun recovered ->
        Oracle.check ~history:c.c_history ~pending:c.c_pending ~recovered);
  }

let cpoint (inst : Workload.cinstance) =
  {
    p_recover = inst.c_recover;
    p_dump = inst.c_dump;
    p_judge =
      (fun recovered -> Oracle.check_concurrent inst.c_tracker ~recovered);
  }

let check p =
  p.p_judge
    (match
       p.p_recover ();
       p.p_dump ()
     with
    | s -> Ok s
    | exception e -> Error e)

let recover_and_check c = check (point c)
let crecover_and_check inst = check (cpoint inst)

(* The uncrashed concurrent run's serializability check: its final
   durable state must equal the newest tracked model state. *)
let serialized (inst : Workload.cinstance) =
  match inst.c_dump () with
  | final ->
      let expect = Oracle.latest inst.c_tracker in
      if final = expect then Oracle.Consistent
      else
        Oracle.Violation
          (Printf.sprintf
             "final state %s does not match the serialized model %s" final
             expect)
  | exception e ->
      Oracle.Violation
        (Printf.sprintf "reading the final state raised %s"
           (Printexc.to_string e))

(* Classify one fault sample against the degradation contract.  Unlike
   the fault-free oracle, a typed error is an acceptable outcome here:
   the injected fault was detected and surfaced.  What must never happen
   is an untyped exception escaping recovery, or a successfully
   "recovered" state the oracle rejects (silent corruption). *)
let recover_and_classify_faulted p =
  let typed = function
    | Mod_core.Error.Error te -> `Degraded te
    | e -> (
        match Mod_core.Recovery.typed_of_exn e with
        | Some te -> `Degraded te
        | None -> `Escaped e)
  in
  match p.p_recover () with
  | exception e -> typed e
  | () -> (
      match p.p_dump () with
      | exception e -> typed e
      | s -> (
          match p.p_judge (Ok s) with
          | Oracle.Consistent -> `Recovered
          | Oracle.Violation d -> `Violation d))

(* Arm the media faults of fault-schedule kind [k mod 4]:
   0 = pure torn crash, no media fault;
   1 = primary root-record line bad (typed Media_error: the survivor's
       freshness cannot be proven, so the heap degrades instead of
       serving a possibly-stale root);
   2 = both root-record lines bad (typed Media_error path);
   3 = a seed-derived heap line bad (reachable-graph scrub path). *)
let arm_fault_kind region ~k ~seed =
  let record_lines =
    List.map
      (fun (off, _) -> Pmem.Region.line_of_word off)
      (Pmalloc.Heap.root_record_ranges 0)
  in
  let primary_line = List.nth record_lines 0 in
  let secondary_line = List.nth record_lines 1 in
  match k mod fault_kinds with
  | 0 -> ()
  | 1 -> Pmem.Region.arm_media_fault region ~line:primary_line
  | 2 ->
      Pmem.Region.arm_media_fault region ~line:primary_line;
      Pmem.Region.arm_media_fault region ~line:secondary_line
  | _ ->
      let first_heap_line =
        Pmalloc.Heap.heap_start_words / Pmem.Config.words_per_line
      in
      let nlines =
        Pmem.Region.capacity_words region / Pmem.Config.words_per_line
      in
      let span = max 1 (nlines - first_heap_line) in
      let line = first_heap_line + (abs (seed * 2_654_435_761) mod span) in
      Pmem.Region.arm_media_fault region ~line

(* One sample of a crash point: the mode and survival seed the power
   failed under, and whether it was a fault-schedule (torn) sample. *)
type sample = {
  s_index : int;
  s_mode : Pmem.Region.crash_mode;
  s_seed : int option;
  s_fault : bool;
}

(* What a sweep accumulates.  Chunks of it cross the parallel sweep's
   pipes. *)
type 'f tally = {
  mutable t_tested : int;
  mutable t_sampled : int;
  mutable t_fsampled : int;
  mutable t_frecovered : int;
  mutable t_fdegraded : int;
  mutable t_ffallbacks : int;
  mutable t_resweeps : int;  (** shards re-swept after worker death *)
  mutable t_failures : 'f list;  (** newest first *)
}

let tally () =
  {
    t_tested = 0;
    t_sampled = 0;
    t_fsampled = 0;
    t_frecovered = 0;
    t_fdegraded = 0;
    t_ffallbacks = 0;
    t_resweeps = 0;
    t_failures = [];
  }

(* Sample one crash point of [heap]: snapshot the interrupted image, then
   for each mode (and each survival seed, under Randomize) restore,
   crash, recover and consult the oracle.  With [cfg.faults] the same
   point is additionally sampled under the fault schedule (torn crashes
   and armed media faults) against the weaker degradation contract.
   [fail sample detail] is the failure record a violation adds. *)
let sample_point cfg t ~crash_index heap p ~fail =
  let region = Pmalloc.Heap.region heap in
  let snap = Pmem.Region.snapshot region in
  let failed sample detail =
    t.t_failures <- fail sample detail :: t.t_failures
  in
  List.iter
    (fun mode ->
      let samples =
        match mode with
        | Pmem.Region.Randomize -> cfg.randomize_samples
        | Pmem.Region.Drop_inflight | Pmem.Region.Keep_inflight -> 1
      in
      for k = 0 to samples - 1 do
        Pmem.Region.restore region snap;
        let seed =
          match mode with
          | Pmem.Region.Randomize -> Some (survival_seed cfg ~crash_index ~k)
          | _ -> None
        in
        Pmalloc.Heap.crash ~mode ?seed heap;
        t.t_sampled <- t.t_sampled + 1;
        match check p with
        | Oracle.Consistent -> ()
        | Oracle.Violation detail ->
            failed
              { s_index = crash_index; s_mode = mode; s_seed = seed;
                s_fault = false }
              detail
      done)
    cfg.modes;
  if cfg.faults then
    for k = 0 to fault_kinds - 1 do
      Pmem.Region.restore region snap;
      let seed = fault_seed cfg ~crash_index ~k in
      Pmalloc.Heap.crash ~mode:Pmem.Region.Randomize ~seed ~torn:true heap;
      arm_fault_kind region ~k ~seed;
      t.t_fsampled <- t.t_fsampled + 1;
      let fb0 = Pmalloc.Heap.root_fallbacks heap in
      let fail fmt =
        Printf.ksprintf
          (failed
             { s_index = crash_index; s_mode = Pmem.Region.Randomize;
               s_seed = Some seed; s_fault = true })
          ("faults(kind %d): " ^^ fmt) k
      in
      (match recover_and_classify_faulted p with
      | `Recovered -> t.t_frecovered <- t.t_frecovered + 1
      | `Degraded _ -> t.t_fdegraded <- t.t_fdegraded + 1
      | `Violation d -> fail "silent corruption: %s" d
      | `Escaped e ->
          fail "untyped exception escaped: %s" (Printexc.to_string e));
      t.t_ffallbacks <- t.t_ffallbacks + Pmalloc.Heap.root_fallbacks heap - fb0;
      Pmem.Region.clear_media_faults region
    done

(* -- sweep driver -------------------------------------------------------- *)

(* The crash points a sweep must test, honoring stride and cap.  The
   parallel driver partitions exactly this list, so sequential and
   parallel sweeps test identical point sets. *)
let sweep_budgets cfg ~total_events =
  let rec go b n acc =
    if b > total_events then List.rev acc
    else
      match cfg.max_points with
      | Some m when n >= m -> List.rev acc
      | _ -> go (b + cfg.stride) (n + 1) (b :: acc)
  in
  go 1 0 []

(* Test every budget in [bs] (ascending), reusing one scratch heap on
   the journaled path. *)
let sweep_chunk cfg (w : Workload.t) bs =
  let scratch = scratch_for cfg in
  let t = tally () in
  let fail (s : sample) detail =
    {
      workload = w.name;
      ops = w.ops;
      persist = w.persist;
      crash_index = s.s_index;
      mode = s.s_mode;
      survival_seed = s.s_seed;
      faults = (if s.s_fault then Some cfg.seed else None);
      detail;
    }
  in
  List.iter
    (fun budget ->
      match run_until ?scratch cfg w ~budget:(Some budget) with
      | `Completed _ -> ()
      | `Crashed c ->
          t.t_tested <- t.t_tested + 1;
          sample_point cfg t ~crash_index:budget c.c_heap (point c) ~fail)
    bs;
  t

(* Re-run [w] on a fresh heap to one crash point and sample it exactly as
   a sweep does; its failures in sweep order, [None] past the last PM
   event. *)
let sample_at cfg w ~crash_index =
  let t =
    sweep_chunk
      { cfg with snapshot_mode = Pmem.Region.Full_copy }
      w [ crash_index ]
  in
  if t.t_tested = 0 then None else Some (List.rev t.t_failures)

(* Fork one worker per budget partition; each marshals its chunk back
   over a pipe.  Round-robin partitioning plus a stable merge keyed on
   the crash index reproduces the sequential failure order exactly
   (within one crash point all samples come from the same worker, in
   canonical mode/seed order).

   A worker that dies -- killed by the OS, or crashing before it could
   marshal its chunk -- must not abort the sweep: its budget partition is
   re-swept sequentially in the parent (budgets are pure inputs, so the
   re-run is identical to what the worker would have produced) and the
   rescue is counted in the summary. *)
let sweep_parallel cfg w bs ~jobs =
  let parts = Array.make jobs [] in
  List.iteri (fun i b -> parts.(i mod jobs) <- b :: parts.(i mod jobs)) bs;
  flush stdout;
  flush stderr;
  let children =
    Array.to_list parts
    |> List.mapi (fun idx part -> (idx, List.rev part))
    |> List.filter_map (fun (idx, part) ->
           if part = [] then None
           else
             let rd, wr = Unix.pipe () in
             match Unix.fork () with
             | 0 ->
                 Unix.close rd;
                 if cfg.worker_kill = Some idx then Unix._exit 117;
                 let status =
                   match sweep_chunk cfg w part with
                   | chunk ->
                       let oc = Unix.out_channel_of_descr wr in
                       Marshal.to_channel oc chunk [];
                       flush oc;
                       close_out oc;
                       0
                   | exception e ->
                       Printf.eprintf "crashtest worker: %s\n%!"
                         (Printexc.to_string e);
                       1
                 in
                 (* not [exit]: at_exit handlers would replay the parent's
                    buffered output *)
                 Unix._exit status
             | pid ->
                 Unix.close wr;
                 Some (pid, rd, part))
  in
  let chunks, resweeps =
    List.fold_left
      (fun (chunks, resweeps) (pid, rd, part) ->
        let ic = Unix.in_channel_of_descr rd in
        let chunk =
          match (Marshal.from_channel ic : failure tally) with
          | c -> Some c
          | exception (End_of_file | Failure _) -> None
        in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        match (chunk, status) with
        | Some c, Unix.WEXITED 0 -> (c :: chunks, resweeps)
        | _ ->
            cfg.log
              (Printf.sprintf
                 "explorer: worker pid %d died (%s); re-sweeping its %d \
                  budget(s) sequentially"
                 pid
                 (match status with
                 | Unix.WEXITED n -> Printf.sprintf "exit %d" n
                 | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                 | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
                 (List.length part));
            (sweep_chunk cfg w part :: chunks, resweeps + 1))
      ([], 0) children
  in
  let chunks = List.rev chunks in
  let sum f = List.fold_left (fun a c -> a + f c) 0 chunks in
  {
    t_tested = sum (fun c -> c.t_tested);
    t_sampled = sum (fun c -> c.t_sampled);
    t_fsampled = sum (fun c -> c.t_fsampled);
    t_frecovered = sum (fun c -> c.t_frecovered);
    t_fdegraded = sum (fun c -> c.t_fdegraded);
    t_ffallbacks = sum (fun c -> c.t_ffallbacks);
    t_resweeps = resweeps;
    t_failures =
      List.concat_map (fun c -> List.rev c.t_failures) chunks
      |> List.stable_sort (fun (a : failure) b ->
             compare a.crash_index b.crash_index)
      |> List.rev;
  }

let resolve_jobs cfg =
  let requested =
    if cfg.jobs = 0 then Domain.recommended_domain_count () else cfg.jobs
  in
  let requested = max 1 requested in
  if requested > 1 && not Sys.unix then begin
    cfg.log "explorer: no fork on this platform, falling back to sequential";
    1
  end
  else requested

let explore ?(cfg = default) (w : Workload.t) =
  let t0 = Unix.gettimeofday () in
  let total_events, trace_report =
    match run_until cfg w ~budget:None with
    | `Completed (events, heap) ->
        let report =
          if w.check_trace then
            Some (Mod_core.Consistency.check (Pmalloc.Heap.trace heap))
          else None
        in
        (events, report)
    | `Crashed _ -> assert false (* no budget armed *)
  in
  let bs = sweep_budgets cfg ~total_events in
  let jobs = min (resolve_jobs cfg) (max 1 (List.length bs)) in
  let t =
    if jobs > 1 then sweep_parallel cfg w bs ~jobs else sweep_chunk cfg w bs
  in
  let skipped = max 0 (total_events - t.t_tested) in
  if skipped > 0 then
    cfg.log
      (Printf.sprintf
         "%s: tested %d of %d crash points (stride %d%s), %d skipped"
         w.name t.t_tested total_events cfg.stride
         (match cfg.max_points with
         | Some m -> Printf.sprintf ", cap %d" m
         | None -> "")
         skipped);
  {
    workload = w.name;
    ops = w.ops;
    total_events;
    points_tested = t.t_tested;
    points_skipped = skipped;
    crashes_sampled = t.t_sampled;
    fault_samples = t.t_fsampled;
    fault_recovered = t.t_frecovered;
    fault_degraded = t.t_fdegraded;
    fault_fallbacks = t.t_ffallbacks;
    shards_resequenced = t.t_resweeps;
    wall_seconds = Unix.gettimeofday () -. t0;
    trace_report;
    failures = List.rev t.t_failures;
  }

(* -- concurrent sweeps --------------------------------------------------- *)

(* A concurrent crash point is identified by (schedule, budget): the
   interleaving is a pure function of the schedule, so re-running the
   writers under the same schedule with the same budget reproduces the
   same interrupted image bit-for-bit.  Sweeps are sequential (no fork):
   a concurrent run is a few writers x a few ops, and the schedule axis
   already multiplies the point count. *)

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

let cok r = r.cr_failures = []

let cpoints_per_sec r =
  if r.cr_wall_seconds <= 0.0 then 0.0
  else float_of_int r.cr_points_tested /. r.cr_wall_seconds

(* The default schedule set: round-robin at co-prime quanta (tight
   alternation through coarse slices) plus seeded random walks. *)
let default_schedules =
  [
    Interleave.Round_robin 1;
    Interleave.Round_robin 3;
    Interleave.Round_robin 7;
    Interleave.Seeded 1;
    Interleave.Seeded 2;
  ]

(* Every schedule is preceded by an uncrashed run: its final durable
   state must be serializable ({!serialized}, reported as crash index
   -1), and it sizes the budget sweep.  Crash points are sampled by the
   sequential sweep's sampler, sharing its seed streams, so any failure
   replays from its (schedule, crash index, mode, seed) tuple.  The
   fault schedule targets the sequential structures' root record and is
   not sampled here. *)
let explore_concurrent ?(cfg = default) ?(schedules = default_schedules)
    (cw : Workload.ct) =
  let t0 = Unix.gettimeofday () in
  let cfg = { cfg with faults = false } in
  let scratch = scratch_for cfg in
  let t = tally () in
  let total = ref 0 in
  let skipped = ref 0 in
  List.iter
    (fun schedule ->
      let fail s detail =
        {
          cf_workload = cw.cname;
          cf_writers = cw.cwriters;
          cf_ops = cw.cops;
          cf_schedule = schedule;
          cf_crash_index = s.s_index;
          cf_mode = s.s_mode;
          cf_survival_seed = s.s_seed;
          cf_detail = detail;
        }
      in
      let events =
        match crun_until ?scratch cfg cw ~schedule ~budget:None with
        | `Crashed _ -> assert false (* no budget armed *)
        | `Completed (events, _heap, inst) ->
            (match serialized inst with
            | Oracle.Consistent -> ()
            | Oracle.Violation detail ->
                t.t_failures <-
                  fail
                    { s_index = -1; s_mode = Pmem.Region.Keep_inflight;
                      s_seed = None; s_fault = false }
                    detail
                  :: t.t_failures);
            events
      in
      total := !total + events;
      let bs = sweep_budgets cfg ~total_events:events in
      List.iter
        (fun budget ->
          match crun_until ?scratch cfg cw ~schedule ~budget:(Some budget) with
          | `Completed _ -> ()
          | `Crashed (heap, inst) ->
              t.t_tested <- t.t_tested + 1;
              sample_point cfg t ~crash_index:budget heap (cpoint inst) ~fail)
        bs;
      skipped := !skipped + max 0 (events - List.length bs))
    schedules;
  if !skipped > 0 then
    cfg.log
      (Printf.sprintf
         "%s: tested %d of %d concurrent crash points (stride %d%s), %d \
          skipped"
         cw.cname t.t_tested !total cfg.stride
         (match cfg.max_points with
         | Some m -> Printf.sprintf ", cap %d/schedule" m
         | None -> "")
         !skipped);
  {
    cr_workload = cw.cname;
    cr_writers = cw.cwriters;
    cr_ops = cw.cops;
    cr_schedules = List.length schedules;
    cr_total_events = !total;
    cr_points_tested = t.t_tested;
    cr_points_skipped = !skipped;
    cr_crashes_sampled = t.t_sampled;
    cr_wall_seconds = Unix.gettimeofday () -. t0;
    cr_failures = List.rev t.t_failures;
  }

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "%s: crash after PM event %d (mode %s%s): %s"
    f.workload f.crash_index (mode_name f.mode)
    (match f.survival_seed with
    | Some s -> Printf.sprintf ", survival seed %d" s
    | None -> "")
    f.detail

let pp_result ppf r =
  Format.fprintf ppf
    "%-12s %5d events, %5d points tested (%d skipped), %6d crash samples in \
     %.2fs (%.0f points/s), %s%s%s%s"
    r.workload r.total_events r.points_tested r.points_skipped
    r.crashes_sampled r.wall_seconds (points_per_sec r)
    (match r.trace_report with
    | Some rep when not (Mod_core.Consistency.ok rep) ->
        Printf.sprintf "trace: %d violation(s), "
          (List.length rep.Mod_core.Consistency.violations)
    | Some _ -> "trace: ok, "
    | None -> "")
    (match r.failures with
    | [] -> "oracle: ok"
    | fs -> Printf.sprintf "oracle: %d violation(s)" (List.length fs))
    (if r.fault_samples > 0 then
       Printf.sprintf ", faults: %d samples (%d recovered, %d degraded, %d \
                       root fallbacks)"
         r.fault_samples r.fault_recovered r.fault_degraded r.fault_fallbacks
     else "")
    (if r.shards_resequenced > 0 then
       Printf.sprintf ", %d shard(s) re-swept after worker death"
         r.shards_resequenced
     else "")

let pp_cfailure ppf (f : cfailure) =
  if f.cf_crash_index < 0 then
    Format.fprintf ppf "%s (%d writers, schedule %s): %s" f.cf_workload
      f.cf_writers
      (Interleave.schedule_name f.cf_schedule)
      f.cf_detail
  else
    Format.fprintf ppf
      "%s (%d writers, schedule %s): crash after PM event %d (mode %s%s): %s"
      f.cf_workload f.cf_writers
      (Interleave.schedule_name f.cf_schedule)
      f.cf_crash_index (mode_name f.cf_mode)
      (match f.cf_survival_seed with
      | Some s -> Printf.sprintf ", survival seed %d" s
      | None -> "")
      f.cf_detail

let pp_cresult ppf r =
  Format.fprintf ppf
    "%-12s %d writers x %d ops, %d schedules, %5d events, %5d points tested \
     (%d skipped), %6d crash samples in %.2fs (%.0f points/s), %s"
    r.cr_workload r.cr_writers r.cr_ops r.cr_schedules r.cr_total_events
    r.cr_points_tested r.cr_points_skipped r.cr_crashes_sampled
    r.cr_wall_seconds (cpoints_per_sec r)
    (match r.cr_failures with
    | [] -> "oracle: ok"
    | fs -> Printf.sprintf "oracle: %d violation(s)" (List.length fs))
