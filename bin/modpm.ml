(* modpm: command-line driver for the MOD reproduction.

   Subcommands:
     run         -- run a Table 2 workload on a backend, print measurements
     crashtest   -- exhaustive crash-point exploration with the
                    durable-linearizability oracle (and --replay); with
                    --shards N, the single-shard crash sweep instead
     check       -- run a workload under tracing and apply the Section 5.4
                    consistency checker
     serve       -- with --shards N: the sharded multi-domain serving
                    layer under a zipfian memcached-style loop; without:
                    the kill-test worker (deterministic workload on a
                    file-backed heap, acking durable ops on stdout)
     killtest    -- fork serve workers, SIGKILL them at random/deterministic
                    points, reopen the image and check the oracle; with
                    --shards N, the file-backed single-shard sweep
     fsck        -- offline image checker/repairer
     fig4        -- the flush-concurrency microbenchmark
     machine     -- print the simulated machine configuration

   The cross-cutting flags (--persist, --writers, --json, --baseline,
   --seed, --shards) are defined once in Cli and shared by every
   subcommand that accepts them. *)

open Cmdliner

let backend_conv =
  let parse = function
    | "mod" -> Ok Workloads.Backend.Mod
    | "pmdk14" | "pmdk-1.4" -> Ok Workloads.Backend.Pmdk14
    | "pmdk15" | "pmdk-1.5" -> Ok Workloads.Backend.Pmdk15
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S (mod|pmdk14|pmdk15)" s))
  in
  let print ppf b = Format.pp_print_string ppf (Workloads.Backend.kind_name b) in
  Arg.conv (parse, print)

let workload_arg =
  let doc =
    Printf.sprintf "Workload to run: %s." (String.concat ", " Workloads.Runner.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let backend_arg =
  let doc = "Backend: mod, pmdk14 or pmdk15." in
  Arg.(value & opt backend_conv Workloads.Backend.Mod & info [ "backend"; "b" ] ~doc)

let scale_arg =
  let doc = "Number of operations (the paper runs 1,000,000)." in
  Arg.(value & opt int 10_000 & info [ "ops"; "n" ] ~doc)

let check_workload name =
  if not (List.mem name Workloads.Runner.names) then begin
    Printf.eprintf "unknown workload %S; expected one of: %s\n" name
      (String.concat ", " Workloads.Runner.names);
    exit 2
  end

(* -- run -------------------------------------------------------------- *)

let batch_arg =
  let doc =
    "Group-commit size: retire updates in batches of $(docv) under one \
     ordering point (MOD: one Batch commit per group; PMDK: one transaction \
     per group). 1 = one FASE/transaction per operation."
  in
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)

(* Render a telemetry report in one of the supported --metrics formats. *)
let render_metrics format report =
  match format with
  | "json" -> Telemetry.Export.to_json report
  | "prom" | "prometheus" -> Telemetry.Export.to_prometheus report
  | "text" -> Format.asprintf "%a" Telemetry.pp_report report
  | other ->
      Printf.eprintf "unknown --metrics format %S (json|prom|text)\n" other;
      exit 2

let emit_metrics ~out format report =
  let payload = render_metrics format report in
  match out with
  | None ->
      print_newline ();
      print_string payload;
      if String.length payload > 0 && payload.[String.length payload - 1] <> '\n'
      then print_newline ()
  | Some path ->
      let oc = open_out path in
      output_string oc payload;
      if String.length payload > 0 && payload.[String.length payload - 1] <> '\n'
      then output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path

let metrics_arg =
  let doc =
    "Collect per-(structure x op) telemetry -- latency histograms in sim-ns \
     with p50/p90/p99/max and fence-stall attribution -- and emit it as \
     $(docv): json, prom (Prometheus text) or text."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc = "Write the $(b,--metrics) payload to $(docv) instead of stdout." in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run name backend scale batch metrics metrics_out persist seed json_out =
    check_workload name;
    if batch < 1 then begin
      Printf.eprintf "--batch must be >= 1\n";
      exit 2
    end;
    (match metrics with
    | Some f when f <> "json" && f <> "prom" && f <> "prometheus" && f <> "text"
      ->
        Printf.eprintf "unknown --metrics format %S (json|prom|text)\n" f;
        exit 2
    | _ -> ());
    let sink = Option.map (fun _ -> Telemetry.Sink.Memory) metrics in
    let r =
      Workloads.Runner.run_one ~batch ?metrics:sink ?persist ~seed name backend
        ~scale
    in
    Printf.printf "workload    %s\n" r.Workloads.Runner.workload;
    Printf.printf "backend     %s\n" (Workloads.Backend.kind_name r.backend);
    Printf.printf "operations  %d (batch %d)\n" r.ops r.batch;
    Printf.printf "sim time    %.3f ms\n" (r.ns_total /. 1e6);
    Printf.printf "  flushing  %.3f ms (%.1f%%)\n" (r.ns_flush /. 1e6)
      (100.0 *. Workloads.Runner.flush_fraction r);
    Printf.printf "  logging   %.3f ms (%.1f%%)\n" (r.ns_log /. 1e6)
      (100.0 *. Workloads.Runner.log_fraction r);
    Printf.printf "  other     %.3f ms\n" (r.ns_other /. 1e6);
    Printf.printf "fences      %d (%.2f/op, %.2f/commit)\n" r.fences
      (Workloads.Runner.fences_per_op r)
      (Workloads.Runner.fences_per_commit r);
    Printf.printf "flushes     %d (%.2f/op)\n" r.flushes
      (Workloads.Runner.flushes_per_op r);
    Printf.printf "L1D misses  %.2f%%\n" (100.0 *. r.miss_ratio);
    Printf.printf "live words  %d (high water %d)\n" r.live_words
      r.high_water_words;
    (match json_out with
    | None -> ()
    | Some path ->
        let open Workloads.Report.Json in
        let doc =
          Obj
            [
              ("schema", String "modpm-run/1");
              ("workload", String r.workload);
              ("backend", String (Workloads.Backend.kind_name r.backend));
              ("ops", Int r.ops);
              ("batch", Int r.batch);
              ( "persist",
                String
                  (match persist with
                  | Some Pmalloc.Heap.Backup -> "backup"
                  | _ -> "full") );
              ("seed", Int seed);
              ("sim_ns", Float r.ns_total);
              ("ns_per_op", Float (Workloads.Runner.ns_per_op r));
              ("fences_per_op", Float (Workloads.Runner.fences_per_op r));
              ("flushes_per_op", Float (Workloads.Runner.flushes_per_op r));
              ("miss_ratio", Float r.miss_ratio);
              ("live_words", Int r.live_words);
              ("high_water_words", Int r.high_water_words);
            ]
        in
        to_file path doc;
        Printf.printf "wrote %s\n" path);
    match (metrics, r.telemetry) with
    | Some format, Some report -> emit_metrics ~out:metrics_out format report
    | _ -> ()
  in
  let doc = "Run one Table 2 workload on one backend." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ backend_arg $ scale_arg $ batch_arg
      $ metrics_arg $ metrics_out_arg $ Cli.persist_arg $ Cli.seed_arg ()
      $ Cli.json_arg)

(* -- crashtest ---------------------------------------------------------- *)

(* Reject a --baseline that the selected path would never check. *)
let no_gate baseline path =
  if baseline <> None then begin
    Printf.eprintf "--baseline: %s runs no baseline gate\n" path;
    exit 2
  end

(* The concurrent sweep/replay path of the crashtest command: [writers]
   interleaved writers per workload, every (schedule, crash point) pair
   swept and judged by the concurrent durable-linearizability oracle. *)
let crashtest_concurrent ~cfg ~writers ~ops ~workload ~replay ~mode ~sseed
    ~schedule ~json_out ~baseline =
  let cbuild name =
    try Crashtest.Workload.cbuild name ~writers ~ops
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  let parse_mode () =
    match Crashtest.Explorer.mode_of_name mode with
    | Ok m -> m
    | Error e ->
        prerr_endline e;
        exit 2
  in
  match replay with
  | Some crash_index -> (
      let m = parse_mode () in
      let sched =
        match Crashtest.Interleave.schedule_of_name schedule with
        | Ok s -> s
        | Error e ->
            prerr_endline e;
            exit 2
      in
      let cw = cbuild workload in
      match
        Crashtest.Replay.creplay ~cfg cw ~schedule:sched ~crash_index ~mode:m
          ?seed:sseed ()
      with
      | None ->
          Printf.printf
            "crash index %d is beyond the interleaving's last PM event\n"
            crash_index
      | Some Crashtest.Oracle.Consistent ->
          Printf.printf
            "replay %s (%d writers, schedule %s) @ event %d (mode %s): \
             consistent\n"
            workload writers schedule crash_index mode
      | Some (Crashtest.Oracle.Violation d) ->
          Printf.printf
            "replay %s (%d writers, schedule %s) @ event %d (mode %s): \
             VIOLATION\n\
            \  %s\n"
            workload writers schedule crash_index mode d;
          exit 1)
  | None ->
      let names =
        match workload with
        | "all" -> Crashtest.Workload.concurrent_names
        | n -> [ n ]
      in
      let bad = ref false in
      let results = ref [] in
      List.iter
        (fun name ->
          let cw = cbuild name in
          let r = Crashtest.Explorer.explore_concurrent ~cfg cw in
          results := (cw, r) :: !results;
          Format.printf "%a@." Crashtest.Explorer.pp_cresult r;
          let failed = not (Crashtest.Explorer.cok r) in
          if cw.Crashtest.Workload.cnegative then
            if not failed then begin
              Format.printf
                "  NEGATIVE CONTROL MISSED: expected an oracle violation, \
                 none found@.";
              bad := true
            end
            else
              let f = List.hd r.Crashtest.Explorer.cr_failures in
              Format.printf
                "  negative control caught as expected; replay with:@.    %s@."
                (Crashtest.Replay.ccommand f)
          else if failed then begin
            bad := true;
            List.iteri
              (fun i f ->
                if i < 5 then
                  Format.printf "  %a@.    replay: %s@."
                    Crashtest.Explorer.pp_cfailure f
                    (Crashtest.Replay.ccommand f))
              r.Crashtest.Explorer.cr_failures
          end)
        names;
      let results = List.rev !results in
      let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
      let total_points =
        sum (fun r -> r.Crashtest.Explorer.cr_points_tested)
      in
      let positive_violations =
        List.fold_left
          (fun a ((cw : Crashtest.Workload.ct), r) ->
            if cw.Crashtest.Workload.cnegative then a
            else a + List.length r.Crashtest.Explorer.cr_failures)
          0 results
      in
      let total_wall =
        List.fold_left
          (fun a (_, r) -> a +. r.Crashtest.Explorer.cr_wall_seconds)
          0.0 results
      in
      let points_per_sec =
        if total_wall <= 0.0 then 0.0
        else float_of_int total_points /. total_wall
      in
      let gate =
        Workloads.Gate.(
          check ?baseline
            [
              { key = [ "concurrent"; "max_violations" ]; dir = Max;
                measured = float_of_int positive_violations;
                label = "positive-workload violations" };
            ])
      in
      (match json_out with
      | None -> ()
      | Some path ->
          let open Workloads.Report.Json in
          let doc =
            Obj
              [
                ("schema", String "modpm-crashtest-concurrent/1");
                ("writers", Int writers);
                ("ops", Int ops);
                ("wall_seconds", Float total_wall);
                ("points_tested", Int total_points);
                ("points_per_sec", Float points_per_sec);
                ("positive_violations", Int positive_violations);
                ( "workloads",
                  List
                    (List.map
                       (fun ((cw : Crashtest.Workload.ct), r) ->
                         Obj
                           [
                             ( "workload",
                               String r.Crashtest.Explorer.cr_workload );
                             ("writers", Int r.Crashtest.Explorer.cr_writers);
                             ("ops", Int r.Crashtest.Explorer.cr_ops);
                             ( "negative",
                               Bool cw.Crashtest.Workload.cnegative );
                             ( "schedules",
                               Int r.Crashtest.Explorer.cr_schedules );
                             ( "total_events",
                               Int r.Crashtest.Explorer.cr_total_events );
                             ( "points_tested",
                               Int r.Crashtest.Explorer.cr_points_tested );
                             ( "crashes_sampled",
                               Int r.Crashtest.Explorer.cr_crashes_sampled );
                             ( "wall_seconds",
                               Float r.Crashtest.Explorer.cr_wall_seconds );
                             ( "failures",
                               Int
                                 (List.length
                                    r.Crashtest.Explorer.cr_failures) );
                             ("ok", Bool (Crashtest.Explorer.cok r));
                           ])
                       results) );
                ("gate", Workloads.Gate.to_json gate);
              ]
          in
          to_file path doc;
          Printf.printf "wrote %s\n" path);
      Workloads.Gate.exit_if_failed gate;
      if !bad then exit 1

(* --shards N: the single-shard crash sweep of the serving layer.  Kill
   one shard (rotating targets) at swept PM-event budgets of its own
   region, prove the dead shard recovers alone inside the oracle window
   and that every sibling's dump is bit-identically untouched.  In
   memory the crash is Heap.crash + Recovery.recover; with [file] the
   crashed region is abandoned as kill -9 would leave it and the image
   is reopened via Recovery.open_file. *)
let shard_sweep ~nshards ~requests ~stride ~max_points ~seed ~file ~json_out =
  if nshards < 1 then begin
    Printf.eprintf "--shards must be >= 1\n";
    exit 2
  end;
  let stride = if stride = 1 then 97 else stride in
  let r =
    Shard.crash_sweep ~nshards ~requests ~stride ?max_points ~seed ?file ()
  in
  Printf.printf
    "shard sweep (%d shards, %s): %d crash points, %d consistent, %d \
     violations, %d sibling perturbations%s\n"
    r.Shard.sw_nshards
    (match file with Some _ -> "file-backed" | None -> "in-memory")
    r.Shard.sw_points r.Shard.sw_consistent
    (List.length r.Shard.sw_violations)
    r.Shard.sw_sibling_mismatches
    (if r.Shard.sw_exhausted then " (script exhausted: full coverage)" else "");
  List.iteri
    (fun i v -> if i < 5 then Printf.printf "  VIOLATION %s\n" v)
    r.Shard.sw_violations;
  (match json_out with
  | None -> ()
  | Some path ->
      let open Workloads.Report.Json in
      let doc =
        Obj
          [
            ("schema", String "modpm-shard-sweep/1");
            ("nshards", Int r.Shard.sw_nshards);
            ("requests", Int requests);
            ("seed", Int seed);
            ( "backing",
              String (match file with Some _ -> "file" | None -> "memory") );
            ("points", Int r.Shard.sw_points);
            ("consistent", Int r.Shard.sw_consistent);
            ("violations", Int (List.length r.Shard.sw_violations));
            ("sibling_mismatches", Int r.Shard.sw_sibling_mismatches);
            ("exhausted", Bool r.Shard.sw_exhausted);
            ("ok", Bool (Shard.sweep_ok r));
          ]
      in
      to_file path doc;
      Printf.printf "wrote %s\n" path);
  if not (Shard.sweep_ok r) then exit 1

let crashtest_cmd =
  let run action workload ops stride samples seed max_points quick replay mode
      sseed shrink jobs full_snapshots faults json_out baseline persist
      writers schedule shards =
    match shards with
    | Some nshards ->
        no_gate baseline "crashtest --shards";
        let requests = if quick then min (ops * 4) 64 else ops * 4 in
        shard_sweep ~nshards ~requests ~stride ~max_points ~seed ~file:None
          ~json_out
    | None ->
    (match action with
    | None | Some "sweep" -> ()
    | Some other ->
        Printf.eprintf "unknown action %S (only: sweep)\n" other;
        exit 2);
    if replay <> None then no_gate baseline "crashtest --replay";
    let ops = if quick then min ops 8 else ops in
    let samples = if quick then min samples 2 else samples in
    let snapshot_mode =
      if full_snapshots then Pmem.Region.Full_copy else Pmem.Region.Journal
    in
    let cfg =
      {
        Crashtest.Explorer.default with
        stride;
        randomize_samples = samples;
        seed;
        max_points;
        snapshot_mode;
        jobs;
        faults;
        log = prerr_endline;
      }
    in
    if writers > 0 then begin
      if persist <> None then begin
        prerr_endline
          "--persist is not supported with --writers (Backup commits are \
           serialized by log-append order, not a root CAS)";
        exit 2
      end;
      if faults then begin
        prerr_endline "--faults is not supported with --writers yet";
        exit 2
      end;
      (* the concurrent sweep is sequential and has no shrinker *)
      if jobs <> 1 then begin
        prerr_endline "--jobs is not supported with --writers (the concurrent \
                       sweep runs sequentially)";
        exit 2
      end;
      if shrink then begin
        prerr_endline "--shrink is not supported with --writers";
        exit 2
      end;
      let workload = if workload = "mod" then "all" else workload in
      crashtest_concurrent ~cfg ~writers ~ops ~workload ~replay ~mode ~sseed
        ~schedule ~json_out ~baseline
    end
    else
    let build name =
      try Crashtest.Workload.build ?persist name ~ops
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 2
    in
    match replay with
    | Some crash_index when faults -> (
        (* the point's fault schedule, seeded by --seed as in the sweep *)
        let w = build workload in
        match Crashtest.Replay.replay_faults ~cfg w ~crash_index with
        | None ->
            Printf.printf
              "crash index %d is beyond the workload's last PM event\n"
              crash_index
        | Some [] ->
            Printf.printf
              "replay %s @ event %d (faults, seed %d): every fault sample \
               recovered or degraded typedly\n"
              workload crash_index seed
        | Some (f :: _ as fs) ->
            List.iter
              (fun (f : Crashtest.Explorer.failure) ->
                Printf.printf
                  "replay %s @ event %d (faults, seed %d): VIOLATION\n  %s\n"
                  workload crash_index seed f.detail)
              fs;
            if shrink then
              Printf.printf "  minimal repro: %s\n"
                (Crashtest.Replay.command (Crashtest.Replay.minimize ~cfg f));
            exit 1)
    | Some crash_index -> (
        (* deterministic single-point replay of a reported failure *)
        let m =
          match Crashtest.Explorer.mode_of_name mode with
          | Ok m -> m
          | Error e ->
              prerr_endline e;
              exit 2
        in
        let w = build workload in
        match
          Crashtest.Replay.replay ~cfg w ~crash_index ~mode:m ?seed:sseed ()
        with
        | None ->
            Printf.printf
              "crash index %d is beyond the workload's last PM event\n"
              crash_index
        | Some Crashtest.Oracle.Consistent ->
            Printf.printf
              "replay %s @ event %d (mode %s): consistent with a \
               FASE-boundary prefix\n"
              workload crash_index mode
        | Some (Crashtest.Oracle.Violation d) ->
            Printf.printf "replay %s @ event %d (mode %s): VIOLATION\n  %s\n"
              workload crash_index mode d;
            if shrink then begin
              let f =
                {
                  Crashtest.Explorer.workload;
                  ops;
                  persist = w.persist;
                  crash_index;
                  mode = m;
                  survival_seed = sseed;
                  faults = None;
                  detail = d;
                }
              in
              let f' = Crashtest.Replay.minimize ~cfg f in
              Printf.printf "  minimal repro: %s\n"
                (Crashtest.Replay.command f')
            end;
            exit 1)
    | None ->
        let names =
          match workload with
          (* Under --faults or --persist backup, "all"/"mod" restrict to
             the seven basic structures: the STM's count-then-entries log
             protocol is not torn-write-safe by design, and only the
             basic structures (plus "batched") support the Backup
             policy. *)
          | ("all" | "mod") when faults || persist <> None ->
              Crashtest.Workload.basic_names
          | "all" -> Crashtest.Workload.names
          | "mod" -> Crashtest.Workload.mod_names
          | n -> [ n ]
        in
        let bad = ref false in
        let results = ref [] in
        List.iter
          (fun name ->
            let w = build name in
            let r = Crashtest.Explorer.explore ~cfg w in
            results := (w, r) :: !results;
            Format.printf "%a@." Crashtest.Explorer.pp_result r;
            let failed = not (Crashtest.Explorer.ok r) in
            if w.Crashtest.Workload.negative then
              if not failed then begin
                Format.printf
                  "  NEGATIVE CONTROL MISSED: expected an oracle violation, \
                   none found@.";
                bad := true
              end
              else
                let f = List.hd r.Crashtest.Explorer.failures in
                Format.printf
                  "  negative control caught as expected; replay with:@.  \
                   \  %s@."
                  (Crashtest.Replay.command f)
            else if failed then begin
              bad := true;
              List.iteri
                (fun i f ->
                  if i < 5 then
                    Format.printf "  %a@.    replay: %s@."
                      Crashtest.Explorer.pp_failure f
                      (Crashtest.Replay.command f))
                r.Crashtest.Explorer.failures
            end)
          names;
        let results = List.rev !results in
        let total_points =
          List.fold_left
            (fun a (_, r) -> a + r.Crashtest.Explorer.points_tested)
            0 results
        in
        let total_wall =
          List.fold_left
            (fun a (_, r) -> a +. r.Crashtest.Explorer.wall_seconds)
            0.0 results
        in
        let points_per_sec =
          if total_wall <= 0.0 then 0.0
          else float_of_int total_points /. total_wall
        in
        let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
        let total_fault_samples =
          sum (fun r -> r.Crashtest.Explorer.fault_samples)
        in
        let total_fault_recovered =
          sum (fun r -> r.Crashtest.Explorer.fault_recovered)
        in
        let total_fault_degraded =
          sum (fun r -> r.Crashtest.Explorer.fault_degraded)
        in
        let total_fault_fallbacks =
          sum (fun r -> r.Crashtest.Explorer.fault_fallbacks)
        in
        if faults then
          Printf.printf
            "fault sweep: %d samples, %d recovered, %d degraded (typed), %d \
             root fallbacks\n"
            total_fault_samples total_fault_recovered total_fault_degraded
            total_fault_fallbacks;
        let gate =
          Workloads.Gate.(
            check ?baseline
              [
                { key = [ "crashtest"; "min_points_per_sec" ]; dir = Min;
                  measured = points_per_sec; label = "crash points/s" };
              ])
        in
        (match json_out with
        | None -> ()
        | Some path ->
            let open Workloads.Report.Json in
            let doc =
              Obj
                [
                  ("schema", String "modpm-crashtest/1");
                  ("ops", Int ops);
                  ("stride", Int stride);
                  ("samples", Int samples);
                  ("seed", Int seed);
                  ( "snapshot_mode",
                    String
                      (match snapshot_mode with
                      | Pmem.Region.Journal -> "journal"
                      | Pmem.Region.Full_copy -> "full-copy") );
                  ("jobs", Int jobs);
                  ("faults", Bool faults);
                  ( "persist",
                    String
                      (match persist with
                      | Some Pmalloc.Heap.Backup -> "backup"
                      | _ -> "full") );
                  ("wall_seconds", Float total_wall);
                  ("points_tested", Int total_points);
                  ("points_per_sec", Float points_per_sec);
                  ("fault_samples", Int total_fault_samples);
                  ("fault_recovered", Int total_fault_recovered);
                  ("fault_degraded", Int total_fault_degraded);
                  ("fault_fallbacks", Int total_fault_fallbacks);
                  ( "workloads",
                    List
                      (List.map
                         (fun ((w : Crashtest.Workload.t), r) ->
                           Obj
                             [
                               ("workload", String r.Crashtest.Explorer.workload);
                               ("ops", Int r.Crashtest.Explorer.ops);
                               ("negative", Bool w.Crashtest.Workload.negative);
                               ( "total_events",
                                 Int r.Crashtest.Explorer.total_events );
                               ( "points_tested",
                                 Int r.Crashtest.Explorer.points_tested );
                               ( "points_skipped",
                                 Int r.Crashtest.Explorer.points_skipped );
                               ( "crashes_sampled",
                                 Int r.Crashtest.Explorer.crashes_sampled );
                               ( "wall_seconds",
                                 Float r.Crashtest.Explorer.wall_seconds );
                               ( "points_per_sec",
                                 Float (Crashtest.Explorer.points_per_sec r) );
                               ( "fault_samples",
                                 Int r.Crashtest.Explorer.fault_samples );
                               ( "fault_recovered",
                                 Int r.Crashtest.Explorer.fault_recovered );
                               ( "fault_degraded",
                                 Int r.Crashtest.Explorer.fault_degraded );
                               ( "fault_fallbacks",
                                 Int r.Crashtest.Explorer.fault_fallbacks );
                               ( "shards_resequenced",
                                 Int r.Crashtest.Explorer.shards_resequenced );
                               ( "failures",
                                 Int
                                   (List.length r.Crashtest.Explorer.failures)
                               );
                               ("ok", Bool (Crashtest.Explorer.ok r));
                             ])
                         results) );
                  ("gate", Workloads.Gate.to_json gate);
                ]
            in
            to_file path doc;
            Printf.printf "wrote %s\n" path);
        Workloads.Gate.exit_if_failed gate;
        if !bad then exit 1
  in
  let workload =
    Arg.(
      value & opt string "all"
      & info [ "workload"; "w" ]
          ~doc:
            (Printf.sprintf
               "Workload to explore: all, mod (every MOD-shadowed workload, \
                including the batched and composition sweeps), or one of %s."
               (String.concat ", " Crashtest.Workload.names)))
  in
  let ops =
    Arg.(
      value & opt int 40
      & info [ "ops" ] ~doc:"Operations per workload script.")
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ] ~doc:"Test every STRIDE-th crash point.")
  in
  let samples =
    Arg.(
      value & opt int 3
      & info [ "samples" ]
          ~doc:"Randomize-mode survival samples per crash point.")
  in
  let max_points =
    Arg.(
      value & opt (some int) None
      & info [ "max-points" ] ~doc:"Cap on tested crash points.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Bounded smoke sweep (at most 8 ops, 2 samples) for CI.")
  in
  let replay =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ]
          ~doc:"Replay one crash point: power fails after this PM event.")
  in
  let mode =
    Arg.(
      value & opt string "randomize"
      & info [ "mode" ] ~doc:"Crash mode for --replay: drop|keep|randomize.")
  in
  let sseed =
    Arg.(
      value & opt (some int) None
      & info [ "survival-seed" ]
          ~doc:"Line-survival seed for --replay in randomize mode.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"After a failing --replay, print the minimal repro command.")
  in
  let action =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"Optional action; only $(b,sweep) (the default).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker processes for the sweep (forked); 1 = sequential, 0 = \
             one per core.")
  in
  let full_snapshots =
    Arg.(
      value & flag
      & info [ "full-snapshots" ]
          ~doc:
            "Use the original full-image snapshot path instead of \
             copy-on-write journaling (slow; differential reference).")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "At each sampled crash point, additionally inject torn-line \
             crashes and armed media faults, and assert recovery either \
             succeeds or fails with a typed error (never silent \
             corruption).  With workload all/mod, restricts the sweep to \
             the seven basic structures.  With --replay, re-runs that \
             point's fault schedule under --seed.")
  in
  let schedule =
    Arg.(
      value & opt string "rr1"
      & info [ "schedule" ]
          ~doc:
            "Interleaving schedule for a concurrent --replay: rrN \
             (round-robin, quantum N) or seededN (seeded random walk).")
  in
  let doc =
    "Exhaustively explore the crash-state space of a workload: inject a \
     power failure after every PM event, recover, and check the recovered \
     state against the durable-linearizability oracle (plus the Section \
     5.4 trace invariants).  Negative controls (stm-broken, map-nofence) \
     are expected to violate the oracle.  With --writers N, sweep N \
     interleaved concurrent writers instead, across a panel of \
     deterministic schedules.  With --shards N, run the serving layer's \
     in-memory single-shard crash sweep (kill one shard, prove it \
     recovers alone and its siblings are bit-identically untouched)."
  in
  Cmd.v (Cmd.info "crashtest" ~doc)
    Term.(
      const run $ action $ workload $ ops $ stride $ samples
      $ Cli.seed_arg () $ max_points $ quick $ replay $ mode $ sseed $ shrink
      $ jobs $ full_snapshots $ faults $ Cli.json_arg $ Cli.baseline_arg
      $ Cli.persist_arg $ Cli.writers_arg $ schedule $ Cli.shards_arg)

(* -- check ------------------------------------------------------------- *)

let check_cmd =
  let run name backend scale =
    check_workload name;
    let trace = Workloads.Runner.run_traced name backend ~scale in
    let report = Mod_core.Consistency.check trace in
    Format.printf "%a@." Mod_core.Consistency.pp_report report;
    if not (Mod_core.Consistency.ok report) then exit 1
  in
  let doc =
    "Trace a workload and verify the Section 5.4 invariants (MOD passes; \
     PMDK backends fail invariant 1 by design)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ workload_arg $ backend_arg $ scale_arg)

(* -- stats --------------------------------------------------------------- *)

(* Check a --metrics json payload: schema tag, per-row histogram
   consistency, and the acceptance-criterion identity -- the per-op
   fence-stall sum plus the unattributed remainder must equal the global
   Pmem.Stats stall counter. *)
let validate_metrics path =
  let open Workloads.Report.Json in
  let doc =
    try of_file path with
    | Sys_error e ->
        Printf.eprintf "%s unreadable: %s\n" path e;
        exit 2
    | Parse_error e ->
        Printf.eprintf "%s: bad JSON: %s\n" path e;
        exit 2
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "INVALID %s: %s\n" path msg;
        exit 1)
      fmt
  in
  let get what o key = match member key o with
    | Some v -> v
    | None -> fail "%s has no %S" what key
  in
  let num what o key =
    match to_number_opt (get what o key) with
    | Some v -> v
    | None -> fail "%s.%s is not a number" what key
  in
  (match Option.bind (member "schema" doc) to_string_opt with
  | Some "modpm-telemetry-v1" -> ()
  | Some other -> fail "schema is %S, want modpm-telemetry-v1" other
  | None -> fail "no schema tag");
  let totals = get "document" doc "totals" in
  let total_stall = num "totals" totals "fence_stall_ns" in
  let attributed = num "totals" totals "attributed_fence_stall_ns" in
  let unattributed = num "totals" totals "unattributed_fence_stall_ns" in
  let rows =
    match to_list_opt (get "document" doc "rows") with
    | Some l -> l
    | None -> fail "rows is not a list"
  in
  let row_sum = ref 0.0 in
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "rows[%d]" i in
      row_sum := !row_sum +. num what row "fence_stall_ns";
      let lat = get what row "latency" in
      ignore (num what lat "p50_ns");
      ignore (num what lat "p99_ns");
      let count = int_of_float (num what lat "count") in
      let buckets =
        match to_list_opt (get what lat "buckets") with
        | Some l -> l
        | None -> fail "%s.latency.buckets is not a list" what
      in
      let bucket_sum =
        List.fold_left
          (fun acc b -> acc + int_of_float (num what b "count"))
          0 buckets
      in
      if bucket_sum <> count then
        fail "%s: bucket counts sum to %d, latency.count is %d" what bucket_sum
          count)
    rows;
  let tol = 1e-3 +. (1e-9 *. Float.abs total_stall) in
  if Float.abs (attributed +. unattributed -. total_stall) > tol then
    fail "attributed %.3f + unattributed %.3f != total stall %.3f" attributed
      unattributed total_stall;
  if Float.abs (!row_sum -. attributed) > tol then
    fail "per-row stall sum %.3f != attributed total %.3f" !row_sum attributed;
  Printf.printf
    "%s: valid (%d rows; attribution sums to the global stall counter: \
     %.1f + %.1f = %.1f ns)\n"
    path (List.length rows) attributed unattributed total_stall

(* A small all-structures demo so `modpm stats` shows live telemetry
   without any arguments: a few hundred ops across the seven structures,
   batched and unbatched, on one heap. *)
let stats_demo () =
  let module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  let module Iset = Mod_core.Dset.Make (Pfds.Kv.Int) in
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 20) () in
  let c = Pmalloc.Heap.attach_telemetry ~sink:Telemetry.Sink.Memory heap in
  let n = 200 in
  let m = Imap.open_or_create heap ~slot:0 in
  for i = 1 to n do
    Imap.insert m i (i * i)
  done;
  Imap.insert_many m (List.init 32 (fun i -> (n + i, i)));
  for i = 1 to n / 2 do
    ignore (Imap.find m i)
  done;
  let s = Iset.open_or_create heap ~slot:1 in
  for i = 1 to n do
    Iset.add s (i mod 64)
  done;
  let v = Mod_core.Dvec.open_or_create heap ~slot:2 in
  for i = 1 to n do
    Mod_core.Dvec.push_back v (Pmem.Word.of_int i)
  done;
  Mod_core.Dvec.push_back_many v
    (List.init 32 (fun i -> Pmem.Word.of_int i));
  let st = Mod_core.Dstack.open_or_create heap ~slot:3 in
  for i = 1 to n do
    Mod_core.Dstack.push st (Pmem.Word.of_int i)
  done;
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dstack.pop st)
  done;
  let q = Mod_core.Dqueue.open_or_create heap ~slot:4 in
  for i = 1 to n do
    Mod_core.Dqueue.enqueue q (Pmem.Word.of_int i)
  done;
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dqueue.dequeue q)
  done;
  let pq = Mod_core.Dpqueue.open_or_create heap ~slot:5 in
  for i = 1 to n do
    Mod_core.Dpqueue.insert pq (n - i)
  done;
  Mod_core.Dpqueue.insert_many pq (List.init 32 (fun i -> i));
  for _ = 1 to n / 2 do
    ignore (Mod_core.Dpqueue.delete_min pq)
  done;
  let sq = Mod_core.Dseq.open_or_create heap ~slot:6 in
  for i = 1 to n do
    Mod_core.Dseq.push_back sq (Pmem.Word.of_int i)
  done;
  Mod_core.Dseq.push_back_many sq (List.init 32 (fun i -> Pmem.Word.of_int i));
  Telemetry.report c

let stats_cmd =
  let run validate format out =
    match validate with
    | Some path -> validate_metrics path
    | None -> emit_metrics ~out format (stats_demo ())
  in
  let validate =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Validate a $(b,--metrics json) payload: JSON parses, histograms \
             are self-consistent, and fence-stall attribution sums back to \
             the global counter.  Exits non-zero otherwise.")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:"Output format for the demo report: json, prom or text.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  let doc =
    "Telemetry utilities: with no arguments, run a small all-structures demo \
     and print its per-(structure x op) latency histograms and fence-stall \
     attribution; with $(b,--validate), check an exported JSON payload."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ validate $ format $ out)

(* -- serve / killtest / fsck --------------------------------------------- *)

let kill9_workloads arg =
  let names =
    match arg with
    | "all" | "basic" -> Crashtest.Kill9.names
    | n -> [ n ]
  in
  List.iter
    (fun n ->
      if not (List.mem n Crashtest.Kill9.names) then begin
        Printf.eprintf "unknown kill9 workload %S; expected all or one of: %s\n"
          n
          (String.concat ", " Crashtest.Kill9.names);
        exit 2
      end)
    names;
  names

(* serve --shards N: the sharded serving layer under a zipfian
   memcached-style loop.  Reports per-shard throughput and latency
   percentiles; --json additionally writes the aggregate summary plus
   one modpm-telemetry-v1 document per shard (validate each with
   `modpm stats --validate`). *)
let serve_sharded ~nshards ~file ~requests ~keyspace ~theta ~seed ~persist
    ~inline ~capacity ~json_out =
  if nshards < 1 then begin
    Printf.eprintf "--shards must be >= 1\n";
    exit 2
  end;
  let mode = if inline then Shard.Inline else Shard.Domains in
  let t =
    Shard.create ~mode ~capacity_words:capacity ~seed ?persist ?file ~nshards
      ()
  in
  let warmup = min (max (requests / 10) 100) 2000 in
  let r = Shard.run_load ~theta ~seed ~warmup ~keyspace t ~requests () in
  Printf.printf "shards      %d (%s mode)\n" nshards (Shard.mode_name mode);
  Printf.printf "requests    %d (zipfian theta=%.2f over %d keys, warmup %d)\n"
    requests theta keyspace warmup;
  Printf.printf "wall        %.3f s (%.0f req/s)\n" r.Shard.lr_wall_s
    r.Shard.lr_wall_req_s;
  Printf.printf "sim clock   makespan %.3f ms, serial-equivalent %.3f ms \
                 (%.0f req/sim-s)\n"
    (r.Shard.lr_sim_makespan_ns /. 1e6)
    (r.Shard.lr_sim_total_ns /. 1e6)
    r.Shard.lr_sim_req_s;
  Printf.printf "  shard  routed  executed  stolen   sim ms    p50 ns   p99 ns\n";
  List.iter
    (fun m ->
      Printf.printf "  %5d  %6d  %8d  %6d  %7.3f  %8.0f %8.0f\n"
        m.Shard.m_id m.Shard.m_routed m.Shard.m_executed m.Shard.m_stolen
        (m.Shard.m_sim_ns /. 1e6) m.Shard.m_p50_ns m.Shard.m_p99_ns)
    r.Shard.lr_shards;
  (match json_out with
  | None -> ()
  | Some path ->
      let open Workloads.Report.Json in
      let doc =
        Obj
          [
            ("schema", String "modpm-serve-shard/1");
            ("nshards", Int nshards);
            ("mode", String (Shard.mode_name mode));
            ("requests", Int requests);
            ("theta", Float theta);
            ("keyspace", Int keyspace);
            ("seed", Int seed);
            ("wall_req_s", Float r.Shard.lr_wall_req_s);
            ("sim_req_s", Float r.Shard.lr_sim_req_s);
            ("sim_makespan_ns", Float r.Shard.lr_sim_makespan_ns);
            ("sim_total_ns", Float r.Shard.lr_sim_total_ns);
            ( "shards",
              List
                (List.map
                   (fun m ->
                     Obj
                       [
                         ("id", Int m.Shard.m_id);
                         ("routed", Int m.Shard.m_routed);
                         ("executed", Int m.Shard.m_executed);
                         ("stolen", Int m.Shard.m_stolen);
                         ("sim_ns", Float m.Shard.m_sim_ns);
                         ("fences", Int m.Shard.m_fences);
                         ("p50_ns", Float m.Shard.m_p50_ns);
                         ("p99_ns", Float m.Shard.m_p99_ns);
                       ])
                   r.Shard.lr_shards) );
          ]
      in
      to_file path doc;
      Printf.printf "wrote %s\n" path;
      (* one telemetry-v1 document per shard, for stats --validate *)
      let base = Filename.remove_extension path in
      List.iter
        (fun m ->
          let p = Printf.sprintf "%s.shard%d.json" base m.Shard.m_id in
          let oc = open_out p in
          output_string oc (Telemetry.Export.to_json m.Shard.m_report);
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" p)
        r.Shard.lr_shards);
  Shard.close t

let serve_cmd =
  let run file workload ops capacity kill_commit kill_phase persist shards
      requests keyspace theta inline seed json_out =
    match shards with
    | Some nshards ->
        serve_sharded ~nshards ~file ~requests ~keyspace ~theta ~seed ~persist
          ~inline ~capacity:(max capacity (1 lsl 21)) ~json_out
    | None ->
        let file =
          match file with
          | Some f -> f
          | None ->
              Printf.eprintf
                "serve without --shards is the kill-test worker and requires \
                 --file IMAGE\n";
              exit 2
        in
        ignore (kill9_workloads workload : string list);
        let kill_at =
          match (kill_commit, kill_phase) with
          | None, _ -> None
          | Some c, phase -> (
              match Pmem.Backing.phase_of_name phase with
              | Ok p -> Some (c, p)
              | Error e ->
                  Printf.eprintf "--kill-phase: %s\n" e;
                  exit 2)
        in
        Crashtest.Kill9.serve ~capacity_words:capacity ?kill_at ?persist
          ~path:file ~workload ~ops ~ack_fd:Unix.stdout ()
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file"; "f" ] ~docv:"IMAGE"
          ~doc:
            "Heap image file to create and run against (required without \
             $(b,--shards); with $(b,--shards N), optional base path -- \
             shard $(i,i) is file-backed at $(docv).$(i,i)).")
  in
  let workload =
    Arg.(
      value & opt string "map"
      & info [ "workload"; "w" ]
          ~doc:"Deterministic workload script to apply (worker mode).")
  in
  let ops =
    Arg.(value & opt int 60 & info [ "ops" ] ~doc:"Operations (worker mode).")
  in
  let capacity =
    Arg.(
      value
      & opt int (1 lsl 16)
      & info [ "capacity-words" ] ~doc:"Initial heap capacity in words.")
  in
  let kill_commit =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-commit" ] ~docv:"N"
          ~doc:"Self-SIGKILL inside the $(docv)-th file writeback batch.")
  in
  let kill_phase =
    Arg.(
      value & opt string "commit"
      & info [ "kill-phase" ]
          ~doc:
            "Writeback phase for $(b,--kill-commit): journal (before the \
             commit marker), commit (marker durable, not applied), apply \
             (half-applied) or applied (before the journal truncate).")
  in
  let requests =
    Arg.(
      value & opt int 20_000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Measured requests for the sharded loop ($(b,--shards)).")
  in
  let keyspace =
    Arg.(
      value & opt int 10_000
      & info [ "keyspace" ] ~docv:"K"
          ~doc:"Distinct keys the zipfian loop draws from ($(b,--shards)).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ]
          ~doc:"Zipfian skew in [0,1); 0 = uniform ($(b,--shards)).")
  in
  let inline =
    Arg.(
      value & flag
      & info [ "inline" ]
          ~doc:
            "Run the sharded loop on one domain (deterministic sim clocks) \
             instead of one worker domain per shard.")
  in
  let doc =
    "With $(b,--shards N): serve a zipfian memcached-style loop across N \
     shards, each owning its own heap, telemetry collector and (unless \
     $(b,--inline)) its own domain, with per-shard work queues and work \
     stealing; report per-shard throughput and p50/p99.  Without \
     $(b,--shards): the kill-test worker -- apply a deterministic workload \
     to a fresh file-backed heap, acking each durable operation on stdout \
     (meant to be forked and SIGKILLed by $(b,modpm killtest))."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ file $ workload $ ops $ capacity $ kill_commit $ kill_phase
      $ Cli.persist_arg $ Cli.shards_arg $ requests $ keyspace $ theta
      $ inline $ Cli.seed_arg ~default:42 () $ Cli.json_arg)

let killtest_cmd =
  let run workload kills ops seed dir keep json_out baseline persist shards =
    match shards with
    | Some nshards ->
        (* sharded kill test: file-backed single-shard crash sweep -- the
           crashed shard's image is abandoned mid-writeback and reopened
           through Recovery.open_file while its siblings keep serving *)
        no_gate baseline "killtest --shards";
        let dir =
          match dir with Some d -> d | None -> Filename.get_temp_dir_name ()
        in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let base = Filename.concat dir "modpm_shard_kill.img" in
        shard_sweep ~nshards ~requests:(ops * 4) ~stride:97
          ~max_points:(Some (max 1 kills)) ~seed ~file:(Some base) ~json_out
    | None ->
    let names = kill9_workloads workload in
    let names =
      (* siblings needs multi-slot commit points, which the Backup policy
         rejects; drop it from "all" sweeps under --persist backup *)
      if persist = None then names
      else
        List.filter
          (fun n -> List.mem n Crashtest.Workload.backup_names)
          names
    in
    (if names = [] then begin
       Printf.eprintf
         "no selected kill9 workload supports --persist backup (expected %s)\n"
         (String.concat ", " Crashtest.Workload.backup_names);
       exit 2
     end);
    let dir =
      match dir with Some d -> d | None -> Filename.get_temp_dir_name ()
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let per = max 1 (kills / List.length names) in
    let results =
      List.map
        (fun name ->
          let r =
            Crashtest.Kill9.run ~dir ~ops ~seed ~keep ~log:prerr_endline
              ?persist ~workload:name ~kills:per ()
          in
          Format.printf "%a@." Crashtest.Kill9.pp_result r;
          List.iteri
            (fun i f -> if i < 5 then Printf.printf "  FAIL %s\n" f)
            (Crashtest.Kill9.failures r);
          r)
        names
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 results in
    let violations = sum (fun r -> r.Crashtest.Kill9.violations) in
    let escaped = sum (fun r -> r.Crashtest.Kill9.escaped) in
    let trials = sum (fun r -> r.Crashtest.Kill9.kills) in
    let max_reopen_ns =
      List.fold_left
        (fun a r -> Float.max a r.Crashtest.Kill9.max_reopen_ns)
        0.0 results
    in
    let mean_reopen_ns =
      let s =
        List.fold_left
          (fun a r ->
            a
            +. (r.Crashtest.Kill9.mean_reopen_ns
               *. float_of_int r.Crashtest.Kill9.kills))
          0.0 results
      in
      if trials = 0 then 0.0 else s /. float_of_int trials
    in
    Printf.printf
      "\nkill9 total: %d trials across %d workloads, %d violations, %d \
       escaped; reopen mean %.2fms max %.2fms\n"
      trials (List.length names) violations escaped (mean_reopen_ns /. 1e6)
      (max_reopen_ns /. 1e6);
    let gate =
      Workloads.Gate.(
        check ?baseline
          [
            { key = [ "killtest"; "max_reopen_ms" ]; dir = Max;
              measured = max_reopen_ns /. 1e6; label = "reopen max ms" };
          ])
    in
    (match json_out with
    | None -> ()
    | Some path ->
        let open Workloads.Report.Json in
        let doc =
          Obj
            [
              ("schema", String "modpm-kill9/1");
              ("ops", Int ops);
              ("seed", Int seed);
              ( "persist",
                String
                  (match persist with
                  | Some Pmalloc.Heap.Backup -> "backup"
                  | _ -> "full") );
              ("trials", Int trials);
              ("violations", Int violations);
              ("escaped", Int escaped);
              ("mean_reopen_ms", Float (mean_reopen_ns /. 1e6));
              ("max_reopen_ms", Float (max_reopen_ns /. 1e6));
              ( "workloads",
                List
                  (List.map
                     (fun (r : Crashtest.Kill9.result) ->
                       Obj
                         [
                           ("workload", String r.workload);
                           ("trials", Int r.kills);
                           ("completed", Int r.completed_runs);
                           ("violations", Int r.violations);
                           ("escaped", Int r.escaped);
                           ("typed_errors", Int r.typed_errors);
                           ("journal_replayed", Int r.replayed);
                           ("journal_discarded", Int r.discarded);
                           ("journal_clean", Int r.clean_journals);
                           ("fsck_clean", Int r.fsck_clean);
                           ("fsck_degraded", Int r.fsck_degraded);
                           ("fsck_corrupt", Int r.fsck_corrupt);
                           ("mean_reopen_ms", Float (r.mean_reopen_ns /. 1e6));
                           ("max_reopen_ms", Float (r.max_reopen_ns /. 1e6));
                           ("wall_seconds", Float r.wall_seconds);
                           ("ok", Bool (Crashtest.Kill9.ok r));
                         ])
                     results) );
              ("gate", Workloads.Gate.to_json gate);
            ]
        in
        to_file path doc;
        Printf.printf "wrote %s\n" path);
    Workloads.Gate.exit_if_failed gate;
    if violations > 0 || escaped > 0 then exit 1
  in
  let workload =
    Arg.(
      value & opt string "all"
      & info [ "workload"; "w" ]
          ~doc:
            (Printf.sprintf
               "Workload to kill: all (sweep), or one of %s."
               (String.concat ", " Crashtest.Kill9.names)))
  in
  let kills =
    Arg.(
      value & opt int 60
      & info [ "kills" ]
          ~doc:"Total kill trials, split evenly across the chosen workloads.")
  in
  let ops =
    Arg.(value & opt int 60 & info [ "ops" ] ~doc:"Operations per trial.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory for image files (default: system temp).")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep post-mortem images instead of deleting.")
  in
  let doc =
    "Real kill-9 durability test: fork a worker applying a deterministic \
     workload to a file-backed heap, SIGKILL it -- at a random wall-clock \
     instant or deterministically inside the writeback protocol -- reopen \
     the image in the surviving process, and check the recovered state \
     against the durable-linearizability oracle.  Every post-mortem image \
     is also classified by fsck.  With $(b,--shards N), instead sweep \
     crashes of one file-backed shard and check its siblings are untouched \
     while it recovers alone.  Exits non-zero on any oracle violation or \
     escaped exception."
  in
  Cmd.v (Cmd.info "killtest" ~doc)
    Term.(
      const run $ workload $ kills $ ops $ Cli.seed_arg ~default:7 () $ dir
      $ keep $ Cli.json_arg $ Cli.baseline_arg $ Cli.persist_arg
      $ Cli.shards_arg)

let fsck_cmd =
  let run image repair_flag =
    let report =
      if repair_flag then Pmalloc.Fsck.repair image
      else Pmalloc.Fsck.check image
    in
    Format.printf "%s: %a@." image Pmalloc.Fsck.pp_report report;
    match report.Pmalloc.Fsck.verdict with
    | Pmalloc.Fsck.Clean | Pmalloc.Fsck.Repaired -> ()
    | Pmalloc.Fsck.Degraded -> exit 1
    | Pmalloc.Fsck.Corrupt -> exit 2
  in
  let image =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IMAGE" ~doc:"Heap image file to check.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Rewrite the image from the surviving root-record copies, \
             quarantining unrecoverable slots, so it always reopens.")
  in
  let doc =
    "Offline heap-image checker: validate the header and whole-image \
     checksum, resolve the sidecar journal, walk every root record and its \
     reachable object graph, and report clean, degraded (single-copy roots \
     or a pending journal) or corrupt.  Exit status: 0 clean/repaired, 1 \
     degraded, 2 corrupt."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ image $ repair)

(* -- fig4 / machine ------------------------------------------------------ *)

let fig4_cmd =
  let run () =
    (* measure through the simulated hardware, like bench/main.exe fig4 *)
    Printf.printf "flushes/fence  measured (ns)  amdahl (ns)\n";
    List.iter
      (fun n ->
        let region = Pmem.Region.create ~capacity_words:(1 lsl 16) () in
        let lines = 320 in
        let offs =
          Array.init lines (fun i -> i * Pmem.Config.words_per_line)
        in
        Array.iter
          (fun off -> Pmem.Region.store region off (Pmem.Word.of_int 1))
          offs;
        let stats = Pmem.Region.stats region in
        let t0 = stats.Pmem.Stats.now_ns in
        Array.iteri
          (fun i off ->
            Pmem.Region.clwb region off;
            if (i + 1) mod n = 0 then Pmem.Region.sfence region)
          offs;
        if lines mod n <> 0 then Pmem.Region.sfence region;
        Printf.printf "%13d  %13.1f  %11.1f\n" n
          ((stats.Pmem.Stats.now_ns -. t0) /. float_of_int lines)
          (Pmem.Latency.amdahl_avg_ns n))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let doc = "Run the flush-concurrency microbenchmark (Figure 4)." in
  Cmd.v (Cmd.info "fig4" ~doc) Term.(const run $ const ())

let machine_cmd =
  let run () = print_endline (Pmem.Config.describe ()) in
  let doc = "Print the simulated machine configuration (Table 1)." in
  Cmd.v (Cmd.info "machine" ~doc) Term.(const run $ const ())

let () =
  let doc = "MOD: minimally ordered durable datastructures (reproduction)" in
  let info = Cmd.info "modpm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; crashtest_cmd; check_cmd; stats_cmd;
            serve_cmd; killtest_cmd; fsck_cmd; fig4_cmd; machine_cmd;
          ]))
