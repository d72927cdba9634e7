(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the simulated Optane machine, plus the
   ablation studies indexed in DESIGN.md.

   Usage:
     dune exec bench/main.exe                     -- everything, default scale
     dune exec bench/main.exe -- fig4 fig9        -- selected sections
     dune exec bench/main.exe -- --scale 50000    -- heavier runs
     dune exec bench/main.exe -- --full           -- paper-scale (1M ops; slow)

   Numbers are simulated nanoseconds; the goal is the *shape* of each
   paper result (see EXPERIMENTS.md for the side-by-side reading). *)

open Workloads

let default_scale = 10_000

let usage () =
  print_endline
    "sections: fig2 fig4 fig9 fig10 fig11 table3 ctree ablations batch \
     telemetry faults persist killtest alloc shard all";
  print_endline
    "options: --scale N | --full | --json FILE | --baseline FILE | --seed N \
     | --shards N";
  exit 1

(* Machine-readable counterpart of a Runner sweep entry (BENCH_*.json). *)
let runner_json (r : Runner.result) =
  Report.Json.(
    Obj
      [
        ("workload", String r.Runner.workload);
        ("backend", String (Backend.kind_name r.Runner.backend));
        ("ops", Int r.Runner.ops);
        ("batch", Int r.Runner.batch);
        ("commits", Int r.Runner.commits);
        ("sim_ns_total", Float r.Runner.ns_total);
        ("sim_ns_flush", Float r.Runner.ns_flush);
        ("sim_ns_log", Float r.Runner.ns_log);
        ("sim_ns_other", Float r.Runner.ns_other);
        ("fences", Int r.Runner.fences);
        ("flushes", Int r.Runner.flushes);
        ("loads", Int r.Runner.loads);
        ("stores", Int r.Runner.stores);
        ("cache_miss_ratio", Float r.Runner.miss_ratio);
        ("live_words", Int r.Runner.live_words);
        ("high_water_words", Int r.Runner.high_water_words);
      ])

(* ------------------------------------------------------------------ *)
(* Figure 4: average flush latency vs flushes overlapped per fence     *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  Report.section
    "Figure 4: average flush latency vs flush concurrency (320 cachelines)";
  Printf.printf "%s\n\n"
    "observed = measured on the simulated DCPMM; amdahl = closed-form fit\n\
     (f = 0.82 parallel), as in the paper.";
  Report.row_r
    [ "flushes/fence"; "observed (ns)"; "amdahl (ns)"; "" ]
    [ 14; 14; 12; 30 ];
  let lines_total = 320 in
  let points = ref [] in
  List.iter
    (fun n ->
      let region = Pmem.Region.create ~capacity_words:(1 lsl 16) () in
      (* fault in 320 distinct cachelines (<= 32KB worth: they fit L1D) *)
      let offs = Array.init lines_total (fun i -> i * Pmem.Config.words_per_line) in
      Array.iter (fun off -> Pmem.Region.store region off (Pmem.Word.of_int 1)) offs;
      let stats = Pmem.Region.stats region in
      let t0 = stats.Pmem.Stats.now_ns in
      Array.iteri
        (fun i off ->
          Pmem.Region.clwb region off;
          if (i + 1) mod n = 0 then Pmem.Region.sfence region)
        offs;
      if lines_total mod n <> 0 then Pmem.Region.sfence region;
      let avg = (stats.Pmem.Stats.now_ns -. t0) /. float_of_int lines_total in
      let model = Pmem.Latency.amdahl_avg_ns n in
      points :=
        Report.Json.(
          Obj
            [
              ("flushes_per_fence", Int n);
              ("observed_avg_ns", Float avg);
              ("amdahl_avg_ns", Float model);
            ])
        :: !points;
      Report.row_r
        [
          string_of_int n;
          Printf.sprintf "%.1f" avg;
          Printf.sprintf "%.1f" model;
          Report.bar ~width:28 ~max_value:360.0 avg;
        ]
        [ 14; 14; 12; 30 ])
    [ 1; 2; 4; 8; 12; 16; 20; 24; 28; 32 ];
  let r1 = Pmem.Latency.amdahl_avg_ns 1 and r16 = Pmem.Latency.amdahl_avg_ns 16 in
  Printf.printf
    "\nheadline: 16 concurrent flushes are %.0f%% cheaper than serialized\n\
     flushes (paper: 75%%).\n"
    (100.0 *. (r1 -. r16) /. r1);
  Report.Json.List (List.rev !points)

(* ------------------------------------------------------------------ *)
(* Workload sweeps shared by Figures 2, 9 and 11                       *)
(* ------------------------------------------------------------------ *)

let sweep ~scale =
  List.map
    (fun name ->
      let per_backend =
        List.map
          (fun backend -> (backend, Runner.run_one name backend ~scale))
          Backend.all_kinds
      in
      (name, per_backend))
    Runner.names

let get results name backend = List.assoc backend (List.assoc name results)

let fig2 results =
  Report.section
    "Figure 2: fraction of execution time flushing / logging (PMDK v1.5)";
  Report.row [ "workload"; "other"; "flush"; "log"; "o=other f=flush l=log" ]
    [ 10; 6; 6; 6; 50 ];
  List.iter
    (fun name ->
      let r = get results name Backend.Pmdk15 in
      let fo = 1.0 -. Runner.flush_fraction r -. Runner.log_fraction r in
      let ff = Runner.flush_fraction r in
      let fl = Runner.log_fraction r in
      Report.row
        [
          name;
          Report.fraction_pct fo;
          Report.fraction_pct ff;
          Report.fraction_pct fl;
          Report.stacked_bar [ ('o', fo); ('f', ff); ('l', fl) ];
        ]
        [ 10; 6; 6; 6; 50 ])
    Runner.names;
  let avg f =
    let xs = List.map (fun n -> f (get results n Backend.Pmdk15)) Runner.names in
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  Printf.printf
    "\nheadline: PMDK v1.5 spends %.0f%% of time flushing and %.0f%% logging\n\
     on average (paper: ~64%% flushing, ~9%% logging).\n"
    (100.0 *. avg Runner.flush_fraction)
    (100.0 *. avg Runner.log_fraction)

let fig9 results =
  Report.section
    "Figure 9: execution time normalized to PMDK v1.4 (stacked: other/flush/log)";
  Report.row
    [ "workload"; "backend"; "norm"; "other"; "flush"; "log"; "stacked bar" ]
    [ 10; 9; 6; 6; 6; 6; 40 ];
  List.iter
    (fun name ->
      let base = (get results name Backend.Pmdk14).Runner.ns_total in
      List.iter
        (fun backend ->
          let r = get results name backend in
          let norm = r.Runner.ns_total /. base in
          let seg f = f r *. norm in
          let other =
            norm -. seg Runner.flush_fraction -. seg Runner.log_fraction
          in
          Report.row
            [
              (if backend = Backend.Pmdk14 then name else "");
              Backend.kind_name backend;
              Report.f2 norm;
              Report.f2 other;
              Report.f2 (seg Runner.flush_fraction);
              Report.f2 (seg Runner.log_fraction);
              Report.stacked_bar
                ~width:(int_of_float (Float.round (norm *. 25.0)))
                [
                  ('o', other /. norm);
                  ('f', seg Runner.flush_fraction /. norm);
                  ('l', seg Runner.log_fraction /. norm);
                ];
            ]
            [ 10; 9; 6; 6; 6; 6; 40 ])
        Backend.all_kinds;
      print_newline ())
    Runner.names;
  (* headline summaries, as in Section 6.3 *)
  let speedup names =
    let per_wl =
      List.map
        (fun n ->
          let p = (get results n Backend.Pmdk15).Runner.ns_total in
          let m = (get results n Backend.Mod).Runner.ns_total in
          (p -. m) /. p)
        names
    in
    100.0
    *. (List.fold_left ( +. ) 0.0 per_wl /. float_of_int (List.length per_wl))
  in
  Printf.printf
    "headline: MOD vs PMDK v1.5 --\n\
    \  pointer-based micros (map set queue stack): %+.0f%% (paper: +43%%)\n\
    \  applications (bfs vacation memcached):      %+.0f%% (paper: +36%%)\n\
    \  vector / vec-swap:                          %+.0f%% (paper: negative)\n"
    (speedup [ "map"; "set"; "queue"; "stack" ])
    (speedup [ "bfs"; "vacation"; "memcached" ])
    (speedup [ "vector"; "vec-swap" ]);
  let v14 =
    let per_wl =
      List.map
        (fun n ->
          let a = (get results n Backend.Pmdk14).Runner.ns_total in
          let b = (get results n Backend.Pmdk15).Runner.ns_total in
          (a -. b) /. a)
        Runner.names
    in
    100.0
    *. (List.fold_left ( +. ) 0.0 per_wl /. float_of_int (List.length per_wl))
  in
  Printf.printf "  PMDK v1.5 vs v1.4:                          %+.0f%% (paper: +23%%)\n" v14

let fig10 () =
  Report.section
    "Figure 10: flushes per operation vs fences per operation (scatter data)";
  let points = Profile.all ~samples:300 ~size:5_000 () in
  Report.row_r
    [ "operation"; "backend"; "fences/op"; "flushes/op" ]
    [ 14; 9; 10; 11 ];
  List.iter
    (fun (p : Profile.point) ->
      Report.row_r
        [
          p.label;
          Backend.kind_name p.backend;
          Report.f1 p.fences;
          Report.f1 p.flushes;
        ]
        [ 14; 9; 10; 11 ])
    points;
  print_newline ();
  Printf.printf
    "headline: MOD always has exactly 1 fence/op; PMDK v1.5 shows several\n\
     (paper Section 3: 5-11 fences, 4-23 flushes per transaction).\n"

let fig11 results =
  Report.section "Figure 11: L1D cache miss ratios (PMDK v1.5 vs MOD)";
  Report.row [ "workload"; "PMDK-1.5"; "MOD"; "PMDK bar / MOD bar" ] [ 10; 9; 7; 44 ];
  List.iter
    (fun name ->
      let p = get results name Backend.Pmdk15 in
      let m = get results name Backend.Mod in
      Report.row
        [
          name;
          Report.fraction_pct p.Runner.miss_ratio;
          Report.fraction_pct m.Runner.miss_ratio;
          Printf.sprintf "%s | %s"
            (Report.bar ~width:20 ~max_value:0.12 p.Runner.miss_ratio)
            (Report.bar ~width:20 ~max_value:0.12 m.Runner.miss_ratio);
        ]
        [ 10; 9; 7; 44 ])
    Runner.names;
  Printf.printf
    "\nheadline: MOD's pointer-based map/set/vector show markedly higher\n\
     miss ratios than PMDK's contiguous layouts (paper: 2.8-4.6x);\n\
     stack/queue/bfs are comparable on both.\n"

let table3 ~scale =
  Report.section
    "Table 3: memory consumed at 2N elements relative to N elements";
  let n = max 1_000 (scale / 2) in
  Printf.printf "N = %d elements (paper: 1 million)\n\n" n;
  let rows = Space.table3 ~n () in
  Report.row_r
    [ "structure"; "backend"; "words@N"; "words@2N"; "ratio" ]
    [ 10; 9; 10; 10; 7 ];
  List.iter
    (fun (r : Space.row) ->
      Report.row_r
        [
          r.structure;
          Backend.kind_name r.backend;
          string_of_int r.words_at_n;
          string_of_int r.words_at_2n;
          Printf.sprintf "%.2fx" r.ratio;
        ]
        [ 10; 9; 10; 10; 7 ])
    rows;
  let transient, live = Space.shadow_overhead ~n in
  Printf.printf
    "\nper-update shadow overhead: one insert into a %d-element map consumes\n\
     %d transient words = %.6fx of the structure (paper: 0.00002-0.00004x).\n"
    n transient
    (float_of_int transient /. float_of_int live);
  Report.Json.(
    Obj
      [
        ("n", Int n);
        ( "rows",
          List
            (List.map
               (fun (r : Space.row) ->
                 Obj
                   [
                     ("structure", String r.structure);
                     ("backend", String (Backend.kind_name r.backend));
                     ("words_at_n", Int r.words_at_n);
                     ("words_at_2n", Int r.words_at_2n);
                     ("ratio", Float r.ratio);
                   ])
               rows) );
        ("shadow_transient_words", Int transient);
        ("shadow_live_words", Int live);
      ])

let ablations ~scale =
  Report.section "Ablations (DESIGN.md): what each MOD ingredient buys";
  let ops = max 200 (scale / 10) in
  let print_group title rows =
    Report.subsection title;
    List.iter
      (fun (r : Ablation.result) ->
        Printf.printf
          "  %-48s %10.2f ms  %7d fences  %8d flushes  %8d hw words\n" r.label
          (r.ns_total /. 1e6) r.fences r.flushes r.high_water_words)
      rows
  in
  let groups =
    [
      ( "sharing",
        "(a) structural sharing (vector point updates)",
        Ablation.sharing ~ops ~size:(max 500 (scale / 5)) );
      ( "ordering",
        "(b) minimal ordering (map inserts)",
        Ablation.ordering ~ops ~size:(max 500 (scale / 5)) );
      ( "reclamation",
        "(c) eager reclamation (map insert churn)",
        Ablation.reclamation ~ops ~size:100 );
    ]
  in
  List.iter (fun (_, title, rows) -> print_group title rows) groups;
  Report.Json.(
    Obj
      (List.map
         (fun (key, _, rows) ->
           ( key,
             List
               (List.map
                  (fun (r : Ablation.result) ->
                    Obj
                      [
                        ("label", String r.label);
                        ("sim_ns_total", Float r.ns_total);
                        ("fences", Int r.fences);
                        ("flushes", Int r.flushes);
                        ("high_water_words", Int r.high_water_words);
                      ])
                  rows) ))
         groups))

(* ------------------------------------------------------------------ *)
(* Group commit: simulated cost vs batch size (the --batch knob)       *)
(* ------------------------------------------------------------------ *)

let batch_sizes = [ 1; 2; 4; 8; 16; 32 ]

(* One N-op group is one FASE: N staged shadows, one ordering point.
   The sweep shows simulated ns/op strictly decreasing as the fence cost
   amortizes, and fences/commit -> 1 on MOD; the returned gate rows
   (checked under --baseline) turn the shape into a regression gate. *)
let batch_section ~scale () =
  Report.section
    "Group commit: simulated cost vs batch size (micro map workload)";
  Printf.printf
    "MOD stages N pure updates into one Mod_core.Batch and retires them\n\
     under a single fence (Commit.single); the PMDK backends group the\n\
     same N operations in one PM-STM transaction (Tx.run_grouped).\n\n";
  (* Common-case FASE shape first: one 8-insert group is exactly one
     ordering point and one commit. *)
  let profile =
    let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 18) () in
    let m = Micro.Mod_map.open_or_create heap ~slot:0 in
    let (), p =
      Mod_core.Fase.run heap (fun () ->
          Micro.Mod_map.insert_many m (List.init 8 (fun i -> (i, i))))
    in
    Printf.printf "one 8-insert MOD batch: %s\n\n"
      (Format.asprintf "%a" Mod_core.Fase.pp_profile p);
    p
  in
  let mod_runs =
    List.map
      (fun b -> (b, Runner.run_one ~batch:b "map" Backend.Mod ~scale))
      batch_sizes
  in
  let pmdk_runs =
    List.map
      (fun b -> (b, Runner.run_one ~batch:b "map" Backend.Pmdk15 ~scale))
      batch_sizes
  in
  Report.row_r
    [ "backend"; "batch"; "sim ns/op"; "fences/op"; "fences/commit";
      "flushes/op" ]
    [ 9; 6; 10; 10; 14; 11 ];
  let show backend runs =
    List.iter
      (fun (b, r) ->
        Report.row_r
          [
            backend;
            string_of_int b;
            Printf.sprintf "%.1f" (Runner.ns_per_op r);
            Report.f2 (Runner.fences_per_op r);
            Report.f2 (Runner.fences_per_commit r);
            Report.f2 (Runner.flushes_per_op r);
          ]
          [ 9; 6; 10; 10; 14; 11 ])
      runs
  in
  show "MOD" mod_runs;
  print_newline ();
  show "PMDK-1.5" pmdk_runs;
  let ns b runs = Runner.ns_per_op (List.assoc b runs) in
  Printf.printf
    "\nheadline: MOD ns/op drops %.2fx from batch=1 to batch=32; fences/op\n\
     falls from %.2f to %.2f (1/N amortization of the single ordering\n\
     point).\n"
    (ns 1 mod_runs /. ns 32 mod_runs)
    (Runner.fences_per_op (List.assoc 1 mod_runs))
    (Runner.fences_per_op (List.assoc 32 mod_runs));
  (* regression gate *)
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check
    (profile.Mod_core.Fase.fences = 1 && profile.Mod_core.Fase.commits = 1)
    (Printf.sprintf
       "FASE profile: an 8-insert batch used %d fences / %d commits \
        (expected 1 / 1)"
       profile.Mod_core.Fase.fences profile.Mod_core.Fase.commits);
  let rec strictly_decreasing = function
    | (b1, r1) :: ((b2, r2) :: _ as rest) ->
        check
          (Runner.ns_per_op r2 < Runner.ns_per_op r1)
          (Printf.sprintf
             "MOD ns/op did not decrease from batch=%d (%.1f) to batch=%d \
              (%.1f)"
             b1 (Runner.ns_per_op r1) b2 (Runner.ns_per_op r2));
        strictly_decreasing rest
    | _ -> ()
  in
  strictly_decreasing mod_runs;
  (match List.rev !failures with
  | [] -> print_endline "\nbatch regression gate: ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "BATCH REGRESSION: %s\n" m) fs;
      exit 1);
  let runs_json backend runs =
    Report.Json.(
      List
        (List.map
           (fun (b, r) ->
             Obj
               [
                 ("backend", String backend);
                 ("batch", Int b);
                 ("sim_ns_per_op", Float (Runner.ns_per_op r));
                 ("fences_per_op", Float (Runner.fences_per_op r));
                 ("fences_per_commit", Float (Runner.fences_per_commit r));
                 ("flushes_per_op", Float (Runner.flushes_per_op r));
                 ("sim_ns_total", Float r.Runner.ns_total);
                 ("fences", Int r.Runner.fences);
                 ("commits", Int r.Runner.commits);
               ])
           runs))
  in
  ( Report.Json.(
      Obj
        [
          ( "fase_profile_8_insert_batch",
            Obj
              [
                ("fences", Int profile.Mod_core.Fase.fences);
                ("flushes", Int profile.Mod_core.Fase.flushes);
                ("commits", Int profile.Mod_core.Fase.commits);
              ] );
          ("mod", runs_json "mod" mod_runs);
          ("pmdk15", runs_json "pmdk15" pmdk_runs);
        ]),
    Gate.
      [
        { key = [ "batch"; "mod_map"; "max_fences_per_op_at_32" ]; dir = Max;
          measured = Runner.fences_per_op (List.assoc 32 mod_runs);
          label = "fences/op at batch=32" };
        { key = [ "batch"; "mod_map"; "min_speedup_1_to_32" ]; dir = Min;
          measured = ns 1 mod_runs /. ns 32 mod_runs;
          label = "batch=1 -> batch=32 speedup" };
      ] )

(* ------------------------------------------------------------------ *)
(* Telemetry: per-op histograms, attribution identity, sink overhead   *)
(* ------------------------------------------------------------------ *)

let telemetry_section ~scale () =
  Report.section
    "Telemetry: per-(structure x op) histograms and fence-stall attribution";
  Printf.printf
    "A Memory-sink run of the micro map workload, its attribution identity\n\
     (sum of per-op stalls + unattributed = global Pmem.Stats stall), and\n\
     the wall-clock overhead of an installed-but-Null collector.\n\n";
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  (* -- Memory-sink run: histograms + attribution ------------------- *)
  let r =
    Runner.run_one ~metrics:Telemetry.Sink.Memory "map" Backend.Mod ~scale
  in
  let rep =
    match r.Runner.telemetry with
    | Some rep -> rep
    | None -> failwith "telemetry: Memory-sink run returned no report"
  in
  Format.printf "%a@." Telemetry.pp_report rep;
  let attr_gap =
    Float.abs
      (rep.Telemetry.attributed_fence_stall_ns
      +. rep.Telemetry.unattributed_fence_stall_ns
      -. rep.Telemetry.total_fence_stall_ns)
  in
  let tol = 1e-6 +. (1e-9 *. Float.abs rep.Telemetry.total_fence_stall_ns) in
  check (rep.Telemetry.rows <> [])
    "telemetry: Memory-sink run produced no per-op rows";
  check (attr_gap <= tol)
    (Printf.sprintf
       "telemetry: attribution does not sum to the global stall counter \
        (%.3f + %.3f vs %.3f, gap %.3g)"
       rep.Telemetry.attributed_fence_stall_ns
       rep.Telemetry.unattributed_fence_stall_ns
       rep.Telemetry.total_fence_stall_ns attr_gap);
  List.iter
    (fun row ->
      let h = row.Telemetry.r_lat in
      check
        (Telemetry.Histogram.count h = row.Telemetry.r_spans)
        (Printf.sprintf "telemetry: row %s/%s histogram holds %d samples, \
                         expected %d spans"
           row.Telemetry.r_structure row.Telemetry.r_op
           (Telemetry.Histogram.count h) row.Telemetry.r_spans))
    rep.Telemetry.rows;
  (* -- Null-sink overhead: interleaved min-of-trials --------------- *)
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let trials = 5 in
  let best_off = ref infinity and best_null = ref infinity in
  (* one untimed warmup each, then interleave so drift hits both arms *)
  ignore (Runner.run_one "map" Backend.Mod ~scale);
  ignore (Runner.run_one ~metrics:Telemetry.Sink.Null "map" Backend.Mod ~scale);
  for _ = 1 to trials do
    best_off :=
      Float.min !best_off (time (fun () -> Runner.run_one "map" Backend.Mod ~scale));
    best_null :=
      Float.min !best_null
        (time (fun () ->
             Runner.run_one ~metrics:Telemetry.Sink.Null "map" Backend.Mod
               ~scale))
  done;
  let overhead_pct =
    if !best_off <= 0.0 then 0.0
    else Float.max 0.0 (((!best_null /. !best_off) -. 1.0) *. 100.0)
  in
  Printf.printf
    "null-sink overhead: off %.1f ms, null %.1f ms -> %.2f%% (min of %d \
     interleaved trials)\n"
    (!best_off *. 1e3) (!best_null *. 1e3) overhead_pct trials;
  (match List.rev !failures with
  | [] -> print_endline "\ntelemetry regression gate: ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "TELEMETRY REGRESSION: %s\n" m) fs;
      exit 1);
  let row_json row =
    let h = row.Telemetry.r_lat in
    Report.Json.(
      Obj
        [
          ("structure", String row.Telemetry.r_structure);
          ("op", String row.Telemetry.r_op);
          ("spans", Int row.Telemetry.r_spans);
          ("ops", Int row.Telemetry.r_ops);
          ("p50_ns", Float (Telemetry.Histogram.percentile h 0.50));
          ("p99_ns", Float (Telemetry.Histogram.percentile h 0.99));
          ("fence_stall_ns", Float row.Telemetry.r_fence_stall_ns);
        ])
  in
  ( Report.Json.(
      Obj
        [
          ("workload", String "map");
          ("backend", String "mod");
          ("null_sink_overhead_pct", Float overhead_pct);
          ("attribution_gap_ns", Float attr_gap);
          ( "total_fence_stall_ns",
            Float rep.Telemetry.total_fence_stall_ns );
          ( "attributed_fence_stall_ns",
            Float rep.Telemetry.attributed_fence_stall_ns );
          ( "unattributed_fence_stall_ns",
            Float rep.Telemetry.unattributed_fence_stall_ns );
          ("rows", List (List.map row_json rep.Telemetry.rows));
        ]),
    Gate.
      [
        { key = [ "telemetry"; "max_null_sink_overhead_pct" ]; dir = Max;
          measured = overhead_pct; label = "null-sink overhead %" };
      ] )

(* ------------------------------------------------------------------ *)
(* Faults: torn-crash + media-fault sweep throughput and detection     *)
(* ------------------------------------------------------------------ *)

let faults_section () =
  Report.section
    "Faults: torn-crash and media-fault sweep (detection-or-recovery gate)";
  Printf.printf
    "A bounded fault-schedule sweep over the seven basic structures: at\n\
     each sampled crash point the dirty lines are torn per-word and root /\n\
     heap cachelines are armed as media-bad.  The oracle requires recovery\n\
     to reconstruct a durably-linearizable state or fail with a typed\n\
     error -- a silent-corruption verdict fails the bench.\n\n";
  let cfg =
    {
      Crashtest.Explorer.default with
      stride = 2;
      randomize_samples = 2;
      faults = true;
    }
  in
  let violations = ref 0 in
  let results =
    List.map
      (fun name ->
        let w = Crashtest.Workload.build name ~ops:16 in
        let r = Crashtest.Explorer.explore ~cfg w in
        Format.printf "%a@." Crashtest.Explorer.pp_result r;
        if not (Crashtest.Explorer.ok r) then
          violations := !violations + List.length r.Crashtest.Explorer.failures;
        (name, r))
      Crashtest.Workload.basic_names
  in
  let sum f =
    List.fold_left (fun a (_, r) -> a + f r) 0 results
  in
  let samples = sum (fun r -> r.Crashtest.Explorer.fault_samples) in
  let recovered = sum (fun r -> r.Crashtest.Explorer.fault_recovered) in
  let degraded = sum (fun r -> r.Crashtest.Explorer.fault_degraded) in
  let fallbacks = sum (fun r -> r.Crashtest.Explorer.fault_fallbacks) in
  let points = sum (fun r -> r.Crashtest.Explorer.points_tested) in
  let wall =
    List.fold_left
      (fun a (_, r) -> a +. r.Crashtest.Explorer.wall_seconds)
      0.0 results
  in
  let points_per_sec =
    if wall <= 0.0 then 0.0 else float_of_int points /. wall
  in
  Printf.printf
    "\nfault sweep: %d samples (%d recovered, %d degraded, %d root \
     fallbacks), %.0f points/s\n"
    samples recovered degraded fallbacks points_per_sec;
  if !violations > 0 then begin
    Printf.eprintf "FAULT SWEEP: %d oracle violation(s)\n" !violations;
    exit 1
  end;
  print_endline "fault detection gate: ok";
  Report.Json.(
    Obj
      [
        ("fault_samples", Int samples);
        ("fault_recovered", Int recovered);
        ("fault_degraded", Int degraded);
        ("fault_fallbacks", Int fallbacks);
        ("points_tested", Int points);
        ("wall_seconds", Float wall);
        ("points_per_sec", Float points_per_sec);
        ("violations", Int !violations);
        ( "workloads",
          List
            (List.map
               (fun (name, r) ->
                 Obj
                   [
                     ("workload", String name);
                     ("fault_samples", Int r.Crashtest.Explorer.fault_samples);
                     ( "fault_recovered",
                       Int r.Crashtest.Explorer.fault_recovered );
                     ("fault_degraded", Int r.Crashtest.Explorer.fault_degraded);
                     ( "fault_fallbacks",
                       Int r.Crashtest.Explorer.fault_fallbacks );
                     ("ok", Bool (Crashtest.Explorer.ok r));
                   ])
               results) );
      ])

(* ------------------------------------------------------------------ *)
(* Commit policies: Full vs Backup ("don't persist all")               *)
(* ------------------------------------------------------------------ *)

(* The paper's "persist only the backup data" tradeoff, measured on the
   simulated machine: per-op flush and fence counts for the same script
   under both commit policies, plus the Backup recovery cost (log replay
   rebuilding the volatile interior).  Gates: Backup must strictly
   reduce flushes/op on both map and vec, and the returned gate row bounds
   the reconstruction latency against the committed baseline. *)
let persist_section ~scale () =
  Report.section
    "Commit policies: Full vs Backup (\"don't persist all\", Section 2.3)";
  Printf.printf
    "Same insert script under both commit policies.  Full clwbs every new\n\
     node before the commit fence; Backup clwbs only a bounded op log and\n\
     checkpoints when it fills, leaving interior nodes volatile-clean --\n\
     recovery replays the log to rebuild them.\n\n";
  let module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  let ops = max 1_000 (min scale 10_000) in
  let measure name persist run_ops reconstruct =
    let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 22) () in
    let stats = Pmalloc.Heap.stats heap in
    let c0 = stats.Pmem.Stats.clwbs
    and f0 = stats.Pmem.Stats.fences
    and t0 = stats.Pmem.Stats.now_ns in
    run_ops heap;
    let flushes = stats.Pmem.Stats.clwbs - c0
    and fences = stats.Pmem.Stats.fences - f0
    and ns = stats.Pmem.Stats.now_ns -. t0 in
    (* Backup recovery cost: drop the volatile state (as a reopen
       would) and time the log replay that rebuilds it *)
    let recovery_ms =
      match persist with
      | None -> 0.0
      | Some _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Mod_core.Recovery.recover_exn heap);
          reconstruct heap;
          (Unix.gettimeofday () -. t0) *. 1e3
    in
    ( name,
      float_of_int flushes /. float_of_int ops,
      float_of_int fences /. float_of_int ops,
      ns /. float_of_int ops,
      recovery_ms )
  in
  let map_ops persist heap =
    let m = Imap.open_or_create ?persist heap ~slot:0 in
    let rng = Random.State.make [| 11 |] in
    for _ = 1 to ops do
      Imap.insert m (Random.State.int rng (2 * ops)) 7
    done
  in
  let vec_ops persist heap =
    let v = Mod_core.Dvec.open_or_create ?persist heap ~slot:0 in
    for i = 1 to ops do
      Mod_core.Dvec.push_back v (Pmem.Word.of_int i)
    done
  in
  let map_rebuild heap = Imap.reconstruct heap ~slot:0 in
  let vec_rebuild heap = Mod_core.Dvec.reconstruct heap ~slot:0 in
  let rows =
    [
      measure "map/full" None (map_ops None) map_rebuild;
      measure "map/backup" (Some Pmalloc.Heap.Backup)
        (map_ops (Some Pmalloc.Heap.Backup))
        map_rebuild;
      measure "vec/full" None (vec_ops None) vec_rebuild;
      measure "vec/backup" (Some Pmalloc.Heap.Backup)
        (vec_ops (Some Pmalloc.Heap.Backup))
        vec_rebuild;
    ]
  in
  Report.row_r
    [ "structure/policy"; "flushes/op"; "fences/op"; "sim ns/op";
      "recovery (ms)" ]
    [ 18; 12; 11; 11; 14 ];
  List.iter
    (fun (name, fl, fe, ns, rec_ms) ->
      Printf.printf "  %-18s %10.3f  %9.3f  %9.1f  %12.2f\n" name fl fe ns
        rec_ms)
    rows;
  let get name =
    let _, fl, _, _, rec_ms =
      List.find (fun (n, _, _, _, _) -> n = name) rows
    in
    (fl, rec_ms)
  in
  let map_full, _ = get "map/full" in
  let map_backup, map_rec = get "map/backup" in
  let vec_full, _ = get "vec/full" in
  let vec_backup, vec_rec = get "vec/backup" in
  Printf.printf
    "\nheadline: Backup flushes %.1fx fewer lines/op on map, %.1fx on vec,\n\
     at the price of a bounded log replay on reopen.\n"
    (map_full /. Float.max map_backup 1e-9)
    (vec_full /. Float.max vec_backup 1e-9);
  if map_backup >= map_full || vec_backup >= vec_full then begin
    Printf.eprintf
      "PERSIST GATE: Backup does not strictly reduce flushes/op (map %.3f \
       vs %.3f, vec %.3f vs %.3f)\n"
      map_backup map_full vec_backup vec_full;
    exit 1
  end;
  let recovery_ms = Float.max map_rec vec_rec in
  print_endline "persist-policy gate: ok";
  ( Report.Json.(
      Obj
        [
          ("ops", Int ops);
          ("max_recovery_ms", Float recovery_ms);
          ( "rows",
            List
              (List.map
                 (fun (name, fl, fe, ns, rec_ms) ->
                   Obj
                     [
                       ("name", String name);
                       ("flushes_per_op", Float fl);
                       ("fences_per_op", Float fe);
                       ("sim_ns_per_op", Float ns);
                       ("recovery_ms", Float rec_ms);
                     ])
                 rows) );
        ]),
    Gate.
      [
        { key = [ "persist"; "max_recovery_ms" ]; dir = Max;
          measured = recovery_ms; label = "Backup recovery ms" };
      ] )

(* ------------------------------------------------------------------ *)
(* Kill9: real fork+SIGKILL durability sweep on the file backend       *)
(* ------------------------------------------------------------------ *)

let killtest_section () =
  Report.section
    "Kill9: fork + SIGKILL durability on the file-backed heap";
  Printf.printf
    "Forked workers apply deterministic workloads to file-backed heaps and\n\
     are SIGKILLed at random wall-clock instants and deterministically\n\
     inside the journaled writeback; the surviving process reopens each\n\
     image and checks the recovered state against the oracle.  Any\n\
     violation or escaped exception fails the bench; the committed\n\
     baseline bounds reopen latency.\n\n";
  let results =
    List.map
      (fun name ->
        let r =
          Crashtest.Kill9.run ~ops:30 ~seed:13 ~workload:name ~kills:8 ()
        in
        Format.printf "%a@." Crashtest.Kill9.pp_result r;
        List.iter
          (fun f -> Printf.eprintf "KILL9 FAIL: %s\n" f)
          (Crashtest.Kill9.failures r);
        r)
      [ "map"; "queue"; "vec" ]
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let violations = sum (fun r -> r.Crashtest.Kill9.violations) in
  let escaped = sum (fun r -> r.Crashtest.Kill9.escaped) in
  let max_reopen_ms =
    List.fold_left
      (fun a r -> Float.max a (r.Crashtest.Kill9.max_reopen_ns /. 1e6))
      0.0 results
  in
  if violations > 0 || escaped > 0 then begin
    Printf.eprintf "KILL9 SWEEP: %d violation(s), %d escaped exception(s)\n"
      violations escaped;
    exit 1
  end;
  print_endline "kill9 durability gate: ok";
  ( Report.Json.(
      Obj
        [
          ("trials", Int (sum (fun r -> r.Crashtest.Kill9.kills)));
          ("violations", Int violations);
          ("escaped", Int escaped);
          ("completed", Int (sum (fun r -> r.Crashtest.Kill9.completed_runs)));
          ("journal_replayed", Int (sum (fun r -> r.Crashtest.Kill9.replayed)));
          ( "journal_discarded",
            Int (sum (fun r -> r.Crashtest.Kill9.discarded)) );
          ("max_reopen_ms", Float max_reopen_ms);
          ( "workloads",
            List
              (List.map
                 (fun (r : Crashtest.Kill9.result) ->
                   Obj
                     [
                       ("workload", String r.workload);
                       ("trials", Int r.kills);
                       ("violations", Int r.violations);
                       ("mean_reopen_ms", Float (r.mean_reopen_ns /. 1e6));
                       ("ok", Bool (Crashtest.Kill9.ok r));
                     ])
                 results) );
        ]),
    Gate.
      [
        { key = [ "kill9"; "max_reopen_ms" ]; dir = Max;
          measured = max_reopen_ms; label = "reopen max ms" };
      ] )

(* ------------------------------------------------------------------ *)
(* Allocator: arena hot path, map inserts at scale, recovery per GB    *)
(* ------------------------------------------------------------------ *)

(* Three measurements, all on the simulated machine:
   (a) raw alloc/release churn through the epoch pipeline at the full
       --scale (the shadow-node hot path in isolation);
   (b) CHAMP map inserts at min(scale, 1M) -- allocs/op, simulated
       ns/op and host wall ns/op;
   (c) crash + reachability recovery over the built heap, normalized
       to seconds per GB of high-water footprint.
   Simulated numbers and allocs/op are deterministic, so the committed
   baseline gates them; wall-clock is reported for the trajectory. *)
let alloc_section ~scale () =
  Report.section
    "Allocator: arena hot path, map inserts at scale, recovery per GB";
  let module Imap = Mod_core.Dmap.Make (Pfds.Kv.Int) (Pfds.Kv.Int) in
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  (* -- (a) raw churn ------------------------------------------------ *)
  let churn_ops = max 10_000 scale in
  let churn_live = 512 in
  let churn =
    let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 22) () in
    let al = Pmalloc.Heap.allocator heap in
    let stats = Pmalloc.Heap.stats heap in
    let live = Array.make churn_live (-1) in
    let rng = Random.State.make [| 271828 |] in
    let a0 = Pmalloc.Allocator.allocations al in
    let t0 = stats.Pmem.Stats.now_ns in
    let w0 = Unix.gettimeofday () in
    for i = 0 to churn_ops - 1 do
      let slot = i mod churn_live in
      if live.(slot) >= 0 then Pmalloc.Heap.release heap live.(slot);
      let words = 2 + Random.State.int rng 14 in
      let body = Pmalloc.Heap.alloc heap ~kind:Pmalloc.Block.Raw ~words in
      Pmalloc.Heap.store heap body (Pmem.Word.of_int i);
      live.(slot) <- body;
      if i land 63 = 63 then Pmalloc.Heap.sfence heap
    done;
    Pmalloc.Heap.sfence heap;
    let ops = float_of_int churn_ops in
    let sim_ns_op = (stats.Pmem.Stats.now_ns -. t0) /. ops in
    let wall_ns_op = (Unix.gettimeofday () -. w0) *. 1e9 /. ops in
    let allocs = Pmalloc.Allocator.allocations al - a0 in
    let hw = Pmalloc.Allocator.high_water_words al in
    (* churn at a bounded live set must reuse memory, not chase the
       frontier: the high-water mark stays O(live set + epoch lag) *)
    check
      (hw < 128 * churn_live * 16)
      (Printf.sprintf
         "churn leaked through the reuse path: high water %d words for a \
          %d-block live set"
         hw churn_live);
    (allocs, sim_ns_op, wall_ns_op, hw)
  in
  let churn_allocs, churn_sim_ns, churn_wall_ns, churn_hw = churn in
  Printf.printf
    "churn: %d alloc/release ops, %.2f allocs/op, %.1f sim ns/op, %.0f \
     wall ns/op, high water %d words\n"
    churn_ops
    (float_of_int churn_allocs /. float_of_int churn_ops)
    churn_sim_ns churn_wall_ns churn_hw;
  (* -- (b) map inserts at scale ------------------------------------- *)
  let map_n = max 1_000 (min scale 10_000_000) in
  let heap = Pmalloc.Heap.create ~capacity_words:(1 lsl 24) () in
  let al = Pmalloc.Heap.allocator heap in
  let stats = Pmalloc.Heap.stats heap in
  let m = Imap.open_or_create heap ~slot:0 in
  let a0 = Pmalloc.Allocator.allocations al in
  let t0 = stats.Pmem.Stats.now_ns in
  let w0 = Unix.gettimeofday () in
  for k = 0 to map_n - 1 do
    Imap.insert m k (k land 1023)
  done;
  let fn = float_of_int map_n in
  let map_allocs_op = float_of_int (Pmalloc.Allocator.allocations al - a0) /. fn in
  let map_sim_ns = (stats.Pmem.Stats.now_ns -. t0) /. fn in
  let map_wall_ns = (Unix.gettimeofday () -. w0) *. 1e9 /. fn in
  Printf.printf
    "map: %d inserts, %.2f allocs/op, %.1f sim ns/op, %.0f wall ns/op, \
     %d live words\n"
    map_n map_allocs_op map_sim_ns map_wall_ns
    (Pmalloc.Allocator.live_words al);
  (* -- (c) recovery seconds per GB of heap footprint ---------------- *)
  let hw_bytes = float_of_int (Pmalloc.Allocator.high_water_words al * 8) in
  Pmalloc.Heap.crash heap;
  let rt0 = stats.Pmem.Stats.now_ns in
  let rw0 = Unix.gettimeofday () in
  let report = Mod_core.Recovery.recover_exn heap in
  let rec_sim_s = (stats.Pmem.Stats.now_ns -. rt0) /. 1e9 in
  let rec_wall_s = Unix.gettimeofday () -. rw0 in
  let gb = hw_bytes /. 1e9 in
  let rec_sim_s_gb = rec_sim_s /. gb and rec_wall_s_gb = rec_wall_s /. gb in
  Printf.printf
    "recovery: %.3f GB footprint, %.3f sim s (%.1f sim s/GB), %.3f wall s \
     (%.1f wall s/GB), %d blocks live\n"
    gb rec_sim_s rec_sim_s_gb rec_wall_s rec_wall_s_gb
    report.Mod_core.Recovery.gc.Pmalloc.Recovery_gc.live_blocks;
  check
    (Imap.cardinal m = map_n)
    (Printf.sprintf "recovered map holds %d keys, expected %d"
       (Imap.cardinal m) map_n);
  (match List.rev !failures with
  | [] -> print_endline "\nalloc regression gate: ok"
  | fs ->
      List.iter (fun m -> Printf.eprintf "ALLOC REGRESSION: %s\n" m) fs;
      exit 1);
  ( Report.Json.(
      Obj
        [
          ("churn_ops", Int churn_ops);
          ("churn_allocs", Int churn_allocs);
          ("churn_sim_ns_per_op", Float churn_sim_ns);
          ("churn_wall_ns_per_op", Float churn_wall_ns);
          ("churn_high_water_words", Int churn_hw);
          ("map_inserts", Int map_n);
          ("map_allocs_per_op", Float map_allocs_op);
          ("map_sim_ns_per_op", Float map_sim_ns);
          ("map_wall_ns_per_op", Float map_wall_ns);
          ("heap_gb", Float gb);
          ("recovery_sim_s", Float rec_sim_s);
          ("recovery_sim_s_per_gb", Float rec_sim_s_gb);
          ("recovery_wall_s", Float rec_wall_s);
          ("recovery_wall_s_per_gb", Float rec_wall_s_gb);
        ]),
    Gate.
      [
        { key = [ "alloc"; "max_churn_sim_ns_per_op" ]; dir = Max;
          measured = churn_sim_ns; label = "churn sim ns/op" };
        { key = [ "alloc"; "max_map_allocs_per_op" ]; dir = Max;
          measured = map_allocs_op; label = "map allocs/op" };
        { key = [ "alloc"; "max_map_sim_ns_per_op" ]; dir = Max;
          measured = map_sim_ns; label = "map sim ns/op" };
        { key = [ "alloc"; "max_recovery_sim_s_per_gb" ]; dir = Max;
          measured = rec_sim_s_gb; label = "recovery sim s/GB" };
      ] )

(* ------------------------------------------------------------------ *)
(* Section 6.1 baseline choice: WHISPER hashmap vs ctree on PMDK       *)
(* ------------------------------------------------------------------ *)

let ctree ~scale =
  Report.section
    "Baseline choice (paper 6.1): WHISPER hashmap vs ctree, PMDK v1.5";
  let ops = max 1_000 (scale / 2) in
  let size = ops in
  let run_map () =
    let ctx = Backend.create Backend.Pmdk15 in
    let inst = Micro.map_setup ctx ~size in
    let rng = Backend.rng ctx in
    for _ = 1 to size / 2 do
      Micro.map_insert ctx inst (Random.State.int rng size) 1
    done;
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      Backend.op_pause ctx;
      let k = Random.State.int rng size in
      if Random.State.bool rng then Micro.map_insert ctx inst k 2
      else Micro.map_lookup ctx inst k
    done;
    (Backend.stats ctx).Pmem.Stats.now_ns
  in
  let run_ctree () =
    let ctx = Backend.create Backend.Pmdk15 in
    let tx = Backend.tx ctx in
    let desc = Pmstm.Tx.run tx (fun () -> Pmstm.Pm_ctree.create tx) in
    let heap = Backend.heap ctx in
    let rng = Backend.rng ctx in
    (* same 32-byte blob values as the hashmap baseline *)
    let value v = Pfds.Kv.String_blob.write heap (Printf.sprintf "%032d" v) in
    for _ = 1 to size / 2 do
      Pmstm.Tx.run tx (fun () ->
          ignore
            (Pmstm.Pm_ctree.insert tx desc (Random.State.int rng size)
               (value 1)
              : bool))
    done;
    Backend.start_measuring ctx;
    for _ = 1 to ops do
      Backend.op_pause ctx;
      let k = Random.State.int rng size in
      if Random.State.bool rng then
        Pmstm.Tx.run tx (fun () ->
            ignore (Pmstm.Pm_ctree.insert tx desc k (value 2) : bool))
      else ignore (Pmstm.Pm_ctree.find heap desc k : Pmem.Word.t option)
    done;
    (Backend.stats ctx).Pmem.Stats.now_ns
  in
  let t_map = run_map () and t_ctree = run_ctree () in
  Printf.printf "  hashmap  %10.2f ms
  ctree    %10.2f ms
" (t_map /. 1e6)
    (t_ctree /. 1e6);
  Printf.printf
    "
headline: hashmap outperforms ctree by %.0f%% -- the paper compares
     MOD against hashmap for this reason (Section 6.1).
"
    (100.0 *. (t_ctree -. t_map) /. t_ctree);
  Report.Json.(
    Obj [ ("hashmap_sim_ns", Float t_map); ("ctree_sim_ns", Float t_ctree) ])

(* ------------------------------------------------------------------ *)
(* Serving layer: sharded zipfian throughput + crash independence      *)
(* ------------------------------------------------------------------ *)

(* Both runs use the deterministic Inline mode so the speedup is a pure
   function of (seed, nshards): sim_total(1 shard) is the
   serial-equivalent cost of the whole loop, sim_makespan(N shards) is
   the slowest shard's clock -- their ratio is the aggregate throughput
   gain hash partitioning buys under zipfian skew, independent of how
   many host cores the CI runner has. *)
let shard_section ~seed ~nshards () =
  Report.section
    "Serving layer: sharded zipfian loop (sim speedup) + single-shard crashes";
  let requests = 8_000 in
  let theta = 0.99 in
  let run n =
    let t = Shard.create ~mode:Shard.Inline ~seed ~nshards:n () in
    let r =
      Shard.run_load ~theta ~seed ~warmup:(requests / 10) t ~requests ()
    in
    Shard.close t;
    r
  in
  let r1 = run 1 in
  let rn = run nshards in
  let speedup =
    r1.Shard.lr_sim_total_ns /. rn.Shard.lr_sim_makespan_ns
  in
  Printf.printf
    "zipfian theta=%.2f, %d requests: 1 shard %.3f sim-ms; %d shards \
     makespan %.3f sim-ms => %.2fx aggregate speedup (%.0f req/sim-s)\n"
    theta requests
    (r1.Shard.lr_sim_total_ns /. 1e6)
    nshards
    (rn.Shard.lr_sim_makespan_ns /. 1e6)
    speedup rn.Shard.lr_sim_req_s;
  Printf.printf "  shard  executed   sim ms    p50 ns   p99 ns\n";
  List.iter
    (fun m ->
      Printf.printf "  %5d  %8d  %7.3f  %8.0f %8.0f\n" m.Shard.m_id
        m.Shard.m_executed
        (m.Shard.m_sim_ns /. 1e6)
        m.Shard.m_p50_ns m.Shard.m_p99_ns)
    rn.Shard.lr_shards;
  (* crash independence is a hard gate, baseline or not *)
  let sw =
    Shard.crash_sweep ~nshards ~requests:160 ~keyspace:256 ~stride:97
      ~max_points:60 ~seed ()
  in
  Printf.printf
    "single-shard crash sweep: %d points, %d consistent, %d violations, %d \
     sibling perturbations\n"
    sw.Shard.sw_points sw.Shard.sw_consistent
    (List.length sw.Shard.sw_violations)
    sw.Shard.sw_sibling_mismatches;
  if not (Shard.sweep_ok sw) then begin
    List.iter
      (fun v -> Printf.eprintf "SHARD SWEEP FAIL: %s\n" v)
      sw.Shard.sw_violations;
    Printf.eprintf "SHARD SWEEP: crash independence violated\n";
    exit 1
  end;
  print_endline "shard serving gate: ok";
  ( Report.Json.(
      Obj
        [
          ("nshards", Int nshards);
          ("requests", Int requests);
          ("theta", Float theta);
          ("seed", Int seed);
          ("sim_total_1shard_ns", Float r1.Shard.lr_sim_total_ns);
          ("sim_makespan_ns", Float rn.Shard.lr_sim_makespan_ns);
          ("sim_speedup", Float speedup);
          ("agg_req_per_sim_s", Float rn.Shard.lr_sim_req_s);
          ("sweep_points", Int sw.Shard.sw_points);
          ("sweep_violations", Int (List.length sw.Shard.sw_violations));
          ( "sweep_sibling_mismatches",
            Int sw.Shard.sw_sibling_mismatches );
          ( "shards",
            List
              (List.map
                 (fun m ->
                   Obj
                     [
                       ("id", Int m.Shard.m_id);
                       ("executed", Int m.Shard.m_executed);
                       ("sim_ns", Float m.Shard.m_sim_ns);
                       ("p50_ns", Float m.Shard.m_p50_ns);
                       ("p99_ns", Float m.Shard.m_p99_ns);
                     ])
                 rn.Shard.lr_shards) );
        ]),
    Gate.
      [
        { key = [ "shard"; "min_sim_speedup" ]; dir = Min;
          measured = speedup; label = "sim speedup over 1 shard" };
      ] )

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref default_scale in
  let json_out = ref None in
  let baseline = ref None in
  let seed = ref 42 in
  let shards = ref 4 in
  let sections = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
        scale := int_of_string n;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--shards" :: n :: rest ->
        shards := int_of_string n;
        parse rest
    | "--full" :: rest ->
        scale := 1_000_000;
        parse rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | s :: rest ->
        sections := s :: !sections;
        parse rest
  in
  parse args;
  let sections = if !sections = [] then [ "all" ] else List.rev !sections in
  let wants s = List.mem s sections || List.mem "all" sections in
  let scale = !scale in
  print_endline (Pmem.Config.describe ());
  Printf.printf "\nworkload scale: %d operations (paper: 1,000,000)\n" scale;
  let t_start = Unix.gettimeofday () in
  let results = lazy (sweep ~scale) in
  (* Each section renders its terminal figure and hands back a JSON
     payload (Null for the pure views over the shared sweep, whose data
     lands in the top-level "sweep" array); gated sections also hand back
     their baseline rows, checked once after every section has run. *)
  let collected = ref [] in
  let gate_rows = ref [] in
  let gated f () =
    let payload, rows = f () in
    gate_rows := !gate_rows @ rows;
    payload
  in
  let run name enabled f =
    if enabled then begin
      let t0 = Unix.gettimeofday () in
      let payload = f () in
      let dt = Unix.gettimeofday () -. t0 in
      collected := (name, dt, payload) :: !collected
    end
  in
  let unit_section f () = f (); Report.Json.Null in
  run "fig4" (wants "fig4") fig4;
  run "fig2" (wants "fig2") (unit_section (fun () -> fig2 (Lazy.force results)));
  run "fig9" (wants "fig9") (unit_section (fun () -> fig9 (Lazy.force results)));
  run "fig10" (wants "fig10") (unit_section fig10);
  run "fig11" (wants "fig11")
    (unit_section (fun () -> fig11 (Lazy.force results)));
  run "table3" (wants "table3") (fun () -> table3 ~scale);
  run "batch" (wants "batch") (gated (batch_section ~scale:(min scale 20_000)));
  run "telemetry" (wants "telemetry")
    (gated (telemetry_section ~scale:(min scale 10_000)));
  run "faults" (wants "faults") (fun () -> faults_section ());
  run "persist" (wants "persist")
    (gated (persist_section ~scale:(min scale 10_000)));
  run "killtest" (wants "killtest") (gated killtest_section);
  run "alloc" (wants "alloc") (gated (alloc_section ~scale));
  run "shard" (wants "shard")
    (gated (shard_section ~seed:!seed ~nshards:!shards));
  run "ctree" (wants "ctree") (fun () -> ctree ~scale);
  run "ablations" (wants "ablations") (fun () -> ablations ~scale);
  let gate = Gate.check ?baseline:!baseline !gate_rows in
  (match !json_out with
  | None -> ()
  | Some path ->
      let open Report.Json in
      let sweep_json =
        if Lazy.is_val results then
          List
            (List.concat_map
               (fun (_, per_backend) ->
                 List.map (fun (_, r) -> runner_json r) per_backend)
               (Lazy.force results))
        else List []
      in
      let section_json =
        List
          (List.rev_map
             (fun (name, dt, payload) ->
               let fields =
                 [ ("name", String name); ("wall_seconds", Float dt) ]
               in
               Obj
                 (match payload with
                 | Null -> fields
                 | p -> fields @ [ ("data", p) ]))
             !collected)
      in
      let doc =
        Obj
          [
            ("schema", String "modpm-bench/1");
            ("scale", Int scale);
            ("wall_seconds", Float (Unix.gettimeofday () -. t_start));
            ("sections", section_json);
            ("sweep", sweep_json);
            ("gate", Gate.to_json gate);
          ]
      in
      to_file path doc;
      Printf.printf "\nwrote %s\n" path);
  Gate.exit_if_failed gate;
  Printf.printf "\ndone.\n"
