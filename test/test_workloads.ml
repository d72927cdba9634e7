(* End-to-end workload tests: every Table 2 workload runs on every backend,
   produces sane measurements, and every MOD workload's trace passes the
   Section 5.4 consistency checker. *)

let scale = 1500

let backend_name = Workloads.Backend.kind_name

let sane_result (r : Workloads.Runner.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: simulated time positive" r.workload
       (backend_name r.backend))
    true (r.ns_total > 0.0);
  Alcotest.(check bool) "phases sum to total" true
    (abs_float (r.ns_flush +. r.ns_log +. r.ns_other -. r.ns_total)
    < 1e-6 *. r.ns_total +. 1.0);
  Alcotest.(check bool) "miss ratio in [0,1]" true
    (r.miss_ratio >= 0.0 && r.miss_ratio <= 1.0);
  Alcotest.(check bool) "some flushes happened" true (r.flushes > 0);
  Alcotest.(check bool) "some fences happened" true (r.fences > 0)

let workload_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " on all backends") `Slow (fun () ->
          List.iter
            (fun backend ->
              let r = Workloads.Runner.run_one name backend ~scale in
              sane_result r)
            Workloads.Backend.all_kinds))
    Workloads.Runner.names

let mod_semantics_tests =
  [
    Alcotest.test_case "MOD fences <= ops on every workload" `Slow (fun () ->
        List.iter
          (fun name ->
            let r = Workloads.Runner.run_one name Workloads.Backend.Mod ~scale in
            (* each FASE has exactly one ordering point; lookups have none,
               so fences never exceed operations *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: fences (%d) <= ops (%d)" name r.fences r.ops)
              true
              (r.fences <= r.ops))
          Workloads.Runner.names);
    Alcotest.test_case "MOD logs nothing; PMDK logs" `Slow (fun () ->
        let m = Workloads.Runner.run_one "map" Workloads.Backend.Mod ~scale in
        Alcotest.(check (float 0.001)) "MOD log time = 0" 0.0 m.ns_log;
        let p = Workloads.Runner.run_one "map" Workloads.Backend.Pmdk15 ~scale in
        Alcotest.(check bool) "PMDK log time > 0" true (p.ns_log > 0.0));
    Alcotest.test_case "PMDK fences multiples of MOD's" `Slow (fun () ->
        let m = Workloads.Runner.run_one "map" Workloads.Backend.Mod ~scale in
        let p = Workloads.Runner.run_one "map" Workloads.Backend.Pmdk15 ~scale in
        Alcotest.(check bool)
          (Printf.sprintf "PMDK %d > 2x MOD %d" p.fences m.fences)
          true
          (p.fences > 2 * m.fences));
  ]

let consistency_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " MOD trace passes checker") `Slow (fun () ->
          let trace =
            Workloads.Runner.run_traced name Workloads.Backend.Mod
              ~scale:(scale / 3)
          in
          let report = Mod_core.Consistency.check trace in
          if not (Mod_core.Consistency.ok report) then
            Alcotest.failf "%s: %a" name Mod_core.Consistency.pp_report report))
    Workloads.Runner.names

let profile_tests =
  [
    Alcotest.test_case "Figure 10 shape: MOD one fence, PMDK many" `Slow
      (fun () ->
        let points = Workloads.Profile.all ~samples:60 ~size:800 () in
        Alcotest.(check int) "16 points (8 ops x 2 backends)" 16
          (List.length points);
        List.iter
          (fun (p : Workloads.Profile.point) ->
            match p.backend with
            | Workloads.Backend.Mod ->
                Alcotest.(check (float 0.01))
                  (p.label ^ ": MOD has exactly one fence per op")
                  1.0 p.fences
            | Workloads.Backend.Pmdk15 | Workloads.Backend.Pmdk14 ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: PMDK has several fences (%.1f)" p.label
                     p.fences)
                  true (p.fences >= 3.0))
          points);
  ]

let space_tests =
  [
    Alcotest.test_case "Table 3 rows: growth ratios near 2x (except vector)"
      `Slow (fun () ->
        let rows = Workloads.Space.table3 ~n:2000 () in
        Alcotest.(check int) "10 rows" 10 (List.length rows);
        List.iter
          (fun (r : Workloads.Space.row) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s ratio %.2f sane" r.structure
                 (backend_name r.backend) r.ratio)
              true
              (r.ratio >= 1.2 && r.ratio < 4.0))
          rows);
    Alcotest.test_case "per-update shadow overhead is tiny" `Quick (fun () ->
        let transient, live = Workloads.Space.shadow_overhead ~n:4000 in
        let frac = float_of_int transient /. float_of_int live in
        Alcotest.(check bool)
          (Printf.sprintf "transient %d / live %d = %.5f < 1%%" transient live
             frac)
          true (frac < 0.01));
  ]

let graph_tests =
  [
    Alcotest.test_case "R-MAT generates requested shape" `Quick (fun () ->
        let g = Workloads.Graph.rmat ~n:1000 ~edges:12000 ~seed:3 in
        Alcotest.(check int) "nodes" 1000 g.Workloads.Graph.n;
        let total =
          Array.fold_left
            (fun acc adj -> acc + Array.length adj)
            0 g.Workloads.Graph.adj
        in
        Alcotest.(check int) "edges" 12000 total;
        (* scale-free-ish: max degree far above the average *)
        let maxd =
          Array.fold_left
            (fun acc adj -> max acc (Array.length adj))
            0 g.Workloads.Graph.adj
        in
        Alcotest.(check bool)
          (Printf.sprintf "degree skew (max %d)" maxd)
          true (maxd > 60));
    Alcotest.test_case "BFS reaches the same set on both backends" `Quick
      (fun () ->
        let g = Workloads.Graph.rmat ~n:500 ~edges:4000 ~seed:5 in
        let src = Workloads.Graph.good_source g in
        let ctx_mod = Workloads.Backend.create Workloads.Backend.Mod in
        let reach_mod =
          Workloads.Graph.bfs_mod (Workloads.Backend.heap ctx_mod) g ~src
        in
        let ctx_pm = Workloads.Backend.create Workloads.Backend.Pmdk15 in
        let reach_pm = Workloads.Graph.bfs_pmdk ctx_pm g ~src in
        Alcotest.(check int) "same reachable count" reach_mod reach_pm;
        Alcotest.(check bool) "non-trivial" true (reach_mod > 10));
  ]

let ablation_tests =
  [
    Alcotest.test_case "sharing ablation: naive shadow flushes more" `Slow
      (fun () ->
        match Workloads.Ablation.sharing ~ops:150 ~size:600 with
        | [ tree; naive ] ->
            Alcotest.(check bool)
              (Printf.sprintf "naive %d flushes > tree %d" naive.flushes
                 tree.flushes)
              true
              (naive.Workloads.Ablation.flushes > tree.Workloads.Ablation.flushes)
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "ordering ablation: fence-per-flush is slower" `Slow
      (fun () ->
        match Workloads.Ablation.ordering ~ops:300 ~size:600 with
        | [ overlapped; serialized ] ->
            Alcotest.(check bool)
              "serialized flushing costs more time" true
              (serialized.Workloads.Ablation.ns_total
              > overlapped.Workloads.Ablation.ns_total)
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "reclamation ablation: no-reclaim grows memory" `Slow
      (fun () ->
        match Workloads.Ablation.reclamation ~ops:400 ~size:100 with
        | [ reclaiming; leaking ] ->
            Alcotest.(check bool)
              "leaking footprint larger" true
              (leaking.Workloads.Ablation.high_water_words
              > 2 * reclaiming.Workloads.Ablation.high_water_words)
        | _ -> Alcotest.fail "expected two results");
  ]

(* -- Gate: baseline rows against a committed JSON ---------------------- *)

let gate_doc =
  {|{ "g": { "hi": 2.0, "lo": 1.5, "deep": { "n": 3 }, "s": "x" } }|}

(* [check] on [rows] against a baseline file holding [text]; [None] names
   a path that does not exist. *)
let gate_verdict text rows =
  match text with
  | None ->
      Option.get
        (Workloads.Gate.check rows
           ~baseline:
             (Filename.concat
                (Filename.get_temp_dir_name ())
                "mod_test_gate_absent/baseline.json"))
  | Some text ->
      let path = Filename.temp_file "mod_test_gate" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc -> output_string oc text);
          Option.get (Workloads.Gate.check ~baseline:path rows))

let gate_row key dir measured =
  Workloads.Gate.{ key; dir; measured; label = "m" }

let gate_tests =
  let open Workloads.Gate in
  let judged =
    [
      ("Max passes at equality", gate_row [ "g"; "hi" ] Max 2.0, true);
      ("Max fails just above", gate_row [ "g"; "hi" ] Max (Float.succ 2.0),
        false);
      ("Min passes at equality", gate_row [ "g"; "lo" ] Min 1.5, true);
      ("Min fails just below", gate_row [ "g"; "lo" ] Min (Float.pred 1.5),
        false);
      ("NaN fails Max", gate_row [ "g"; "hi" ] Max Float.nan, false);
      ("NaN fails Min", gate_row [ "g"; "lo" ] Min Float.nan, false);
      ("nested key", gate_row [ "g"; "deep"; "n" ] Max 3.0, true);
    ]
  in
  let ok_row = gate_row [ "g"; "hi" ] Max 0.0 in
  let absent = gate_row [ "g"; "no" ] Max 0.0 in
  let bad =
    [
      ("missing key", Some gate_doc, [ ok_row; absent ]);
      ("non-numeric bound", Some gate_doc, [ gate_row [ "g"; "s" ] Max 0.0 ]);
      ("unreadable path", None, [ ok_row ]);
      ("bad JSON", Some {|{ "g": |}, [ ok_row ]);
    ]
  in
  List.map
    (fun (name, row, expect) ->
      Alcotest.test_case name `Quick (fun () ->
          match gate_verdict (Some gate_doc) [ row ] with
          | Checked [ c ] as v ->
              Alcotest.(check bool) "row verdict" expect c.pass;
              Alcotest.(check bool) "gate verdict" expect (ok v)
          | _ -> Alcotest.fail "expected one checked row"))
    judged
  @ List.map
      (fun (name, text, rows) ->
        Alcotest.test_case (name ^ " is a baseline error") `Quick (fun () ->
            match gate_verdict text rows with
            | Bad_baseline _ as v ->
                Alcotest.(check bool) "json ok=false" true
                  (Workloads.Report.Json.member "ok" (to_json (Some v))
                  = Some (Workloads.Report.Json.Bool false))
            | Checked _ -> Alcotest.fail "a bad baseline passed"))
      bad
  @ [
      Alcotest.test_case "no baseline checks nothing" `Quick (fun () ->
          Alcotest.(check bool) "None" true
            (check [ gate_row [ "g"; "hi" ] Max Float.nan ] = None));
    ]

let () =
  Alcotest.run "workloads"
    [
      ("runs", workload_tests);
      ("mod-semantics", mod_semantics_tests);
      ("consistency", consistency_tests);
      ("profile", profile_tests);
      ("space", space_tests);
      ("graph", graph_tests);
      ("ablations", ablation_tests);
      ("gate", gate_tests);
    ]
