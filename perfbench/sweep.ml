(* The crash-sweep workload: Crashtest.Explorer.explore (journal
   snapshots; Drop, Keep and three Randomize samples per point) over the
   seven basic structures, round after round until the run length is
   spent.  One op is one crash point tested.  The scripts are fixed by
   (structure, ops); the seed draws each round's survival seeds, the heap
   seed and the script lengths of the simulation pass.

   After every round a probe pass times the two halves of every crash
   point from outside: the re-execution of the script up to the crash
   (the write half) and [recover_and_check] (the read half).  The
   simulated metrics come from one more pass over seed-length scripts,
   and are deterministic for a seed.

   The negative controls stm-broken and map-nofence run outside the
   timed loop and must be caught. *)

open Common
module E = Crashtest.Explorer
module W = Crashtest.Workload

type scale = {
  ops : int;  (* script length per structure *)
  neg_ops : int;
}

let scale ~tiny =
  if tiny then { ops = 6; neg_ops = 6 } else { ops = 24; neg_ops = 8 }

let config ~seed ~round =
  { E.default with seed = (seed * 7919) + round; heap_seed = 42 + (seed mod 1000);
    jobs = 1; snapshot_mode = Pmem.Region.Journal }

let scripts lengths = List.map (fun (n, ops) -> W.build n ~ops) lengths

(* The swept scripts: every structure at [sc.ops] ops. *)
let fixed sc = scripts (List.map (fun n -> (n, sc.ops)) W.basic_names)

(* The simulated metrics' scripts: [sc.ops] - 1 .. [sc.ops] + 1 ops per
   structure, drawn from the seed.  The scripts are fixed by (structure,
   ops), and at one length the simulated tails (set by the largest
   recovered states) read the same for every seed. *)
let seeded ~seed sc =
  let rng = Random.State.make [| 0x6f70; seed |] in
  scripts
    (List.map (fun n -> (n, sc.ops - 1 + Random.State.int rng 3)) W.basic_names)

(* Set-up: every script and model state the sweep's oracle compares
   against, the negative controls' included. *)
let setup ~seed sc =
  List.iter (fun n -> ignore (W.build n ~ops:sc.neg_ops : W.t)) W.negative_names;
  (fixed sc, seeded ~seed sc)

type probe = {
  write_host : Samples.t;  (* scaled host us per re-execution to the crash *)
  read_host : Samples.t;  (* scaled host us per recover_and_check *)
  write_sim : Samples.t;  (* sim ns of the interrupted execution *)
  read_sim : Samples.t;  (* sim ns of one recovery + check *)
  point_recover : Samples.t;
      (* s of crash + recover_and_check, summed over one point's samples *)
  mutable samples : int;
  mutable violations : int;
  mutable sim_ns : float;  (* all simulated time of the probe *)
  mutable high_water_words : int;  (* allocator gauges at each crash *)
  mutable live_words : int;
  mutable events : int;  (* PM events of the probe's re-executions *)
}

(* The explorer's journaled per-point path, rebuilt from public entry
   points: one heap per structure, rewound to its pristine snapshot
   before every re-execution.  Explorer.run_until without its (internal)
   scratch heap would build a fresh heap -- and a fresh 33 MB cache
   model -- per point, which explore never does and which would swamp
   the re-execution being timed. *)
type scratch = { heap : Pmalloc.Heap.t; pristine : Pmem.Region.snapshot }

let scratch (cfg : E.config) =
  let heap =
    Pmalloc.Heap.create ~capacity_words:cfg.capacity_words ~trace:true
      ~seed:cfg.heap_seed ()
  in
  Pmem.Region.set_snapshot_mode (Pmalloc.Heap.region heap) Pmem.Region.Journal;
  { heap; pristine = Pmalloc.Heap.pristine_snapshot heap }

(* Re-execute [w] until power fails after [budget] PM events, exactly as
   Explorer.run_until does; [None] if the script completes first. *)
let rerun s (w : W.t) ~budget =
  Pmalloc.Heap.reset_fresh s.heap ~pristine:s.pristine;
  let region = Pmalloc.Heap.region s.heap in
  Pmem.Region.set_crash_after region budget;
  let history = ref [ w.W.model.(0) ] and pending = ref None in
  let inst = w.W.make s.heap in
  match
    inst.W.init ();
    for i = 0 to w.W.ops - 1 do
      pending := Some w.W.model.(i + 1);
      inst.W.run_op i;
      pending := None;
      if w.W.model.(i + 1) <> List.hd !history then
        history := w.W.model.(i + 1) :: !history
    done
  with
  | () ->
      Pmem.Region.clear_crash_point region;
      None
  | exception Pmem.Region.Crash_point ->
      Some
        { E.c_heap = s.heap; c_inst = inst; c_history = !history;
          c_pending = !pending }

(* What every probe pass of a run shares: the configuration, one scratch
   heap (rewound before each re-execution, whatever the structure), its
   clock at the pristine snapshot, and each script's event count. *)
type prober = {
  cfg : E.config;
  s : scratch;
  base_ns : float;
  events : (string * int, int) Hashtbl.t;
}

let prober ~seed =
  let cfg = config ~seed ~round:0 in
  let s = scratch cfg in
  { cfg; s; base_ns = (Pmalloc.Heap.stats s.heap).Pmem.Stats.now_ns;
    events = Hashtbl.create 16 }

let events_of pr (w : W.t) =
  let key = (w.W.name, w.W.ops) in
  match Hashtbl.find_opt pr.events key with
  | Some n -> n
  | None -> (
      match E.run_until pr.cfg w ~budget:None with
      | `Completed (n, _) ->
          Hashtbl.add pr.events key n;
          n
      | `Crashed _ -> assert false (* no budget armed *))

(* Test every crash point of [w] the way the explorer samples a point:
   snapshot the interrupted image, then per mode (and survival seed)
   restore, crash, recover_and_check. *)
let probe_structure ~tr pr p (w : W.t) =
  let cfg = pr.cfg and s = pr.s in
  let st = Pmalloc.Heap.stats s.heap in
  let region = Pmalloc.Heap.region s.heap in
  let al = Pmalloc.Heap.allocator s.heap in
  List.iter
    (fun budget ->
      let req = p.samples in
      let t0 = now () in
      let r = span tr "crashtest.rerun" ~req (fun () -> rerun s w ~budget) in
      let t1 = now () in
      match r with
      | None -> ()
      | Some c ->
          p.events <- p.events + budget;
          p.high_water_words <-
            p.high_water_words + Pmalloc.Allocator.high_water_words al;
          p.live_words <- p.live_words + Pmalloc.Allocator.live_words al;
          Samples.add p.write_host ((t1 -. t0) *. 1e6 *. !host_scale);
          let ws = st.Pmem.Stats.now_ns -. pr.base_ns in
          Samples.add p.write_sim ws;
          p.sim_ns <- p.sim_ns +. ws;
          let snap = Pmem.Region.snapshot region in
          let point_s = ref 0.0 in
          List.iter
            (fun mode ->
              let samples =
                match mode with
                | Pmem.Region.Randomize -> cfg.E.randomize_samples
                | _ -> 1
              in
              for k = 0 to samples - 1 do
                Pmem.Region.restore region snap;
                let t2 = now () in
                let seed =
                  match mode with
                  | Pmem.Region.Randomize ->
                      Some (E.survival_seed cfg ~crash_index:budget ~k)
                  | _ -> None
                in
                span tr "pmem.crash" ~req (fun () ->
                    Pmalloc.Heap.crash ~mode ?seed s.heap);
                let s0 = st.Pmem.Stats.now_ns in
                let t3 = now () in
                let verdict =
                  span tr "crashtest.recover_and_check" ~req (fun () ->
                      E.recover_and_check c)
                in
                let t4 = now () in
                Samples.add p.read_host ((t4 -. t3) *. 1e6 *. !host_scale);
                point_s := !point_s +. ((t4 -. t2) *. !host_scale);
                Samples.add p.read_sim (st.Pmem.Stats.now_ns -. s0);
                p.sim_ns <- p.sim_ns +. (st.Pmem.Stats.now_ns -. s0);
                p.samples <- p.samples + 1;
                if not (Crashtest.Oracle.is_consistent verdict) then
                  p.violations <- p.violations + 1
              done)
            cfg.E.modes;
          Samples.add p.point_recover !point_s)
    (List.init (events_of pr w) (fun i -> i + 1))

(* One probe pass over [ws], from a fully collected heap so every pass
   starts from the same GC state. *)
let probe ~tr pr ws =
  let p =
    {
      write_host = Samples.create (); read_host = Samples.create ();
      write_sim = Samples.create (); read_sim = Samples.create ();
      point_recover = Samples.create (); samples = 0; violations = 0;
      sim_ns = 0.0; high_water_words = 0; live_words = 0; events = 0;
    }
  in
  Gc.full_major ();
  List.iter (probe_structure ~tr pr p) ws;
  p

type rounds = {
  calls : (string, Samples.t) Hashtbl.t;  (* host s per explore call *)
  call_points : (string, int) Hashtbl.t;  (* points one call tests *)
  mutable points : int;
  mutable crashes : int;
  mutable failures : int;
  mutable not_ok : string list;
  mutable probes : probe list;  (* newest first *)
}

(* Timed explorer rounds over every structure until [seconds] of wall
   time pass (at least one full round), each followed by a probe [pass]
   when one is given: the probe's host samples then cover the whole run
   as the explorer's do.  [between] runs after every explore call. *)
let run_rounds ?(between = ignore) ?pass ~seed ~seconds ws =
  let r =
    { calls = Hashtbl.create 8; call_points = Hashtbl.create 8; points = 0;
      crashes = 0; failures = 0; not_ok = []; probes = [] }
  in
  let w0 = wall () in
  let round = ref 0 in
  while !round = 0 || wall () -. w0 < seconds do
    let cfg = config ~seed ~round:!round in
    List.iter
      (fun w ->
        if !round = 0 || wall () -. w0 < seconds then begin
          let name = w.W.name in
          let res, dt = scaled_time (fun () -> E.explore ~cfg w) in
          if not (Hashtbl.mem r.calls name) then
            Hashtbl.add r.calls name (Samples.create ());
          Samples.add (Hashtbl.find r.calls name) dt;
          Hashtbl.replace r.call_points name res.E.points_tested;
          r.points <- r.points + res.E.points_tested;
          r.crashes <- r.crashes + res.E.crashes_sampled;
          r.failures <- r.failures + List.length res.E.failures;
          if not (E.ok res) then r.not_ok <- name :: r.not_ok;
          between ()
        end)
      ws;
    Option.iter
      (fun pass ->
        calibrate ();
        r.probes <- pass () :: r.probes)
      pass;
    incr round
  done;
  r

(* Crash points per host second of one round over every structure, each
   structure's explore call taken at the fast state. *)
let points_per_s r =
  let pts = ref 0 and s = ref 0.0 in
  Hashtbl.iter
    (fun name calls ->
      pts := !pts + Hashtbl.find r.call_points name;
      s := !s +. fast calls)
    r.calls;
  float_of_int !pts /. !s

(* Both negative controls must report violations. *)
let negative_controls ~seed ~sc res =
  List.iter
    (fun name ->
      let w = W.build name ~ops:sc.neg_ops in
      let r = E.explore ~cfg:(config ~seed ~round:0) w in
      if E.ok r then problem res (Printf.sprintf "negative control %s not caught" name))
    W.negative_names

let same_sim a b =
  let same x y =
    Samples.count x = Samples.count y && Samples.equal_prefix x y (Samples.count y)
  in
  same a.write_sim b.write_sim && same a.read_sim b.read_sim

let note res (r : rounds) probes =
  res.attempted <- res.attempted + r.crashes;
  res.failed <- res.failed + r.failures;
  List.iter
    (fun p ->
      res.attempted <- res.attempted + p.samples;
      res.failed <- res.failed + p.violations)
    probes;
  List.iter
    (fun n -> problem res (Printf.sprintf "%s: sweep not ok" n))
    (List.sort_uniq compare r.not_ok)

let run_e2e ~tiny ~seed ~seconds res =
  let sc = scale ~tiny in
  (* set-up is timed once before the rounds and once after every explore
     call, so its median spans the run like the other host metrics *)
  let setups = Samples.create () in
  let timed_setup () =
    let v, dt = scaled_time (fun () -> setup ~seed sc) in
    Samples.add setups dt;
    v
  in
  let ws, sim_ws = timed_setup () in
  let pr = prober ~seed in
  let sim = probe ~tr:None pr sim_ws in
  let r =
    run_rounds ~seed ~seconds
      ~pass:(fun () -> probe ~tr:None pr ws)
      ~between:(fun () -> ignore (timed_setup ()))
      ws
  in
  negative_controls ~seed ~sc res;
  note res r (sim :: r.probes);
  let p = List.hd r.probes in
  if not (List.for_all (same_sim p) r.probes) then
    problem res "probe passes disagree on simulated samples";
  (* host metrics: one value per probe pass, taken at the fast state *)
  let per_pass f =
    let v = Samples.create () in
    List.iter (fun p -> Samples.add v (f p)) r.probes;
    fast v
  in
  let us = "us" and ns = "ns" in
  metric res "host_ops_per_s" "1/s" (points_per_s r);
  metric res "read_host_p50_us" us
    (per_pass (fun p -> Samples.median p.read_host));
  metric res "write_host_p50_us" us
    (per_pass (fun p -> Samples.median p.write_host));
  metric res "write_host_p99_us" us
    (per_pass (fun p -> Samples.percentile p.write_host 0.99));
  metric res "sim_ns_per_op" ns
    (sim.sim_ns /. float_of_int (Samples.count sim.write_host));
  metric res "read_sim_p50_ns" ns (Samples.median sim.read_sim);
  metric res "read_sim_p99_ns" ns (Samples.percentile sim.read_sim 0.99);
  metric res "write_sim_p50_ns" ns (Samples.median sim.write_sim);
  metric res "write_sim_p99_ns" ns (Samples.percentile sim.write_sim 0.99);
  metric res "setup_s" "s" (Samples.median setups);
  metric res "recover_s" "s"
    (per_pass (fun p -> Samples.median p.point_recover));
  metric res "space_amp" "ratio" (iratio sim.high_water_words sim.live_words);
  Printf.printf
    "samples: %d explorer points (%d crashes); %d probe passes of %d points,      %d recoveries each
"
    r.points r.crashes (List.length r.probes) (Samples.count p.write_host)
    p.samples

(* Traced: the explorer rounds stay untraced (their inside is not
   observable); the probe runs untraced, then traced, and the two must
   agree on every simulated sample. *)
let run_traced ~tiny ~seed ~seconds ~spans_out res =
  let sc = scale ~tiny in
  let ws = fixed sc in
  let mw0 = Gc.minor_words () in
  let r = run_rounds ~seed ~seconds ws in
  let pr = prober ~seed in
  let minor_per_point = (Gc.minor_words () -. mw0) /. float_of_int (max 1 r.points) in
  let t0 = now () in
  let p0 = probe ~tr:None pr ws in
  let untraced_s = now () -. t0 in
  let sp = Spans.create () in
  let t0 = now () in
  let p = probe ~tr:(Some sp) pr ws in
  let traced_s = now () -. t0 in
  negative_controls ~seed ~sc res;
  note res r [ p0; p ];
  if not (same_sim p p0) then
    problem res "traced probe diverged from the untraced simulated metrics";
  Spans.write sp spans_out;
  let self = Spans.self_times sp in
  let ms name = Spans.mean_self self name *. 1e3 in
  let lay = layer res in
  let points = float_of_int (Samples.count p.write_host) in
  lay "pmem.events_per_op" (ratio (float_of_int p.events) points);
  lay "crashtest.points_tested" (float_of_int r.points);
  lay "crashtest.crashes_sampled" (float_of_int r.crashes);
  lay "crashtest.rerun_host_ms" (ms "crashtest.rerun");
  lay "crashtest.recover_check_host_ms" (ms "crashtest.recover_and_check");
  lay "gc.minor_words_per_op" minor_per_point;
  let rate s = points /. s in
  lay "bench.untraced_ops_per_s" (rate untraced_s);
  lay "bench.traced_ops_per_s" (rate traced_s);
  lay "bench.trace_overhead" (traced_s /. untraced_s)
