(* Measurement plumbing shared by the workloads: the host clock, sample
   sets with percentiles, the span recorder of the traced run, counter
   snapshots of the heaps under test, and the metric list printed as the
   result line. *)

(* Host time is the CPU time of the benchmark's thread (user + system):
   on a shared machine it leaves out the time the process waits -- for
   the disk under fsync above all, whose latency swings by 2x between
   runs there -- and keeps the work the program does.  Run lengths and
   the durable-ack latencies are taken on the wall clock. *)
external now : unit -> (float[@unboxed])
  = "bench_cpu_seconds_byte" "bench_cpu_seconds"
[@@noalloc]

let wall = Unix.gettimeofday

(* -- samples ------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }
  let count t = t.n

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let clear t = t.n <- 0
  let to_array t = Array.sub t.data 0 t.n

  (* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty set. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let a = to_array t in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      a.(max 0 (min (t.n - 1) (rank - 1)))
    end

  let median t = percentile t 0.5

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

  (* Bit-for-bit equality of the first [n] samples. *)
  let equal_prefix a b n =
    a.n >= n && b.n >= n
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if Int64.bits_of_float a.data.(i) <> Int64.bits_of_float b.data.(i) then
        ok := false
    done;
    !ok
end

(* -- the fast-state estimator -------------------------------------------------

   On a shared 2-vCPU virtual machine the same CPU-bound loop ran at
   speeds 1.6x apart, switching every few seconds and sometimes staying
   slow for a whole run.  Each host metric is therefore taken per window
   of consecutive samples and reported as the 10th percentile of the
   window values (for a rate, of the window durations): the program's
   cost when the machine was not slowed by its neighbours.  On kv-mem
   this took the run-to-run spread of the set p50 from 0.20 to 0.08. *)

let fast_quantile = 0.1

(* Per-window values of [stat] over consecutive windows of [size]
   samples (one window holding everything when there are fewer). *)
let windows (t : Samples.t) ~size ~stat =
  let out = Samples.create () in
  let size = if t.Samples.n < size then max 1 t.Samples.n else size in
  let w = Samples.create () in
  for i = 0 to (t.Samples.n / size) - 1 do
    Samples.clear w;
    for j = i * size to ((i + 1) * size) - 1 do
      Samples.add w t.Samples.data.(j)
    done;
    Samples.add out (stat w)
  done;
  out

let fast t = Samples.percentile t fast_quantile

(* Fast-state value of a per-window percentile of [t]. *)
let fast_percentile t ~size p =
  fast (windows t ~size ~stat:(fun w -> Samples.percentile w p))

(* -- calibration --------------------------------------------------------------

   Beyond the seconds-long slowdowns, the machine's fast state itself
   drifted by up to a third over minutes, through whole runs.  A fixed
   kernel that shares no code with the program under test -- a
   set-associative LRU cache model over a pseudo-random address stream,
   the simulator's kind of work -- is timed before every measured unit
   of work (every 5 000 requests, explore call, probe pass, image build
   or power cut), and the host times of that unit are scaled to the
   machine speed at which the kernel takes [reference_kernel_s].  Scaling
   each unit by its own neighbouring timing follows the drift within a
   run as well as between runs. *)

let reference_kernel_s = 0.004

let kernel () =
  let sets = 4096 and ways = 8 in
  let tags = Array.make (sets * ways) (-1) in
  let age = Array.make (sets * ways) 0 in
  let x = ref 12345 and hits = ref 0 and recent = ref [] in
  for i = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let addr = !x lsr 4 in
    let base = (addr land (sets - 1)) * ways in
    let slot = ref base in
    for w = base to base + ways - 1 do
      if tags.(w) = addr then begin
        slot := w;
        incr hits
      end
      else if tags.(!slot) <> addr && age.(w) < age.(!slot) then slot := w
    done;
    tags.(!slot) <- addr;
    age.(!slot) <- i;
    if i land 15 = 0 then
      recent := (i, addr) :: (if i land 1023 = 0 then [] else !recent)
  done;
  !hits + List.length !recent

let calibration = Samples.create ()

(* Factor from measured host time to host time at the reference speed,
   as of the latest [calibrate]. *)
let host_scale = ref 1.0

let calibrate () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = now () -. t0 in
  Samples.add calibration dt;
  host_scale := reference_kernel_s /. dt

(* Host seconds of [f ()], calibrated just before and scaled. *)
let scaled_time f =
  calibrate ();
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. !host_scale)

(* Median of [k] scaled timings of [f]; [f] returns the value it set up
   and the last one is kept, [release] frees the one before. *)
let median_of_runs ?(release = ignore) k f =
  let times = Samples.create () in
  let last = ref None in
  for _ = 1 to k do
    Option.iter release !last;
    last := None;
    let v, dt = scaled_time f in
    Samples.add times dt;
    last := Some v
  done;
  (Samples.median times, Option.get !last)

(* -- spans (traced run) ---------------------------------------------------

   One span per call into a layer, recorded from outside around the call:
   name, start and end on both clocks, parent span and request id.  Spans
   live in growable arrays and are written out at exit; self time is a
   span's duration minus the part its direct children cover. *)

module Spans = struct
  type t = {
    mutable name : int array;
    mutable start : float array;  (* CPU s *)
    mutable stop : float array;
    mutable wstart : float array;  (* wall s *)
    mutable wstop : float array;
    mutable parent : int array;
    mutable req : int array;
    mutable n : int;
    mutable stack : int list;
    names : (string, int) Hashtbl.t;
    mutable name_list : string list;  (* newest first *)
  }

  let create () =
    {
      name = Array.make 4096 0;
      start = Array.make 4096 0.0;
      stop = Array.make 4096 0.0;
      wstart = Array.make 4096 0.0;
      wstop = Array.make 4096 0.0;
      parent = Array.make 4096 0;
      req = Array.make 4096 0;
      n = 0;
      stack = [];
      names = Hashtbl.create 32;
      name_list = [];
    }

  let intern t s =
    match Hashtbl.find_opt t.names s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.names in
        Hashtbl.add t.names s id;
        t.name_list <- s :: t.name_list;
        id

  let grow t =
    let cap = 2 * Array.length t.name in
    let g a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- g t.name 0;
    t.start <- g t.start 0.0;
    t.stop <- g t.stop 0.0;
    t.wstart <- g t.wstart 0.0;
    t.wstop <- g t.wstop 0.0;
    t.parent <- g t.parent 0;
    t.req <- g t.req 0

  let enter t name ~req =
    if t.n = Array.length t.name then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.name.(id) <- intern t name;
    t.parent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.req.(id) <- req;
    t.stack <- id :: t.stack;
    t.wstart.(id) <- wall ();
    t.start.(id) <- now ();
    id

  let clear t =
    t.n <- 0;
    t.stack <- []

  let leave t id =
    t.stop.(id) <- now ();
    t.wstop.(id) <- wall ();
    match t.stack with
    | top :: rest when top = id -> t.stack <- rest
    | _ -> invalid_arg "Spans.leave: not the innermost open span"

  (* Request id of the innermost open span, -1 outside any. *)
  let current_req t = match t.stack with p :: _ -> t.req.(p) | [] -> -1

  let with_span t name ~req f =
    let id = enter t name ~req in
    match f () with
    | v ->
        leave t id;
        v
    | exception e ->
        leave t id;
        raise e

  (* Per span name: (calls, total self seconds), on the CPU clock or,
     with [~wall:true], on the wall clock. *)
  let self_times ?(wall = false) t =
    let start, stop = if wall then (t.wstart, t.wstop) else (t.start, t.stop) in
    let child = Array.make t.n 0.0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then child.(p) <- child.(p) +. (stop.(i) -. start.(i))
    done;
    let acc = Hashtbl.create 16 in
    for i = 0 to t.n - 1 do
      let self = stop.(i) -. start.(i) -. child.(i) in
      let calls, total =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc t.name.(i))
      in
      Hashtbl.replace acc t.name.(i) (calls + 1, total +. self)
    done;
    let names = Array.of_list (List.rev t.name_list) in
    Hashtbl.fold (fun id v l -> (names.(id), v) :: l) acc []

  (* Mean self time per call of span [name], in seconds (0 if never seen). *)
  let mean_self table name =
    match List.assoc_opt name table with
    | Some (calls, total) when calls > 0 -> total /. float_of_int calls
    | _ -> 0.0

  let write t path =
    let oc = open_out path in
    let names = Array.of_list (List.rev t.name_list) in
    output_string oc
      "id\tname\tcpu_start_s\tcpu_end_s\twall_start_s\twall_end_s\tparent\treq\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%.6f\t%.6f\t%d\t%d\n" i
        names.(t.name.(i)) t.start.(i) t.stop.(i) t.wstart.(i) t.wstop.(i)
        t.parent.(i) t.req.(i)
    done;
    close_out oc
end

(* Run [f] inside span [name] when tracing, bare otherwise. *)
let span tr name ~req f =
  match tr with None -> f () | Some t -> Spans.with_span t name ~req f

(* -- counter snapshots over a set of heaps -------------------------------- *)

type counters = {
  sim_ns : float;
  flush_ns : float;
  l1_hits : int;
  l1_misses : int;
  clwbs : int;
  fences : int;
  lines_drained : int;
  events : int;
  file_commits : int;
  file_lines : int;
  file_fsyncs : int;
  allocs : int;
  alloc_words : int;
  frontier : int;
}

let counters heaps =
  let sum f = List.fold_left (fun a h -> a + f h) 0 heaps in
  let sumf f = List.fold_left (fun a h -> a +. f h) 0.0 heaps in
  let st h = Pmalloc.Heap.stats h in
  let al = Pmalloc.Heap.allocator in
  {
    sim_ns = sumf (fun h -> (st h).Pmem.Stats.now_ns);
    flush_ns = sumf (fun h -> (st h).Pmem.Stats.ns_flush);
    l1_hits = sum (fun h -> (st h).Pmem.Stats.l1_hits);
    l1_misses = sum (fun h -> (st h).Pmem.Stats.l1_misses);
    clwbs = sum (fun h -> (st h).Pmem.Stats.clwbs);
    fences = sum (fun h -> (st h).Pmem.Stats.fences);
    lines_drained = sum (fun h -> (st h).Pmem.Stats.lines_drained);
    events = sum (fun h -> Pmem.Region.pm_events (Pmalloc.Heap.region h));
    file_commits = sum (fun h -> (st h).Pmem.Stats.file_commits);
    file_lines = sum (fun h -> (st h).Pmem.Stats.file_lines);
    file_fsyncs = sum (fun h -> (st h).Pmem.Stats.file_fsyncs);
    allocs = sum (fun h -> Pmalloc.Allocator.allocations (al h));
    alloc_words = sum (fun h -> Pmalloc.Allocator.alloc_words_total (al h));
    frontier = sum (fun h -> Pmalloc.Allocator.frontier (al h));
  }

let diff a b =
  {
    sim_ns = b.sim_ns -. a.sim_ns;
    flush_ns = b.flush_ns -. a.flush_ns;
    l1_hits = b.l1_hits - a.l1_hits;
    l1_misses = b.l1_misses - a.l1_misses;
    clwbs = b.clwbs - a.clwbs;
    fences = b.fences - a.fences;
    lines_drained = b.lines_drained - a.lines_drained;
    events = b.events - a.events;
    file_commits = b.file_commits - a.file_commits;
    file_lines = b.file_lines - a.file_lines;
    file_fsyncs = b.file_fsyncs - a.file_fsyncs;
    allocs = b.allocs - a.allocs;
    alloc_words = b.alloc_words - a.alloc_words;
    frontier = b.frontier - a.frontier;
  }

(* Allocator occupancy gauges summed over heaps. *)
type occupancy = {
  high_water_words : int;
  free_words : int;
  deferred_words : int;
  pad_words : int;
  freelist_entries : int;
}

let occupancy heaps =
  let sum f =
    List.fold_left (fun a h -> a + f (Pmalloc.Heap.allocator h)) 0 heaps
  in
  Pmalloc.Allocator.
    {
      high_water_words = sum high_water_words;
      free_words = sum free_words;
      deferred_words = sum deferred_words;
      pad_words = sum pad_words;
      freelist_entries = sum freelist_entries;
    }

(* -- ratios --------------------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* -- result line ---------------------------------------------------------- *)

(* The per-layer metrics of the traced run, with their units.  Every
   traced run reports all of them; a layer a workload does not reach
   reads 0. *)
let layer_metrics =
  [
    ("pmem.events_per_op", "count");
    ("pmem.host_ns_per_load", "ns");
    ("pmem.host_ns_per_store", "ns");
    ("pmem.host_ns_per_clwb", "ns");
    ("pmem.host_ns_per_sfence", "ns");
    ("pmem.minor_words_per_event", "words");
    ("pmem.loads_per_read", "count");
    ("pmem.l1_miss_ratio", "ratio");
    ("pmem.clwbs_per_write", "count");
    ("pmem.lines_per_fence", "count");
    ("pmem.fence_stall_share", "ratio");
    ("pmem.file_fsyncs_per_write", "count");
    ("pmem.file_lines_per_commit", "count");
    ("pmem.file_bytes_per_user_byte", "ratio");
    ("pmem.journal_host_us", "us");
    ("pmem.apply_host_us", "us");
    ("pmem.journal_wall_us", "us");
    ("pmem.apply_wall_us", "us");
    ("pmem.reopen_host_s", "s");
    ("pmalloc.allocs_per_write", "count");
    ("pmalloc.alloc_words_per_write", "words");
    ("pmalloc.high_water_words", "words");
    ("pmalloc.free_words", "words");
    ("pmalloc.deferred_words", "words");
    ("pmalloc.pad_words", "words");
    ("pmalloc.freelist_entries", "count");
    ("pmalloc.recycled_share", "ratio");
    ("pmalloc.recovery_gc_host_s", "s");
    ("pmalloc.gc_live_blocks", "count");
    ("pfds.update_host_us", "us");
    ("pfds.update_sim_ns", "ns");
    ("pfds.find_host_us", "us");
    ("pfds.find_sim_ns", "ns");
    ("core.commit_host_us", "us");
    ("core.commit_sim_ns", "ns");
    ("core.fences_per_write", "count");
    ("core.recover_host_s", "s");
    ("shard.compute_host_us", "us");
    ("shard.ack_wall_p50_us", "us");
    ("shard.ack_wall_p99_us", "us");
    ("crashtest.points_tested", "count");
    ("crashtest.crashes_sampled", "count");
    ("crashtest.rerun_host_ms", "ms");
    ("crashtest.recover_check_host_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("bench.untraced_ops_per_s", "1/s");
    ("bench.traced_ops_per_s", "1/s");
    ("bench.trace_overhead", "ratio");
  ]

type result = {
  mutable metrics : (string * string * float) list;  (* newest first *)
  layers : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
      (* checks that make the run incorrect beyond per-op failures *)
}

let result () =
  { metrics = []; layers = Hashtbl.create 64; attempted = 0; failed = 0;
    problems = [] }

let metric r name unit v = r.metrics <- (name, unit, v) :: r.metrics

let layer r name v =
  if not (List.mem_assoc name layer_metrics) then
    invalid_arg ("unknown layer metric " ^ name);
  Hashtbl.replace r.layers name v

let problem r msg = r.problems <- msg :: r.problems

(* Turn the recorded layer values into the metric list, in table order. *)
let emit_layers r =
  List.iter
    (fun (name, unit) ->
      metric r name unit (Option.value ~default:0.0 (Hashtbl.find_opt r.layers name)))
    layer_metrics

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_float: non-finite metric"

let print_result r =
  let correct = r.failed = 0 && r.problems = [] && r.attempted > 0 in
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev r.problems);
  let rows = List.rev r.metrics in
  if Samples.count calibration > 0 then
    Printf.printf "calibration: kernel median %.6f s over %d timings\n"
      (Samples.median calibration) (Samples.count calibration);
  List.iter (fun (name, unit, v) -> Printf.printf "%-34s %16.6g %s\n" name v unit) rows;
  Printf.printf "%-34s %16.6g (%d of %d)\n" "fail_frac"
    (iratio r.failed (max 1 r.attempted)) r.failed r.attempted;
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          unit)
      rows
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " body)
