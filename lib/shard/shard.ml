(* Sharded multi-domain serving layer.

   N shards, each owning its own [Pmalloc.Heap] (optionally file-backed
   at [<image>.N]), its own instance-scoped telemetry collector, and --
   in [Domains] mode -- its own OCaml 5 domain.  Keys are
   hash-partitioned by [Router.shard_of_key]; requests flow through
   per-shard bounded FIFO queues; idle workers steal from loaded
   siblings to absorb zipfian skew.

   Two invariants the whole layer is built on:

   - {e Shard independence.}  No state is shared between shards: heap,
     allocator, collector, queue and lock are all per-shard, so a crash
     of one shard cannot perturb another, and each recovers alone from
     its own image ([crash_sweep] proves both).

   - {e Per-shard FIFO.}  A request is popped {e under the executing
     shard's heap lock} and completed before the lock is released, so
     two sets to one key apply in arrival order no matter which domain
     (owner or thief) executes them.  That is what makes the sharded
     map's final state equal the single-heap map's for any request
     sequence (the differential test in test_shard.ml).

   Work stealing and the clocks: a stolen request still executes on the
   {e victim's} heap, and simulated PM time is charged to the heap that
   does the work, so stealing improves wall-clock utilisation (domains
   never idle beside a hot sibling) but not the simulated makespan --
   the per-shard sim clock is the serialization point the data lives
   behind.  Throughput gates therefore compare simulated makespans
   (max over shards), which are deterministic and machine-independent;
   wall-clock req/s is reported for color only. *)

module Router = Router
module Queue = Queue

module Kv = Mod_core.Dmap.Make (Pfds.Kv.String_blob) (Pfds.Kv.String_blob)

let kv_slot = 0

type request = Set of string * string | Get of string

let key_of = function Set (k, _) | Get k -> k

type mode = Inline | Domains

let mode_name = function Inline -> "inline" | Domains -> "domains"

type shard = {
  id : int;
  heap : Pmalloc.Heap.t;
  collector : Telemetry.t;
  mutable kv : Kv.t;
  queue : request Queue.t;
  hlock : Mutex.t;
      (* serializes all access to this shard's heap: taken by the owner
         and by thieves for the whole pop+execute of each request *)
  mutable routed : int;  (* requests the router sent here *)
  mutable executed : int;  (* requests retired on this heap (any domain) *)
  mutable stolen : int;  (* subset of [executed] retired by a thief *)
}

type t = {
  mode : mode;
  nshards : int;
  shards : shard array;
  persist : Pmalloc.Heap.policy;
}

let shard_path base i = Printf.sprintf "%s.%d" base i

let make_shard ~capacity_words ~queue_capacity ~seed ~persist ?file i =
  let file = Option.map (fun b -> shard_path b i) file in
  let heap = Pmalloc.Heap.create ~capacity_words ~seed:(seed + i) ?file () in
  let collector = Pmalloc.Heap.attach_telemetry heap in
  let kv = Kv.open_or_create ~persist heap ~slot:kv_slot in
  {
    id = i;
    heap;
    collector;
    kv;
    queue = Queue.create ~capacity:queue_capacity ();
    hlock = Mutex.create ();
    routed = 0;
    executed = 0;
    stolen = 0;
  }

let create ?(mode = Inline) ?(capacity_words = 1 lsl 21)
    ?(queue_capacity = 1024) ?(seed = 42) ?(persist = Pmalloc.Heap.Full) ?file
    ~nshards () =
  if nshards < 1 then invalid_arg "Shard.create: nshards must be >= 1";
  {
    mode;
    nshards;
    shards =
      Array.init nshards
        (make_shard ~capacity_words ~queue_capacity ~seed ~persist ?file);
    persist;
  }

let nshards t = t.nshards
let mode t = t.mode
let heap t i = t.shards.(i).heap
let collector t i = t.shards.(i).collector
let backing_path t i = Pmem.Region.backing_path (Pmalloc.Heap.region t.shards.(i).heap)
let close t = Array.iter (fun sh -> Pmalloc.Heap.close sh.heap) t.shards

(* Charge the per-request application logic around the datastructure op,
   as the figure-9 backends do (Backend.op_pause): the sim clock should
   reflect whole requests, not just PM work. *)
let app_accesses_per_request = 50

let request_pause sh =
  let s = Pmalloc.Heap.stats sh.heap in
  Pmem.Stats.advance s Pmem.Config.op_overhead_ns;
  s.Pmem.Stats.l1_hits <- s.Pmem.Stats.l1_hits + app_accesses_per_request

let exec sh req =
  request_pause sh;
  (match req with
  | Set (k, v) -> Kv.insert sh.kv k v
  | Get k -> ignore (Kv.find sh.kv k : string option));
  sh.executed <- sh.executed + 1

let route t key = t.shards.(Router.shard_of_key ~nshards:t.nshards key)

(* Inline-mode entry point (and the warmup/crash-sweep path): execute on
   the owning shard right here.  No locking -- Inline mode is
   single-domain by definition, and a [Crash_point] escaping mid-request
   must not leave a mutex held. *)
let apply t req =
  let sh = route t (key_of req) in
  sh.routed <- sh.routed + 1;
  exec sh req

let submit t req =
  match t.mode with
  | Inline -> apply t req
  | Domains ->
      let sh = route t (key_of req) in
      sh.routed <- sh.routed + 1;
      Queue.push sh.queue req

let close_queues t = Array.iter (fun sh -> Queue.close sh.queue) t.shards

(* -- workers (Domains mode) --------------------------------------------- *)

let with_hlock sh f =
  Mutex.lock sh.hlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.hlock) f

(* Serve one request of [sh]'s queue, popping under the heap lock so
   per-shard execution is strictly FIFO (see the header comment). *)
let serve_one ~thief sh =
  with_hlock sh (fun () ->
      match Queue.try_pop sh.queue with
      | None -> false
      | Some req ->
          if thief then sh.stolen <- sh.stolen + 1;
          exec sh req;
          true)

let try_steal_one sh =
  if Mutex.try_lock sh.hlock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.hlock)
      (fun () ->
        match Queue.try_pop sh.queue with
        | None -> false
        | Some req ->
            sh.stolen <- sh.stolen + 1;
            exec sh req;
            true)
  else false

let worker t i () =
  let me = t.shards.(i) in
  let n = t.nshards in
  (* steal from the most loaded sibling first: under zipfian skew the
     hot shard's queue is where idle cycles are worth spending *)
  let steal_round () =
    let best = ref (-1) and best_len = ref 0 in
    for d = 1 to n - 1 do
      let j = (i + d) mod n in
      let len = Queue.length t.shards.(j).queue in
      if len > !best_len then begin
        best := j;
        best_len := len
      end
    done;
    !best >= 0 && try_steal_one t.shards.(!best)
  in
  let all_drained () =
    let ok = ref true in
    for j = 0 to n - 1 do
      ok := !ok && Queue.drained t.shards.(j).queue
    done;
    !ok
  in
  let rec loop idle =
    if serve_one ~thief:false me then loop 0
    else if n > 1 && steal_round () then loop 0
    else if all_drained () then ()
    else begin
      (* no timed condition wait in OCaml's Mutex/Condition: poll with
         escalating backoff (relax spins, then a short sleep) *)
      if idle < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002;
      loop (idle + 1)
    end
  in
  loop 0

(* -- measured load ------------------------------------------------------- *)

type shard_metrics = {
  m_id : int;
  m_routed : int;
  m_executed : int;
  m_stolen : int;
  m_sim_ns : float;
  m_fences : int;
  m_p50_ns : float;
  m_p99_ns : float;
  m_report : Telemetry.report;
}

type load_result = {
  lr_requests : int;
  lr_nshards : int;
  lr_mode : mode;
  lr_theta : float;
  lr_wall_s : float;
  lr_wall_req_s : float;
  lr_sim_makespan_ns : float;  (* max over shards: the parallel sim time *)
  lr_sim_total_ns : float;  (* sum over shards: the serial-equivalent *)
  lr_sim_req_s : float;  (* requests / makespan, in simulated seconds *)
  lr_shards : shard_metrics list;
}

let reset_measurement t =
  Array.iter
    (fun sh ->
      Pmem.Stats.reset (Pmalloc.Heap.stats sh.heap);
      Telemetry.reset sh.collector;
      sh.routed <- 0;
      sh.executed <- 0;
      sh.stolen <- 0)
    t.shards

(* Overall span-latency percentiles for one shard: merge the
   per-(structure x op) histograms the collector kept. *)
let latency_histogram report =
  let acc = Telemetry.Histogram.create () in
  List.iter
    (fun r -> Telemetry.Histogram.merge ~into:acc r.Telemetry.r_lat)
    report.Telemetry.rows;
  acc

let shard_metrics sh =
  let report = Telemetry.report sh.collector in
  let lat = latency_histogram report in
  let s = Pmalloc.Heap.stats sh.heap in
  {
    m_id = sh.id;
    m_routed = sh.routed;
    m_executed = sh.executed;
    m_stolen = sh.stolen;
    m_sim_ns = s.Pmem.Stats.now_ns;
    m_fences = s.Pmem.Stats.fences;
    m_p50_ns = Telemetry.Histogram.percentile lat 0.5;
    m_p99_ns = Telemetry.Histogram.percentile lat 0.99;
    m_report = report;
  }

(* Deterministic request stream: zipfian key popularity over a fixed
   keyspace, [get_pct]% reads, values drawn from a small precomputed
   pool (the memcached shape: 16-byte keys, 512-byte values). *)
let value_pool ~seed n =
  let rng = Random.State.make [| seed; 0xbeef |] in
  Array.init n (fun _ ->
      String.init 512 (fun _ -> Char.chr (33 + Random.State.int rng 94)))

type stream = { keys : string array; z : Router.zipf; mix : Random.State.t;
                pool : string array; get_pct : int }

let stream ?(theta = 0.99) ?(get_pct = 5) ~seed ~keyspace () =
  {
    keys = Array.init keyspace Router.key_of_index;
    z = Router.zipf ~theta ~seed ~n:keyspace ();
    mix = Random.State.make [| seed; 0xfeed |];
    pool = value_pool ~seed 64;
    get_pct;
  }

let next_request st =
  let k = st.keys.(Router.next st.z) in
  if Random.State.int st.mix 100 < st.get_pct then Get k
  else Set (k, st.pool.(Random.State.int st.mix (Array.length st.pool)))

let run_load ?(theta = 0.99) ?(get_pct = 5) ?(seed = 1) ?(warmup = 0)
    ?(keyspace = 10_000) t ~requests () =
  let st = stream ~theta ~get_pct ~seed ~keyspace () in
  for _ = 1 to warmup do
    apply t (next_request st)
  done;
  reset_measurement t;
  let t0 = Unix.gettimeofday () in
  (match t.mode with
  | Inline ->
      for _ = 1 to requests do
        submit t (next_request st)
      done
  | Domains ->
      let domains =
        Array.init t.nshards (fun i -> Domain.spawn (worker t i))
      in
      for _ = 1 to requests do
        submit t (next_request st)
      done;
      close_queues t;
      Array.iter Domain.join domains);
  let wall = Unix.gettimeofday () -. t0 in
  let per_shard = Array.to_list (Array.map shard_metrics t.shards) in
  let makespan =
    List.fold_left (fun acc m -> Float.max acc m.m_sim_ns) 0.0 per_shard
  in
  let total = List.fold_left (fun acc m -> acc +. m.m_sim_ns) 0.0 per_shard in
  {
    lr_requests = requests;
    lr_nshards = t.nshards;
    lr_mode = t.mode;
    lr_theta = theta;
    lr_wall_s = wall;
    lr_wall_req_s = (if wall > 0.0 then float_of_int requests /. wall else 0.0);
    lr_sim_makespan_ns = makespan;
    lr_sim_total_ns = total;
    lr_sim_req_s =
      (if makespan > 0.0 then float_of_int requests /. (makespan *. 1e-9)
       else 0.0);
    lr_shards = per_shard;
  }

(* -- canonical dumps ----------------------------------------------------- *)

let dump_kv kv =
  Kv.fold kv (fun k v acc -> (k, v) :: acc) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

let dump t i = dump_kv t.shards.(i).kv
let dump_all t =
  Array.to_list t.shards
  |> List.concat_map (fun sh -> Kv.fold sh.kv (fun k v acc -> (k, v) :: acc) [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

(* -- single-shard crash sweep ------------------------------------------- *)

(* Kill one shard at the j-th PM event of its own region and prove:
   (1) the dead shard recovers alone -- via [Recovery.recover] on the
   crashed region, or [Recovery.open_file] on its image when
   file-backed -- into a state inside the durable-linearizability
   window of {e its own} request subsequence; (2) the N-1 sibling
   shards are bit-identically untouched.  The crash budget is armed on
   the target's region only, so [Crash_point] can only fire while a
   request routed to the target executes -- sibling heaps never even
   observe the sweep. *)

type sweep_result = {
  sw_nshards : int;
  sw_points : int;
  sw_consistent : int;
  sw_violations : string list;
  sw_sibling_mismatches : int;
  sw_exhausted : bool;
      (* the budget outlived the script: every crash point was covered *)
}

module Smap = Map.Make (String)

let dump_model m =
  Smap.bindings m |> List.map (fun (k, v) -> k ^ "=" ^ v) |> String.concat ";"

let apply_model m = function
  | Set (k, v) -> Smap.add k v m
  | Get _ -> m

(* One sweep iteration on fresh shards: run [script] with shard [target]
   armed to crash after [budget] PM events.  Returns [None] when the
   budget never fired (script exhausted). *)
let sweep_iteration t ~script ~target ~budget ~recover_target =
  let tgt = t.shards.(target) in
  let models = Array.make t.nshards Smap.empty in
  (* newest-first committed states of the target shard, for the oracle *)
  let history = ref [ dump_model Smap.empty ] in
  Pmem.Region.set_crash_after (Pmalloc.Heap.region tgt.heap) budget;
  let crashed = ref None in
  (try
     List.iter
       (fun req ->
         let sh = route t (key_of req) in
         let next = apply_model models.(sh.id) req in
         (try apply t req
          with Pmem.Region.Crash_point ->
            crashed := Some (dump_model next);
            raise Exit);
         models.(sh.id) <- next;
         (* only a Set commits: a Get's unchanged state pushed here would
            evict the real previous state from the oracle's window *)
         match req with
         | Set _ when sh.id = target -> history := dump_model next :: !history
         | _ -> ())
       script
   with Exit -> ());
  Pmem.Region.clear_crash_point (Pmalloc.Heap.region tgt.heap);
  match !crashed with
  | None -> None
  | Some pending ->
      (* sibling snapshots before the target recovers *)
      let sibling_before =
        Array.init t.nshards (fun i -> if i = target then "" else dump t i)
      in
      let recovered =
        try Ok (recover_target tgt) with e -> Error e
      in
      let verdict =
        Crashtest.Oracle.check ~history:!history ~pending:(Some pending)
          ~recovered
      in
      (* bit-identical sibling dumps, and still equal to their models *)
      let sibling_ok = ref true in
      for i = 0 to t.nshards - 1 do
        if i <> target then begin
          let after = dump t i in
          if after <> sibling_before.(i) || after <> dump_model models.(i)
          then sibling_ok := false
        end
      done;
      Some (verdict, !sibling_ok)

let crash_sweep ?(nshards = 4) ?(requests = 160) ?(keyspace = 256)
    ?(theta = 0.99) ?(stride = 97) ?(max_points = 200) ?(seed = 7)
    ?(capacity_words = 1 lsl 18) ?file () =
  (* the deterministic script every iteration replays *)
  let script =
    let st = stream ~theta ~get_pct:5 ~seed ~keyspace () in
    List.init requests (fun _ -> next_request st)
  in
  let consistent = ref 0 in
  let violations = ref [] in
  let sibling_mismatches = ref 0 in
  let points = ref 0 in
  let exhausted = ref false in
  (* In-memory sweeps reuse one shard set via pristine snapshots (heap
     construction dominates otherwise); file-backed sweeps recreate the
     images each iteration, since a crashed file-backed region is
     abandoned exactly as a killed process would abandon it. *)
  let mem_t, pristine =
    match file with
    | Some _ -> (None, [||])
    | None ->
        let t = create ~mode:Inline ~capacity_words ~seed ~nshards () in
        ( Some t,
          Array.map (fun sh -> Pmalloc.Heap.pristine_snapshot sh.heap) t.shards
        )
  in
  let budget = ref 1 in
  (try
     while !points < max_points do
       let target = !points mod nshards in
       let outcome =
         match (file, mem_t) with
         | None, None -> assert false
         | None, Some t ->
             Array.iteri
               (fun i sh ->
                 Pmalloc.Heap.reset_fresh sh.heap ~pristine:pristine.(i);
                 sh.kv <- Kv.open_or_create sh.heap ~slot:kv_slot;
                 sh.routed <- 0;
                 sh.executed <- 0;
                 sh.stolen <- 0)
               t.shards;
             sweep_iteration t ~script ~target ~budget:!budget
               ~recover_target:(fun tgt ->
                 Pmalloc.Heap.crash tgt.heap;
                 match Mod_core.Recovery.recover tgt.heap with
                 | Ok _report ->
                     dump_kv (Kv.open_or_create tgt.heap ~slot:kv_slot)
                 | Error e -> raise (Mod_core.Error.Error e))
         | Some base, _ ->
             let t = create ~mode:Inline ~capacity_words ~seed ~file:base ~nshards () in
             let r =
               sweep_iteration t ~script ~target ~budget:!budget
                 ~recover_target:(fun tgt ->
                   (* abandon the crashed region as kill -9 would: its
                      image holds exactly the fenced batches; reopen it
                      through the external recovery cycle *)
                   let path =
                     Option.get
                       (Pmem.Region.backing_path (Pmalloc.Heap.region tgt.heap))
                   in
                   match Mod_core.Recovery.open_file ~path () with
                   | Ok report ->
                       let dump =
                         dump_kv
                           (Kv.open_or_create report.Mod_core.Recovery.heap
                              ~slot:kv_slot)
                       in
                       Pmalloc.Heap.close report.Mod_core.Recovery.heap;
                       dump
                   | Error e -> raise (Mod_core.Error.Error e))
             in
             (* clean up sibling images; the crashed one stays abandoned *)
             Array.iteri
               (fun i sh -> if i <> target then Pmalloc.Heap.close sh.heap)
               t.shards;
             r
       in
       match outcome with
       | None ->
           exhausted := true;
           raise Exit
       | Some (verdict, sibling_ok) ->
           incr points;
           (match verdict with
           | Crashtest.Oracle.Consistent -> incr consistent
           | Crashtest.Oracle.Violation msg ->
               violations :=
                 Printf.sprintf "shard %d, budget %d: %s" target !budget msg
                 :: !violations);
           if not sibling_ok then incr sibling_mismatches;
           budget := !budget + stride
     done
   with Exit -> ());
  (match mem_t with Some t -> close t | None -> ());
  {
    sw_nshards = nshards;
    sw_points = !points;
    sw_consistent = !consistent;
    sw_violations = List.rev !violations;
    sw_sibling_mismatches = !sibling_mismatches;
    sw_exhausted = !exhausted;
  }

let sweep_ok r = r.sw_violations = [] && r.sw_sibling_mismatches = 0
