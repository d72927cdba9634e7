(* The two key-value workloads.

   kv-mem: one memory-backed heap holding the served map (Shard.Kv: the
   CHAMP Dmap over 16 B keys and 512 B blob values), driven directly;
   uniform keys, 50 % get / 50 % set.
   kv-durable: a file-backed Shard set of two shards in Inline mode;
   zipfian keys (theta 0.99), 95 % set / 5 % get.

   Both run one closed-loop client: the next request is generated and
   sent after the previous call returned.  A set's return is its ack.
   The model keeps the version of every key; a get must return the
   model's value, and after the power cut the recovered map must hold
   every acked set.  MOD orders a set's root swing by the next fence
   (epoch persistency), so the newest set of each heap may legally be
   missing after the cut: the check accepts that one set at its previous
   version, and nothing else. *)

open Common
module Kv = Shard.Kv
module Handle = Mod_core.Handle

type kind = Mem | Durable

let value_bytes = 512
let key_bytes = 16

type scale = {
  keys : int;  (* preloaded keys = the whole key space *)
  n_sim : int;  (* requests the simulated metrics are taken over *)
  setups : int;  (* image builds; setup_s is their median *)
  capacity_words : int;  (* initial region capacity per heap *)
}

let scale ~tiny = function
  | Mem ->
      if tiny then { keys = 300; n_sim = 400; setups = 2; capacity_words = 1 lsl 16 }
      else { keys = 80_000; n_sim = 20_000; setups = 3; capacity_words = 1 lsl 23 }
  | Durable ->
      if tiny then { keys = 100; n_sim = 300; setups = 2; capacity_words = 1 lsl 16 }
      else { keys = 2_000; n_sim = 6_000; setups = 3; capacity_words = 1 lsl 21 }

let nshards = function Mem -> 1 | Durable -> 2
let get_pct = function Mem -> 50 | Durable -> 5

let key_of i = Printf.sprintf "k%015d" i
let index_of_key k = int_of_string (String.sub k 1 (key_bytes - 1))

let value_of i ver =
  let head = Printf.sprintf "%d:%d:" i ver in
  head
  ^ String.make (value_bytes - String.length head)
      (Char.chr (97 + ((i + ver) mod 26)))

(* -- request generator ------------------------------------------------------ *)

(* YCSB's bounded zipfian over ranks [0, n), ranks mapped to keys through
   a seeded permutation so hot keys spread over both shards. *)
let zipf rng ~n ~theta =
  let zetan = ref 0.0 in
  for i = 1 to n do
    zetan := !zetan +. (1.0 /. (float_of_int i ** theta))
  done;
  let zetan = !zetan in
  let zeta2 = 1.0 +. (0.5 ** theta) in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
    /. (1.0 -. (zeta2 /. zetan))
  in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  fun () ->
    let u = Random.State.float rng 1.0 in
    let uz = u *. zetan in
    let rank =
      if uz < 1.0 then 0
      else if uz < 1.0 +. (0.5 ** theta) then 1
      else
        int_of_float
          (float_of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha))
    in
    perm.(min (n - 1) rank)

(* The request stream of a run: (is_get, key index) pairs. *)
let generator kind ~keys ~seed =
  let rng = Random.State.make [| 0x6b76; seed |] in
  let next_key =
    match kind with
    | Mem -> fun () -> Random.State.int rng keys
    | Durable -> zipf rng ~n:keys ~theta:0.99
  in
  let pct = get_pct kind in
  fun () ->
    let key = next_key () in
    (Random.State.int rng 100 < pct, key)

(* -- targets ------------------------------------------------------------------ *)

(* Per-layer simulated time gathered by the traced request paths. *)
type layer_sim = { upd : Samples.t; commit : Samples.t; find : Samples.t }

let layer_sim () =
  { upd = Samples.create (); commit = Samples.create (); find = Samples.create () }

let timed_sim ls acc heap f =
  let st = Pmalloc.Heap.stats heap in
  let s0 = st.Pmem.Stats.now_ns in
  let v = f () in
  (match ls with
  | Some l -> Samples.add (acc l) (st.Pmem.Stats.now_ns -. s0)
  | None -> ());
  v

type target = {
  heaps : Pmalloc.Heap.t array;
  handles : Kv.t array;  (* the map on each heap *)
  heap_of_key : int -> int;  (* key index -> index into [heaps] *)
  set : req:int -> string -> string -> unit;
  get : req:int -> string -> string option;
  close : unit -> unit;  (* orderly shutdown (between setups) *)
  paths : string list;  (* image files, for the reopen *)
}

(* Traced paths call the layers one by one: [insert_pure] then
   [Handle.commit] is exactly what [Kv.insert] runs on a Full slot, and
   [Handle.current] + [find_in] is [Kv.find], so both replay the same PM
   event stream as the untraced calls. *)
let traced_set sp ls ~req heap h k v =
  let shadow =
    Spans.with_span sp "pfds.insert_pure" ~req (fun () ->
        timed_sim ls (fun l -> l.upd) heap (fun () ->
            Kv.insert_pure heap (Handle.current h) k v))
  in
  Spans.with_span sp "core.commit" ~req (fun () ->
      timed_sim ls (fun l -> l.commit) heap (fun () -> Handle.commit h shadow))

let traced_get sp ls ~req heap h k =
  Spans.with_span sp "pfds.find_in" ~req (fun () ->
      timed_sim ls (fun l -> l.find) heap (fun () ->
          Kv.find_in heap (Handle.current h) k))

let mem_target ~tr ~ls ~sc ~seed =
  let heap = Pmalloc.Heap.create ~capacity_words:sc.capacity_words ~seed () in
  let h = Kv.open_or_create ~persist:Pmalloc.Heap.Full heap ~slot:Shard.kv_slot in
  {
    heaps = [| heap |];
    handles = [| h |];
    heap_of_key = (fun _ -> 0);
    set =
      (match tr with
      | None -> fun ~req:_ k v -> Kv.insert h k v
      | Some sp -> fun ~req k v -> traced_set sp ls ~req heap h k v);
    get =
      (match tr with
      | None -> fun ~req:_ k -> Kv.find h k
      | Some sp -> fun ~req k -> traced_get sp ls ~req heap h k);
    close = ignore;
    paths = [];
  }

(* File-commit phases seen through the region's sync hook become child
   spans of the request in flight: journal = commit-marker write +
   journal fsync, apply = image writes + image fsync.  The journal-entry
   write before the marker and the journal truncate after the apply are
   not observable from outside and stay in the parent's self time. *)
let install_file_spans sp region =
  let open_span = ref (-1) in
  let close_open () =
    if !open_span >= 0 then begin
      Spans.leave sp !open_span;
      open_span := -1
    end
  in
  Pmem.Region.set_file_sync_hook region (fun phase _ ->
      match phase with
      | Pmem.Backing.Journal_torn ->
          open_span := Spans.enter sp "pmem.file_journal" ~req:(Spans.current_req sp)
      | Pmem.Backing.Journal_committed ->
          close_open ();
          open_span := Spans.enter sp "pmem.file_apply" ~req:(Spans.current_req sp)
      | Pmem.Backing.Mid_apply -> ()
      | Pmem.Backing.Applied -> close_open ())

let durable_target ~tr ~ls ~sc ~seed ~base =
  let n = nshards Durable in
  let t =
    Shard.create ~mode:Shard.Inline ~capacity_words:sc.capacity_words ~seed
      ~persist:Pmalloc.Heap.Full ~file:base ~nshards:n ()
  in
  let heaps = Array.init n (Shard.heap t) in
  (* Shard.submit returns no value, so a client reads through the owning
     shard's map handle *)
  let handles = Array.map (fun hp -> Kv.open_or_create hp ~slot:Shard.kv_slot) heaps in
  let shard_of k = Shard.Router.shard_of_key ~nshards:n k in
  (match tr with
  | Some sp ->
      Array.iter (fun hp -> install_file_spans sp (Pmalloc.Heap.region hp)) heaps
  | None -> ());
  {
    heaps;
    handles;
    heap_of_key = (fun i -> shard_of (key_of i));
    set =
      (match tr with
      | None -> fun ~req:_ k v -> Shard.submit t (Shard.Set (k, v))
      | Some sp ->
          fun ~req k v ->
            Spans.with_span sp "shard.submit" ~req (fun () ->
                Shard.submit t (Shard.Set (k, v))));
    get =
      (match tr with
      | None -> fun ~req:_ k -> Kv.find handles.(shard_of k) k
      | Some sp ->
          fun ~req k ->
            let i = shard_of k in
            traced_get sp ls ~req heaps.(i) handles.(i) k);
    close = (fun () -> Shard.close t);
    paths = List.init n (fun i -> Option.get (Shard.backing_path t i));
  }

let make_target kind ~tr ~ls ~sc ~seed ~base =
  match kind with
  | Mem -> mem_target ~tr ~ls ~sc ~seed
  | Durable -> durable_target ~tr ~ls ~sc ~seed ~base

(* -- model -------------------------------------------------------------------- *)

type model = {
  ver : int array;  (* acked version per key *)
  last_key : int array;  (* per heap: key of the newest acked set, or -1 *)
  last_prev : int array;  (* per heap: its version before that set *)
}

let model ~keys ~nheaps =
  { ver = Array.make keys 0; last_key = Array.make nheaps (-1);
    last_prev = Array.make nheaps (-1) }

let ack m ~heap ~key ~prev =
  m.last_key.(heap) <- key;
  m.last_prev.(heap) <- prev;
  m.ver.(key) <- prev + 1

(* Load version 0 of every key, one FASE per key through the map's own
   insert, then fence every heap so the last root swing is durable too. *)
let preload tg ~keys =
  for i = 0 to keys - 1 do
    Kv.insert tg.handles.(tg.heap_of_key i) (key_of i) (value_of i 0)
  done;
  Array.iter Pmalloc.Heap.sfence tg.heaps

(* -- the closed loop ------------------------------------------------------------ *)

type loop = {
  reads_host : Samples.t;  (* scaled host us per get, every request *)
  writes_host : Samples.t;  (* scaled host us per set *)
  writes_wall : Samples.t;  (* wall-clock us per set: the durable ack *)
  reads_sim : Samples.t;  (* sim ns per get, first n_sim requests *)
  writes_sim : Samples.t;
  mutable requests : int;
  mutable sets : int;
  mutable gets : int;
  mutable get_loads : int;  (* PM-model loads issued by gets *)
  windows_s : Samples.t;  (* scaled host s per [request_window] requests *)
  mutable elapsed : float;  (* host (CPU) s of the whole loop *)
  mutable prefix_elapsed : float;  (* host s of the first n_sim requests *)
  mutable prefix_sim_ns : float;
  mutable prefix_occ : occupancy option;  (* allocator gauges at n_sim *)
  mutable failed : int;
  mutable errors : string list;
}

(* Window sizes of the fast-state estimator: requests per throughput
   window, gets and sets per latency window, sets per p99 window (twenty
   samples beyond the p99 in each). *)
let request_window = 500
let read_window = function Mem -> 500 | Durable -> 50
let write_window = 500
let p99_window = 2000

(* Requests between two timings of the calibration kernel. *)
let calibration_every = 5000

let run_loop tg m ~gen ~n_sim ~seconds ~tr =
  let l =
    {
      reads_host = Samples.create (); writes_host = Samples.create ();
      writes_wall = Samples.create (); windows_s = Samples.create ();
      reads_sim = Samples.create (); writes_sim = Samples.create ();
      requests = 0; sets = 0; gets = 0; get_loads = 0; elapsed = 0.0;
      prefix_elapsed = 0.0; prefix_sim_ns = 0.0; prefix_occ = None;
      failed = 0; errors = [];
    }
  in
  let fail msg =
    l.failed <- l.failed + 1;
    if List.length l.errors < 5 then l.errors <- msg :: l.errors
  in
  let heaps = Array.to_list tg.heaps in
  calibrate ();
  let t_start = now () and w_start = wall () in
  let mark = ref t_start in
  let continue = ref true in
  while !continue do
    let req = l.requests in
    let is_get, key = gen () in
    let hp = tg.heap_of_key key in
    let st = Pmalloc.Heap.stats tg.heaps.(hp) in
    let k = key_of key in
    let in_prefix = req < n_sim in
    if is_get then begin
      let loads0 = st.Pmem.Stats.loads in
      let s0 = st.Pmem.Stats.now_ns in
      let t0 = now () in
      let got =
        match span tr "req.get" ~req (fun () -> tg.get ~req k) with
        | v -> Ok v
        | exception e -> Error e
      in
      let t1 = now () in
      let ds = st.Pmem.Stats.now_ns -. s0 in
      l.get_loads <- l.get_loads + st.Pmem.Stats.loads - loads0;
      Samples.add l.reads_host ((t1 -. t0) *. 1e6 *. !host_scale);
      if in_prefix then begin
        Samples.add l.reads_sim ds;
        l.prefix_sim_ns <- l.prefix_sim_ns +. ds
      end;
      l.gets <- l.gets + 1;
      match got with
      | Ok (Some v) when v = value_of key m.ver.(key) -> ()
      | Ok _ -> fail (Printf.sprintf "get %s disagrees with the model" k)
      | Error e -> fail (Printf.sprintf "get %s raised %s" k (Printexc.to_string e))
    end
    else begin
      let prev = m.ver.(key) in
      let v = value_of key (prev + 1) in
      let s0 = st.Pmem.Stats.now_ns in
      let w0 = wall () in
      let t0 = now () in
      let r =
        match span tr "req.set" ~req (fun () -> tg.set ~req k v) with
        | () -> Ok ()
        | exception e -> Error e
      in
      let t1 = now () in
      let w1 = wall () in
      let ds = st.Pmem.Stats.now_ns -. s0 in
      Samples.add l.writes_host ((t1 -. t0) *. 1e6 *. !host_scale);
      Samples.add l.writes_wall ((w1 -. w0) *. 1e6);
      if in_prefix then begin
        Samples.add l.writes_sim ds;
        l.prefix_sim_ns <- l.prefix_sim_ns +. ds
      end;
      l.sets <- l.sets + 1;
      match r with
      | Ok () -> ack m ~heap:hp ~key ~prev
      | Error e -> fail (Printf.sprintf "set %s raised %s" k (Printexc.to_string e))
    end;
    l.requests <- req + 1;
    let t = now () in
    if l.requests mod request_window = 0 then begin
      Samples.add l.windows_s ((t -. !mark) *. !host_scale);
      if l.requests mod calibration_every = 0 then calibrate ();
      mark := now ()
    end;
    let elapsed = t -. t_start in
    if l.requests = n_sim then begin
      l.prefix_elapsed <- elapsed;
      l.prefix_occ <- Some (occupancy heaps)
    end;
    if l.requests >= n_sim && wall () -. w_start >= seconds then begin
      l.elapsed <- elapsed;
      continue := false
    end
  done;
  l

(* -- recovery and the whole-map check ------------------------------------------ *)

(* Check every recovered map against the model; returns the number of
   keys missing or outside the acked-durability window (each key at its
   newest acked version, except that a heap's newest set may still show
   the version before it). *)
let verify m ~keys ~heap_of_key (recovered : (Pmalloc.Heap.t * Kv.t) array) =
  let bad = ref 0 in
  let seen = Array.make keys false in
  Array.iteri
    (fun hp (_, h) ->
      Kv.iter h (fun k v ->
          match index_of_key k with
          | i when i >= 0 && i < keys && heap_of_key i = hp && not seen.(i) ->
              seen.(i) <- true;
              let newest = v = value_of i m.ver.(i) in
              let window = i = m.last_key.(hp) && v = value_of i m.last_prev.(hp) in
              if not (newest || window) then incr bad
          | _ | (exception _) -> incr bad))
    recovered;
  Array.iter (fun s -> if not s then incr bad) seen;
  !bad

let open_map heap =
  match Kv.open_result heap ~slot:Shard.kv_slot with
  | Ok h -> h
  | Error e -> failwith (Format.asprintf "open_result: %a" Mod_core.Error.pp e)

type recovered = {
  maps : (Pmalloc.Heap.t * Kv.t) array;
  recover_s : float;
  reopen_s : float;  (* traced durable: region reopen + journal + checksum *)
  core_recover_s : float;  (* traced: Recovery.recover *)
  gc_s : float;  (* traced mem: Recovery_gc.recover re-run on the image *)
  live_blocks : int;
}

let recover_exn heap =
  match Mod_core.Recovery.recover heap with
  | Ok rep -> rep
  | Error e -> failwith (Format.asprintf "recover: %a" Mod_core.Error.pp e)

let close_maps maps = Array.iter (fun (hp, _) -> Pmalloc.Heap.close hp) maps

(* The untraced recovery is timed [cuts] times and reported at the fast
   state (see Common.fast): a repeated cut recovers the image the
   previous one left, which holds the same map.  Each cut starts from a
   fully collected heap, so the collector's progress through the large
   live heap does not land in one cut and not another. *)
let cuts = 9

let timed_cuts ?(release = ignore) cut =
  let times = Samples.create () in
  let last = ref [||] in
  for _ = 1 to cuts do
    release !last;
    Gc.full_major ();
    let maps, s = scaled_time cut in
    Samples.add times s;
    last := maps
  done;
  (!last, fast times)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Power-off to usable map.  kv-mem: Heap.crash (in-flight writebacks
   dropped) + Recovery.recover + open_result.  kv-durable: the shard set
   is abandoned as kill -9 would leave it, then each image goes through
   Recovery.open_file + open_result.  Traced, the layers are called one
   by one under spans; the untraced path is the timed one. *)
let power_cut kind tg ~tr ~seed =
  match (kind, tr) with
  | Mem, None ->
      let heap = tg.heaps.(0) in
      let maps, s =
        timed_cuts (fun () ->
            Pmalloc.Heap.crash ~mode:Pmem.Region.Drop_inflight ~seed heap;
            ignore (recover_exn heap);
            [| (heap, open_map heap) |])
      in
      { maps; recover_s = s; reopen_s = 0.0; core_recover_s = 0.0; gc_s = 0.0;
        live_blocks = 0 }
  | Mem, Some sp ->
      let heap = tg.heaps.(0) in
      let (h, rs), s =
        timed (fun () ->
            Spans.with_span sp "pmem.crash" ~req:(-1) (fun () ->
                Pmalloc.Heap.crash ~mode:Pmem.Region.Drop_inflight ~seed heap);
            let _, rs =
              timed (fun () ->
                  Spans.with_span sp "core.recover" ~req:(-1) (fun () ->
                      recover_exn heap))
            in
            (open_map heap, rs))
      in
      (* the reachability pass alone, re-run on the recovered image: it
         rebuilds the identical allocator state *)
      let gc, gc_s =
        timed (fun () ->
            Spans.with_span sp "pmalloc.recovery_gc" ~req:(-1) (fun () ->
                Pmalloc.Recovery_gc.recover heap))
      in
      { maps = [| (heap, h) |]; recover_s = s; reopen_s = 0.0;
        core_recover_s = rs; gc_s; live_blocks = gc.Pmalloc.Recovery_gc.live_blocks }
  | Durable, None ->
      let maps, s =
        timed_cuts ~release:close_maps (fun () ->
            Array.of_list
              (List.map
                 (fun path ->
                   match Mod_core.Recovery.open_file ~path () with
                   | Ok rep -> (rep.Mod_core.Recovery.heap, open_map rep.heap)
                   | Error e ->
                       failwith (Format.asprintf "open_file: %a" Mod_core.Error.pp e))
                 tg.paths))
      in
      { maps; recover_s = s; reopen_s = 0.0; core_recover_s = 0.0; gc_s = 0.0;
        live_blocks = 0 }
  | Durable, Some sp ->
      let reopen = ref 0.0 and core = ref 0.0 and live = ref 0 in
      let maps, s =
        timed (fun () ->
            Array.of_list
              (List.map
                 (fun path ->
                   let (heap, _), ro =
                     timed (fun () ->
                         Spans.with_span sp "pmem.reopen" ~req:(-1) (fun () ->
                             Pmalloc.Heap.open_file ~path ()))
                   in
                   let rep, rs =
                     timed (fun () ->
                         Spans.with_span sp "core.recover" ~req:(-1) (fun () ->
                             recover_exn heap))
                   in
                   reopen := !reopen +. ro;
                   core := !core +. rs;
                   live := !live + rep.Mod_core.Recovery.gc.live_blocks;
                   (heap, open_map heap))
                 tg.paths))
      in
      { maps; recover_s = s; reopen_s = !reopen; core_recover_s = !core;
        gc_s = 0.0; live_blocks = !live }

let close_recovered r = close_maps r.maps

(* -- one run --------------------------------------------------------------------- *)

let user_bytes ~keys = float_of_int (keys * (key_bytes + value_bytes))

let note_loop res (l : loop) =
  res.attempted <- res.attempted + l.requests;
  res.failed <- res.failed + l.failed;
  List.iter (fun e -> problem res e) (List.rev l.errors)

(* Untraced run: the end-to-end metrics. *)
let run_e2e kind ~tiny ~seed ~seconds ~work res =
  let sc = scale ~tiny kind in
  let base k = Filename.concat work (Printf.sprintf "kv-durable-%d" k) in
  let built = ref 0 in
  let setup_s, (tg, m) =
    median_of_runs sc.setups
      ~release:(fun (tg, _) ->
        tg.close ();
        (* hand the previous image back before building the next *)
        Gc.compact ())
      (fun () ->
        incr built;
        let tg = make_target kind ~tr:None ~ls:None ~sc ~seed ~base:(base !built) in
        preload tg ~keys:sc.keys;
        (tg, model ~keys:sc.keys ~nheaps:(Array.length tg.heaps)))
  in
  let gen = generator kind ~keys:sc.keys ~seed in
  let l = run_loop tg m ~gen ~n_sim:sc.n_sim ~seconds ~tr:None in
  note_loop res l;
  let occ = Option.get l.prefix_occ in
  let rc = power_cut kind tg ~tr:None ~seed in
  let bad = verify m ~keys:sc.keys ~heap_of_key:tg.heap_of_key rc.maps in
  close_recovered rc;
  res.failed <- res.failed + bad;
  if bad > 0 then problem res (Printf.sprintf "%d keys wrong after recovery" bad);
  let us = "us" and ns = "ns" in
  let rate =
    if Samples.count l.windows_s = 0 then float_of_int l.requests /. l.elapsed
    else float_of_int request_window /. fast l.windows_s
  in
  metric res "host_ops_per_s" "1/s" rate;
  metric res "read_host_p50_us" us
    (fast_percentile l.reads_host ~size:(read_window kind) 0.5);
  metric res "write_host_p50_us" us
    (fast_percentile l.writes_host ~size:write_window 0.5);
  metric res "write_host_p99_us" us
    (fast_percentile l.writes_host ~size:p99_window 0.99);
  metric res "sim_ns_per_op" ns (l.prefix_sim_ns /. float_of_int sc.n_sim);
  metric res "read_sim_p50_ns" ns (Samples.median l.reads_sim);
  metric res "read_sim_p99_ns" ns (Samples.percentile l.reads_sim 0.99);
  metric res "write_sim_p50_ns" ns (Samples.median l.writes_sim);
  metric res "write_sim_p99_ns" ns (Samples.percentile l.writes_sim 0.99);
  metric res "setup_s" "s" setup_s;
  metric res "recover_s" "s" rc.recover_s;
  metric res "space_amp" "ratio"
    (float_of_int (occ.high_water_words * 8) /. user_bytes ~keys:sc.keys);
  Printf.printf
    "samples: %d requests in %.2f s (%d gets, %d sets); sim over the first %d \
     (%d gets, %d sets); %d setups\n"
    l.requests l.elapsed (Samples.count l.reads_host)
    (Samples.count l.writes_host) sc.n_sim (Samples.count l.reads_sim)
    (Samples.count l.writes_sim) sc.setups

(* Traced run: the per-layer metrics.  An untraced reference pass over
   the first n_sim requests of the same seed runs first, on its own
   image; the traced pass must reproduce its simulated metrics bit for
   bit, and the two host rates give the tracing overhead. *)
let run_traced kind ~tiny ~seed ~seconds ~work ~spans_out res =
  let sc = scale ~tiny kind in
  let base k = Filename.concat work (Printf.sprintf "kv-durable-trace-%d" k) in
  let fresh ~tr ~ls k =
    let tg = make_target kind ~tr ~ls ~sc ~seed ~base:(base k) in
    let m = model ~keys:sc.keys ~nheaps:(Array.length tg.heaps) in
    preload tg ~keys:sc.keys;
    (tg, m)
  in
  (* reference pass, untraced *)
  let ref_tg, ref_m = fresh ~tr:None ~ls:None 1 in
  let mw0 = Gc.minor_words () in
  let ref_l =
    run_loop ref_tg ref_m ~gen:(generator kind ~keys:sc.keys ~seed)
      ~n_sim:sc.n_sim ~seconds:0.0 ~tr:None
  in
  let minor_per_op = (Gc.minor_words () -. mw0) /. float_of_int ref_l.requests in
  note_loop res ref_l;
  ref_tg.close ();
  Gc.compact ();
  (* traced pass *)
  let sp = Spans.create () in
  let ls = layer_sim () in
  let tg, m = fresh ~tr:(Some sp) ~ls:(Some ls) 2 in
  (* the preload's file commits left spans too; keep only the loop's *)
  Spans.clear sp;
  let heaps = Array.to_list tg.heaps in
  let c0 = counters heaps in
  let l =
    run_loop tg m ~gen:(generator kind ~keys:sc.keys ~seed) ~n_sim:sc.n_sim
      ~seconds ~tr:(Some sp)
  in
  let c = diff c0 (counters heaps) in
  note_loop res l;
  let same_prefix a b = Samples.equal_prefix a b (Samples.count b) in
  if
    not
      (same_prefix l.reads_sim ref_l.reads_sim
      && same_prefix l.writes_sim ref_l.writes_sim
      && Int64.equal
           (Int64.bits_of_float l.prefix_sim_ns)
           (Int64.bits_of_float ref_l.prefix_sim_ns))
  then problem res "traced run diverged from the untraced simulated metrics";
  let occ = occupancy heaps in
  let rc = power_cut kind tg ~tr:(Some sp) ~seed in
  let bad = verify m ~keys:sc.keys ~heap_of_key:tg.heap_of_key rc.maps in
  close_recovered rc;
  res.failed <- res.failed + bad;
  if bad > 0 then problem res (Printf.sprintf "%d keys wrong after recovery" bad);
  Spans.write sp spans_out;
  let self = Spans.self_times sp and wself = Spans.self_times ~wall:true sp in
  let us name = Spans.mean_self self name *. 1e6 in
  let wall_us name = Spans.mean_self wself name *. 1e6 in
  let sets = float_of_int l.sets in
  let lay = layer res in
  lay "pmem.events_per_op" (iratio c.events l.requests);
  lay "pmem.loads_per_read" (iratio l.get_loads l.gets);
  lay "pmem.l1_miss_ratio" (iratio c.l1_misses (c.l1_hits + c.l1_misses));
  lay "pmem.clwbs_per_write" (ratio (float_of_int c.clwbs) sets);
  lay "pmem.lines_per_fence" (iratio c.lines_drained c.fences);
  lay "pmem.fence_stall_share" (ratio c.flush_ns c.sim_ns);
  lay "pmem.file_fsyncs_per_write" (ratio (float_of_int c.file_fsyncs) sets);
  lay "pmem.file_lines_per_commit" (iratio c.file_lines c.file_commits);
  lay "pmem.file_bytes_per_user_byte"
    (ratio
       (float_of_int (c.file_lines * 2 * Pmem.Config.cacheline_bytes))
       (sets *. float_of_int (key_bytes + value_bytes)));
  lay "pmem.journal_host_us" (us "pmem.file_journal");
  lay "pmem.apply_host_us" (us "pmem.file_apply");
  lay "pmem.journal_wall_us" (wall_us "pmem.file_journal");
  lay "pmem.apply_wall_us" (wall_us "pmem.file_apply");
  lay "pmem.reopen_host_s" rc.reopen_s;
  lay "pmalloc.allocs_per_write" (ratio (float_of_int c.allocs) sets);
  lay "pmalloc.alloc_words_per_write" (ratio (float_of_int c.alloc_words) sets);
  lay "pmalloc.high_water_words" (float_of_int occ.high_water_words);
  lay "pmalloc.free_words" (float_of_int occ.free_words);
  lay "pmalloc.deferred_words" (float_of_int occ.deferred_words);
  lay "pmalloc.pad_words" (float_of_int occ.pad_words);
  lay "pmalloc.freelist_entries" (float_of_int occ.freelist_entries);
  lay "pmalloc.recycled_share"
    (Float.max 0.0 (1.0 -. iratio c.frontier c.alloc_words));
  lay "pmalloc.recovery_gc_host_s" rc.gc_s;
  lay "pmalloc.gc_live_blocks" (float_of_int rc.live_blocks);
  lay "pfds.update_host_us" (us "pfds.insert_pure");
  lay "pfds.update_sim_ns" (Samples.mean ls.upd);
  lay "pfds.find_host_us" (us "pfds.find_in");
  lay "pfds.find_sim_ns" (Samples.mean ls.find);
  lay "core.commit_host_us" (us "core.commit");
  lay "core.commit_sim_ns" (Samples.mean ls.commit);
  lay "core.fences_per_write" (ratio (float_of_int c.fences) sets);
  lay "core.recover_host_s" rc.core_recover_s;
  lay "shard.compute_host_us" (us "shard.submit");
  if kind = Durable then begin
    lay "shard.ack_wall_p50_us" (Samples.median l.writes_wall);
    lay "shard.ack_wall_p99_us" (Samples.percentile l.writes_wall 0.99)
  end;
  lay "gc.minor_words_per_op" minor_per_op;
  let rate (x : loop) = float_of_int (min x.requests sc.n_sim) /. x.prefix_elapsed in
  lay "bench.untraced_ops_per_s" (rate ref_l);
  lay "bench.traced_ops_per_s" (rate l);
  lay "bench.trace_overhead" (rate ref_l /. rate l)
