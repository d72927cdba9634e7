(* Sharded serving layer: routing purity, sharded-vs-single-heap
   equivalence, crash independence and the Domains execution mode.

   The load-bearing properties are the first three: routing must be a
   pure function of (key, nshards) so every process ever serving an
   image set agrees on ownership; a sharded map must externally equal a
   single-heap map for any request sequence (the per-shard FIFO
   invariant); and killing one shard must leave every sibling's dump
   bit-identical while the dead shard recovers alone into its own
   durable-linearizability window. *)

module Router = Shard.Router

(* -- routing purity --------------------------------------------------------- *)

let key_gen =
  QCheck.Gen.(
    oneof
      [
        map Router.key_of_index (int_bound 99_999);
        string_size ~gen:printable (int_range 1 40);
      ])

let prop_route_pure =
  let arb =
    QCheck.make
      ~print:(fun (k, n) -> Printf.sprintf "key=%S nshards=%d" k n)
      QCheck.Gen.(pair key_gen (int_range 1 16))
  in
  QCheck.Test.make ~count:500 ~name:"shard_of_key is pure and in range" arb
    (fun (key, nshards) ->
      let s = Router.shard_of_key ~nshards key in
      (* in range, deterministic across calls, insensitive to string
         identity (fresh copy hashes the bytes, not the pointer) *)
      s >= 0 && s < nshards
      && Router.shard_of_key ~nshards key = s
      && Router.shard_of_key ~nshards (String.sub key 0 (String.length key))
         = s)

let test_route_covers () =
  (* the fixed-width driver keyspace must actually spread: every shard
     of 4 owns some of the first 1000 keys *)
  let seen = Array.make 4 0 in
  for i = 0 to 999 do
    let s = Router.shard_of_key ~nshards:4 (Router.key_of_index i) in
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns keys (%d)" i c)
        true (c > 100))
    seen

let test_zipf_deterministic () =
  let draw () =
    let z = Router.zipf ~theta:0.99 ~seed:5 ~n:1000 () in
    List.init 200 (fun _ -> Router.next z)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draw ()) (draw ());
  List.iter
    (fun r -> Alcotest.(check bool) "rank in range" true (r >= 0 && r < 1000))
    (draw ())

(* -- sharded == single-heap ------------------------------------------------- *)

(* A request sequence as (key index, payload index, is_get) triples over
   a small keyspace, applied to an N-shard set and to a 1-shard set:
   the merged canonical dumps must be equal.  This is the per-shard
   FIFO invariant made external: partitioning plus in-order execution
   per shard commutes with a single serial map. *)
let ops_gen =
  QCheck.Gen.(
    pair (int_range 2 5)
      (list_size (int_range 1 60)
         (triple (int_bound 23) (int_bound 9) (int_bound 4))))

let apply_ops t ops =
  List.iter
    (fun (k, v, g) ->
      let key = Router.key_of_index k in
      if g = 0 then Shard.submit t (Shard.Get key)
      else Shard.submit t (Shard.Set (key, Printf.sprintf "v%03d" v)))
    ops

let prop_sharded_equals_single =
  let arb =
    QCheck.make
      ~print:(fun (n, ops) ->
        Printf.sprintf "nshards=%d ops=%s" n
          (String.concat ";"
             (List.map
                (fun (k, v, g) -> Printf.sprintf "(%d,%d,%d)" k v g)
                ops)))
      ops_gen
  in
  QCheck.Test.make ~count:40 ~name:"sharded dump equals single-heap dump" arb
    (fun (nshards, ops) ->
      let run n =
        let t = Shard.create ~capacity_words:(1 lsl 16) ~nshards:n () in
        apply_ops t ops;
        let d = Shard.dump_all t in
        Shard.close t;
        d
      in
      run nshards = run 1)

(* -- crash independence ----------------------------------------------------- *)

let test_crash_sweep () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "examined points" true (r.Shard.sw_points > 0);
      Alcotest.(check (list string))
        "no oracle violations" [] r.Shard.sw_violations;
      Alcotest.(check int)
        "no sibling perturbation" 0 r.Shard.sw_sibling_mismatches;
      Alcotest.(check int)
        "every point consistent" r.Shard.sw_points r.Shard.sw_consistent;
      Alcotest.(check bool) "sweep_ok" true (Shard.sweep_ok r))
    [
      Shard.crash_sweep ~nshards:3 ~requests:96 ~keyspace:64 ~stride:53
        ~max_points:20 ~seed:11 ~capacity_words:(1 lsl 17) ();
      (* default sizes: Gets on the target shard interleave with its Sets *)
      Shard.crash_sweep ~nshards:2 ~seed:1 ();
    ]

(* -- Domains mode ----------------------------------------------------------- *)

let test_domains_matches_inline () =
  let load mode =
    let t =
      Shard.create ~mode ~capacity_words:(1 lsl 18) ~seed:9 ~nshards:3 ()
    in
    let r =
      Shard.run_load ~theta:0.99 ~seed:9 ~warmup:50 ~keyspace:500 t
        ~requests:600 ()
    in
    let d = Shard.dump_all t in
    let executed =
      List.fold_left (fun a m -> a + m.Shard.m_executed) 0 r.Shard.lr_shards
    in
    Shard.close t;
    (d, executed, r.Shard.lr_sim_makespan_ns)
  in
  let di, ei, mi = load Shard.Inline in
  let dd, ed, md = load Shard.Domains in
  Alcotest.(check int) "inline executes every request" 600 ei;
  Alcotest.(check int) "domains execute every request" 600 ed;
  Alcotest.(check string) "same final state" di dd;
  (* same requests on the same heaps: the simulated clocks agree too *)
  Alcotest.(check (float 1e-6)) "same sim makespan" mi md

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          QCheck_alcotest.to_alcotest prop_route_pure;
          Alcotest.test_case "keyspace coverage" `Quick test_route_covers;
          Alcotest.test_case "zipf deterministic" `Quick
            test_zipf_deterministic;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_sharded_equals_single ] );
      ( "crash",
        [ Alcotest.test_case "single-shard sweep" `Quick test_crash_sweep ] );
      ( "domains",
        [
          Alcotest.test_case "matches inline" `Quick
            test_domains_matches_inline;
        ] );
    ]
