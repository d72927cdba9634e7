(* Benchmark entry point.

     bench.exe --workload kv-mem|kv-durable|crash-sweep --seed N
               --seconds S --trace 0|1 [--tiny] [--work DIR] [--spans FILE]

   Prints a human-readable table, then as its last line one JSON object
   {correct, attempted, failed, metrics}.  --trace 0 reports the
   end-to-end metrics (run.py adds peak_rss_mb); --trace 1 reports the
   per-layer metrics of the traced run and writes its spans to FILE
   (default DIR/spans.tsv).  Image files go to DIR.  --tiny shrinks every
   size for self-tests. *)

open Common

(* Host cost of the region primitives, replayed over a region the size of
   the kv-mem image: seeded random offsets, stores, then clwb in batches
   of eight followed by one sfence. *)
let primitives ~tiny ~seed res =
  let words = if tiny then 1 lsl 16 else 1 lsl 23 in
  let n = if tiny then 4_096 else 200_000 in
  let region = Pmem.Region.create ~capacity_words:words ~seed () in
  let rng = Random.State.make [| 0x7072; seed |] in
  let offs = Array.init n (fun _ -> Random.State.int rng words) in
  let per_op t0 count = (now () -. t0) /. float_of_int count *. 1e9 in
  let t0 = now () in
  for i = 0 to n - 1 do
    ignore (Pmem.Region.load region offs.(i) : Pmem.Word.t)
  done;
  layer res "pmem.host_ns_per_load" (per_op t0 n);
  let mw0 = Gc.minor_words () in
  let t0 = now () in
  for i = 0 to n - 1 do
    Pmem.Region.store region offs.(i) (Pmem.Word.of_int i)
  done;
  layer res "pmem.host_ns_per_store" (per_op t0 n);
  let clwb_s = ref 0.0 and sfence_s = ref 0.0 in
  let batches = n / 8 in
  for b = 0 to batches - 1 do
    let t0 = now () in
    for j = 0 to 7 do
      Pmem.Region.clwb region offs.((8 * b) + j)
    done;
    let t1 = now () in
    Pmem.Region.sfence region;
    let t2 = now () in
    clwb_s := !clwb_s +. (t1 -. t0);
    sfence_s := !sfence_s +. (t2 -. t1)
  done;
  let events = n + (8 * batches) + batches in
  layer res "pmem.minor_words_per_event"
    ((Gc.minor_words () -. mw0) /. float_of_int events);
  layer res "pmem.host_ns_per_clwb" (!clwb_s /. float_of_int (8 * batches) *. 1e9);
  layer res "pmem.host_ns_per_sfence" (!sfence_s /. float_of_int batches *. 1e9)

let gc_layers res =
  let g = Gc.quick_stat () in
  layer res "gc.major_collections" (float_of_int g.Gc.major_collections);
  layer res "gc.top_heap_mb"
    (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false and work = ref "." and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kv-mem|kv-durable|crash-sweep");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed-loop length");
      ("--trace", Arg.Set_int trace, "0 = end-to-end run, 1 = traced run");
      ("--tiny", Arg.Set tiny, "self-test sizes");
      ("--work", Arg.Set_string work, "directory for image files");
      ("--spans", Arg.Set_string spans, "where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let res = result () in
  let tiny = !tiny and seed = !seed and seconds = !seconds and work = !work in
  let spans_out = if !spans = "" then Filename.concat work "spans.tsv" else !spans in
  let kv kind =
    if !trace = 0 then Kvbench.run_e2e kind ~tiny ~seed ~seconds ~work res
    else Kvbench.run_traced kind ~tiny ~seed ~seconds ~work ~spans_out res
  in
  if !trace = 1 then primitives ~tiny ~seed res;
  (match !workload with
  | "kv-mem" -> kv Kvbench.Mem
  | "kv-durable" -> kv Kvbench.Durable
  | "crash-sweep" ->
      if !trace = 0 then Sweep.run_e2e ~tiny ~seed ~seconds res
      else Sweep.run_traced ~tiny ~seed ~seconds ~spans_out res
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
  if !trace = 1 then begin
    gc_layers res;
    emit_layers res
  end;
  print_result res
