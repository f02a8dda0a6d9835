(* The ledger benchmark.

   main.exe --workload oltp|receipts|tpcc --seed N --seconds S --trace 0|1

   Runs one seeded, closed-loop workload, checks the program's outputs
   against models the benchmark keeps itself, and prints as its last
   line one JSON object: whether every check held, the operations
   attempted and failed, and the end-to-end metrics (untraced) or the
   per-layer metrics (traced). A traced run also writes its spans as
   JSON lines next to the data directories. [--selftest] checks the
   benchmark's own helpers instead. *)

(* The benchmark's workloads, then two more that run the same way but are
   not among them: [receipts] (signed 32-transaction blocks and the receipt
   cache; its throughput spreads too far from run to run on the reference
   host to bound) and [tpcc-regular] (tpcc with its order tables regular,
   the baseline of the paper's Fig. 7). *)
let workloads = [ "oltp"; "tpcc"; "receipts"; "tpcc-regular" ]

(* Each workload's throughput on the reference host in a calm spell,
   pinned to one vCPU, so that there its measured phase lasts about
   --seconds, while a run issues a fixed operation count: counts then
   repeat exactly for a seed. *)
let nominal_rate = function
  | "oltp" -> 950
  | "receipts" -> 1_000
  | _ -> 1_200

(* Throughput and the commit tail are medians over windows of the
   measured phase: twenty windows of equal operation count for the rate,
   windows of at least [min_window] commits (so each window's p99 has ten
   samples beyond it) for the tail. *)
let rate_windows = 20
let min_window = 1_000

(* Every figure is timed on the benchmark vCPU's own clock: a latency
   loses the time stolen within it, spread evenly over each 50 ms between
   samples of the steal counter. *)
let end_to_end ~steal (o : Outcome.t) =
  let stolen = Host.stolen_between steal in
  let own l =
    List.map
      (fun (t1, us) ->
        let t0 = Int64.sub t1 (Int64.of_float (us *. 1e3)) in
        (t1, us -. (1e6 *. stolen t0 t1)))
      l
  in
  let commits = own o.commits in
  let commit = Stats.summarize (List.map snd commits) in
  [
    ("setup_s", o.setup_s, "s");
    ( "ops_per_s",
      Stats.windowed_rate ~k:rate_windows ~start:o.start_ns ~stolen o.op_ends,
      "1/s" );
    ("commit_p50_us", commit.p50, "us");
    ("commit_p99_us", Stats.windowed_p99 ~min_window commits, "us");
    ("read_p50_us", Stats.median (List.map snd (own o.read_us)), "us");
    ("receipt_us", Stats.median (List.map snd (own o.receipt_us)), "us");
    ("verify_us_per_version", o.image.verify_us_per_version, "us");
    ("audit_us_per_txn", o.image.audit_us_per_txn, "us");
    ("reopen_s", o.image.reopen_s, "s");
    ( "wal_bytes_per_commit",
      float_of_int o.wal_bytes /. float_of_int (max 1 o.wal_commits),
      "bytes" );
    ("rss_mb", o.rss_mb, "MB");
  ]

(* Per-layer metrics: median span self times, plus the figures the
   workload read from the server or counted. A layer the workload never
   reaches reads 0. *)
let per_layer (o : Outcome.t) =
  let by = Trace.self_by_name (Trace.spans ()) in
  let med name =
    match Hashtbl.find_opt by name with Some l -> Stats.median l | None -> 0.
  in
  let total name =
    match Hashtbl.find_opt by name with
    | Some l -> List.fold_left ( +. ) 0. l
    | None -> 0.
  in
  let given name = Option.value ~default:0. (List.assoc_opt name o.layers) in
  let records = float_of_int (max 1 o.wal_records) in
  let us = "us" in
  [
    ("wire.codec_us", med "wire.codec", us);
    ("wire.bytes_per_receipt", given "wire.bytes_per_receipt", "bytes");
    ("server.batch_size", given "server.batch_size", "count");
    ("server.flush_us", given "server.flush_us", us);
    ("server.queue_wait_us", given "server.queue_wait_us", us);
    ("server.write_lock_wait_us", given "server.write_lock_wait_us", us);
    ("sqlexec.parse_us", med "sqlexec.parse", us);
    ("sqlexec.point_select_us", med "sqlexec.point_select", us);
    ("btree.lookup_us", med "btree.lookup", us);
    ("relation.row_hash_us", med "relation.row_hash", us);
    ("core.stage_us", med "core.stage", us);
    ("core.snapshot_us", med "core.snapshot", us);
    ("ledger.accumulate_us", med "ledger.accumulate", us);
    ("ledger.locate_hit_us", med "ledger.locate_hit", us);
    ("ledger.locate_miss_us", med "ledger.locate_miss", us);
    ("receipt.issue_first_us", med "receipt.issue_first", us);
    ("receipt.issue_cached_us", med "receipt.issue_cached", us);
    ("wal.append_us", med "wal.append", us);
    ( "wal.records_per_commit",
      float_of_int o.wal_records /. float_of_int (max 1 o.wal_commits),
      "count" );
    ("wal.load_us_per_record", total "wal.load" /. records, us);
    ("recovery.replay_us_per_record", total "recovery.replay" /. records, us);
    ("recovery.snapshot_save_s", total "recovery.snapshot_save" /. 1e6, "s");
    ("tpcc.new_order_us", med "tpcc.new_order", us);
    ("tpcc.payment_us", med "tpcc.payment", us);
    ("tpcc.delivery_us", med "tpcc.delivery", us);
    ( "gc.minor_words_per_op",
      o.gc_minor_words /. float_of_int (max 1 o.attempted),
      "count" );
    ("gc.major_collections", float_of_int o.gc_major, "count");
    ("gc.top_heap_mb", o.gc_top_heap_mb, "MB");
  ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
           unit)
       ms)

let run ~workload ~seed ~seconds ~trace =
  let root =
    Printf.sprintf ".ledgerbench/%s-seed%d-%d" workload seed (Unix.getpid ())
  in
  Host.rm_rf root;
  Fault.Fsutil.mkdir_p root;
  if trace then Trace.enable ();
  let cpu = Host.pinned_cpu () in
  let steal0 = Host.steal_ticks () and cpu_steal0 = Host.steal_ticks ?cpu () in
  let calib0 = Host.calibration_ms () in
  let ops = nominal_rate workload * seconds in
  let o, steal =
    Host.sample_steal (fun () ->
        match workload with
        | "oltp" -> Served.oltp ~root ~seed ~ops
        | "receipts" -> Served.receipts ~root ~seed ~ops
        | "tpcc" -> Tpcc_run.run ~root ~seed ~ops ~ledgered:true
        | "tpcc-regular" -> Tpcc_run.run ~root ~seed ~ops ~ledgered:false
        | w -> failwith ("unknown workload " ^ w))
  in
  let calib1 = Host.calibration_ms () in
  let steal1 = Host.steal_ticks () and cpu_steal1 = Host.steal_ticks ?cpu () in
  let commit = Stats.summarize (List.map snd o.commits) in
  let last = List.fold_left max o.start_ns o.op_ends in
  Printf.printf
    "samples: commits n=%d (whole-run p99 %.0f us, %d beyond it%s), reads n=%d \
     (%d naming a column, p50 %.0f us), receipt samples n=%d, operations n=%d in \
     %.3f s (%.2f s of it stolen from the benchmark's vCPU), receipts held %d bytes at rss_mb\n"
    commit.n commit.p99 commit.beyond_p99
    (if Stats.tail_supported commit then "" else ", too few for a tail")
    (List.length o.read_us) (List.length o.read_v_us) (Stats.median o.read_v_us)
    (List.length o.receipt_us) (List.length o.op_ends)
    (Int64.to_float (Int64.sub last o.start_ns) /. 1e9)
    (Host.stolen_between steal o.start_ns last)
    o.held_bytes;
  Printf.printf "repeats: {%s}\n"
    (String.concat ", "
       (List.map
          (fun (name, l) ->
            Printf.sprintf "%S: [%s]" name
              (String.concat ", " (List.rev_map (Printf.sprintf "%.4g") l)))
          o.image.repeats_s));
  Printf.printf
    "host: {\"steal_ticks\": %d, \"pinned_cpu\": %s, \"pinned_cpu_steal_ticks\": %d, \
     \"calibration_ms\": [%.1f, %.1f], \"cores\": %d}\n"
    (steal1 - steal0)
    (match cpu with Some n -> string_of_int n | None -> "null")
    (cpu_steal1 - cpu_steal0) calib0 calib1 (Host.cores ());
  Printf.printf "end-to-end: {%s}\n" (json_metrics (end_to_end ~steal o));
  let metrics =
    if trace then begin
      let spans = Trace.spans () in
      let path = Printf.sprintf ".ledgerbench/trace-%s-seed%d.jsonl" workload seed in
      Trace.write_jsonl path spans;
      (* What a span costs here: the run's tracing overhead is about the
         span count times this, next to the difference between this run's
         end-to-end figures and an untraced run's. *)
      let t0 = Trace.now_ns () in
      for _ = 1 to 100_000 do
        Trace.span "calibration" ignore
      done;
      let ns = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e5 in
      Printf.printf "trace: %d spans written to %s, %.0f ns per span, %.0f ms in all\n"
        (List.length spans) path ns
        (float_of_int (List.length spans) *. ns /. 1e6);
      per_layer o
    end
    else end_to_end ~steal o
  in
  Host.rm_rf root;
  let correct = !Outcome.failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed (json_metrics metrics);
  if not correct then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let selftest = ref false in
  let measure_image = ref "" and digest = ref "" and workdir = ref "" and index = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oltp | tpcc (or receipts | tpcc-regular)");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " nominal length of the measured phase");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--selftest", Arg.Set selftest, " check the benchmark's own helpers");
      ("--measure-image", Arg.Set_string measure_image, " (internal) measure one reopen of this image");
      ("--digest", Arg.Set_string digest, " (internal) digest file for --measure-image");
      ("--workdir", Arg.Set_string workdir, " (internal) working directory for --measure-image");
      ("--index", Arg.Set_int index, " (internal) copy number for --measure-image");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !measure_image <> "" then
    Image.measure_main ~image:!measure_image ~workdir:!workdir ~digest_path:!digest
      ~index:!index
  else if !selftest then exit (if Selftest.run () then 0 else 1)
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end
  else run ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1)
