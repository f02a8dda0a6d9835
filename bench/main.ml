(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§4):

     fig7    throughput delta, ledgered vs plain (TPC-C-like, TPC-E-like)
     fig8    per-row DML latency vs index count, regular vs ledger tables
     fig9    ledger verification time vs transaction count
     fabric  RDBMS-vs-blockchain comparison (§4.1 narrative numbers)
     decomp  §4.1.2 overhead decomposition (hash vs history-insert cost)
     hashpath  allocation-free row hashing + domain-parallel Merkle root

   Absolute numbers differ from the paper (OCaml mini-engine vs SQL Server
   on 72 cores); EXPERIMENTS.md records shape agreement. Run a single
   experiment with e.g. `dune exec bench/main.exe -- fig8`. Pass --json to
   additionally write machine-readable results (BENCH_hashpath.json). *)

open Relation
open Sql_ledger

let vi = Value.int
let vs s = Value.String s

let deterministic_clock () =
  let t = ref 1_000_000.0 in
  fun () ->
    t := !t +. 0.001;
    !t

(* ------------------------------------------------------------------ *)
(* Shared result-file schema. Every BENCH_*.json carries the same
   provenance quadruple — cores, seed, measured wall time, source
   revision — so numbers from different machines and revisions are
   comparable at a glance. *)

let bench_seed = ref 42
let json_out = ref false

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev
  with _ -> "unknown"

let common_fields ~elapsed_s =
  [
    ("cores", Sjson.Int (Domain.recommended_domain_count ()));
    ("seed", Sjson.Int !bench_seed);
    ("duration_s", Sjson.Float elapsed_s);
    ("git_rev", Sjson.String (git_rev ()));
  ]

let write_json ~file fields =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Sjson.to_string ~pretty:true (Sjson.Obj fields));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" file

(* ------------------------------------------------------------------ *)
(* Bechamel helper: estimated wall time per run, in nanoseconds. *)

let ns_per_run name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  match Hashtbl.fold (fun _ v acc -> v :: acc) analyzed [] with
  | [ result ] -> (
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> ns
      | _ -> nan)
  | _ -> nan

let us_per_run name f = ns_per_run name f /. 1000.0

(* ------------------------------------------------------------------ *)
(* Figure 7: user workload throughput *)

let fig7 () =
  print_endline "=== Figure 7: throughput of SQL Ledger vs plain tables ===";
  print_endline "paper: TPC-C -30.6%, TPC-E -6.9% (SQL Server, 72 cores)\n";
  let tpcc_txns = 3000 and tpce_txns = 4000 in
  let run_tpcc ~commit_cost_us ledgered =
    let db =
      Database.create ~block_size:100_000 ~commit_cost_us
        ~clock:(deterministic_clock ())
        ~name:(Printf.sprintf "fig7-tpcc-%b-%.0f" ledgered commit_cost_us)
        ()
    in
    let cfg = { Workload.Tpcc.default_config with ledgered } in
    let t = Workload.Tpcc.setup db cfg in
    let prng = Workload.Prng.create 42 in
    Workload.Runner.measure ~transactions:tpcc_txns (fun () ->
        ignore (Workload.Tpcc.run t ~prng ~transactions:tpcc_txns))
  in
  let run_tpce ~commit_cost_us ledgered =
    let db =
      Database.create ~block_size:100_000 ~commit_cost_us
        ~clock:(deterministic_clock ())
        ~name:(Printf.sprintf "fig7-tpce-%b-%.0f" ledgered commit_cost_us)
        ()
    in
    let cfg = { Workload.Tpce.default_config with ledgered } in
    let t = Workload.Tpce.setup db cfg in
    let prng = Workload.Prng.create 42 in
    Workload.Runner.measure ~transactions:tpce_txns (fun () ->
        ignore (Workload.Tpce.run t ~prng ~transactions:tpce_txns))
  in
  let report name baseline ledgered paper =
    Printf.printf "%-10s %14.0f %14.0f %+11.1f%% %12s\n" name
      baseline.Workload.Runner.tps ledgered.Workload.Runner.tps
      (Workload.Runner.throughput_delta_pct ~baseline ~ledgered)
      paper
  in
  let round ~commit_cost_us label =
    Printf.printf "-- %s --\n" label;
    Printf.printf "%-10s %14s %14s %12s %12s\n" "Workload" "plain (tps)"
      "ledger (tps)" "delta" "paper";
    (* One throwaway run warms caches so the configurations compare
       fairly. *)
    ignore (run_tpcc ~commit_cost_us true);
    report "TPC-C"
      (run_tpcc ~commit_cost_us false)
      (run_tpcc ~commit_cost_us true)
      "-30.6%";
    ignore (run_tpce ~commit_cost_us true);
    report "TPC-E"
      (run_tpce ~commit_cost_us false)
      (run_tpce ~commit_cost_us true)
      "-6.9%";
    print_newline ()
  in
  (* Raw: the bare in-memory engine. Its per-transaction baseline is a few
     microseconds — orders of magnitude below a durable production commit —
     which inflates the *relative* ledger overhead. *)
  round ~commit_cost_us:0.0 "raw in-memory engine";
  (* Calibrated: charge every commit the ~125 us the paper itself measures
     for the (excluded) commit path (§4.1.2), restoring a realistic
     baseline against which the hashing overhead is amortised. *)
  round ~commit_cost_us:125.0
    "with the paper's 125 us durable-commit cost applied"

(* ------------------------------------------------------------------ *)
(* Figure 8: DML latency, 260-byte rows, varying index count *)

(* id INT (4 B) + 8 x VARCHAR(32) at full width = 260 bytes of payload. *)
let wide_columns =
  Column.make "id" Datatype.Int
  :: List.init 8 (fun i ->
         Column.make (Printf.sprintf "c%d" i) (Datatype.Varchar 32))

let wide_row prng id =
  Array.init 9 (fun c ->
      if c = 0 then vi id else vs (Workload.Prng.alnum_string prng 32))

let fig8 () =
  print_endline "=== Figure 8: DML latency (260-byte rows) ===";
  print_endline
    "paper overheads: insert ~+12us/row, delete ~+30us/row, update ~+42us/row\n";
  let index_counts = [ 0; 1; 3; 5 ] in
  let preload = 4000 in
  let cell ~ledgered ~indices op =
    let db =
      Database.create ~block_size:1_000_000 ~clock:(deterministic_clock ())
        ~name:(Printf.sprintf "fig8-%b-%d-%s" ledgered indices op)
        ()
    in
    let table =
      Workload.Wtable.create db ~ledgered ~name:"t" ~columns:wide_columns
        ~key:[ "id" ]
    in
    for i = 1 to indices do
      Database.create_index db ~table:"t"
        ~name:(Printf.sprintf "i%d" i)
        ~columns:[ Printf.sprintf "c%d" (i - 1) ]
    done;
    let prng = Workload.Prng.create 7 in
    let (), _ =
      Database.with_txn db ~user:"bench" (fun txn ->
          for i = 1 to preload do
            Workload.Wtable.insert txn table (wide_row prng i)
          done)
    in
    (* Measure inside a single long transaction: the paper's numbers
       exclude commit cost (§4.1.2). *)
    let txn = Database.begin_txn db ~user:"bench" in
    let next_id = ref preload in
    let us =
      match op with
      | "insert" ->
          us_per_run "insert" (fun () ->
              incr next_id;
              Workload.Wtable.insert txn table (wide_row prng !next_id))
      | "update" ->
          let k = ref 0 in
          us_per_run "update" (fun () ->
              k := (!k mod preload) + 1;
              Workload.Wtable.update txn table ~key:[| vi !k |]
                (wide_row prng !k))
      | "delete" ->
          (* delete+reinsert pair, minus the insert cost *)
          let insert_us =
            us_per_run "insert-ref" (fun () ->
                incr next_id;
                Workload.Wtable.insert txn table (wide_row prng !next_id))
          in
          let k = ref 0 in
          let pair_us =
            us_per_run "delete+insert" (fun () ->
                k := (!k mod preload) + 1;
                Workload.Wtable.delete txn table ~key:[| vi !k |];
                Workload.Wtable.insert txn table (wide_row prng !k))
          in
          Float.max 0.0 (pair_us -. insert_us)
      | _ -> assert false
    in
    ignore (Txn.commit txn);
    us
  in
  Printf.printf "%-8s %-9s" "op" "table";
  List.iter
    (fun n -> Printf.printf " %9s" (Printf.sprintf "%d idx" n))
    index_counts;
  print_newline ();
  List.iter
    (fun op ->
      List.iter
        (fun ledgered ->
          Printf.printf "%-8s %-9s" op
            (if ledgered then "ledger" else "regular");
          List.iter
            (fun indices ->
              Printf.printf " %7.1fus" (cell ~ledgered ~indices op))
            index_counts;
          print_newline ())
        [ false; true ])
    [ "insert"; "update"; "delete" ]

(* ------------------------------------------------------------------ *)
(* Figure 9: verification time vs number of transactions *)

let fig9 () =
  print_endline "=== Figure 9: ledger verification time ===";
  print_endline
    "paper: linear in transaction count (5 rows/txn, 260-byte rows)\n";
  let sweep = [ 200; 500; 1000; 2000; 4000 ] in
  Printf.printf "%14s %16s %20s\n" "transactions" "verify time (s)"
    "us per row version";
  let points =
    List.map
      (fun txns ->
        let db =
          Database.create ~block_size:100_000 ~clock:(deterministic_clock ())
            ~name:(Printf.sprintf "fig9-%d" txns)
            ()
        in
        let table =
          Database.create_ledger_table db ~name:"t" ~columns:wide_columns
            ~key:[ "id" ] ()
        in
        let prng = Workload.Prng.create 9 in
        (* Each transaction updates five rows (the paper's setup). *)
        let next = ref 0 in
        for _ = 1 to txns do
          let (), _ =
            Database.with_txn db ~user:"bench" (fun txn ->
                for _ = 1 to 5 do
                  incr next;
                  Txn.insert txn table (wide_row prng !next)
                done)
          in
          ()
        done;
        let digest = Option.get (Database.generate_digest db) in
        Database.checkpoint db;
        let elapsed =
          Workload.Runner.time (fun () ->
              let report = Verifier.verify db ~digests:[ digest ] in
              assert (Verifier.ok report))
        in
        Printf.printf "%14d %16.3f %20.2f\n" txns elapsed
          (elapsed *. 1e6 /. float_of_int (txns * 5));
        (float_of_int txns, elapsed))
      sweep
  in
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  Printf.printf "\nfitted: %.1f us per transaction (linear, as in the paper)\n"
    (slope *. 1e6)

(* ------------------------------------------------------------------ *)
(* Blockchain comparison (§4.1 narrative) *)

let fabric () =
  print_endline "=== SQL Ledger vs permissioned blockchain (§4.1) ===";
  print_endline
    "paper: >20x Fabric's throughput even against *simpler* Fabric txns;\n\
    \       Fabric latency in the 100s of ms\n";
  (* Fabric's published numbers are for simple asset operations, so the
     like-for-like workload is a simple ledgered transaction (one insert,
     commit); the TPC-C mix is reported alongside as the heavy case. *)
  let simple =
    let db =
      Database.create ~block_size:100_000 ~clock:(deterministic_clock ())
        ~name:"fabric-simple" ()
    in
    let table =
      Database.create_ledger_table db ~name:"assets" ~columns:wide_columns
        ~key:[ "id" ] ()
    in
    let prng = Workload.Prng.create 4 in
    let n = 20_000 in
    let i = ref 0 in
    Workload.Runner.measure ~transactions:n (fun () ->
        for _ = 1 to n do
          incr i;
          let (), _ =
            Database.with_txn db ~user:"client" (fun txn ->
                Txn.insert txn table (wide_row prng !i))
          in
          ()
        done)
  in
  let tpcc =
    let db =
      Database.create ~block_size:100_000 ~clock:(deterministic_clock ())
        ~name:"fabric-tpcc" ()
    in
    let t = Workload.Tpcc.setup db Workload.Tpcc.default_config in
    let prng = Workload.Prng.create 4 in
    Workload.Runner.measure ~transactions:4000 (fun () ->
        ignore (Workload.Tpcc.run t ~prng ~transactions:4000))
  in
  let fabric_sat = Fabric_sim.saturation_tps () in
  let fr = Fabric_sim.simulate ~offered_tps:fabric_sat ~txns:20_000 () in
  Printf.printf "%-32s %14s %16s\n" "system / workload" "tps" "avg latency";
  Printf.printf "%-32s %14.0f %16s\n" "SQL Ledger, simple txns"
    simple.Workload.Runner.tps "microseconds";
  Printf.printf "%-32s %14.0f %16s\n" "SQL Ledger, TPC-C-like mix"
    tpcc.Workload.Runner.tps "microseconds";
  Printf.printf "%-32s %14.0f %13.0f ms\n" "Fabric-like pipeline (simple)"
    fr.Fabric_sim.achieved_tps fr.Fabric_sim.avg_latency_ms;
  Printf.printf
    "\nsimple-vs-simple throughput ratio: %.1fx on one core (paper: >20x on 72)\n"
    (simple.Workload.Runner.tps /. fr.Fabric_sim.achieved_tps)

(* ------------------------------------------------------------------ *)
(* §4.1.2 decomposition: where the ledger overhead goes *)

let decomp () =
  print_endline "=== §4.1.2 overhead decomposition (260-byte rows) ===";
  print_endline
    "paper: insert = hash (~12us); delete = hash + history insert (~30us);\n\
    \       update = 2x hash + history insert (~42us)\n";
  let schema = Schema.make wide_columns in
  let ext_schema = System_columns.extend_schema schema in
  let prng = Workload.Prng.create 77 in
  let row =
    System_columns.set_start ext_schema
      (Array.append (wide_row prng 1)
         [| Value.Null; Value.Null; Value.Null; Value.Null |])
      ~txn_id:1 ~seq:0
  in
  let serialize_us =
    us_per_run "serialize row" (fun () -> Row_codec.serialize ext_schema row)
  in
  (* The production hash path: a reused context fed directly, no
     intermediate serialization string (see the hashpath experiment for the
     old-vs-new comparison). *)
  let hash_ctx = Ledger_crypto.Sha256.init () in
  let hash_us =
    us_per_run "serialize+hash row" (fun () ->
        Row_codec.hash_into hash_ctx ext_schema row)
  in
  let legacy_hash_us =
    us_per_run "legacy hash" (fun () -> Row_codec.hash ext_schema row)
  in
  let sha_us =
    let payload = String.make 300 'x' in
    us_per_run "sha256 300B" (fun () ->
        Ledger_crypto.Sha256.digest_string payload)
  in
  let merkle_us =
    let leaf = Ledger_crypto.Sha256.digest_string "leaf" in
    let acc = ref Merkle.Streaming.empty in
    us_per_run "merkle add_leaf" (fun () ->
        acc := Merkle.Streaming.add_leaf !acc leaf)
  in
  let history =
    Storage.Table_store.create ~name:"h" ~table_id:0 ~schema:ext_schema
      ~key_ordinals:[ 0 ]
  in
  let next = ref 0 in
  let history_us =
    us_per_run "history insert" (fun () ->
        incr next;
        let r = Array.copy row in
        r.(0) <- vi !next;
        Storage.Table_store.insert history r)
  in
  Printf.printf "%-28s %8.2f us\n" "row serialization" serialize_us;
  Printf.printf "%-28s %8.2f us\n" "row serialization + SHA-256" hash_us;
  Printf.printf "%-28s %8.2f us\n" "  (legacy string-building)" legacy_hash_us;
  Printf.printf "%-28s %8.2f us\n" "SHA-256 alone (300 B)" sha_us;
  Printf.printf "%-28s %8.2f us\n" "Merkle tree append" merkle_us;
  Printf.printf "%-28s %8.2f us\n" "history-table insert" history_us;
  let h = hash_us +. merkle_us in
  Printf.printf "\npredicted per-row overheads (paper model):\n";
  Printf.printf "  insert  = hash             = %6.2f us (paper ~12)\n" h;
  Printf.printf "  delete  = hash + history   = %6.2f us (paper ~30)\n"
    (h +. history_us);
  Printf.printf "  update  = 2*hash + history = %6.2f us (paper ~42)\n"
    ((2.0 *. h) +. history_us)

(* ------------------------------------------------------------------ *)
(* hashpath: the allocation-free commit path, old vs new *)

let hashpath () =
  print_endline
    "=== hashpath: allocation-free row hashing + parallel Merkle root ===";
  Printf.printf "host: %d recommended domain(s)\n\n"
    (Domain.recommended_domain_count ());
  let t_start = Unix.gettimeofday () in
  let schema = Schema.make wide_columns in
  let ext_schema = System_columns.extend_schema schema in
  let prng = Workload.Prng.create !bench_seed in
  let row =
    System_columns.set_start ext_schema
      (Array.append (wide_row prng 1)
         [| Value.Null; Value.Null; Value.Null; Value.Null |])
      ~txn_id:1 ~seq:0
  in
  let ctx = Ledger_crypto.Sha256.init () in

  (* 1. Row hashing, string-building vs streamed-into-context. *)
  let old_us =
    us_per_run "hash (buffer)" (fun () -> Row_codec.hash ext_schema row)
  in
  let new_us =
    us_per_run "hash_into" (fun () -> Row_codec.hash_into ctx ext_schema row)
  in

  (* 2. Minor-heap bytes per hash: warm up, then average over many runs so
     one-off lazy initialisation does not pollute the per-row figure. *)
  let alloc_per_run f =
    ignore (f ());
    ignore (f ());
    let runs = 10_000 in
    let before = Gc.allocated_bytes () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int runs
  in
  let old_alloc = alloc_per_run (fun () -> Row_codec.hash ext_schema row) in
  let new_alloc =
    alloc_per_run (fun () -> Row_codec.hash_into ctx ext_schema row)
  in

  (* 3. Block-root aggregation across domains (the per-block transaction
     root of §3.2.2, sized like a busy block). *)
  let nleaves = 100_000 in
  let leaves =
    Array.init nleaves (fun i ->
        Ledger_crypto.Sha256.digest_string (string_of_int i))
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let root_times =
    List.map
      (fun domains ->
        (* best of 3: domain spawn cost is noisy on loaded hosts *)
        let best = ref infinity in
        for _ = 1 to 3 do
          let t =
            Workload.Runner.time (fun () ->
                ignore
                  (Sys.opaque_identity
                     (Merkle.Parallel.root_array ~domains leaves)))
          in
          if t < !best then best := t
        done;
        (domains, !best))
      domain_counts
  in

  Printf.printf "%-34s %10.2f us/row\n" "row hash, string-building (old)" old_us;
  Printf.printf "%-34s %10.2f us/row\n" "row hash, streamed (new)" new_us;
  Printf.printf "%-34s %9.1f%%\n" "improvement"
    ((old_us -. new_us) /. old_us *. 100.0);
  Printf.printf "%-34s %10.0f B/row\n" "allocation, string-building (old)"
    old_alloc;
  Printf.printf "%-34s %10.0f B/row\n" "allocation, streamed (new)" new_alloc;
  Printf.printf "\nblock Merkle root over %d leaves:\n" nleaves;
  Printf.printf "%8s %12s %9s\n" "domains" "time (ms)" "speedup";
  let base = List.assoc 1 root_times in
  List.iter
    (fun (d, t) ->
      Printf.printf "%8d %12.2f %8.2fx\n" d (t *. 1e3) (base /. t))
    root_times;

  if !json_out then
    write_json ~file:"BENCH_hashpath.json"
      ((("experiment", Sjson.String "hashpath")
        :: common_fields ~elapsed_s:(Unix.gettimeofday () -. t_start))
      @ [
          ("row_hash_old_us", Sjson.Float old_us);
          ("row_hash_new_us", Sjson.Float new_us);
          ( "row_hash_improvement_pct",
            Sjson.Float ((old_us -. new_us) /. old_us *. 100.0) );
          ("alloc_old_bytes_per_row", Sjson.Float old_alloc);
          ("alloc_new_bytes_per_row", Sjson.Float new_alloc);
          ("block_root_leaves", Sjson.Int nleaves);
          ( "block_root_ms",
            Sjson.Obj
              (List.map
                 (fun (d, t) -> (string_of_int d, Sjson.Float (t *. 1e3)))
                 root_times) );
        ])

(* ------------------------------------------------------------------ *)
(* serve: closed-loop throughput of the networked ledger service *)

(* N client connections drive a real localhost server (port 0, temp dir)
   with a TPC-C-flavoured mix — mostly writes, a sliver of reads — each
   client confined to its own key range so the load parallelises the way
   independent TPC-C warehouses do. Latency is measured client-side
   around each request/response round trip (closed loop: a client issues
   its next request only after the previous response), throughput as
   completed requests over wall time. A control connection then pulls a
   digest, verifies the ledger over the wire, and cross-checks the
   server's own request counters against what the clients sent. *)

let serve_clients = ref 8
let serve_duration = ref 0.0 (* seconds; 0 = fixed op count per client *)
let serve_migrate = ref false (* add the online-migration interference phase *)
let serve_warmup = ref (-1.0) (* seconds; negative = experiment default *)

(* Group-commit coalescing window in ms; negative = server default.
   `--window 0` benches the queue with no linger. *)
let serve_window_ms = ref (-1.0)

let serve_bench () =
  print_endline "=== serve: concurrent clients vs the ledger server ===";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let clients = !serve_clients and ops_per_client = 400 in
  let dir = Filename.temp_dir "sqlledger-bench" "" in
  let config =
    {
      Ledger_server.Server.default_config with
      port = 0;
      dir;
      db_name = "bench";
      max_connections = clients + 4;
    }
  in
  let config =
    if !serve_window_ms >= 0.0 then
      { config with group_commit_window = !serve_window_ms /. 1000.0 }
    else config
  in
  let srv =
    match Ledger_server.Server.start ~config () with
    | Ok s -> s
    | Error e ->
        failwith (Ledger_server.Server.start_error_to_string e)
  in
  let th = Ledger_server.Server.run_async srv in
  let port = Ledger_server.Server.port srv in
  (if !serve_duration > 0.0 then
     Printf.printf "server on 127.0.0.1:%d, %d clients for %.1f s\n\n" port
       clients !serve_duration
   else
     Printf.printf "server on 127.0.0.1:%d, %d clients x %d requests\n\n" port
       clients ops_per_client);
  let connect () =
    match Wire.Client.connect ~host:"127.0.0.1" ~port () with
    | Ok c -> c
    | Error e -> failwith (Wire.Client.connect_error_to_string e)
  in
  (* Schema and a little seed data, over the wire like everything else. *)
  let setup = connect () in
  let expect_ok what = function
    | Ok r when not (Wire.Protocol.response_is_error r) -> ()
    | Ok r ->
        failwith
          (Printf.sprintf "%s: %s" what (Wire.Protocol.response_kind r))
    | Error e -> failwith (Printf.sprintf "%s: %s" what e)
  in
  expect_ok "create"
    (Wire.Client.call setup
       (Wire.Protocol.Create_table
          {
            name = "bench";
            columns = [ ("id", "int"); ("payload", "varchar(64)") ];
            key = [ "id" ]; ledger = true
          }));
  Wire.Client.close setup;
  (* Closed loop: each client thread owns its own id range and keeps a
     live set so updates and deletes always hit a row it inserted. In
     op-count mode every client issues exactly [ops_per_client]
     requests; in duration mode it issues requests until the shared
     deadline passes. *)
  let latencies = Array.make clients [] in
  let errors = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let deadline =
    if !serve_duration > 0.0 then
      Some (Unix.gettimeofday () +. !serve_duration)
    else None
  in
  let client_loop c_idx =
    let client = connect () in
    let prng = Workload.Prng.create ((!bench_seed * 100) + c_idx) in
    let base = (c_idx + 1) * 1_000_000 in
    let live = ref [] and next = ref 0 in
    let insert () =
      incr next;
      let id = base + !next in
      live := id :: !live;
      Wire.Protocol.Exec
        {
          sql =
            Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" id
              (Workload.Prng.alnum_string prng 64);
        }
    in
    let pick () = List.nth !live (Workload.Prng.int prng (List.length !live)) in
    let more op =
      match deadline with
      | Some d -> Unix.gettimeofday () < d
      | None -> op < ops_per_client
    in
    let op = ref 0 in
    while more !op do
      incr op;
      let req =
        if !live = [] then insert ()
        else
          let r = Workload.Prng.int prng 100 in
          if r < 45 then insert ()
          else if r < 88 then
            Wire.Protocol.Exec
              {
                sql =
                  Printf.sprintf "UPDATE bench SET payload = '%s' WHERE id = %d"
                    (Workload.Prng.alnum_string prng 64)
                    (pick ());
              }
          else if r < 96 then begin
            Atomic.incr reads;
            Wire.Protocol.Query
              {
                sql =
                  Printf.sprintf "SELECT * FROM bench WHERE id = %d" (pick ());
              }
          end
          else begin
            let id = pick () in
            live := List.filter (fun i -> i <> id) !live;
            Wire.Protocol.Exec
              { sql = Printf.sprintf "DELETE FROM bench WHERE id = %d" id }
          end
      in
      let t0 = Unix.gettimeofday () in
      (match Wire.Client.call client req with
      | Ok r when not (Wire.Protocol.response_is_error r) -> ()
      | Ok _ | Error _ -> Atomic.incr errors);
      latencies.(c_idx) <-
        ((Unix.gettimeofday () -. t0) *. 1e6) :: latencies.(c_idx)
    done;
    Wire.Client.close client
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create client_loop i) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total = Array.fold_left (fun a l -> a + List.length l) 0 latencies in
  let tps = float_of_int total /. elapsed in
  let write_rps = float_of_int (total - Atomic.get reads) /. elapsed in
  let all =
    Array.of_list (List.concat (Array.to_list latencies))
  in
  Array.sort compare all;
  let pct p =
    if Array.length all = 0 then 0.0
    else
      all.(min (Array.length all - 1)
             (int_of_float (p /. 100.0 *. float_of_int (Array.length all))))
  in
  (* Control connection: the ledger survived the stampede, provably. *)
  let ctl = connect () in
  let digest_json =
    match Wire.Client.call ctl Wire.Protocol.Digest with
    | Ok (Wire.Protocol.Digest_r j) -> j
    | _ -> failwith "digest failed"
  in
  let verify_ok, versions =
    match
      Wire.Client.call ctl
        (Wire.Protocol.Verify { tables = []; digests = [ digest_json ] })
    with
    | Ok (Wire.Protocol.Verify_r s) ->
        (s.Wire.Protocol.vs_ok, s.Wire.Protocol.vs_versions)
    | _ -> failwith "verify failed"
  in
  let stats_lines =
    match Wire.Client.call ctl Wire.Protocol.Stats with
    | Ok (Wire.Protocol.Stats_r lines) -> lines
    | _ -> []
  in
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let line_value line =
    match String.rindex_opt line ' ' with
    | Some i ->
        float_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> nan
  in
  (* Server-side stat with the given name and kind label, or [nan]. *)
  let stat ?suffix name kind =
    let prefix =
      Printf.sprintf "%s{kind=%S%s}" name kind
        (match suffix with Some s -> "," ^ s | None -> "")
    in
    List.fold_left
      (fun acc line -> if starts_with prefix line then line_value line else acc)
      nan stats_lines
  in
  (* The wire-request cross-check must not count the internal
     commit.batch_size / commit.flush_latency series the group-commit
     leader records — those are per batch, not per request. *)
  let server_requests =
    List.fold_left
      (fun acc line ->
        if
          starts_with "sqlledger_requests_total" line
          && not (starts_with "sqlledger_requests_total{kind=\"commit." line)
        then acc + int_of_float (line_value line)
        else acc)
      0 stats_lines
  in
  let batches = stat "sqlledger_requests_total" "commit.batch_size" in
  let batch_stat s =
    stat "sqlledger_request_latency_us" "commit.batch_size"
      ~suffix:(Printf.sprintf "stat=%S" s)
  in
  let flush_stat s =
    stat "sqlledger_request_latency_us" "commit.flush_latency"
      ~suffix:(Printf.sprintf "stat=%S" s)
  in
  Wire.Client.close ctl;
  Ledger_server.Server.shutdown srv th;
  Printf.printf "%-26s %12d\n" "requests completed" total;
  Printf.printf "%-26s %12d\n" "request errors" (Atomic.get errors);
  Printf.printf "%-26s %12.0f req/s\n" "throughput" tps;
  Printf.printf "%-26s %12.0f req/s (%d reads excluded)\n" "write throughput"
    write_rps (Atomic.get reads);
  Printf.printf "%-26s %12.0f us\n" "latency p50" (pct 50.0);
  Printf.printf "%-26s %12.0f us\n" "latency p95" (pct 95.0);
  Printf.printf "%-26s %12.0f us\n" "latency p99" (pct 99.0);
  Printf.printf "%-26s %12s (%d row versions)\n" "wire verification"
    (if verify_ok then "OK" else "FAILED")
    versions;
  Printf.printf "%-26s %12d (clients sent %d + setup/control)\n"
    "server-counted requests" server_requests total;
  if Float.is_nan batches || batches < 1.0 then
    Printf.printf "%-26s %12s\n" "group commit" "off (no batches)"
  else begin
    Printf.printf "%-26s %12.0f (%.0f us avg flush, %.0f us p95)\n"
      "commit batches" batches (flush_stat "avg") (flush_stat "p95");
    Printf.printf "%-26s %12.1f (p50 %.0f, p95 %.0f, max %.0f)\n"
      "batch size avg" (batch_stat "avg") (batch_stat "p50") (batch_stat "p95")
      (batch_stat "max")
  end;
  if not verify_ok then failwith "post-load ledger verification failed";
  if Atomic.get errors > 0 then failwith "request errors during bench";
  (* --- receipts phase: issuance cost at production commit rate ---
     A dedicated server with small blocks and a signing key, so blocks
     close continuously under load and every receipt carries a
     block-root signature. The same closed-loop insert workload runs
     twice: commits alone, then commits with a receipt batch-fetched,
     parsed and offline-verified for every transaction. Commit latency
     is measured on the Exec calls only, so the comparison isolates
     what issuance costs the write path. *)
  print_endline "\n--- receipts: issuance cost at production rate ---";
  let rc_dir = Filename.temp_dir "sqlledger-bench" "-receipts" in
  let rc_block_size = 32 in
  let rc_config =
    {
      Ledger_server.Server.default_config with
      port = 0;
      dir = rc_dir;
      db_name = "bench";
      max_connections = 16;
      block_size = Some rc_block_size;
      signing_seed = Some "bench-receipts";
    }
  in
  let rc_srv =
    match Ledger_server.Server.start ~config:rc_config () with
    | Ok s -> s
    | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
  in
  let rc_th = Ledger_server.Server.run_async rc_srv in
  let rc_port = Ledger_server.Server.port rc_srv in
  let rc_connect () =
    match Wire.Client.connect ~host:"127.0.0.1" ~port:rc_port () with
    | Ok c -> c
    | Error e -> failwith (Wire.Client.connect_error_to_string e)
  in
  let rc_setup = rc_connect () in
  expect_ok "create (receipts)"
    (Wire.Client.call rc_setup
       (Wire.Protocol.Create_table
          {
            name = "bench";
            columns = [ ("id", "int"); ("payload", "varchar(64)") ];
            key = [ "id" ]; ledger = true
          }));
  Wire.Client.close rc_setup;
  let rc_clients = 4 and rc_ops = 300 in
  let rc_issued = Atomic.make 0 in
  let rc_verified = Atomic.make 0 in
  (* Receipts collected during the run, verified after the workers join:
     the client-side parse + Lamport verification is the receipt
     *holder's* cost, and in this single-process bench it would
     otherwise steal CPU from the server threads and pollute the commit
     latencies the phase exists to compare. *)
  let rc_collected = ref [] in
  let rc_collected_mu = Mutex.create () in
  (* Batch-fetch receipts for [ids], stash them for post-run
     verification; returns the ids the server reported still pending in
     the open block. *)
  let rc_fetch client ids =
    if ids = [] then []
    else
      match
        Wire.Client.call client (Wire.Protocol.Receipts { txn_ids = ids })
      with
      | Ok (Wire.Protocol.Receipts_r { receipts; pending; block_keys }) ->
          (* Cheap: re-attaching shares the batch's key strings, it does
             not copy them. The expensive parse + verify runs post-run. *)
          let receipts = Receipt.inflate_batch ~block_keys receipts in
          Mutex.protect rc_collected_mu (fun () ->
              rc_collected := List.rev_append receipts !rc_collected);
          pending
      | Ok r -> failwith ("receipts fetch: " ^ Wire.Protocol.response_kind r)
      | Error e -> failwith ("receipts fetch: " ^ e)
  in
  let rc_run ~fetch ~phase_idx =
    let lats = Array.make rc_clients [] in
    let worker c_idx =
      let client = rc_connect () in
      let prng =
        Workload.Prng.create ((!bench_seed * 1000) + (phase_idx * 10) + c_idx)
      in
      let base = ((phase_idx * rc_clients) + c_idx + 1) * 1_000_000 in
      let owed = ref [] in
      for i = 1 to rc_ops do
        let sql =
          Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" (base + i)
            (Workload.Prng.alnum_string prng 64)
        in
        let t0 = Unix.gettimeofday () in
        (match Wire.Client.call client (Wire.Protocol.Exec { sql }) with
        | Ok (Wire.Protocol.Affected_r { txn_id = Some id; _ }) ->
            if fetch then owed := id :: !owed
        | Ok r when not (Wire.Protocol.response_is_error r) -> ()
        | Ok r ->
            failwith ("receipts insert: " ^ Wire.Protocol.response_kind r)
        | Error e -> failwith ("receipts insert: " ^ e));
        lats.(c_idx) <- ((Unix.gettimeofday () -. t0) *. 1e6) :: lats.(c_idx);
        if fetch && List.length !owed >= 32 then
          owed := rc_fetch client !owed
      done;
      if fetch then begin
        (* Close the open block so the tail of the run is issuable, then
           drain everything still owed. *)
        (match Wire.Client.call client Wire.Protocol.Digest with
        | Ok (Wire.Protocol.Digest_r _) -> ()
        | _ -> failwith "receipts digest failed");
        let rest = rc_fetch client !owed in
        if rest <> [] then
          failwith
            (Printf.sprintf "%d receipts still pending after block close"
               (List.length rest))
      end;
      Wire.Client.close client
    in
    let threads = List.init rc_clients (fun i -> Thread.create worker i) in
    List.iter Thread.join threads;
    let all = Array.of_list (List.concat (Array.to_list lats)) in
    Array.sort compare all;
    fun p ->
      if Array.length all = 0 then 0.0
      else
        all.(min
               (Array.length all - 1)
               (int_of_float (p /. 100.0 *. float_of_int (Array.length all))))
  in
  let rc_base_pct = rc_run ~fetch:false ~phase_idx:0 in
  let rc_with_pct = rc_run ~fetch:true ~phase_idx:1 in
  (* Offline verification of everything issued: leaf, proof path, block
     hash and the block-root signature, with no database in reach. *)
  List.iter
    (fun j ->
      match Receipt.of_json j with
      | Error e -> failwith ("receipt parse failed: " ^ e)
      | Ok r -> (
          Atomic.incr rc_issued;
          match Receipt.verify r with
          | Ok () -> Atomic.incr rc_verified
          | Error f ->
              failwith
                ("receipt verification failed: " ^ Receipt.failure_to_string f)))
    !rc_collected;
  let rc_ratio =
    if rc_base_pct 50.0 <= 0.0 then 1.0 else rc_with_pct 50.0 /. rc_base_pct 50.0
  in
  (* One digest-anchored verification closes the trust loop: commit a
     row, pin a digest of its block, and check the fetched receipt
     against that digest offline. *)
  let rc_ctl = rc_connect () in
  let rc_anchor_id =
    match
      Wire.Client.call rc_ctl
        (Wire.Protocol.Exec
           { sql = "INSERT INTO bench VALUES (424242, 'anchor')" })
    with
    | Ok (Wire.Protocol.Affected_r { txn_id = Some id; _ }) -> id
    | _ -> failwith "receipts anchor insert failed"
  in
  let rc_digest =
    match Wire.Client.call rc_ctl Wire.Protocol.Digest with
    | Ok (Wire.Protocol.Digest_r j) -> (
        match Digest.of_json j with
        | Ok d -> d
        | Error e -> failwith ("receipts digest parse: " ^ e))
    | _ -> failwith "receipts anchor digest failed"
  in
  let rc_anchored_ok =
    match
      Wire.Client.call rc_ctl
        (Wire.Protocol.Receipts { txn_ids = [ rc_anchor_id ] })
    with
    | Ok (Wire.Protocol.Receipts_r { receipts = [ j ]; pending = []; block_keys })
      -> (
        match Receipt.of_json (List.hd (Receipt.inflate_batch ~block_keys [ j ]))
        with
        | Error e -> failwith ("receipt parse failed: " ^ e)
        | Ok r -> (
            match Receipt.verify ~digest:rc_digest r with
            | Ok () -> true
            | Error f ->
                failwith
                  ("digest-anchored receipt verification failed: "
                  ^ Receipt.failure_to_string f)))
    | _ -> failwith "receipts anchor fetch failed"
  in
  Wire.Client.close rc_ctl;
  Ledger_server.Server.shutdown rc_srv rc_th;
  Printf.printf "%-26s %12.0f us (p95 %.0f)\n" "commit p50 (no receipts)"
    (rc_base_pct 50.0) (rc_base_pct 95.0);
  Printf.printf "%-26s %12.0f us (p95 %.0f)\n" "commit p50 (receipts)"
    (rc_with_pct 50.0) (rc_with_pct 95.0);
  Printf.printf "%-26s %12.3f (gate: < 1.10)\n" "issuance overhead ratio"
    rc_ratio;
  Printf.printf "%-26s %12d (%d verified offline)\n" "receipts issued"
    (Atomic.get rc_issued) (Atomic.get rc_verified);
  Printf.printf "%-26s %12s\n" "digest-anchored receipt"
    (if rc_anchored_ok then "OK" else "FAILED");
  if Atomic.get rc_issued <> Atomic.get rc_verified then
    failwith "some issued receipts failed offline verification";
  (* --- overload phase: a write storm against capped admission ---
     A second server with deliberately low caps, an idle read baseline,
     then an open-loop-shaped storm (32 writers running flat out, far
     beyond the caps) with 4 readers measuring served latency through
     it. The contract under test: overflow writes are refused with the
     *typed* overloaded/deadline_exceeded errors and nothing else, while
     reads stay fast because shedding keeps the machine out of the
     collapse region. *)
  print_endline "\n--- overload: write storm vs admission control ---";
  let odir = Filename.temp_dir "sqlledger-bench" "-overload" in
  let oconfig =
    {
      Ledger_server.Server.default_config with
      port = 0;
      dir = odir;
      db_name = "bench";
      max_connections = 64;
      group_commit_window = 0.002;
      max_inflight = 4;
      max_queue_depth = 8;
    }
  in
  let osrv =
    match Ledger_server.Server.start ~config:oconfig () with
    | Ok s -> s
    | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
  in
  let oth = Ledger_server.Server.run_async osrv in
  let oport = Ledger_server.Server.port osrv in
  let oconnect () =
    match Wire.Client.connect ~host:"127.0.0.1" ~port:oport () with
    | Ok c -> c
    | Error e -> failwith (Wire.Client.connect_error_to_string e)
  in
  let setup = oconnect () in
  expect_ok "overload create"
    (Wire.Client.call setup
       (Wire.Protocol.Create_table
          {
            name = "bench";
            columns = [ ("id", "int"); ("payload", "varchar(64)") ];
            key = [ "id" ]; ledger = true
          }));
  let oprng = Workload.Prng.create 4242 in
  for id = 1 to 200 do
    expect_ok "overload seed"
      (Wire.Client.call setup
         (Wire.Protocol.Exec
            {
              sql =
                Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" id
                  (Workload.Prng.alnum_string oprng 64);
            }))
  done;
  (* Idle baseline: one quiet reader, point reads. *)
  let read_req id =
    Wire.Protocol.Query
      { sql = Printf.sprintf "SELECT * FROM bench WHERE id = %d" id }
  in
  let idle_lats =
    List.init 300 (fun i ->
        let t0 = Unix.gettimeofday () in
        expect_ok "idle read" (Wire.Client.call setup (read_req (1 + (i mod 200))));
        (Unix.gettimeofday () -. t0) *. 1e6)
  in
  Wire.Client.close setup;
  let sorted_pct lats p =
    let a = Array.of_list lats in
    Array.sort compare a;
    if Array.length a = 0 then 0.0
    else
      a.(min (Array.length a - 1)
           (int_of_float (p /. 100.0 *. float_of_int (Array.length a))))
  in
  let idle_p95 = sorted_pct idle_lats 95.0 in
  (* The storm. *)
  let storm_writers = 32 and storm_readers = 4 and storm_s = 2.0 in
  let served_writes = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let deadline_refused = Atomic.make 0 in
  let other_errors = Atomic.make 0 in
  let storm_end = Unix.gettimeofday () +. storm_s in
  let writer w =
    let client = oconnect () in
    let prng = Workload.Prng.create (5000 + w) in
    let base = (w + 1) * 1_000_000 in
    let n = ref 0 in
    while Unix.gettimeofday () < storm_end do
      incr n;
      let req =
        Wire.Protocol.Exec
          {
            sql =
              Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')"
                (base + !n)
                (Workload.Prng.alnum_string prng 64);
          }
      in
      match Wire.Client.call ~deadline_s:0.5 client req with
      | Ok (Wire.Protocol.Error_r { code = Wire.Protocol.Overloaded; _ }) ->
          Atomic.incr shed
      | Ok (Wire.Protocol.Error_r { code = Wire.Protocol.Deadline_exceeded; _ })
        ->
          Atomic.incr deadline_refused
      | Ok r when not (Wire.Protocol.response_is_error r) ->
          Atomic.incr served_writes
      | Ok _ | Error _ -> Atomic.incr other_errors
    done;
    Wire.Client.close client
  in
  let read_lats = Array.make storm_readers [] in
  let reader r =
    let client = oconnect () in
    let prng = Workload.Prng.create (9000 + r) in
    while Unix.gettimeofday () < storm_end do
      let t0 = Unix.gettimeofday () in
      (match
         Wire.Client.call client (read_req (1 + Workload.Prng.int prng 200))
       with
      | Ok rr when not (Wire.Protocol.response_is_error rr) ->
          read_lats.(r) <-
            ((Unix.gettimeofday () -. t0) *. 1e6) :: read_lats.(r)
      | Ok _ | Error _ -> Atomic.incr other_errors)
    done;
    Wire.Client.close client
  in
  let storm_threads =
    List.init storm_writers (fun w -> Thread.create writer w)
    @ List.init storm_readers (fun r -> Thread.create reader r)
  in
  List.iter Thread.join storm_threads;
  (* Server-side counters cross-check the client-side classification. *)
  let octl = oconnect () in
  let ostats =
    match Wire.Client.call octl Wire.Protocol.Stats with
    | Ok (Wire.Protocol.Stats_r lines) -> lines
    | _ -> []
  in
  Wire.Client.close octl;
  let ocounter name =
    let prefix = Printf.sprintf "sqlledger_counter{name=%S}" name in
    List.fold_left
      (fun acc line ->
        if starts_with prefix line then int_of_float (line_value line) else acc)
      0 ostats
  in
  let oqueue_hw =
    let prefix = "sqlledger_high_water{name=\"commit.queue_depth\"}" in
    List.fold_left
      (fun acc line ->
        if starts_with prefix line then int_of_float (line_value line) else acc)
      0 ostats
  in
  Ledger_server.Server.shutdown osrv oth;
  let storm_read_lats = List.concat (Array.to_list read_lats) in
  let storm_read_p99 = sorted_pct storm_read_lats 99.0 in
  let shed_only_errors = Atomic.get other_errors = 0 in
  let reads_bounded =
    (* Served reads must not collapse while writes shed: p99 under storm
       within 5x the idle p95 (with a floor for timer-coarse hosts). *)
    storm_read_p99 <= Float.max (5.0 *. idle_p95) 5000.0
  in
  Printf.printf "%-26s %12.0f us\n" "idle read p95" idle_p95;
  Printf.printf "%-26s %12.0f us (%d reads during storm)\n"
    "storm read p99" storm_read_p99
    (List.length storm_read_lats);
  Printf.printf "%-26s %12d\n" "storm writes served" (Atomic.get served_writes);
  Printf.printf "%-26s %12d (server counted %d)\n" "storm writes shed"
    (Atomic.get shed) (ocounter "server.shed");
  Printf.printf "%-26s %12d (server counted %d)\n" "deadline refusals"
    (Atomic.get deadline_refused)
    (ocounter "server.deadline_exceeded");
  Printf.printf "%-26s %12d\n" "commit queue high-water" oqueue_hw;
  Printf.printf "%-26s %12s\n" "shed errors typed only"
    (if shed_only_errors then "yes" else "NO");
  Printf.printf "%-26s %12s\n" "read p99 bounded"
    (if reads_bounded then "yes" else "NO");
  (* --- migration phase (opt-in via --migrate): OLTP latency beside an
     online copy --- A dedicated server hosts a ledger table taking OLTP
     inserts and a seeded plain staging table. The same closed-loop
     insert workload runs twice: alone, then with `sqlledger migrate`'s
     driver copying staging into a ledger table concurrently, batch by
     committed batch. The comparison isolates what an online migration
     costs foreground commits. *)
  let mg_fields =
    if not !serve_migrate then []
    else begin
      print_endline "\n--- migration: OLTP latency beside an online copy ---";
      let mg_dir = Filename.temp_dir "sqlledger-bench" "-migrate" in
      let mg_config =
        {
          Ledger_server.Server.default_config with
          port = 0;
          dir = mg_dir;
          db_name = "bench";
          max_connections = 16;
        }
      in
      let mg_srv =
        match Ledger_server.Server.start ~config:mg_config () with
        | Ok s -> s
        | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
      in
      let mg_th = Ledger_server.Server.run_async mg_srv in
      let mg_port = Ledger_server.Server.port mg_srv in
      let mg_connect () =
        match Wire.Client.connect ~host:"127.0.0.1" ~port:mg_port () with
        | Ok c -> c
        | Error e -> failwith (Wire.Client.connect_error_to_string e)
      in
      let mg_setup = mg_connect () in
      let mg_create name ledger =
        expect_ok ("create " ^ name)
          (Wire.Client.call mg_setup
             (Wire.Protocol.Create_table
                {
                  name;
                  columns = [ ("id", "int"); ("payload", "varchar(64)") ];
                  key = [ "id" ]; ledger
                }))
      in
      mg_create "bench" true;
      mg_create "staging" false;
      mg_create "tgt" true;
      (* Seed the staging table in multi-row chunks: the copy must run
         long enough to overlap the whole measured workload. *)
      let mg_rows = 10_000 and mg_chunk = 100 in
      let mg_prng = Workload.Prng.create (!bench_seed + 77) in
      let id = ref 0 in
      while !id < mg_rows do
        let tuples =
          List.init mg_chunk (fun k ->
              Printf.sprintf "(%d, '%s')" (!id + k + 1)
                (Workload.Prng.alnum_string mg_prng 64))
        in
        id := !id + mg_chunk;
        expect_ok "seed staging"
          (Wire.Client.call mg_setup
             (Wire.Protocol.Exec
                {
                  sql =
                    "INSERT INTO staging VALUES " ^ String.concat ", " tuples;
                }))
      done;
      Wire.Client.close mg_setup;
      let mg_clients = 4 and mg_ops = 250 in
      let mg_oltp ~phase_idx =
        let lats = Array.make mg_clients [] in
        let worker c_idx =
          let client = mg_connect () in
          let prng =
            Workload.Prng.create
              ((!bench_seed * 500) + (phase_idx * 10) + c_idx)
          in
          let base = ((phase_idx * mg_clients) + c_idx + 1) * 1_000_000 in
          for i = 1 to mg_ops do
            let sql =
              Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" (base + i)
                (Workload.Prng.alnum_string prng 64)
            in
            let t0 = Unix.gettimeofday () in
            (match Wire.Client.call client (Wire.Protocol.Exec { sql }) with
            | Ok r when not (Wire.Protocol.response_is_error r) -> ()
            | Ok r ->
                failwith ("migrate oltp: " ^ Wire.Protocol.response_kind r)
            | Error e -> failwith ("migrate oltp: " ^ e));
            lats.(c_idx) <-
              ((Unix.gettimeofday () -. t0) *. 1e6) :: lats.(c_idx)
          done;
          Wire.Client.close client
        in
        let threads =
          List.init mg_clients (fun i -> Thread.create worker i)
        in
        List.iter Thread.join threads;
        let all = List.concat (Array.to_list lats) in
        fun p -> sorted_pct all p
      in
      let mg_base_pct = mg_oltp ~phase_idx:0 in
      let mg_summary = ref None in
      let migrator =
        Thread.create
          (fun () ->
            let client = mg_connect () in
            (match
               Migrate.Driver.run ~batch:64 ~client ~source:"staging"
                 ~target:"tgt" ()
             with
            | Ok s -> mg_summary := Some s
            | Error e -> failwith ("migration failed: " ^ e));
            Wire.Client.close client)
          ()
      in
      let mg_with_pct = mg_oltp ~phase_idx:1 in
      let mg_oltp_done = Unix.gettimeofday () in
      Thread.join migrator;
      let mg_migration_done = Unix.gettimeofday () in
      let summary =
        match !mg_summary with
        | Some s -> s
        | None -> failwith "migration produced no summary"
      in
      Ledger_server.Server.shutdown mg_srv mg_th;
      if not summary.Migrate.Driver.verified then
        failwith "migration differential check failed under load";
      if summary.Migrate.Driver.rows_copied <> mg_rows then
        failwith
          (Printf.sprintf "migration copied %d of %d rows"
             summary.Migrate.Driver.rows_copied mg_rows);
      let mg_ratio =
        if mg_base_pct 95.0 <= 0.0 then 1.0
        else mg_with_pct 95.0 /. mg_base_pct 95.0
      in
      (* Overlap sanity: if the copy outlived the measured workload the
         comparison really did run beside an active migration. *)
      let mg_overlapped = mg_migration_done >= mg_oltp_done in
      Printf.printf "%-26s %12.0f us (p95 %.0f)\n" "oltp p50 (no migration)"
        (mg_base_pct 50.0) (mg_base_pct 95.0);
      Printf.printf "%-26s %12.0f us (p95 %.0f)\n" "oltp p50 (migration)"
        (mg_with_pct 50.0) (mg_with_pct 95.0);
      Printf.printf "%-26s %12.3f\n" "migration p95 ratio" mg_ratio;
      Printf.printf "%-26s %12d rows in %d batches (differential %s)\n"
        "migrated" summary.Migrate.Driver.rows_copied
        summary.Migrate.Driver.batches
        (if summary.Migrate.Driver.verified then "OK" else "FAILED");
      Printf.printf "%-26s %12s\n" "copy outlived workload"
        (if mg_overlapped then "yes" else "no");
      [
        ("migrate_rows", Sjson.Int mg_rows);
        ("migrate_batches", Sjson.Int summary.Migrate.Driver.batches);
        ("migrate_verified", Sjson.Bool summary.Migrate.Driver.verified);
        ("migrate_baseline_oltp_p50_us", Sjson.Float (mg_base_pct 50.0));
        ("migrate_baseline_oltp_p95_us", Sjson.Float (mg_base_pct 95.0));
        ("migrate_oltp_p50_us", Sjson.Float (mg_with_pct 50.0));
        ("migrate_oltp_p95_us", Sjson.Float (mg_with_pct 95.0));
        ("migrate_oltp_p95_ratio", Sjson.Float mg_ratio);
        ("migrate_overlapped", Sjson.Bool mg_overlapped);
      ]
    end
  in
  if !json_out then begin
    let fnum v = Sjson.Float (if Float.is_nan v then 0.0 else v) in
    let fields =
      (("experiment", Sjson.String "serve")
       :: common_fields ~elapsed_s:elapsed)
      @ [
          ("clients", Sjson.Int clients);
          ("ops_per_client", Sjson.Int ops_per_client);
          ( "group_commit_window_ms",
            Sjson.Float (config.group_commit_window *. 1000.0) );
          ("requests", Sjson.Int total);
          ("reads", Sjson.Int (Atomic.get reads));
          ("errors", Sjson.Int (Atomic.get errors));
          ("throughput_rps", Sjson.Float tps);
          ("write_rps", Sjson.Float write_rps);
          ("latency_p50_us", Sjson.Float (pct 50.0));
          ("latency_p95_us", Sjson.Float (pct 95.0));
          ("latency_p99_us", Sjson.Float (pct 99.0));
          ("verify_ok", Sjson.Bool verify_ok);
          ("row_versions_verified", Sjson.Int versions);
          ("server_counted_requests", Sjson.Int server_requests);
          ("commit_batches", fnum batches);
          ("batch_size_avg", fnum (batch_stat "avg"));
          ("batch_size_p50", fnum (batch_stat "p50"));
          ("batch_size_p95", fnum (batch_stat "p95"));
          ("batch_size_max", fnum (batch_stat "max"));
          ("flush_latency_avg_us", fnum (flush_stat "avg"));
          ("flush_latency_p95_us", fnum (flush_stat "p95"));
          ("overload_max_inflight", Sjson.Int oconfig.max_inflight);
          ("overload_queue_depth_cap", Sjson.Int oconfig.max_queue_depth);
          ("overload_idle_read_p95_us", Sjson.Float idle_p95);
          ("overload_storm_read_p99_us", Sjson.Float storm_read_p99);
          ("overload_storm_reads", Sjson.Int (List.length storm_read_lats));
          ("overload_writes_served", Sjson.Int (Atomic.get served_writes));
          ("overload_writes_shed", Sjson.Int (Atomic.get shed));
          ( "overload_deadline_refusals",
            Sjson.Int (Atomic.get deadline_refused) );
          ("overload_other_errors", Sjson.Int (Atomic.get other_errors));
          ("overload_server_shed_counter", Sjson.Int (ocounter "server.shed"));
          ("overload_queue_depth_high_water", Sjson.Int oqueue_hw);
          ("shed_only_errors", Sjson.Bool shed_only_errors);
          ("overload_read_p99_bounded", Sjson.Bool reads_bounded);
          ("receipt_block_size", Sjson.Int rc_block_size);
          ("receipt_clients", Sjson.Int rc_clients);
          ("receipt_ops_per_client", Sjson.Int rc_ops);
          ("receipt_baseline_commit_p50_us", Sjson.Float (rc_base_pct 50.0));
          ("receipt_baseline_commit_p95_us", Sjson.Float (rc_base_pct 95.0));
          ("receipt_commit_p50_us", Sjson.Float (rc_with_pct 50.0));
          ("receipt_commit_p95_us", Sjson.Float (rc_with_pct 95.0));
          ("receipt_overhead_ratio", Sjson.Float rc_ratio);
          ("receipts_issued", Sjson.Int (Atomic.get rc_issued));
          ("receipts_verified", Sjson.Int (Atomic.get rc_verified));
          ("receipt_digest_anchored", Sjson.Bool rc_anchored_ok);
        ]
      @ mg_fields
    in
    write_json ~file:"BENCH_serve.json" fields
  end

(* ------------------------------------------------------------------ *)
(* replica: read scale-out through a streaming read replica *)

(* The §3.6 promise in throughput form: attach one replica to a loaded
   primary, wait for it to catch up, then drive the same closed-loop
   point-read workload twice — once with every reader pinned to the
   primary, once with the readers split across primary + replica. Both
   phases use the same reader count, so the second phase measures what
   the extra serving node buys, not extra client parallelism. A digest
   pulled from the primary and verified over the wire on the *replica*
   closes the loop: the node that served the reads can prove the data it
   served. *)

let replica_bench () =
  print_endline "=== replica: read scale-out with a streaming replica ===";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let readers = !serve_clients in
  let duration = if !serve_duration > 0.0 then !serve_duration else 5.0 in
  let warmup = if !serve_warmup >= 0.0 then !serve_warmup else 1.0 in
  let cores = Domain.recommended_domain_count () in
  let rows = 1_000 in
  let dir = Filename.temp_dir "sqlledger-bench" "" in
  let rep_dir = Filename.temp_dir "sqlledger-bench" "-rep" in
  let config =
    {
      Ledger_server.Server.default_config with
      port = 0;
      dir;
      db_name = "bench";
      max_connections = readers + 8;
    }
  in
  let srv =
    match Ledger_server.Server.start ~config () with
    | Ok s -> s
    | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
  in
  let th = Ledger_server.Server.run_async srv in
  let port = Ledger_server.Server.port srv in
  let connect port =
    match Wire.Client.connect ~host:"127.0.0.1" ~port () with
    | Ok c -> c
    | Error e -> failwith (Wire.Client.connect_error_to_string e)
  in
  let expect_ok what = function
    | Ok r when not (Wire.Protocol.response_is_error r) -> ()
    | Ok r ->
        failwith (Printf.sprintf "%s: %s" what (Wire.Protocol.response_kind r))
    | Error e -> failwith (Printf.sprintf "%s: %s" what e)
  in
  let setup = connect port in
  expect_ok "create"
    (Wire.Client.call setup
       (Wire.Protocol.Create_table
          {
            name = "bench";
            columns = [ ("id", "int"); ("payload", "varchar(64)") ];
            key = [ "id" ]; ledger = true
          }));
  let prng = Workload.Prng.create !bench_seed in
  for id = 1 to rows do
    expect_ok "load"
      (Wire.Client.call setup
         (Wire.Protocol.Exec
            {
              sql =
                Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" id
                  (Workload.Prng.alnum_string prng 64);
            }))
  done;
  Wire.Client.close setup;
  (* Attach the replica and wait until it has applied the whole load. *)
  let node =
    match
      Ledger_server.Replica_node.start
        ~config:
          {
            Ledger_server.Server.default_config with
            port = 0;
            dir = rep_dir;
            max_connections = readers + 8;
          }
        ~primary_host:"127.0.0.1" ~primary_port:port ()
    with
    | Ok n -> n
    | Error e -> failwith (Ledger_server.Server.start_error_to_string e)
  in
  (* On a multicore host the replica node lives in its own domain: its
     apply thread and its read sessions get a runtime lock of their own,
     so the two serving nodes genuinely run in parallel instead of
     time-slicing one OCaml runtime. On a single core extra domains only
     add switching overhead, so everything stays on the main runtime
     (mirroring Merkle.Parallel's single-core guard). *)
  let use_domains = Domain.recommended_domain_count () > 1 in
  let join_node =
    if use_domains then begin
      let d =
        Domain.spawn (fun () ->
            try Ledger_server.Replica_node.run node with _ -> ())
      in
      fun () -> Domain.join d
    end
    else begin
      let t = Ledger_server.Replica_node.run_async node in
      fun () -> Thread.join t
    end
  in
  let primary_lsn () =
    match Ledger_server.Server.durable srv with
    | Some d ->
        Aries.Wal.last_lsn
          (Database_ledger.wal (Database.ledger (Durable.db d)))
    | None -> 0
  in
  let await_catch_up () =
    let deadline = Unix.gettimeofday () +. 30.0 in
    while
      Repl.Client.last_lsn (Ledger_server.Replica_node.client node)
      <> primary_lsn ()
    do
      if Unix.gettimeofday () > deadline then
        failwith "replica never caught up";
      Thread.delay 0.02
    done
  in
  await_catch_up ();
  let rep_port = Ledger_server.Replica_node.port node in
  Printf.printf "primary on :%d, replica on :%d, %d rows shipped\n" port
    rep_port rows;
  Printf.printf
    "%d readers, %.1f s per phase (%.1f s warmup), %d core(s) recommended\n\n"
    readers duration warmup cores;
  if cores = 1 then
    print_endline
      "note: single-core host — both nodes and all readers time-share one \
       CPU,\nso two-node scale-out is physically capped near 1.0x here; run \
       on a\nmulticore host for the real scale-out number.\n";
  (* Reader threads are grouped into domains (leaving a core's worth for
     the two serving nodes) so client-side work does not serialise
     against the servers on a multicore host; one domain group means
     plain threads on the main runtime. *)
  let reader_domains = if use_domains then max 1 (min 4 (cores - 1)) else 1 in
  (* Closed-loop point reads; each reader owns one connection for the
     whole phase and round-robins over the serving ports by thread id.
     [storm] adds primary-side writers running for the whole phase, to
     measure what concurrent commits do to read tails. *)
  let measure ?(storm = 0) ~duration ports =
    let counts = Array.make readers 0 in
    let latencies = Array.make readers [] in
    let errors = Atomic.make 0 in
    let storm_counts = Array.make (max 1 storm) 0 in
    let stop_storm = Atomic.make false in
    let stop_at = Unix.gettimeofday () +. duration in
    let reader i =
      let client =
        connect (List.nth ports (i mod List.length ports))
      in
      let prng = Workload.Prng.create (9000 + i) in
      while Unix.gettimeofday () < stop_at do
        let id = 1 + Workload.Prng.int prng rows in
        let t0 = Unix.gettimeofday () in
        (match
           Wire.Client.call client
             (Wire.Protocol.Query
                { sql = Printf.sprintf "SELECT * FROM bench WHERE id = %d" id })
         with
        | Ok (Wire.Protocol.Rows_r _) -> counts.(i) <- counts.(i) + 1
        | Ok _ | Error _ -> Atomic.incr errors);
        latencies.(i) <- ((Unix.gettimeofday () -. t0) *. 1e6) :: latencies.(i)
      done;
      Wire.Client.close client
    in
    let storm_writer w =
      let client = connect port in
      let prng = Workload.Prng.create (7000 + w) in
      while not (Atomic.get stop_storm) do
        let id = 1 + Workload.Prng.int prng rows in
        match
          Wire.Client.call client
            (Wire.Protocol.Exec
               {
                 sql =
                   Printf.sprintf "UPDATE bench SET payload = '%s' WHERE id = %d"
                     (Workload.Prng.alnum_string prng 64)
                     id;
               })
        with
        | Ok r when not (Wire.Protocol.response_is_error r) ->
            storm_counts.(w) <- storm_counts.(w) + 1
        | Ok _ | Error _ -> Atomic.incr errors
      done;
      Wire.Client.close client
    in
    let storm_threads =
      List.init storm (fun w -> Thread.create storm_writer w)
    in
    let t0 = Unix.gettimeofday () in
    (if use_domains then begin
       let groups = Array.make reader_domains [] in
       for i = readers - 1 downto 0 do
         groups.(i mod reader_domains) <- i :: groups.(i mod reader_domains)
       done;
       let doms =
         Array.to_list
           (Array.map
              (fun idxs ->
                Domain.spawn (fun () ->
                    List.iter Thread.join
                      (List.map (fun i -> Thread.create reader i) idxs)))
              groups)
       in
       List.iter Domain.join doms
     end
     else
       List.iter Thread.join (List.init readers (fun i -> Thread.create reader i)));
    let elapsed = Unix.gettimeofday () -. t0 in
    Atomic.set stop_storm true;
    List.iter Thread.join storm_threads;
    let total = Array.fold_left ( + ) 0 counts in
    let all = Array.of_list (List.concat (Array.to_list latencies)) in
    Array.sort compare all;
    let pct p =
      if Array.length all = 0 then 0.0
      else
        all.(min
               (Array.length all - 1)
               (int_of_float (p /. 100.0 *. float_of_int (Array.length all))))
    in
    if Atomic.get errors > 0 then failwith "request errors during bench";
    ( float_of_int total /. elapsed,
      pct 50.0,
      pct 95.0,
      total,
      Array.fold_left ( + ) 0 storm_counts )
  in
  let phase ?storm label ports =
    if warmup > 0.0 then
      ignore (measure ?storm ~duration:warmup ports
              : float * float * float * int * int);
    let tps, p50, p95, total, writes = measure ?storm ~duration ports in
    Printf.printf "%-30s %12.0f req/s (p50 %.0f us, p95 %.0f us)%s\n" label
      tps p50 p95
      (if writes > 0 then Printf.sprintf " [%d concurrent writes]" writes
       else "");
    (tps, p50, p95, total, writes)
  in
  let one_tps, one_p50, one_p95, one_total, _ =
    phase "1 node (primary only)" [ port ]
  in
  let two_tps, two_p50, two_p95, two_total, _ =
    phase "2 nodes (primary+replica)" [ port; rep_port ]
  in
  let speedup = if one_tps > 0.0 then two_tps /. one_tps else 0.0 in
  Printf.printf "%-30s %12.2fx\n" "read scale-out" speedup;
  (* Write storm: the same two-node read workload while primary-side
     writers commit continuously. Snapshot reads should keep the read
     tail close to the idle tail — under the old lock discipline the
     writer-preferring Rwlock let a commit stream starve readers. *)
  let storm_tps, storm_p50, storm_p95, storm_total, storm_writes =
    phase ~storm:4 "2 nodes + write storm" [ port; rep_port ]
  in
  let p95_ratio = if two_p95 > 0.0 then storm_p95 /. two_p95 else 0.0 in
  Printf.printf "%-30s %12.2fx (storm p95 / idle p95)\n" "write-storm read tail"
    p95_ratio;
  (* The replica proves what it served: digest from the primary,
     verification over the wire on the secondary. The storm leaves the
     replica momentarily behind, and the §3.6 gate defers digests until
     the replica has acked the latest commits — wait for catch-up and
     ride out the ack race with a short retry. *)
  await_catch_up ();
  let ctl = connect port in
  let digest_json =
    let rec attempt n =
      match Wire.Client.call ctl Wire.Protocol.Digest with
      | Ok (Wire.Protocol.Digest_r j) -> j
      | Ok _ when n > 0 ->
          Thread.delay 0.1;
          attempt (n - 1)
      | _ -> failwith "digest failed"
    in
    attempt 100
  in
  Wire.Client.close ctl;
  (* Digest generation closed a block; that Block_close record ships
     asynchronously, and the replica can only verify the digest once it
     holds the block the digest references. *)
  await_catch_up ();
  let rctl = connect rep_port in
  let verify_ok =
    match
      Wire.Client.call rctl
        (Wire.Protocol.Verify { tables = []; digests = [ digest_json ] })
    with
    | Ok (Wire.Protocol.Verify_r s) -> s.Wire.Protocol.vs_ok
    | _ -> failwith "verify on the replica failed"
  in
  Wire.Client.close rctl;
  Printf.printf "%-30s %12s\n" "replica wire verification"
    (if verify_ok then "OK" else "FAILED");
  Ledger_server.Replica_node.request_shutdown node;
  join_node ();
  Ledger_server.Server.shutdown srv th;
  if not verify_ok then failwith "replica verification failed";
  if !json_out then begin
    let fields =
      (("experiment", Sjson.String "replica")
       :: common_fields ~elapsed_s:duration)
      @ [
          ("readers", Sjson.Int readers);
          ("warmup_s", Sjson.Float warmup);
          ("reader_domains", Sjson.Int reader_domains);
          ("rows", Sjson.Int rows);
          ("one_node_rps", Sjson.Float one_tps);
          ("one_node_p50_us", Sjson.Float one_p50);
          ("one_node_p95_us", Sjson.Float one_p95);
          ("one_node_requests", Sjson.Int one_total);
          ("two_node_rps", Sjson.Float two_tps);
          ("two_node_p50_us", Sjson.Float two_p50);
          ("two_node_p95_us", Sjson.Float two_p95);
          ("two_node_requests", Sjson.Int two_total);
          ("scaleout", Sjson.Float speedup);
          ("storm_writers", Sjson.Int 4);
          ("storm_read_rps", Sjson.Float storm_tps);
          ("storm_read_p50_us", Sjson.Float storm_p50);
          ("storm_read_p95_us", Sjson.Float storm_p95);
          ("storm_read_requests", Sjson.Int storm_total);
          ("storm_writes", Sjson.Int storm_writes);
          ("storm_p95_over_idle_p95", Sjson.Float p95_ratio);
          ("verify_ok", Sjson.Bool verify_ok);
        ]
    in
    write_json ~file:"BENCH_replica.json" fields
  end

(* ------------------------------------------------------------------ *)
(* serve --shards: write scale-out across shard primaries *)

(* N `sqlledger serve` shard primaries plus one `sqlledger coord`, each
   in its own OS process — its own OCaml runtime, so on a multicore host
   the shards commit genuinely in parallel, which no single-process
   simulation can show. Clients fetch the shard map once over the wire
   and route single-shard writes straight to the owning primary (the
   same CRC-32 bucket function the coordinator uses); the coordinator
   sits on the data path only for the cross-shard fraction — multi-row
   inserts whose keys straddle shards, executed under 2PC — and for the
   control plane: schema broadcast, the aggregate digest, and the
   distributed verification that closes the run. *)

let serve_shards = ref 0
let serve_xshard = ref 10 (* percent of ops routed cross-shard *)

let sqlledger_bin () =
  match Sys.getenv_opt "SQLLEDGER_BIN" with
  | Some b -> b
  | None ->
      (* bench runs from _build/default/bench/main.exe; the CLI is the
         sibling executable under bin/. *)
      Filename.concat
        (Filename.concat
           (Filename.dirname (Filename.dirname Sys.executable_name))
           "bin")
        "sqlledger.exe"

(* Spawn a sqlledger subcommand and parse the bound port from its
   announcement line ("... on HOST:PORT ..."), which both `serve` and
   `coord` print flushed before entering their accept loops. *)
let spawn_node args =
  let bin = sqlledger_bin () in
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line =
    try input_line ic
    with End_of_file ->
      failwith
        (Printf.sprintf "%s %s exited before announcing its port" bin
           (String.concat " " args))
  in
  let port =
    match String.rindex_opt line ':' with
    | None -> failwith ("cannot parse port from: " ^ line)
    | Some i ->
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        let j = ref 0 in
        while
          !j < String.length rest && rest.[!j] >= '0' && rest.[!j] <= '9'
        do
          incr j
        done;
        int_of_string (String.sub rest 0 !j)
  in
  (pid, ic, port)

let stop_node (pid, ic, _port) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  try close_in ic with _ -> ()

let serve_sharded () =
  let shards = !serve_shards and clients = !serve_clients in
  let xshard = !serve_xshard and ops_per_client = 400 in
  Printf.printf
    "=== serve --shards: %d shard primaries behind a coordinator ===\n" shards;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let shard_nodes =
    List.init shards (fun i ->
        let dir = Filename.temp_dir "sqlledger-bench" (Printf.sprintf "-s%d" i) in
        spawn_node [ "serve"; "--dir"; dir; "--port"; "0" ])
  in
  let shard_ports = Array.of_list (List.map (fun (_, _, p) -> p) shard_nodes) in
  let coord_dir = Filename.temp_dir "sqlledger-bench" "-coord" in
  let coord_node =
    spawn_node
      ([ "coord"; "--dir"; coord_dir; "--port"; "0" ]
      @ List.concat_map
          (fun p -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" p ])
          (Array.to_list shard_ports))
  in
  let _, _, coord_port = coord_node in
  let stop_all () = List.iter stop_node (coord_node :: shard_nodes) in
  try
    let connect port =
      match Wire.Client.connect ~host:"127.0.0.1" ~port () with
      | Ok c -> c
      | Error e -> failwith (Wire.Client.connect_error_to_string e)
    in
    let expect_ok what = function
      | Ok r when not (Wire.Protocol.response_is_error r) -> ()
      | Ok r ->
          failwith
            (Printf.sprintf "%s: %s" what (Wire.Protocol.response_kind r))
      | Error e -> failwith (Printf.sprintf "%s: %s" what e)
    in
    (* Control plane: schema broadcast + the authoritative shard map. *)
    let setup = connect coord_port in
    expect_ok "create"
      (Wire.Client.call setup
         (Wire.Protocol.Create_table
            {
              name = "bench";
              columns = [ ("id", "int"); ("payload", "varchar(64)") ];
              key = [ "id" ]; ledger = true
            }));
    let epoch, map_shards =
      match Wire.Client.call setup Wire.Protocol.Shard_map with
      | Ok (Wire.Protocol.Shard_map_r { epoch; shards }) -> (epoch, shards)
      | Ok r -> failwith ("shard_map: " ^ Wire.Protocol.response_kind r)
      | Error e -> failwith ("shard_map: " ^ e)
    in
    Wire.Client.close setup;
    if List.length map_shards <> shards then
      failwith "coordinator map disagrees with the spawned topology";
    Printf.printf
      "coordinator on :%d (map epoch %d), shards on %s\n\
       %d clients, %d%% cross-shard, %s\n\n"
      coord_port epoch
      (String.concat ", "
         (List.map (fun (_, p) -> Printf.sprintf ":%d" p) map_shards))
      clients xshard
      (if !serve_duration > 0.0 then Printf.sprintf "%.1f s" !serve_duration
       else Printf.sprintf "%d ops each" ops_per_client);
    let shard_of id =
      Shard.Shard_map.bucket_of_key ~shard_count:shards ~table:"bench"
        [ Relation.Value.int id ]
    in
    let latencies = Array.make clients [] in
    let reads = Atomic.make 0 in
    let xshard_ops = Atomic.make 0 in
    let typed_errors = Atomic.make 0 in
    let untyped_errors = Atomic.make 0 in
    let deadline =
      if !serve_duration > 0.0 then
        Some (Unix.gettimeofday () +. !serve_duration)
      else None
    in
    let client_loop c_idx =
      let coord = connect coord_port in
      let shard_conns = Array.map connect shard_ports in
      let prng = Workload.Prng.create ((!bench_seed * 100) + c_idx) in
      let base = (c_idx + 1) * 1_000_000 in
      let next = ref 0 in
      let fresh_id () =
        incr next;
        base + !next
      in
      let live = ref [] in
      let pick () =
        List.nth !live (Workload.Prng.int prng (List.length !live))
      in
      let more op =
        match deadline with
        | Some d -> Unix.gettimeofday () < d
        | None -> op < ops_per_client
      in
      let op = ref 0 in
      while more !op do
        incr op;
        let r = Workload.Prng.int prng 100 in
        let conn, is_coord, req =
          if r < xshard then begin
            (* Cross-shard: one four-row insert through the coordinator.
               Under CRC-32 placement four fresh keys straddle shards
               essentially always, so this lands on the 2PC path. *)
            Atomic.incr xshard_ops;
            let rows =
              List.init 4 (fun _ ->
                  let id = fresh_id () in
                  live := id :: !live;
                  Printf.sprintf "(%d, '%s')" id
                    (Workload.Prng.alnum_string prng 32))
            in
            ( coord,
              true,
              Wire.Protocol.Exec
                {
                  sql =
                    "INSERT INTO bench (id, payload) VALUES "
                    ^ String.concat ", " rows;
                } )
          end
          else if r < xshard + 55 || !live = [] then begin
            let id = fresh_id () in
            live := id :: !live;
            ( shard_conns.(shard_of id),
              false,
              Wire.Protocol.Exec
                {
                  sql =
                    Printf.sprintf "INSERT INTO bench VALUES (%d, '%s')" id
                      (Workload.Prng.alnum_string prng 64);
                } )
          end
          else if r < xshard + 80 then begin
            let id = pick () in
            ( shard_conns.(shard_of id),
              false,
              Wire.Protocol.Exec
                {
                  sql =
                    Printf.sprintf
                      "UPDATE bench SET payload = '%s' WHERE id = %d"
                      (Workload.Prng.alnum_string prng 64)
                      id;
                } )
          end
          else begin
            Atomic.incr reads;
            let id = pick () in
            ( shard_conns.(shard_of id),
              false,
              Wire.Protocol.Query
                {
                  sql = Printf.sprintf "SELECT * FROM bench WHERE id = %d" id;
                } )
          end
        in
        let t0 = Unix.gettimeofday () in
        (match
           if is_coord then Wire.Client.call ~map_epoch:epoch conn req
           else Wire.Client.call conn req
         with
        | Ok r when not (Wire.Protocol.response_is_error r) -> ()
        | Ok (Wire.Protocol.Error_r _) -> Atomic.incr typed_errors
        | Ok _ | Error _ -> Atomic.incr untyped_errors);
        latencies.(c_idx) <-
          ((Unix.gettimeofday () -. t0) *. 1e6) :: latencies.(c_idx)
      done;
      Array.iter Wire.Client.close shard_conns;
      Wire.Client.close coord
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create client_loop i) in
    List.iter Thread.join threads;
    let elapsed = Unix.gettimeofday () -. t0 in
    let total = Array.fold_left (fun a l -> a + List.length l) 0 latencies in
    let tps = float_of_int total /. elapsed in
    let write_rps = float_of_int (total - Atomic.get reads) /. elapsed in
    let all = Array.of_list (List.concat (Array.to_list latencies)) in
    Array.sort compare all;
    let pct p =
      if Array.length all = 0 then 0.0
      else
        all.(min
               (Array.length all - 1)
               (int_of_float (p /. 100.0 *. float_of_int (Array.length all))))
    in
    (* The run must end provably intact: one aggregate digest covering
       every shard, then a distributed verification against it. *)
    let ctl = connect coord_port in
    let digest_json =
      match Wire.Client.call ctl Wire.Protocol.Digest with
      | Ok (Wire.Protocol.Digest_r j) -> j
      | _ -> failwith "aggregate digest failed"
    in
    let verify_ok, versions =
      match
        Wire.Client.call ctl
          (Wire.Protocol.Verify { tables = []; digests = [ digest_json ] })
      with
      | Ok (Wire.Protocol.Verify_r s) ->
          (s.Wire.Protocol.vs_ok, s.Wire.Protocol.vs_versions)
      | _ -> failwith "distributed verify failed"
    in
    let coord_stat name =
      match Wire.Client.call ctl Wire.Protocol.Stats with
      | Ok (Wire.Protocol.Stats_r lines) ->
          List.fold_left
            (fun acc line ->
              match String.rindex_opt line ' ' with
              | Some i
                when String.sub line 0 i = name ->
                  int_of_string
                    (String.sub line (i + 1) (String.length line - i - 1))
              | _ -> acc)
            (-1) lines
      | _ -> -1
    in
    let twopc_commit = coord_stat "coord.txn_2pc_commit" in
    let twopc_abort = coord_stat "coord.txn_2pc_abort" in
    let onepc = coord_stat "coord.txn_1pc" in
    Wire.Client.close ctl;
    stop_all ();
    Printf.printf "%-26s %12d\n" "requests completed" total;
    Printf.printf "%-26s %12d (typed %d, untyped %d)\n" "request errors"
      (Atomic.get typed_errors + Atomic.get untyped_errors)
      (Atomic.get typed_errors) (Atomic.get untyped_errors);
    Printf.printf "%-26s %12.0f req/s\n" "throughput" tps;
    Printf.printf "%-26s %12.0f req/s (%d reads excluded)\n" "write throughput"
      write_rps (Atomic.get reads);
    Printf.printf "%-26s %12.0f us\n" "latency p50" (pct 50.0);
    Printf.printf "%-26s %12.0f us\n" "latency p95" (pct 95.0);
    Printf.printf "%-26s %12.0f us\n" "latency p99" (pct 99.0);
    Printf.printf "%-26s %12d (2PC commits %d, aborts %d, 1PC %d)\n"
      "cross-shard ops" (Atomic.get xshard_ops) twopc_commit twopc_abort onepc;
    Printf.printf "%-26s %12s (%d row versions across %d shards)\n"
      "distributed verification"
      (if verify_ok then "OK" else "FAILED")
      versions shards;
    if not verify_ok then failwith "distributed verification failed";
    if Atomic.get untyped_errors > 0 then
      failwith "untyped request errors during sharded bench";
    if !json_out then
      write_json ~file:"BENCH_serve_sharded.json"
        ((("experiment", Sjson.String "serve_sharded")
          :: common_fields ~elapsed_s:elapsed)
        @ [
            ("shards", Sjson.Int shards);
            ("clients", Sjson.Int clients);
            ("ops_per_client", Sjson.Int ops_per_client);
            ("xshard_pct", Sjson.Int xshard);
            ("map_epoch", Sjson.Int epoch);
            ("requests", Sjson.Int total);
            ("reads", Sjson.Int (Atomic.get reads));
            ("errors_typed", Sjson.Int (Atomic.get typed_errors));
            ("errors_untyped", Sjson.Int (Atomic.get untyped_errors));
            ("throughput_rps", Sjson.Float tps);
            ("write_rps", Sjson.Float write_rps);
            ("latency_p50_us", Sjson.Float (pct 50.0));
            ("latency_p95_us", Sjson.Float (pct 95.0));
            ("latency_p99_us", Sjson.Float (pct 99.0));
            ("xshard_ops", Sjson.Int (Atomic.get xshard_ops));
            ("twopc_commits", Sjson.Int twopc_commit);
            ("twopc_aborts", Sjson.Int twopc_abort);
            ("onepc_commits", Sjson.Int onepc);
            ("verify_ok", Sjson.Bool verify_ok);
            ("row_versions_verified", Sjson.Int versions);
            ("baseline_file", Sjson.String "BENCH_serve.json");
          ])
  with e ->
    stop_all ();
    raise e

(* ------------------------------------------------------------------ *)
(* Ablations over the design choices DESIGN.md calls out *)

let ablation () =
  print_endline "=== Ablations ===";

  (* 1. Block size: the paper picks 100K txns/block to amortise block cost
     and keep external verification block-granular; the cost of the choice
     is receipt proof length and block-close latency. *)
  print_endline "\n-- block size (2000 txns, 1 row each) --";
  Printf.printf "%10s %8s %14s %16s %14s\n" "block size" "blocks"
    "digest (us)" "verify time (s)" "proof steps";
  List.iter
    (fun block_size ->
      let db =
        Database.create ~block_size ~clock:(deterministic_clock ())
          ~name:(Printf.sprintf "abl-bs-%d" block_size)
          ()
      in
      let table =
        Database.create_ledger_table db ~name:"t" ~columns:wide_columns
          ~key:[ "id" ] ()
      in
      let prng = Workload.Prng.create 11 in
      for i = 1 to 2000 do
        let (), _ =
          Database.with_txn db ~user:"a" (fun txn ->
              Txn.insert txn table (wide_row prng i))
        in
        ()
      done;
      let digest_us =
        let t0 = Unix.gettimeofday () in
        let d = Option.get (Database.generate_digest db) in
        let dt = (Unix.gettimeofday () -. t0) *. 1e6 in
        ignore d;
        dt
      in
      Database.checkpoint db;
      let d = Option.get (Database.generate_digest db) in
      let verify_s =
        Workload.Runner.time (fun () ->
            assert (Verifier.ok (Verifier.verify db ~digests:[ d ])))
      in
      let proof_steps =
        match Receipt.generate db ~txn_id:2 with
        | Ok r -> Merkle.Proof.length r.Receipt.proof
        | Error _ -> -1
      in
      let blocks = List.length (Database_ledger.blocks (Database.ledger db)) in
      Printf.printf "%10d %8d %14.1f %16.3f %14d\n" block_size blocks
        digest_us verify_s proof_steps)
    [ 10; 100; 1000; 100_000 ];

  (* 2. Parallel verification (the paper leans on parallel query
     execution): domains vs tables. *)
  Printf.printf
    "\n-- parallel verification (8 tables x 500 txns; host has %d core(s)) --\n"
    (Domain.recommended_domain_count ());
  let db =
    Database.create ~block_size:100_000 ~clock:(deterministic_clock ())
      ~name:"abl-par" ()
  in
  let tables =
    List.init 8 (fun i ->
        Database.create_ledger_table db
          ~name:(Printf.sprintf "t%d" i)
          ~columns:wide_columns ~key:[ "id" ] ())
  in
  let prng = Workload.Prng.create 3 in
  List.iter
    (fun table ->
      for i = 1 to 500 do
        let (), _ =
          Database.with_txn db ~user:"a" (fun txn ->
              Txn.insert txn table (wide_row prng i))
        in
        ()
      done)
    tables;
  let d = Option.get (Database.generate_digest db) in
  Database.checkpoint db;
  Printf.printf "%6s %16s %9s\n" "jobs" "verify time (s)" "speedup";
  let base = ref 0.0 in
  List.iter
    (fun jobs ->
      let t =
        Workload.Runner.time (fun () ->
            assert (Verifier.ok (Verifier.verify ~jobs db ~digests:[ d ])))
      in
      if jobs = 1 then base := t;
      Printf.printf "%6d %16.3f %8.2fx\n" jobs t (!base /. t))
    [ 1; 2; 4; 8 ];

  (* 3. Streaming Merkle state (§3.2.1): O(log N) space. *)
  print_endline "\n-- streaming Merkle accumulator state --";
  Printf.printf "%12s %14s\n" "leaves" "pending nodes";
  List.iter
    (fun n ->
      let leaf = Ledger_crypto.Sha256.digest_string "x" in
      let acc = ref Merkle.Streaming.empty in
      for _ = 1 to n do
        acc := Merkle.Streaming.add_leaf !acc leaf
      done;
      Printf.printf "%12d %14d\n" n
        (List.length (Merkle.Streaming.levels !acc)))
    [ 100; 10_000; 1_000_000 ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("fabric", fabric);
    ("decomp", decomp); ("hashpath", hashpath);
    ("serve", fun () -> if !serve_shards > 0 then serve_sharded () else serve_bench ());
    ("replica", replica_bench); ("ablation", ablation);
  ]

let usage () =
  Printf.eprintf
    "usage: bench [--json] [--clients N] [--duration S] [--warmup S] \
     [--window MS] [--shards N] [--xshard PCT] [--seed N] [--migrate] \
     [experiment ...]\n";
  exit 1

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
        json_out := true;
        parse acc rest
    | "--clients" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            serve_clients := v;
            parse acc rest
        | _ -> usage ())
    | "--duration" :: s :: rest -> (
        match float_of_string_opt s with
        | Some v when v > 0.0 ->
            serve_duration := v;
            parse acc rest
        | _ -> usage ())
    | "--warmup" :: s :: rest -> (
        match float_of_string_opt s with
        | Some v when v >= 0.0 ->
            serve_warmup := v;
            parse acc rest
        | _ -> usage ())
    | "--window" :: ms :: rest -> (
        match float_of_string_opt ms with
        | Some v when v >= 0.0 ->
            serve_window_ms := v;
            parse acc rest
        | _ -> usage ())
    | "--shards" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            serve_shards := v;
            parse acc rest
        | _ -> usage ())
    | "--xshard" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 0 && v <= 100 ->
            serve_xshard := v;
            parse acc rest
        | _ -> usage ())
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 0 ->
            bench_seed := v;
            parse acc rest
        | _ -> usage ())
    | "--migrate" :: rest ->
        serve_migrate := true;
        parse acc rest
    | ("--clients" | "--duration" | "--warmup" | "--window" | "--shards"
      | "--xshard" | "--seed")
      :: [] ->
        usage ()
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with [] -> List.map fst experiments | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          f ();
          print_newline ()
      | None ->
          Printf.eprintf "unknown experiment %s (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested
