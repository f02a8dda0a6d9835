(* sqlledger — command-line front end.

   demo    scripted walk-through of the paper's Figure 2 scenario
   shell   interactive SQL + ledger commands over a demo database
   fabric  run the blockchain-baseline latency model
*)

open Relation
open Sql_ledger

let vi = Value.int
let vs s = Value.String s

(* ------------------------------------------------------------------ *)
(* Shared demo database: the Figure 2 accounts table. *)

let make_demo_db () =
  let db =
    Database.create ~block_size:4 ~signing_seed:"sqlledger-cli" ~name:"demo" ()
  in
  let accounts =
    Database.create_ledger_table db ~name:"accounts"
      ~columns:
        [
          Column.make "name" (Datatype.Varchar 40);
          Column.make "balance" Datatype.Int;
        ]
      ~key:[ "name" ] ()
  in
  let exec user f = ignore (Database.with_txn db ~user f) in
  exec "nick" (fun t -> Txn.insert t accounts [| vs "Nick"; vi 50 |]);
  exec "john" (fun t -> Txn.insert t accounts [| vs "John"; vi 500 |]);
  exec "joe" (fun t -> Txn.insert t accounts [| vs "Joe"; vi 30 |]);
  exec "mary" (fun t -> Txn.insert t accounts [| vs "Mary"; vi 200 |]);
  exec "nick" (fun t ->
      Txn.update t accounts ~key:[| vs "Nick" |] [| vs "Nick"; vi 100 |]);
  exec "joe" (fun t -> Txn.delete t accounts ~key:[| vs "Joe" |]);
  (db, accounts)

(* ------------------------------------------------------------------ *)
(* demo *)

let run_demo () =
  let db, accounts = make_demo_db () in
  print_endline "== SQL Ledger demo (paper Figure 2) ==\n";
  print_endline "Current table:";
  Format.printf "%a@." Sqlexec.Rel.pp (Database.query db "SELECT * FROM accounts");
  print_endline "Ledger view (all operations, with transaction ids):";
  Format.printf "%a@." Sqlexec.Rel.pp
    (Database.query db "SELECT * FROM accounts__ledger_view");
  let digest = Option.get (Database.generate_digest db) in
  print_endline "Database digest:";
  print_endline (Digest.to_string digest);
  let report = Verifier.verify db ~digests:[ digest ] in
  Format.printf "@.%a@.@." Verifier.pp_report report;
  print_endline "Tampering with John's balance directly in storage...";
  ignore
    (Storage.Table_store.Raw.overwrite_value (Ledger_table.main accounts)
       ~key:[| vs "John" |] ~ordinal:1 (vi 9));
  let report = Verifier.verify db ~digests:[ digest ] in
  Format.printf "%a@." Verifier.pp_report report;
  if Verifier.ok report then 1 else 0

(* ------------------------------------------------------------------ *)
(* shell *)

let shell_help =
  "Enter SQL (SELECT / INSERT / UPDATE / DELETE) or a command:\n\
  \  .tables                          list queryable relations\n\
  \  .digest                          generate + remember a database digest\n\
  \  .verify                          verify against all remembered digests\n\
  \  .receipt <txn_id>                generate a transaction receipt\n\
  \  .tamper <name> <balance>         overwrite a stored balance (attack)\n\
  \  .save <file>                     snapshot the database to a JSON file\n\
  \  .help                            this message\n\
  \  .quit                            exit"

let run_shell load =
  let db, accounts =
    match load with
    | None -> make_demo_db ()
    | Some path -> (
        match Snapshot.load_from_file ~path () with
        | Error e ->
            Printf.eprintf "cannot load %s: %s; starting the demo database\n"
              path e;
            make_demo_db ()
        | Ok db ->
            Printf.printf "loaded snapshot %s\n" path;
            let accounts =
              match Database.find_ledger_table db "accounts" with
              | Some lt -> lt
              | None -> (
                  match Database.user_ledger_tables db with
                  | lt :: _ -> lt
                  | [] -> failwith "snapshot has no ledger tables")
            in
            (db, accounts))
  in
  let digests = ref [] in
  print_endline "sqlledger shell — demo database loaded (table: accounts)";
  print_endline shell_help;
  let continue = ref true in
  while !continue do
    print_string "ledger> ";
    (match In_channel.input_line stdin with
    | None -> continue := false
    | Some line -> (
        let line = String.trim line in
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        try
          match words with
          | [] -> ()
          | [ ".quit" ] | [ ".exit" ] -> continue := false
          | [ ".help" ] -> print_endline shell_help
          | [ ".tables" ] ->
              List.iter
                (fun lt ->
                  let n = Ledger_table.name lt in
                  Printf.printf "%s  %s__history  %s__ledger_view  %s__versions\n"
                    n n n n)
                (Database.ledger_tables db);
              print_endline "database_ledger_transactions  database_ledger_blocks"
          | [ ".digest" ] -> (
              match Database.generate_digest db with
              | Some d ->
                  digests := d :: !digests;
                  print_endline (Digest.to_string d)
              | None -> print_endline "nothing committed yet")
          | [ ".verify" ] ->
              Format.printf "%a@." Verifier.pp_report
                (Verifier.verify db ~digests:!digests)
          | [ ".receipt"; txn ] -> (
              match Receipt.generate db ~txn_id:(int_of_string txn) with
              | Ok r -> print_endline (Receipt.to_string r)
              | Error e -> print_endline ("error: " ^ e))
          | [ ".tamper"; name; balance ] ->
              if
                Storage.Table_store.Raw.overwrite_value
                  (Ledger_table.main accounts) ~key:[| vs name |] ~ordinal:1
                  (vi (int_of_string balance))
              then print_endline "stored row mutated behind the ledger's back"
              else print_endline "no such row"
          | [ ".save"; file ] ->
              Snapshot.save_to_file db ~path:file;
              Printf.printf "saved to %s\n" file
          | w :: _ when String.length w > 0 && w.[0] = '.' ->
              print_endline "unknown command; try .help"
          | _ ->
              Format.printf "%a@." Dml.pp_result
                (Dml.execute db ~user:"shell" line)
        with
        | Sqlexec.Parser.Parse_error e
        | Sqlexec.Executor.Exec_error e
        | Types.Ledger_error e
        | Failure e ->
            print_endline ("error: " ^ e)
        | Sqlexec.Lexer.Lex_error e -> print_endline ("error: " ^ e)
        | Storage.Table_store.Duplicate_key e ->
            print_endline ("error: duplicate key " ^ e)
        | Storage.Table_store.Not_found_key e ->
            print_endline ("error: no such key " ^ e)))
  done;
  0

(* ------------------------------------------------------------------ *)
(* fabric *)

let run_fabric offered txns =
  let r = Fabric_sim.simulate ~offered_tps:offered ~txns () in
  Printf.printf
    "offered %.0f tps over %d txns:\n\
    \  achieved  %.0f tps (saturation %.0f)\n\
    \  latency   avg %.0f ms, p50 %.0f ms, p99 %.0f ms\n"
    r.Fabric_sim.offered_tps txns r.Fabric_sim.achieved_tps
    (Fabric_sim.saturation_tps ()) r.Fabric_sim.avg_latency_ms
    r.Fabric_sim.p50_latency_ms r.Fabric_sim.p99_latency_ms;
  0

(* ------------------------------------------------------------------ *)
(* verify *)

let run_verify snapshot digest_files jobs tables =
  match Snapshot.load_from_file ~path:snapshot () with
  | Error e ->
      Printf.eprintf "cannot load %s: %s\n" snapshot e;
      1
  | Ok db -> (
      let parse_digest path =
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e -> Error e
        | contents -> Digest.of_string contents
      in
      let rec load_digests acc = function
        | [] -> Ok (List.rev acc)
        | path :: rest -> (
            match parse_digest path with
            | Ok d -> load_digests (d :: acc) rest
            | Error e -> Error (path ^ ": " ^ e))
      in
      match load_digests [] digest_files with
      | Error e ->
          Printf.eprintf "cannot read digest: %s\n" e;
          1
      | Ok digests -> (
          let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
          match
            List.find_opt
              (fun n -> Database.find_ledger_table db n = None)
              tables
          with
          | Some missing ->
              Printf.eprintf "no such ledger table: %s\n" missing;
              1
          | None ->
          let tables = if tables = [] then None else Some tables in
          if digests = [] then
            print_endline
              "note: no --digest supplied; checking internal consistency only \
               (invariants 2-5), with no external anchor";
          let report = Verifier.verify ?tables ~jobs db ~digests in
          Format.printf "%a@." Verifier.pp_report report;
          if Verifier.ok report then 0 else 1))

(* ------------------------------------------------------------------ *)
(* failpoints *)

let run_failpoints () =
  (* Touch the modules that register failpoints at initialisation so the
     linker keeps them (and their registrations) in this binary. *)
  ignore (Durable.wal_path "." : string);
  ignore (Trusted_store.Worm_store.escape_blob_name "" : string);
  List.iter print_endline (Fault.points ());
  0

(* ------------------------------------------------------------------ *)
(* recover *)

let run_recover failpoints wal snapshot verify_flag =
  List.iter (fun (name, mode) -> Fault.set name mode) failpoints;
  match Wal_replay.replay_file ?snapshot_path:snapshot ~wal_path:wal () with
  | exception (Fault.Injected_crash e | Fault.Injected_error e) ->
      Printf.eprintf "fault injected: %s\n" e;
      2
  | Error e ->
      Printf.eprintf "recovery failed: %s\n" e;
      1
  | Ok db ->
      Printf.printf "recovered database %s (%d ledger tables)\n"
        (Database.database_id db)
        (List.length (Database.ledger_tables db));
      if verify_flag then begin
        let report = Verifier.verify db ~digests:[] in
        Format.printf "%a@." Verifier.pp_report report;
        if Verifier.ok report then 0 else 1
      end
      else 0

(* ------------------------------------------------------------------ *)
(* serve *)

(* Load the deployment's shared principal-auth secret. The wire carries
   HMAC tags keyed by these file contents (trimmed, so a trailing
   newline from `echo` doesn't silently change the key). *)
let load_auth_secret = function
  | None -> Ok None
  | Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error e -> Error e
      | contents -> (
          match String.trim contents with
          | "" -> Error (path ^ " is empty")
          | secret -> Ok (Some secret)))

let split_hostport flag s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%s expects HOST:PORT, got %s" flag s)
  | Some i -> (
      match
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some p when p > 0 -> Ok (String.sub s 0 i, p)
      | _ -> Error (Printf.sprintf "%s: bad port in %s" flag s))

(* What a launcher hands [run_daemon] once its daemon is bound. *)
type daemon = {
  stop : unit -> unit;  (* async-signal-safe shutdown request *)
  stats : (unit -> unit) option;  (* SIGUSR1: dump metrics *)
  banner : string;
  run : unit -> unit;  (* blocks until drained *)
}

(* The lifecycle shared by serve, replica and coord.
   Exit codes (documented in README.md):
     0  clean shutdown (SIGTERM/SIGINT drained)
     1  startup failure other than the port (bad flags, recovery failed)
     2  port already in use, or an injected fault crashed the daemon *)
let run_daemon cmd ~failpoints ?auth_secret_file start =
  List.iter (fun (n, m) -> Fault.set n m) failpoints;
  let started =
    match load_auth_secret auth_secret_file with
    | Error e -> Error (Wire.Listener.Startup ("--auth-secret: " ^ e))
    | Ok auth_secret -> start auth_secret
  in
  match started with
  | Error (Wire.Listener.Port_in_use msg) ->
      Printf.eprintf "sqlledger %s: cannot listen on %s\n" cmd msg;
      2
  | Error (Wire.Listener.Startup msg) ->
      Printf.eprintf "sqlledger %s: %s\n" cmd msg;
      1
  | Ok d -> (
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let stop = Sys.Signal_handle (fun _ -> d.stop ()) in
      Sys.set_signal Sys.sigterm stop;
      Sys.set_signal Sys.sigint stop;
      Option.iter
        (fun f -> Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> f ())))
        d.stats;
      Printf.printf "sqlledger: %s\n%!" d.banner;
      match d.run () with
      | () -> 0
      | exception (Fault.Injected_crash e | Fault.Injected_error e) ->
          Printf.eprintf "fault injected: %s\n" e;
          2)

let run_serve dir port host name max_conns max_frame idle_timeout
    request_timeout group_commit_window_ms max_inflight queue_depth
    block_size signing_seed auth_secret_file failpoints =
  run_daemon "serve" ~failpoints ?auth_secret_file (fun auth_secret ->
      let module Server = Ledger_server.Server in
      let config =
        {
          Server.default_config with
          host;
          port;
          dir;
          db_name = name;
          max_connections = max_conns;
          max_frame;
          idle_timeout;
          request_timeout;
          group_commit_window = group_commit_window_ms /. 1000.0;
          max_inflight;
          max_queue_depth = queue_depth;
          block_size = (if block_size > 0 then Some block_size else None);
          signing_seed = (if signing_seed = "" then None else Some signing_seed);
          auth_secret;
        }
      in
      Result.map
        (fun srv ->
          {
            stop = (fun () -> Server.request_shutdown srv);
            stats = Some (fun () -> Server.request_stats srv);
            banner =
              Printf.sprintf "serving %s on %s:%d (SIGUSR1 dumps metrics)" dir
                host (Server.port srv);
            run = (fun () -> Server.run srv);
          })
        (Server.start ~config ()))

(* ------------------------------------------------------------------ *)
(* replica / promote *)

let run_replica dir port host primary idle_timeout request_timeout
    auth_secret_file failpoints =
  run_daemon "replica" ~failpoints ?auth_secret_file (fun auth_secret ->
      let module Node = Ledger_server.Replica_node in
      match split_hostport "--primary" primary with
      | Error e -> Error (Wire.Listener.Startup e)
      | Ok (primary_host, primary_port) ->
          let config =
            {
              Ledger_server.Server.default_config with
              host;
              port;
              dir;
              idle_timeout;
              request_timeout;
              auth_secret;
            }
          in
          Result.map
            (fun node ->
              {
                stop = (fun () -> Node.request_shutdown node);
                stats = Some (fun () -> Node.request_stats node);
                banner =
                  Printf.sprintf
                    "replica of %s serving reads from %s on %s:%d (SIGUSR1 \
                     dumps metrics)"
                    primary dir host (Node.port node);
                run = (fun () -> Node.run node);
              })
            (Node.start ~config ~primary_host ~primary_port ()))

(* ------------------------------------------------------------------ *)
(* coord *)

let run_coord dir port host name shards idle_timeout request_timeout
    auth_secret_file failpoints =
  run_daemon "coord" ~failpoints ?auth_secret_file (fun auth_secret ->
      let module Coordinator = Shard.Coordinator in
      let parsed = List.map (split_hostport "--shard") shards in
      match List.find_map (function Error e -> Some e | Ok _ -> None) parsed with
      | Some e -> Error (Wire.Listener.Startup e)
      | None ->
          let config =
            {
              Coordinator.default_config with
              host;
              port;
              dir;
              name;
              idle_timeout;
              request_timeout;
              auth_secret;
            }
          in
          Result.map
            (fun coord ->
              let m = Coordinator.map coord in
              {
                stop = (fun () -> Coordinator.request_shutdown coord);
                stats = None;
                banner =
                  Printf.sprintf
                    "coordinating %d shard(s) (map epoch %d) from %s on %s:%d"
                    (Shard.Shard_map.count m) (Shard.Shard_map.epoch m) dir host
                    (Coordinator.port coord);
                run = (fun () -> Coordinator.run coord);
              })
            (Coordinator.start ~config
               ~shards:(List.map Result.get_ok parsed) ()))

let run_promote dir =
  match Repl.Client.promote_dir ~dir () with
  | Error e ->
      Printf.eprintf "sqlledger promote: %s\n" e;
      1
  | Ok durable ->
      let db = Durable.db durable in
      Printf.printf
        "promoted %s: database %s is now a primary (%d ledger tables, WAL \
         at LSN %d); serve it with `sqlledger serve --dir %s`\n"
        dir
        (Database.database_id db)
        (List.length (Database.ledger_tables db))
        (Aries.Wal.last_lsn (Database_ledger.wal (Database.ledger db)))
        dir;
      0

(* ------------------------------------------------------------------ *)
(* audit *)

(* Offline one-shot audit of a stopped (or copied) data directory: full
   verify when no mark is persisted yet, incremental from the mark
   otherwise, advancing the mark on success. *)
let audit_offline ~dir ~bootstrap =
  match Durable.open_dir ~dir ~name:(Filename.basename dir) () with
  | Error e ->
      Printf.eprintf "sqlledger audit: %s\n" e;
      1
  | Ok durable -> (
      let db = Durable.db durable in
      let path = Ledger_server.Auditor.mark_path ~dir in
      let mark =
        if bootstrap then Ok None
        else
          Result.map
            (Option.map (fun (m : Trusted_store.Audit_mark.t) ->
                 m.Trusted_store.Audit_mark.mark))
            (Trusted_store.Audit_mark.load ~path)
      in
      match mark with
      | Error e ->
          Printf.eprintf "sqlledger audit: %s\n" e;
          1
      | Ok mark -> (
          let fail_with violations pinned =
            List.iter
              (fun v ->
                Printf.printf "audit: %s\n" (Verifier.violation_to_string v))
              violations;
            (match pinned with
            | Some b ->
                Printf.printf "audit: TAMPERING DETECTED at block %d\n" b
            | None -> Printf.printf "audit: TAMPERING DETECTED\n");
            4
          in
          let bootstrap_ok =
            match mark with
            | Some m ->
                Printf.printf
                  "audit: resuming from persisted mark (block %d)\n"
                  m.Incremental_audit.m_block_id;
                Ok ()
            | None ->
                let report = Verifier.verify db ~digests:[] in
                if Verifier.ok report then begin
                  Printf.printf
                    "audit: bootstrap verify OK (%d blocks, %d transactions, \
                     %d row versions)\n"
                    report.Verifier.blocks_checked
                    report.Verifier.transactions_checked
                    report.Verifier.versions_checked;
                  Ok ()
                end
                else Error report.Verifier.violations
          in
          match bootstrap_ok with
          | Error violations ->
              fail_with violations
                (Incremental_audit.pinned_block
                   {
                     Incremental_audit.o_mark = None;
                     o_violations = violations;
                     o_blocks_checked = 0;
                   })
          | Ok () -> (
              let outcome = Incremental_audit.scan db ~from:mark in
              if not (Incremental_audit.ok outcome) then
                fail_with outcome.Incremental_audit.o_violations
                  (Incremental_audit.pinned_block outcome)
              else begin
                (match outcome.Incremental_audit.o_mark with
                | Some m ->
                    Trusted_store.Audit_mark.save ~path m;
                    Printf.printf
                      "audit: OK — verified %d new block(s); mark -> block \
                       %d\n"
                      outcome.Incremental_audit.o_blocks_checked
                      m.Incremental_audit.m_block_id
                | None -> Printf.printf "audit: OK — no closed blocks yet\n");
                0
              end)))

(* Exit codes (documented in README.md):
     0  clean (offline: ledger verified; follow: operator shutdown)
     1  startup/usage failure
     2  injected fault crashed the daemon
     4  tampering detected *)
let run_audit dir primary follow bootstrap failpoints =
  List.iter (fun (n, m) -> Fault.set n m) failpoints;
  match primary with
  | None ->
      if follow then begin
        Printf.eprintf "sqlledger audit: --follow requires --primary\n";
        1
      end
      else audit_offline ~dir ~bootstrap
  | Some primary -> (
      match split_hostport "--primary" primary with
      | Error e ->
          Printf.eprintf "sqlledger audit: %s\n" e;
          1
      | Ok (primary_host, primary_port) -> (
          match
            Ledger_server.Auditor.create ~log:(fun l ->
                print_endline l;
                flush stdout)
              ~bootstrap ~primary_host ~primary_port ~dir ()
          with
          | Error e ->
              Printf.eprintf "sqlledger audit: %s\n" e;
              1
          | Ok auditor -> (
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              let stop _ = Ledger_server.Auditor.stop auditor in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
              Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
              Printf.printf
                "sqlledger: auditing %s from %s (mark file %s)\n%!" primary
                dir
                (Ledger_server.Auditor.mark_path ~dir);
              match Ledger_server.Auditor.run auditor with
              | None ->
                  Ledger_server.Auditor.close auditor;
                  0
              | Some v ->
                  Ledger_server.Auditor.close auditor;
                  ignore v;
                  4
              | exception (Fault.Injected_crash e | Fault.Injected_error e)
                ->
                  Printf.eprintf "fault injected: %s\n" e;
                  2)))

(* ------------------------------------------------------------------ *)
(* receipt verify (fully offline) *)

(* Exit codes: 0 receipt verifies, 1 unreadable/malformed input, 4 the
   receipt fails verification (the typed reason is printed). *)
let run_receipt_verify file digest_file fingerprint =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error e
    | contents -> Ok contents
  in
  match Result.bind (read file) Receipt.of_string with
  | Error e ->
      Printf.eprintf "sqlledger receipt: %s: %s\n" file e;
      1
  | Ok r -> (
      let digest =
        match digest_file with
        | None -> Ok None
        | Some path ->
            Result.map Option.some
              (Result.bind (read path) Digest.of_string)
      in
      match digest with
      | Error e ->
          Printf.eprintf "sqlledger receipt: %s\n" e;
          1
      | Ok digest -> (
          let expected_fingerprint =
            match fingerprint with
            | "" -> None
            | hex -> (
                match Ledger_crypto.Hex.decode hex with
                | s -> Some s
                | exception _ -> Some hex)
          in
          match Receipt.verify ?digest ?expected_fingerprint r with
          | Ok () ->
              Printf.printf
                "receipt OK: transaction %d (user %s) is in block %d%s%s\n"
                r.Receipt.entry.Types.txn_id r.Receipt.entry.Types.user
                r.Receipt.block.Types.block_id
                (if digest <> None then ", anchored to the pinned digest"
                 else "")
                (if r.Receipt.signature <> None then ", block signature valid"
                 else "");
              0
          | Error f ->
              Printf.eprintf "receipt verification FAILED: %s\n"
                (Receipt.failure_to_string f);
              4))

(* ------------------------------------------------------------------ *)
(* tamper (attack simulator for drills and CI) *)

let run_tamper dir block =
  match Durable.open_dir ~dir ~name:(Filename.basename dir) () with
  | Error e ->
      Printf.eprintf "sqlledger tamper: %s\n" e;
      1
  | Ok durable -> (
      let db = Durable.db durable in
      let attack = Tamper.Fork_chain { block_id = block } in
      match Tamper.apply db attack with
      | Error e ->
          Printf.eprintf "sqlledger tamper: %s\n" e;
          1
      | Ok () ->
          Durable.checkpoint durable;
          Printf.printf "tampered %s: %s\n" dir (Tamper.describe attack);
          0)

(* ------------------------------------------------------------------ *)
(* client *)

module Protocol = Wire.Protocol

let pp_wire_rows columns rows =
  print_endline (String.concat "\t" columns);
  List.iter
    (fun row ->
      print_endline (String.concat "\t" (List.map Value.to_string row)))
    rows

(* Print a response; returns the exit code (0 ok, 1 server error). *)
let print_response = function
  | Protocol.Pong ->
      print_endline "pong";
      0
  | Protocol.Ok_r ->
      print_endline "ok";
      0
  | Protocol.Txn_r { txn_id = Some id } ->
      Printf.printf "transaction %d\n" id;
      0
  | Protocol.Txn_r { txn_id = None } ->
      print_endline "rolled back";
      0
  | Protocol.Rows_r { columns; rows } ->
      pp_wire_rows columns rows;
      0
  | Protocol.Affected_r { rows; txn_id } ->
      (match txn_id with
      | Some id -> Printf.printf "%d row(s) affected (txn %d)\n" rows id
      | None -> Printf.printf "%d row(s) affected\n" rows);
      0
  | Protocol.Digest_r json | Protocol.Receipt_r json ->
      print_endline (Sjson.to_string ~pretty:true json);
      0
  | Protocol.Receipts_r { receipts; pending; block_keys } ->
      (* Re-attach the per-block key material the batch carried once, so
         what prints (and gets saved for offline verification) is the
         self-contained single-receipt format. *)
      let receipts = Receipt.inflate_batch ~block_keys receipts in
      print_endline
        (Sjson.to_string ~pretty:true (Sjson.List receipts));
      if pending <> [] then
        Printf.printf "pending (open block): %s\n"
          (String.concat ", " (List.map string_of_int pending));
      0
  | Protocol.Verify_r v ->
      Printf.printf
        "verification: %s (%d blocks, %d transactions, %d row versions \
         checked)\n"
        (if v.Protocol.vs_ok then "OK"
         else
           Printf.sprintf "%d violation(s)"
             (List.length v.Protocol.vs_violations))
        v.Protocol.vs_blocks v.Protocol.vs_transactions v.Protocol.vs_versions;
      List.iter
        (fun s -> Printf.printf "  - %s\n" s)
        v.Protocol.vs_violations;
      if v.Protocol.vs_ok then 0 else 1
  | Protocol.Stats_r lines ->
      List.iter print_endline lines;
      0
  | Protocol.Shard_map_r { epoch; shards } ->
      Printf.printf "shard map epoch %d, %d shard(s)\n" epoch
        (List.length shards);
      List.iteri
        (fun i (host, port) -> Printf.printf "  shard %d: %s:%d\n" i host port)
        shards;
      0
  | Protocol.Migrate_r { copied; last_key; finished } ->
      Printf.printf "migrated %d row(s)%s%s\n" copied
        (match last_key with
        | [] -> ""
        | key ->
            Printf.sprintf " (cursor at %s)"
              (String.concat "," (List.map Value.to_string key)))
        (if finished then "; source exhausted" else "");
      0
  | Protocol.Bye ->
      print_endline "bye";
      0
  | Protocol.Welcome _ ->
      print_endline "connected";
      0
  | Protocol.Subscribed _ | Protocol.Snapshot_r _ ->
      (* Replication handshake replies; never seen by the CLI client. *)
      print_endline "unexpected replication response";
      1
  | Protocol.Error_r { code; message; _ } ->
      Printf.eprintf "error (%s): %s\n"
        (Protocol.error_code_to_string code)
        message;
      1

let parse_colspec spec =
  spec |> String.split_on_char ','
  |> List.filter_map (fun part ->
         match
           String.split_on_char ' ' (String.trim part)
           |> List.filter (fun w -> w <> "")
         with
         | [] -> None
         | [ name; ty ] -> Some (Ok (name, ty))
         | _ -> Some (Error part))
  |> List.fold_left
       (fun acc item ->
         match (acc, item) with
         | Error e, _ -> Error e
         | Ok cols, Ok c -> Ok (cols @ [ c ])
         | Ok _, Error part -> Error part)
       (Ok [])

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun w -> w <> "")

(* Edit distance for "did you mean" suggestions on unknown commands. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <-
        min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* "; did you mean X?" when some known command is plausibly what the
   user typed — within a third of its length in edits (minimum 1, so
   one-letter typos always match), else nothing. *)
let suggest known w =
  let w = String.lowercase_ascii w in
  let best =
    List.fold_left
      (fun acc cand ->
        let d = levenshtein w cand in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (cand, d))
      None known
  in
  match best with
  | Some (cand, d) when d <= max 1 (String.length cand / 3) ->
      Printf.sprintf "; did you mean %s?" cand
  | _ -> ""

let one_shot_commands =
  [
    "ping"; "exec"; "query"; "digest"; "receipt"; "receipts"; "verify";
    "create"; "create-plain"; "migrate"; "checkpoint"; "stats"; "shard-map";
  ]

(* Map the one-shot positional arguments to a request. *)
let client_request args digest_files =
  let load_digests () =
    List.fold_left
      (fun acc path ->
        match acc with
        | Error _ -> acc
        | Ok ds -> (
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error e -> Error e
            | contents -> (
                match Sjson.of_string contents with
                | exception Sjson.Parse_error e -> Error (path ^ ": " ^ e)
                | json -> Ok (ds @ [ json ]))))
      (Ok []) digest_files
  in
  match args with
  | [ "ping" ] -> Ok Protocol.Ping
  | [ "exec"; sql ] -> Ok (Protocol.Exec { sql })
  | [ "query"; sql ] -> Ok (Protocol.Query { sql })
  | [ "digest" ] -> Ok Protocol.Digest
  | [ "receipt"; txn ] -> (
      match int_of_string_opt txn with
      | Some txn_id -> Ok (Protocol.Receipt { txn_id })
      | None -> Error ("receipt expects a transaction id, got " ^ txn))
  | "verify" :: tables -> (
      match load_digests () with
      | Ok digests -> Ok (Protocol.Verify { tables; digests })
      | Error e -> Error ("cannot read digest: " ^ e))
  | [ ("create" | "create-plain"); name; colspec ]
  | [ ("create" | "create-plain"); name; colspec; _ ] -> (
      match parse_colspec colspec with
      | Error part -> Error ("bad column spec: " ^ part)
      | Ok columns ->
          let key =
            match args with
            | [ _; _; _; keys ] -> split_commas keys
            | _ -> (
                match columns with (n, _) :: _ -> [ n ] | [] -> [])
          in
          let ledger = List.hd args = "create" in
          Ok (Protocol.Create_table { name; columns; key; ledger }))
  | "receipts" :: ids -> (
      let parsed = List.map int_of_string_opt ids in
      if ids = [] then Error "receipts expects transaction ids"
      else if List.mem None parsed then
        Error "receipts expects transaction ids"
      else Ok (Protocol.Receipts { txn_ids = List.map Option.get parsed }))
  | [ "checkpoint" ] -> Ok Protocol.Checkpoint
  | [ "stats" ] -> Ok Protocol.Stats
  | [ "shard-map" ] -> Ok Protocol.Shard_map
  | "migrate" :: _ ->
      Error
        "use the dedicated `sqlledger migrate` command (durable cursor, \
         resume, differential check)"
  | cmd :: _ ->
      Error
        (Printf.sprintf "unknown client command %s%s" cmd
           (suggest one_shot_commands cmd))
  | [] -> Error "no command"

let client_repl_help =
  "Enter SQL (runs as exec) or a command:\n\
  \  .begin / .commit / .rollback      session transaction control\n\
  \  .digest                           close the block, print the digest\n\
  \  .receipt <txn_id>                 fetch a transaction receipt\n\
  \  .receipts <txn_id> ...            fetch a batch of receipts\n\
  \  .verify [table ...]               server-side ledger verification\n\
  \  .create <table> <col type, ...> [| key,cols]   create a ledger table\n\
  \  .create-plain <table> <col type, ...> [| key,cols]\n\
  \                                    create a plain (migratable) table\n\
  \  .migrate <source> <target> [batch]\n\
  \                                    copy one batch into a ledger table\n\
  \  .checkpoint                       force a durable checkpoint\n\
  \  .shard-map                        coordinator shard map (sharded mode)\n\
  \  .stats                            server metrics\n\
  \  .ping / .help / .quit"

let repl_commands =
  [
    ".quit"; ".exit"; ".help"; ".ping"; ".begin"; ".commit"; ".rollback";
    ".digest"; ".receipt"; ".receipts"; ".verify"; ".create"; ".create-plain";
    ".migrate"; ".checkpoint"; ".shard-map"; ".stats";
  ]

let run_repl cl =
  Printf.printf "connected to %s (database %s)\n"
    (Wire.Client.server cl)
    (Wire.Client.database cl);
  print_endline client_repl_help;
  let continue = ref true in
  while !continue do
    print_string "ledger> ";
    match In_channel.input_line stdin with
    | None -> continue := false
    | Some line -> (
        let line = String.trim line in
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        let send req =
          match Wire.Client.call cl req with
          | Ok resp -> ignore (print_response resp : int)
          | Error e ->
              Printf.eprintf "connection error: %s\n" e;
              continue := false
        in
        match words with
        | [] -> ()
        | [ ".quit" ] | [ ".exit" ] -> continue := false
        | [ ".help" ] -> print_endline client_repl_help
        | [ ".ping" ] -> send Protocol.Ping
        | [ ".begin" ] -> send Protocol.Begin
        | [ ".commit" ] -> send Protocol.Commit
        | [ ".rollback" ] -> send Protocol.Rollback
        | [ ".digest" ] -> send Protocol.Digest
        | [ ".receipt"; txn ] -> (
            match int_of_string_opt txn with
            | Some txn_id -> send (Protocol.Receipt { txn_id })
            | None -> print_endline "usage: .receipt <txn_id>")
        | ".receipts" :: ids when ids <> [] -> (
            match
              List.map
                (fun i ->
                  match int_of_string_opt i with
                  | Some v -> v
                  | None -> failwith "usage: .receipts <txn_id> ...")
                ids
            with
            | txn_ids -> send (Protocol.Receipts { txn_ids })
            | exception Failure m -> print_endline m)
        | ".verify" :: tables ->
            send (Protocol.Verify { tables; digests = [] })
        | [ ".stats" ] -> send Protocol.Stats
        | [ ".checkpoint" ] -> send Protocol.Checkpoint
        | [ ".shard-map" ] -> send Protocol.Shard_map
        | ".migrate" :: source :: target :: rest -> (
            match
              match rest with
              | [] -> Some 512
              | [ b ] -> int_of_string_opt b
              | _ -> None
            with
            | None -> print_endline "usage: .migrate <source> <target> [batch]"
            | Some limit ->
                send
                  (Protocol.Migrate { source; target; after_key = []; limit }))
        | ((".create" | ".create-plain") as cmd) :: name :: rest -> (
            let spec = String.concat " " rest in
            let spec, key =
              (* `.create t name varchar(40), balance int | name` — the
                 part after '|' names the primary-key columns. *)
              match String.index_opt spec '|' with
              | Some i ->
                  ( String.sub spec 0 i,
                    split_commas
                      (String.sub spec (i + 1) (String.length spec - i - 1)) )
              | None -> (spec, [])
            in
            match parse_colspec spec with
            | Error part -> print_endline ("bad column spec: " ^ part)
            | Ok columns ->
                let key =
                  if key <> [] then key
                  else match columns with (n, _) :: _ -> [ n ] | [] -> []
                in
                send
                  (Protocol.Create_table
                     { name; columns; key; ledger = cmd = ".create" }))
        | w :: _ when String.length w > 0 && w.[0] = '.' ->
            Printf.printf "unknown command %s%s; try .help\n" w
              (suggest repl_commands w)
        | _ -> send (Protocol.Exec { sql = line }))
  done;
  0

(* Exit codes (documented in README.md):
     0  success        1  the server answered with an error (or verify failed)
     2  cannot connect 3  protocol-version mismatch
     5  principal authentication refused *)
let run_client host port deadline retries principal secret_file args
    digest_files =
  let deadline_s = if deadline > 0.0 then Some deadline else None in
  match load_auth_secret secret_file with
  | Error e ->
      Printf.eprintf "sqlledger client: --secret-file: %s\n" e;
      1
  | Ok secret -> (
  match
    Wire.Client.connect_retry ~max_attempts:(retries + 1) ?deadline_s
      ?principal ?secret ~host ~port ()
  with
  | Error (Wire.Client.Refused msg) ->
      Printf.eprintf "sqlledger client: %s\n" msg;
      2
  | Error (Wire.Client.Mismatch msg) ->
      Printf.eprintf "sqlledger client: %s\n" msg;
      3
  | Error (Wire.Client.Auth msg) ->
      Printf.eprintf "sqlledger client: %s\n" msg;
      5
  | Error (Wire.Client.Handshake msg) ->
      Printf.eprintf "sqlledger client: %s\n" msg;
      2
  | Ok cl ->
      let code =
        if args = [] then run_repl cl
        else
          match client_request args digest_files with
          | Error e ->
              Printf.eprintf "sqlledger client: %s\n" e;
              1
          | Ok req -> (
              match
                if retries > 0 then
                  Wire.Client.call_retry ?deadline_s
                    ~max_attempts:(retries + 1) cl req
                else Wire.Client.call ?deadline_s cl req
              with
              | Ok resp -> print_response resp
              | Error e ->
                  Printf.eprintf "sqlledger client: %s\n" e;
                  2)
      in
      Wire.Client.close cl;
      code)

(* ------------------------------------------------------------------ *)
(* migrate *)

(* Exit codes: 0 migrated and differential check green, 1 migration or
   check failed, 2 cannot connect, 3 version mismatch, 5 auth refused. *)
let run_migrate host port principal secret_file source target batch cursor
    retries =
  match load_auth_secret secret_file with
  | Error e ->
      Printf.eprintf "sqlledger migrate: --secret-file: %s\n" e;
      1
  | Ok secret -> (
      match
        Wire.Client.connect_retry ~max_attempts:(retries + 1) ?principal
          ?secret ~host ~port ()
      with
      | Error (Wire.Client.Refused msg | Wire.Client.Handshake msg) ->
          Printf.eprintf "sqlledger migrate: %s\n" msg;
          2
      | Error (Wire.Client.Mismatch msg) ->
          Printf.eprintf "sqlledger migrate: %s\n" msg;
          3
      | Error (Wire.Client.Auth msg) ->
          Printf.eprintf "sqlledger migrate: %s\n" msg;
          5
      | Ok cl ->
          let log line = Printf.printf "migrate: %s\n%!" line in
          let code =
            match
              Migrate.Driver.run ~batch ?cursor_path:cursor ~log ~client:cl
                ~source ~target ()
            with
            | Error e ->
                Printf.eprintf "sqlledger migrate: %s\n" e;
                1
            | Ok s ->
                Printf.printf
                  "migrate: OK — %d row(s) copied in %d batch(es)%s; target \
                   %s holds %d row(s), differential check green\n"
                  s.Migrate.Driver.rows_copied s.Migrate.Driver.batches
                  (if s.Migrate.Driver.resumed_at > 0 then
                     Printf.sprintf " (resumed past %d already copied)"
                       s.Migrate.Driver.resumed_at
                   else "")
                  target s.Migrate.Driver.rows_total;
                (match s.Migrate.Driver.digest with
                | Some json ->
                    Printf.printf "migrate: anchoring digest:\n%s\n"
                      (Sjson.to_string ~pretty:true json)
                | None -> ());
                0
          in
          Wire.Client.close cl;
          code)

(* ------------------------------------------------------------------ *)
(* chaos-proxy *)

(* Exit codes: 0 clean stop (SIGTERM/SIGINT), 1 startup failure. *)
let run_chaos_proxy host port upstream seed steps min_hold max_hold loop =
  match String.rindex_opt upstream ':' with
  | None ->
      Printf.eprintf
        "sqlledger chaos-proxy: --upstream expects HOST:PORT, got %s\n"
        upstream;
      1
  | Some i -> (
      let upstream_host = String.sub upstream 0 i in
      match
        int_of_string_opt
          (String.sub upstream (i + 1) (String.length upstream - i - 1))
      with
      | None ->
          Printf.eprintf "sqlledger chaos-proxy: bad port in --upstream %s\n"
            upstream;
          1
      | Some upstream_port -> (
          match
            Chaos.Proxy.start ~host ~port ~upstream_host ~upstream_port ()
          with
          | Error e ->
              Printf.eprintf "sqlledger chaos-proxy: %s\n" e;
              1
          | Ok proxy ->
              let stopping = Atomic.make false in
              let stop _ = Atomic.set stopping true in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
              Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              Printf.printf
                "chaos proxy: %s:%d -> %s:%d (seed %d, %d fault steps%s)\n%!"
                host
                (Chaos.Proxy.port proxy)
                upstream_host upstream_port seed steps
                (if loop then ", looping" else "");
              let schedule =
                Chaos.Schedule.random ~steps ~min_hold ~max_hold ~seed ()
              in
              List.iter
                (fun line -> Printf.printf "  %s\n%!" line)
                (Chaos.Schedule.describe schedule);
              let stopped () = Atomic.get stopping in
              if steps > 0 then begin
                Chaos.Schedule.run ~stop:stopped schedule proxy;
                while loop && not (stopped ()) do
                  Chaos.Schedule.run ~stop:stopped schedule proxy
                done
              end;
              (* Schedule exhausted (or none requested): keep forwarding
                 healthily until signalled. *)
              while not (stopped ()) do
                Thread.delay 0.2
              done;
              let s = Chaos.Proxy.stats proxy in
              Chaos.Proxy.stop proxy;
              Printf.printf
                "chaos proxy: %d connections (%d killed), %d bytes up, %d \
                 bytes down\n"
                s.Chaos.Proxy.conns_total s.Chaos.Proxy.conns_killed
                s.Chaos.Proxy.bytes_to_upstream s.Chaos.Proxy.bytes_to_client;
              0))

(* ------------------------------------------------------------------ *)
(* cmdliner wiring *)

open Cmdliner

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Scripted Figure 2 walk-through")
    Term.(const run_demo $ const ())

let shell_cmd =
  let load =
    Arg.(value & opt (some file) None & info [ "load" ] ~doc:"Load a snapshot file")
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive SQL + ledger shell over a demo database")
    Term.(const run_shell $ load)

let fabric_cmd =
  let offered =
    Arg.(value & opt float 2000.0 & info [ "offered" ] ~doc:"Offered load, tps")
  in
  let txns =
    Arg.(value & opt int 10_000 & info [ "txns" ] ~doc:"Transactions to simulate")
  in
  Cmd.v
    (Cmd.info "fabric" ~doc:"Run the permissioned-blockchain latency model")
    Term.(const run_fabric $ offered $ txns)

let verify_cmd =
  let snapshot =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SNAPSHOT" ~doc:"Database snapshot file to verify")
  in
  let digest_files =
    Arg.(
      value & opt_all file []
      & info [ "digest" ] ~docv:"FILE"
          ~doc:
            "Trusted digest file (as printed by the shell's .digest command). \
             Repeatable; without one, only internal consistency is checked.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Verification domains for the per-table checks. 0 (the default) \
             uses the recommended domain count for this host.")
  in
  let tables =
    Arg.(
      value & opt_all string []
      & info [ "table" ] ~docv:"NAME"
          ~doc:
            "Restrict invariants 4-5 to the named ledger table (partial \
             verification, paper section 2.3). Repeatable.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a snapshot against trusted digests, in parallel")
    Term.(const run_verify $ snapshot $ digest_files $ jobs $ tables)

let failpoint_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault.parse_spec s) in
  let print ppf (name, mode) =
    Format.fprintf ppf "%s=%s" name (Fault.mode_to_string mode)
  in
  Arg.conv (parse, print)

let failpoint_arg =
  Arg.(
    value
    & opt_all failpoint_conv []
    & info [ "failpoint" ] ~docv:"NAME=MODE"
        ~doc:
          "Arm a fault-injection point before running (repeatable; debug \
           aid). $(docv) modes: off, error, crash, crash:N (crash after N \
           bytes through the point). List names with the $(b,failpoints) \
           command.")

let recover_cmd =
  let wal =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"WAL" ~doc:"WAL file")
  in
  let snapshot =
    Arg.(value & opt (some file) None & info [ "snapshot" ] ~doc:"Snapshot file")
  in
  let verify_flag =
    Arg.(value & flag & info [ "verify" ] ~doc:"Run ledger verification after recovery")
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Rebuild a database from its WAL (plus optional snapshot)")
    Term.(const run_recover $ failpoint_arg $ wal $ snapshot $ verify_flag)

let failpoints_cmd =
  Cmd.v
    (Cmd.info "failpoints"
       ~doc:"List the registered fault-injection points (for --failpoint)")
    Term.(const run_failpoints $ const ())

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to listen on / connect to")

let auth_secret_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "auth-secret" ] ~docv:"FILE"
        ~doc:
          "Shared-secret file for principal authentication. Clients that \
           claim a $(b,--principal) must present an HMAC tag keyed by these \
           contents; claims that don't verify are refused with the typed \
           $(b,auth_failed) error. Without this flag, principal claims are \
           refused and sessions stay anonymous.")

(* The session-runtime flags of every listening daemon. *)
let idle_timeout_arg ~doc =
  Arg.(value & opt float 60.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let request_timeout_arg =
  Arg.(
    value & opt float 30.0
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:"Tear a connection stalled mid-frame after this long; 0 disables.")

let port_arg ~doc =
  Arg.(value & opt int 7878 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Durable database directory (WAL + snapshot); created on first \
             use, recovered on every start.")
  in
  let db_name =
    Arg.(
      value & opt string "served"
      & info [ "name" ] ~docv:"NAME" ~doc:"Database name when creating DIR")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N" ~doc:"Maximum concurrent sessions")
  in
  let max_frame =
    Arg.(
      value
      & opt int Wire.Frame.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Maximum request frame size")
  in
  let group_commit_window =
    Arg.(
      value
      & opt float
          (Ledger_server.Server.default_config.group_commit_window *. 1000.0)
      & info
          [ "group-commit-window" ]
          ~docv:"MILLISECONDS"
          ~doc:
            "Group commit: the commit leader lingers up to this long to \
             coalesce concurrent auto-commit writers into one batched WAL \
             append sharing a single fsync; 0 means no linger (the leader \
             publishes whatever is queued at once).")
  in
  let max_inflight =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission control: with more than $(docv) requests in \
             dispatch, requests that would start new write work are \
             refused with the typed $(b,overloaded) error (and a \
             retry-after hint) instead of queueing. 0 disables.")
  in
  let queue_depth =
    Arg.(
      value & opt int 0
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission control: with $(docv) or more staged commits \
             waiting for the group-commit leader, new write work is shed \
             with the typed $(b,overloaded) error. 0 disables.")
  in
  let block_size =
    Arg.(
      value & opt int 0
      & info [ "block-size" ] ~docv:"N"
          ~doc:
            "Ledger block capacity: a block closes (and becomes \
             receipt-servable) after $(docv) transactions instead of only \
             at digest generation. 0 keeps the library default.")
  in
  let signing_seed =
    Arg.(
      value & opt string ""
      & info [ "signing-seed" ] ~docv:"SEED"
          ~doc:
            "Deterministic seed for the per-block Lamport signing chain; \
             receipts then carry a one-time signature over the block \
             hash. Empty = unsigned blocks.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a durable ledger database over TCP (SIGTERM drains and \
          fsyncs; SIGUSR1 dumps metrics)")
    Term.(
      const run_serve $ dir
      $ port_arg ~doc:"TCP port to listen on"
      $ host_arg $ db_name $ max_conns $ max_frame
      $ idle_timeout_arg
          ~doc:
            "Disconnect a session (rolling back its open transaction) after \
             this long without a request; 0 disables."
      $ request_timeout_arg $ group_commit_window $ max_inflight $ queue_depth
      $ block_size $ signing_seed $ auth_secret_arg $ failpoint_arg)

let replica_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Replica directory (durable copy of the primary's WAL + \
             snapshot, plus a replica marker); created on first use, \
             resumed from its persisted position on every start.")
  in
  let primary =
    Arg.(
      required
      & opt (some string) None
      & info [ "primary" ] ~docv:"HOST:PORT"
          ~doc:"The primary sqlledger server to replicate from.")
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Stream a primary's WAL into a durable local copy and serve \
          read-only queries from it (writes are refused with a typed \
          read_only error naming the primary)")
    Term.(
      const run_replica $ dir
      $ port_arg ~doc:"TCP port to serve read-only clients on"
      $ host_arg $ primary
      $ idle_timeout_arg
          ~doc:"Disconnect an idle read session after this long; 0 disables."
      $ request_timeout_arg $ auth_secret_arg $ failpoint_arg)

let coord_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Coordinator state directory (shard map, schema registry, 2PC \
             decision log); created on first use, recovered on every start.")
  in
  let name_arg =
    Arg.(
      value & opt string "coord"
      & info [ "name" ] ~docv:"NAME" ~doc:"Coordinator name (metrics label)")
  in
  let shards =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"HOST:PORT"
          ~doc:
            "A shard primary, repeatable; order defines the hash buckets. \
             Required on first start; passing a different topology later \
             bumps the shard-map epoch.")
  in
  Cmd.v
    (Cmd.info "coord"
       ~doc:
         "Coordinate a hash-sharded ledger deployment: route statements to \
          shard primaries, run cross-shard writes under two-phase commit, \
          and publish one aggregate digest covering every shard")
    Term.(
      const run_coord $ dir
      $ port_arg ~doc:"TCP port to listen on"
      $ host_arg $ name_arg $ shards
      $ idle_timeout_arg
          ~doc:"Disconnect an idle session after this long; 0 disables."
      $ request_timeout_arg $ auth_secret_arg $ failpoint_arg)

let promote_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Replica directory to promote into a servable primary.")
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Failover: recover a replica directory as a primary and drop its \
          replica marker (everything the replica acked is preserved; the \
          old primary's unshipped tail is the documented loss window)")
    Term.(const run_promote $ dir)

let principal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "principal" ] ~docv:"NAME"
        ~doc:
          "Authenticated identity for this session; recorded as the ledger's \
           transaction username on every commit (and provable from \
           receipts). Requires $(b,--secret-file).")

let secret_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "secret-file" ] ~docv:"FILE"
        ~doc:
          "Shared-secret file (same contents the server was started with); \
           keys the HMAC tag that proves the $(b,--principal) claim.")

let client_cmd =
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMD"
          ~doc:
            "One-shot command: ping | exec SQL | query SQL | digest | \
             receipt TXN_ID | receipts TXN_ID... | verify [TABLE...] | \
             create TABLE 'col type, ...' [key,cols] | create-plain TABLE \
             'col type, ...' [key,cols] | checkpoint | stats | shard-map. \
             With no command, starts an interactive REPL.")
  in
  let digest_files =
    Arg.(
      value & opt_all file []
      & info [ "digest" ] ~docv:"FILE"
          ~doc:
            "Trusted digest JSON to anchor a one-shot $(b,verify) \
             (repeatable).")
  in
  let deadline =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Total budget for the one-shot command: rides the request \
             envelope (the server refuses to start work past it, \
             answering $(b,deadline_exceeded)) and bounds the local wait \
             for the response. 0 disables.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the connection and the one-shot command up to $(docv) \
             extra times with jittered exponential backoff. Typed \
             $(b,overloaded)/$(b,deadline_exceeded) refusals are retried \
             for any command (the server did no work); transport \
             failures only for idempotent ones (reads, receipts, \
             verify).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to a sqlledger server (one-shot command or REPL)")
    Term.(
      const run_client $ host_arg
      $ port_arg ~doc:"Server TCP port"
      $ deadline $ retries $ principal_arg $ secret_file_arg $ args
      $ digest_files)

let migrate_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Plain (regular) table to copy from.")
  in
  let target =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TARGET" ~doc:"Ledger table to copy into.")
  in
  let batch =
    Arg.(
      value
      & opt int Migrate.Driver.default_batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Rows per batch: each batch commits server-side as one ledger \
             transaction (one group commit), so this bounds how long the \
             copy holds the write path per round trip.")
  in
  let cursor =
    Arg.(
      value
      & opt (some string) None
      & info [ "cursor" ] ~docv:"FILE"
          ~doc:
            "Durable cursor file, written atomically after every acked \
             batch. A migrator killed mid-copy re-run with the same \
             $(docv) resumes where it stopped instead of rescanning.")
  in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Per-request retry budget (the Migrate request is idempotent: \
             already-copied keys are skipped server-side).")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Online migration: copy a plain table into a ledger table in \
          group-commit-sized batches while OLTP, receipts and the audit \
          stream stay live; crash-resumable via a durable cursor; finishes \
          with a differential equivalence check and an anchoring digest.")
    Term.(
      const run_migrate $ host_arg
      $ port_arg ~doc:"Server TCP port"
      $ principal_arg $ secret_file_arg $ source $ target $ batch $ cursor
      $ retries)

let chaos_proxy_cmd =
  let upstream =
    Arg.(
      required
      & opt (some string) None
      & info [ "upstream" ] ~docv:"HOST:PORT"
          ~doc:"The real server to forward to.")
  in
  let seed =
    Arg.(
      value & opt int 0xC0FFEE
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the fault schedule; the same seed replays the same \
             faults in the same order.")
  in
  let steps =
    Arg.(
      value & opt int 6
      & info [ "steps" ] ~docv:"N"
          ~doc:
            "Fault steps to draw from the seed (0 = forward healthily, a \
             plain proxy).")
  in
  let min_hold =
    Arg.(
      value & opt float 0.5
      & info [ "min-hold" ] ~docv:"SECONDS"
          ~doc:"Minimum time each fault stays installed.")
  in
  let max_hold =
    Arg.(
      value & opt float 3.0
      & info [ "max-hold" ] ~docv:"SECONDS"
          ~doc:"Maximum time each fault stays installed.")
  in
  let loop =
    Arg.(
      value & flag
      & info [ "loop" ]
          ~doc:"Repeat the schedule until stopped instead of running it \
                once and healing.")
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:
         "Fault-injecting TCP proxy: forward a client (or a replica's \
          subscription) to a server through seeded network faults — \
          delays, throttles, slow-loris dribble, half-duplex drops, \
          partitions, duplicate connects")
    Term.(
      const run_chaos_proxy $ host_arg
      $ port_arg ~doc:"TCP port the proxy listens on (0 = ephemeral)"
      $ upstream $ seed $ steps $ min_hold $ max_hold $ loop)

let audit_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "With --primary: the auditor's replica directory (durable \
             stream copy + the persisted audit mark), created on first \
             use. Without --primary: a stopped primary data directory to \
             audit offline.")
  in
  let primary =
    Arg.(
      value
      & opt (some string) None
      & info [ "primary" ] ~docv:"HOST:PORT"
          ~doc:"Primary to stream from (daemon mode; use with --follow).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Stay attached: verify each newly closed block as it streams \
             in, persisting the high-water mark after every advance; a \
             killed auditor resumes from the mark instead of rescanning.")
  in
  let bootstrap =
    Arg.(
      value & flag
      & info [ "bootstrap" ]
          ~doc:
            "Ignore any persisted mark and redo the one-time full \
             verification (all invariants, every block).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Incrementally audit a ledger: full verify once, then only \
          newly closed blocks against the persisted trusted mark. Exit \
          code 4 = tampering detected.")
    Term.(
      const run_audit $ dir $ primary $ follow $ bootstrap $ failpoint_arg)

let receipt_cmd =
  let file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Receipt JSON document to verify.")
  in
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("verify", `Verify) ])) None
      & info [] ~docv:"verify" ~doc:"The receipt operation (only verify).")
  in
  let digest =
    Arg.(
      value
      & opt (some file) None
      & info [ "digest" ] ~docv:"FILE"
          ~doc:
            "Pinned trusted digest JSON: the receipt must anchor to \
             exactly this block hash.")
  in
  let fingerprint =
    Arg.(
      value & opt string ""
      & info [ "fingerprint" ] ~docv:"HEX"
          ~doc:"Expected signing-key fingerprint (hex) to pin.")
  in
  Cmd.v
    (Cmd.info "receipt"
       ~doc:
         "Verify a transaction receipt fully offline — no server, no \
          database; optionally pinned to a trusted digest and signing \
          key. Exit code 4 = verification failed (typed reason printed).")
    Term.(
      const (fun (`Verify) file digest fp -> run_receipt_verify file digest fp)
      $ action $ file $ digest $ fingerprint)

let tamper_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Stopped data directory to corrupt in place.")
  in
  let block =
    Arg.(
      value & opt int 0
      & info [ "block" ] ~docv:"N"
          ~doc:"Closed block to fork the hash chain at.")
  in
  Cmd.v
    (Cmd.info "tamper"
       ~doc:
         "Attack drill: fork the ledger hash chain of a stopped data \
          directory at a historical block (bypassing the database API), \
          so detection paths can be exercised end to end.")
    Term.(const run_tamper $ dir $ block)

let main =
  Cmd.group
    (Cmd.info "sqlledger" ~version:"1.0.0"
       ~doc:"Cryptographically verifiable ledger tables (SIGMOD'21 reproduction)")
    [
      demo_cmd; shell_cmd; fabric_cmd; verify_cmd; recover_cmd;
      failpoints_cmd; serve_cmd; replica_cmd; coord_cmd; promote_cmd;
      client_cmd; migrate_cmd; chaos_proxy_cmd; audit_cmd; receipt_cmd;
      tamper_cmd;
    ]

let () = exit (Cmd.eval' main)
