(* Crash recovery of the Database Ledger queue (§3.3.2) and the restore /
   geo-failover scenarios of §3.6–3.7. *)

open Relation
open Sql_ledger
open Testkit

let with_temp_file f =
  let path = Filename.temp_file "ledgerwal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Recover from the WAL alone, as a restart does (paper §3.3.2's analysis
   phase): replay rebuilds the queue from the COMMIT records logged after
   the last checkpoint. *)
let replay path =
  match Wal_replay.replay_file ~wal_path:path () with
  | Ok db -> db
  | Error e -> Alcotest.fail e

let check_entry_hashes expected actual =
  Alcotest.(check int) "entries rebuilt" (List.length expected)
    (List.length actual);
  (* Entry contents survive byte-for-byte, in (block, ordinal) order. *)
  List.iter2
    (fun a b ->
      Alcotest.(check string) "entry hash"
        (Ledger_crypto.Hex.encode (Database_ledger.entry_hash a))
        (Ledger_crypto.Hex.encode (Database_ledger.entry_hash b)))
    expected actual

let highest_logged_txn path =
  match Aries.Wal.load path with
  | Error e -> Alcotest.fail e
  | Ok records ->
      List.fold_left
        (fun acc (_, record) ->
          match record with
          | Aries.Log_record.Begin { txn_id }
          | Aries.Log_record.Abort { txn_id }
          | Aries.Log_record.Prepare { txn_id; _ } ->
              max acc txn_id
          | Aries.Log_record.Commit c -> max acc c.txn_id
          | _ -> acc)
        0 records

let test_queue_reconstruction_no_checkpoint () =
  with_temp_file (fun path ->
      let db = make_db ~block_size:100 ~wal_path:path "crash1" in
      let accounts = make_accounts db in
      figure2 db accounts;
      let dbl = Database.ledger db in
      (* Crash: no checkpoint ever ran, so every entry is still queued. *)
      let recovered = Database.ledger (replay path) in
      Alcotest.(check int) "queue rebuilt"
        (Database_ledger.queue_length dbl)
        (Database_ledger.queue_length recovered);
      check_entry_hashes (Database_ledger.entries dbl)
        (Database_ledger.entries recovered);
      (* Transaction ids continue after the highest logged one. *)
      let next = Database_ledger.next_txn_id recovered in
      Alcotest.(check bool) "txn id allocator restarts" true
        (next > highest_logged_txn path))

let test_queue_reconstruction_with_checkpoint () =
  with_temp_file (fun path ->
      let db = make_db ~block_size:100 ~wal_path:path "crash2" in
      let accounts = make_accounts db in
      ignore (insert_account db accounts "A" 1);
      ignore (insert_account db accounts "B" 2);
      Database.checkpoint db;
      ignore (insert_account db accounts "C" 3);
      let dbl = Database.ledger db in
      let recovered = Database.ledger (replay path) in
      (* Only the post-checkpoint commit is queued; the checkpoint flushed
         the rest into the transactions table. *)
      Alcotest.(check int) "one queued" 1
        (Database_ledger.queue_length recovered);
      check_entry_hashes (Database_ledger.entries dbl)
        (Database_ledger.entries recovered))

let test_full_database_recovery_verifies () =
  (* §3.3.2 end to end: the database is rebuilt from the log, its queue
     included, and verification then passes against an old digest. *)
  with_temp_file (fun path ->
      let db = make_db ~block_size:3 ~wal_path:path "crash3" in
      let accounts = make_accounts db in
      figure2 db accounts;
      let d = fresh_digest db in
      ignore (insert_account db accounts "PostDigest" 1);
      (* Crash now, with commits still queued. *)
      let queued = Database_ledger.queue_length (Database.ledger db) in
      Alcotest.(check bool) "something queued" true (queued > 0);
      let recovered = replay path in
      Alcotest.(check int) "queue rebuilt" queued
        (Database_ledger.queue_length (Database.ledger recovered));
      check_entry_hashes
        (Database_ledger.entries (Database.ledger db))
        (Database_ledger.entries (Database.ledger recovered));
      Alcotest.(check bool) "verifies" true (verify_ok recovered [ d ]))

let test_backup_restore_isolation () =
  let db = make_db "restore1" in
  let accounts = make_accounts db in
  figure2 db accounts;
  let backup = Database.backup db in
  ignore (insert_account db accounts "AfterBackup" 7);
  (* The backup must not see post-backup data. *)
  let restored = Database.restore backup ~create_time:2000.0 in
  Alcotest.(check bool) "restored lacks new row" true
    (Ledger_table.find
       (Database.ledger_table restored "accounts")
       ~key:[| vs "AfterBackup" |]
    = None);
  Alcotest.(check bool) "new incarnation" true
    (Database.create_time restored <> Database.create_time db);
  Alcotest.(check string) "same database id"
    (Database.database_id db)
    (Database.database_id restored);
  (* Both verify independently. *)
  let d = fresh_digest db in
  let d' = Option.get (Database.generate_digest restored) in
  Alcotest.(check bool) "original verifies" true (verify_ok db [ d ]);
  Alcotest.(check bool) "restored verifies" true
    (Verifier.ok (Verifier.verify restored ~digests:[ d' ]))

let test_restore_then_diverge () =
  (* Point-in-time restore (§3.6): after restoring, the database diverges
     from the original timeline; digests of the original past still verify
     the shared prefix. *)
  let db = make_db "pitr" in
  let accounts = make_accounts db in
  ignore (insert_account db accounts "Shared" 1);
  let d_shared = fresh_digest db in
  let backup = Database.backup db in
  ignore (insert_account db accounts "OnlyOriginal" 2);
  let restored = Database.restore backup ~create_time:3000.0 in
  let racc = Database.ledger_table restored "accounts" in
  let (), _ =
    Database.with_txn restored ~user:"teller" (fun txn ->
        Txn.insert txn racc [| vs "OnlyRestored"; vi 3 |])
  in
  (* The shared-prefix digest verifies in both incarnations. *)
  Alcotest.(check bool) "original honours shared digest" true
    (verify_ok db [ d_shared ]);
  Alcotest.(check bool) "restored honours shared digest" true
    (Verifier.ok (Verifier.verify restored ~digests:[ d_shared ]))

let test_category2_restore_and_replay () =
  (* §3.7 category 2: tampered balance influenced later withdrawals; restore
     the backup and re-execute subsequent transactions. *)
  let db = make_db "cat2" in
  let accounts = make_accounts db in
  ignore (insert_account db accounts "Victim" 100);
  let backup = Database.backup db in
  let d = fresh_digest db in
  (* Attacker inflates the balance in storage; a later withdrawal then
     "succeeds" based on corrupt data. *)
  ignore
    (Tamper.apply db
       (Tamper.Update_row
          {
            table = "accounts";
            key = [| vs "Victim" |];
            column = "balance";
            value = vi 1_000_000;
          }));
  ignore (update_account db accounts "Victim" 999_900) (* withdrawal *);
  let report = Verifier.verify db ~digests:[ d ] in
  Alcotest.(check bool) "detected" true (not (Verifier.ok report));
  (* Recovery: restore the verified backup, replay the legitimate txns. *)
  let recovered = Database.restore backup ~create_time:4000.0 in
  let racc = Database.ledger_table recovered "accounts" in
  let (), _ =
    Database.with_txn recovered ~user:"teller" (fun txn ->
        (* the legitimate version of the withdrawal: only 100 available *)
        Txn.update txn racc ~key:[| vs "Victim" |] [| vs "Victim"; vi 0 |])
  in
  let d' = Option.get (Database.generate_digest recovered) in
  Alcotest.(check bool) "recovered verifies" true
    (Verifier.ok (Verifier.verify recovered ~digests:[ d' ]));
  match Ledger_table.find racc ~key:[| vs "Victim" |] with
  | Some row -> Alcotest.(check bool) "balance sane" true (Value.equal row.(1) (vi 0))
  | None -> Alcotest.fail "victim missing"

let () =
  Alcotest.run "recovery"
    [
      ( "crash (ARIES analysis)",
        [
          Alcotest.test_case "queue, no checkpoint" `Quick test_queue_reconstruction_no_checkpoint;
          Alcotest.test_case "queue, with checkpoint" `Quick test_queue_reconstruction_with_checkpoint;
          Alcotest.test_case "recovered ledger verifies" `Quick test_full_database_recovery_verifies;
        ] );
      ( "restore (§3.6/3.7)",
        [
          Alcotest.test_case "backup isolation" `Quick test_backup_restore_isolation;
          Alcotest.test_case "restore + diverge" `Quick test_restore_then_diverge;
          Alcotest.test_case "category-2 replay" `Quick test_category2_restore_and_replay;
        ] );
    ]
