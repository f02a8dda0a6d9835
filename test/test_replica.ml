(* Streaming geo-replica (§3.6): incremental log shipping, the digest
   replication gate wired to a real secondary, failover by promotion, and
   crash-at-any-prefix recovery as a property. *)

open Sql_ledger
open Testkit
module DM = Trusted_store.Digest_manager
module WS = Trusted_store.Worm_store

let with_wal f =
  let path = Filename.temp_file "replica" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_incremental_feed () =
  with_wal (fun path ->
      let db = make_db ~block_size:3 ~wal_path:path "primary" in
      let replica = Replica.create ~clock:(make_clock ()) () in
      let accounts = make_accounts db in
      (* Ship in several batches, interleaved with new primary activity. *)
      Alcotest.(check bool) "batch 1" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      figure2 db accounts;
      Alcotest.(check bool) "batch 2" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      ignore (insert_account db accounts "Late" 7);
      (* Overlapping re-feed must be idempotent. *)
      Alcotest.(check bool) "batch 3" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      Alcotest.(check bool) "batch 3 again" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      let rdb = Option.get (Replica.database replica) in
      Alcotest.(check string) "same identity" (Database.database_id db)
        (Database.database_id rdb);
      (* Digests agree between primary and secondary. *)
      let dp = fresh_digest db in
      Alcotest.(check bool) "ship the digest-close too" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      let dr = Option.get (Database.generate_digest rdb) in
      Alcotest.(check string) "identical digests"
        (Ledger_crypto.Hex.encode dp.Digest.block_hash)
        (Ledger_crypto.Hex.encode dr.Digest.block_hash);
      Alcotest.(check bool) "replica verifies primary's digest" true
        (Verifier.ok (Verifier.verify rdb ~digests:[ dp ])))

let test_uncommitted_never_visible () =
  with_wal (fun path ->
      let db = make_db ~block_size:100 ~wal_path:path "p2" in
      let accounts = make_accounts db in
      ignore (insert_account db accounts "Committed" 1);
      let replica = Replica.create ~clock:(make_clock ()) () in
      Alcotest.(check bool) "feed" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      let rdb = Option.get (Replica.database replica) in
      Alcotest.(check bool) "committed row present" true
        (Ledger_table.find
           (Database.ledger_table rdb "accounts")
           ~key:[| vs "Committed" |]
        <> None);
      (* A transaction the primary later aborts is never applied. *)
      let txn = Database.begin_txn db ~user:"m" in
      Txn.insert txn accounts [| vs "Doomed"; vi 1 |];
      Txn.rollback txn;
      Alcotest.(check bool) "feed 2" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      Alcotest.(check bool) "aborted row absent" true
        (Ledger_table.find
           (Database.ledger_table rdb "accounts")
           ~key:[| vs "Doomed" |]
        = None))

let test_replication_gate_with_real_replica () =
  (* §3.6 end to end: digests are issued only once the secondary has the
     data; a lagging secondary defers issuance. *)
  with_wal (fun path ->
      let db = make_db ~block_size:3 ~wal_path:path "p3" in
      let accounts = make_accounts db in
      let replica = Replica.create ~clock:(make_clock ()) () in
      let store = WS.create () in
      let dm =
        DM.create
          ~replicated_upto:(fun () -> Replica.replicated_upto replica)
          ~store ()
      in
      ignore (insert_account db accounts "A" 1);
      (* Secondary has not caught up: digest deferred. *)
      (match DM.upload dm db with
      | DM.Deferred_replication_lag -> ()
      | _ -> Alcotest.fail "expected deferral");
      (* Ship the log; now the digest goes out. *)
      Alcotest.(check bool) "catch up" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      match DM.upload dm db with
      | DM.Uploaded d ->
          (* And, per the gate's purpose: the digest is covered by the
             secondary, so a failover keeps it verifiable. *)
          Alcotest.(check bool) "ship close" true
            (Replica.feed_from_file replica ~wal_path:path = Ok ());
          let promoted = Result.get_ok (Replica.promote replica) in
          Alcotest.(check bool) "digest survives failover" true
            (Verifier.ok (Verifier.verify promoted ~digests:[ d ]))
      | _ -> Alcotest.fail "expected upload")

let test_failover_promotion () =
  with_wal (fun path ->
      let db = make_db ~block_size:3 ~wal_path:path "p4" in
      let accounts = make_accounts db in
      figure2 db accounts;
      let replica = Replica.create ~clock:(make_clock ()) () in
      Alcotest.(check bool) "synced" true
        (Replica.feed_from_file replica ~wal_path:path = Ok ());
      (* Disaster strikes the primary; promote the secondary. *)
      let promoted = Result.get_ok (Replica.promote replica) in
      let acc = Database.ledger_table promoted "accounts" in
      ignore
        (Database.with_txn promoted ~user:"dr" (fun txn ->
             Txn.insert txn acc [| vs "PostFailover"; vi 1 |]));
      let d = Option.get (Database.generate_digest promoted) in
      Alcotest.(check bool) "new primary verifies" true
        (Verifier.ok (Verifier.verify promoted ~digests:[ d ])))

let test_promote_before_feed () =
  let replica = Replica.create () in
  match Replica.promote replica with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unfed replica must not promote"

(* Crash-anywhere property: replaying ANY prefix of the log yields a
   database that passes verification (with no digests — internal
   consistency), i.e. recovery never produces a half-applied state. *)
let prop_any_crash_prefix_recovers =
  QCheck.Test.make ~name:"replay of any log prefix verifies" ~count:20
    (QCheck.make QCheck.Gen.(pair (0 -- 10_000) (0 -- 1000)))
    (fun (seed, cut) ->
      let path = Filename.temp_file "prefix" ".log" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let db = make_db ~block_size:2 ~wal_path:path "prop" in
          let accounts = make_accounts db in
          let prng = Workload.Prng.create seed in
          for i = 1 to 15 do
            let name = Printf.sprintf "r%d" i in
            ignore (insert_account db accounts name (Workload.Prng.int prng 100));
            if Workload.Prng.bool prng then
              ignore (update_account db accounts name (Workload.Prng.int prng 100))
          done;
          let records = Result.get_ok (Aries.Wal.load path) in
          let n = List.length records in
          let keep = 1 + (cut mod n) in
          let prefix = List.filteri (fun i _ -> i < keep) records in
          match prefix with
          | (_, Aries.Log_record.Ddl _) :: _ -> (
              match Wal_replay.replay ~clock:(make_clock ()) ~records:prefix () with
              | Error _ -> false
              | Ok db' -> Verifier.ok (Verifier.verify db' ~digests:[]))
          | _ -> true (* prefix too short to contain the header *)))

(* The replica applies a shipped CHECKPOINT (it flushes its queue) but
   never logs one: its database's own log holds nothing the primary's
   does not. *)
let test_replica_never_logs () =
  let primary = make_db "primary" in
  let accounts = make_accounts primary in
  figure2 primary accounts;
  Database.checkpoint primary;
  ignore (insert_account primary accounts "Late" 7);
  let records = Aries.Wal.records (Database_ledger.wal (Database.ledger primary)) in
  let checkpoints records =
    List.filter_map
      (function lsn, Aries.Log_record.Checkpoint _ -> Some lsn | _ -> None)
      records
  in
  Alcotest.(check bool) "the primary logged a checkpoint" true
    (checkpoints records <> []);
  let replica = Replica.create ~clock:(make_clock ()) () in
  (match Replica.feed replica records with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rdb = Option.get (Replica.database replica) in
  Alcotest.(check int) "the checkpoint flushed the replica's queue too"
    (Database_ledger.queue_length (Database.ledger primary))
    (Database_ledger.queue_length (Database.ledger rdb));
  Alcotest.(check (list int)) "no checkpoint in the replica's own log" []
    (checkpoints (Aries.Wal.records (Database_ledger.wal (Database.ledger rdb))))

let () =
  Alcotest.run "replica"
    [
      ( "streaming",
        [
          Alcotest.test_case "incremental feed" `Quick test_incremental_feed;
          Alcotest.test_case "uncommitted invisible" `Quick test_uncommitted_never_visible;
          Alcotest.test_case "replication gate" `Quick test_replication_gate_with_real_replica;
          Alcotest.test_case "failover promotion" `Quick test_failover_promotion;
          Alcotest.test_case "promote before feed" `Quick test_promote_before_feed;
          Alcotest.test_case "a replica never logs" `Quick test_replica_never_logs;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_any_crash_prefix_recovers ] );
    ]
