(* Non-repudiation receipts (§5.1): Merkle proof + per-block signature,
   verified without access to the database — even after the ledger is
   destroyed.

   The property suite is seeded: set RECEIPT_SEED / RECEIPT_TRIALS to
   reproduce or widen a run. *)

open Sql_ledger
open Testkit

let setup () =
  let db = make_db ~signing_seed:"receipt-seed" "receipts" in
  let accounts = make_accounts db in
  figure2 db accounts;
  let digest = fresh_digest db in
  (db, digest)

let fail_v e = Alcotest.fail (Receipt.failure_to_string e)

let expect_failure label expected = function
  | Ok () -> Alcotest.failf "%s: accepted" label
  | Error got ->
      Alcotest.(check string)
        label
        (Receipt.failure_to_string expected)
        (Receipt.failure_to_string got)

let test_generate_and_verify () =
  (* block_size = 4, 7 committed txns: block 0 = txns 1-4, block 1 (the
     digest's block) = txns 5-7. *)
  let db, digest = setup () in
  match Receipt.generate db ~txn_id:6 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "txn id" 6 r.Receipt.entry.Types.txn_id;
      Alcotest.(check bool) "signed" true (r.Receipt.signature <> None);
      (match Receipt.verify r with Ok () -> () | Error e -> fail_v e);
      (match Receipt.verify ~digest r with Ok () -> () | Error e -> fail_v e);
      let fp =
        Ledger_crypto.Lamport.fingerprint (Option.get r.Receipt.public_key)
      in
      match Receipt.verify ~expected_fingerprint:fp r with
      | Ok () -> ()
      | Error e -> fail_v e

let test_receipt_for_every_txn_in_block () =
  let db, _ = setup () in
  let entries = Database_ledger.entries (Database.ledger db) in
  List.iter
    (fun (e : Types.txn_entry) ->
      match Receipt.generate db ~txn_id:e.txn_id with
      | Ok r -> (
          match Receipt.verify r with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "txn %d: %s" e.txn_id (Receipt.failure_to_string f))
      | Error msg -> Alcotest.failf "txn %d: %s" e.txn_id msg)
    entries

let test_open_block_rejected () =
  let db, _ = setup () in
  let accounts = Database.ledger_table db "accounts" in
  let e = insert_account db accounts "Open" 1 in
  (match Receipt.generate db ~txn_id:e.Types.txn_id with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "open-block receipt must be refused");
  (match Receipt.generate_cached db ~txn_id:e.Types.txn_id with
  | Error Receipt.Open_block -> ()
  | Error _ -> Alcotest.fail "expected Open_block"
  | Ok _ -> Alcotest.fail "open-block receipt must be refused (cached)");
  Alcotest.(check bool)
    "open txn is pending" true
    (Receipt.txn_pending db ~txn_id:e.Types.txn_id)

let test_unknown_txn_rejected () =
  let db, _ = setup () in
  (match Receipt.generate db ~txn_id:424242 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown txn must be refused");
  (match Receipt.generate_cached db ~txn_id:424242 with
  | Error Receipt.Unknown_txn -> ()
  | Error _ -> Alcotest.fail "expected Unknown_txn"
  | Ok _ -> Alcotest.fail "unknown txn must be refused (cached)");
  Alcotest.(check bool)
    "unknown txn is not pending" false
    (Receipt.txn_pending db ~txn_id:424242)

let test_json_roundtrip () =
  let db, digest = setup () in
  match Receipt.generate db ~txn_id:7 with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Receipt.of_string (Receipt.to_string r) with
      | Error e -> Alcotest.fail e
      | Ok r' -> (
          match Receipt.verify ~digest r' with
          | Ok () -> ()
          | Error e -> fail_v e))

let test_survives_ledger_destruction () =
  (* The whole point of §5.1: the receipt stands on its own after the
     ledger is destroyed or tampered with. *)
  let db, digest = setup () in
  let receipt_json =
    match Receipt.generate db ~txn_id:5 with
    | Ok r -> Receipt.to_string r
    | Error e -> Alcotest.fail e
  in
  (* Destroy the ledger. *)
  ignore (Tamper.apply db (Tamper.Fork_chain { block_id = 0 }));
  ignore
    (Tamper.apply db (Tamper.Delete_row { table = "accounts"; key = [| vs "Mary" |] }));
  match Receipt.of_string receipt_json with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match Receipt.verify ~digest r with
      | Ok () -> ()
      | Error e -> fail_v e)

let test_forged_receipt_rejected () =
  let db, digest = setup () in
  match Receipt.generate db ~txn_id:5 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      (* Claim a different commit outcome: the entry no longer hashes to
         the proven leaf. *)
      let forged_entry = { r.Receipt.entry with Types.user = "forged" } in
      let forged = { r with Receipt.entry = forged_entry } in
      expect_failure "forged entry" Receipt.Tampered_row
        (Receipt.verify ~digest forged);
      (* Tampered proof *)
      let bad_proof =
        match r.Receipt.proof with
        | step :: rest ->
            (match step with
            | Merkle.Proof.Sibling_left h ->
                Merkle.Proof.Sibling_right h :: rest
            | Merkle.Proof.Sibling_right h ->
                Merkle.Proof.Sibling_left h :: rest)
        | [] -> [ Merkle.Proof.Sibling_left (String.make 32 'x') ]
      in
      expect_failure "tampered proof" Receipt.Bad_path
        (Receipt.verify ~digest { r with Receipt.proof = bad_proof });
      (* Forged block (hash change) must clash with the digest. *)
      let forged_block = { r.Receipt.block with Types.txn_count = 99 } in
      expect_failure "forged block" Receipt.Wrong_root
        (Receipt.verify ~digest { r with Receipt.block = forged_block });
      (* A digest for some other block cannot vouch for this receipt. *)
      let stale = { digest with Digest.block_id = digest.Digest.block_id + 5 } in
      expect_failure "stale digest" Receipt.Stale_digest
        (Receipt.verify ~digest:stale r);
      (* Wrong fingerprint pin. *)
      expect_failure "wrong fingerprint" Receipt.Wrong_key
        (Receipt.verify ~expected_fingerprint:(String.make 32 'z') r)

let test_unsigned_database () =
  (* Without a signing seed, receipts still carry a verifiable proof. *)
  let db = make_db "unsigned" in
  let accounts = make_accounts db in
  figure2 db accounts;
  ignore (fresh_digest db);
  match Receipt.generate db ~txn_id:3 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "no signature" true (r.Receipt.signature = None);
      (match Receipt.verify r with Ok () -> () | Error e -> fail_v e)

(* ------------------------------------------------------------------ *)
(* Cached issuance: byte-identical to the uncached reference path. *)

(* Every entry's cached receipt equals its uncached one, byte for byte. *)
let check_cached_equals_uncached label db =
  List.iter
    (fun (e : Types.txn_entry) ->
      match
        ( Receipt.generate db ~txn_id:e.txn_id,
          Receipt.generate_cached db ~txn_id:e.txn_id )
      with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (Printf.sprintf "%s: txn %d receipt bytes" label e.txn_id)
            (Receipt.to_string a) (Receipt.to_string b)
      | Error msg, _ -> Alcotest.failf "txn %d uncached: %s" e.txn_id msg
      | _, Error f ->
          Alcotest.failf "txn %d cached: %s" e.txn_id
            (Receipt.issue_error_to_string ~txn_id:e.txn_id f))
    (Database_ledger.entries (Database.ledger db))

let test_cached_equals_uncached () =
  let db, _ = setup () in
  check_cached_equals_uncached "first pass" db;
  (* Issue twice: the second pass is served entirely from the cache and
     must not drift. *)
  check_cached_equals_uncached "second pass" db;
  (* More closed blocks than the cache holds: the oldest are evicted as
     the commit path closes blocks, then rebuilt (evicting others) when
     their receipts are asked for, so hits, misses and rebuilt blocks'
     positions are all compared. *)
  let db = make_db ~block_size:2 "receipts-evicted" in
  let accounts = make_accounts db in
  for i = 1 to 2 * 140 do
    ignore (insert_account db accounts (Printf.sprintf "acct%d" i) i)
  done;
  ignore (fresh_digest db);
  Alcotest.(check bool) "more closed blocks than the cache holds" true
    (List.length (Database_ledger.blocks (Database.ledger db)) > 128);
  check_cached_equals_uncached "evicted blocks" db;
  check_cached_equals_uncached "rebuilt blocks" db

let test_snapshot_receipts_equal_primary () =
  (* A replica restored from the primary's published snapshot issues the
     same receipts, byte for byte (the signing seed travels with it). *)
  let db, _ = setup () in
  let snapshot = Snapshot.save db in
  let db' =
    match Snapshot.load snapshot with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let entries = Database_ledger.entries (Database.ledger db) in
  List.iter
    (fun (e : Types.txn_entry) ->
      match
        ( Receipt.generate_cached db ~txn_id:e.txn_id,
          Receipt.generate_cached db' ~txn_id:e.txn_id )
      with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (Printf.sprintf "txn %d primary vs snapshot" e.txn_id)
            (Receipt.to_string a) (Receipt.to_string b)
      | Error f, _ | _, Error f ->
          Alcotest.failf "txn %d: %s" e.txn_id
            (Receipt.issue_error_to_string ~txn_id:e.txn_id f))
    entries

(* The batched wire path strips each receipt's key material — the
   dominant fields by size — and carries it once per block; inflating
   must restore the self-contained single-receipt JSON byte for byte. *)
let test_batch_key_amortization () =
  let db, _ = setup () in
  let entries = Database_ledger.entries (Database.ledger db) in
  let receipts =
    List.filter_map
      (fun (e : Types.txn_entry) ->
        match Receipt.generate_cached db ~txn_id:e.txn_id with
        | Ok r -> Some r
        | Error _ -> None)
      entries
  in
  Alcotest.(check bool) "issued some receipts" true (receipts <> []);
  (* One key-material entry per block, first occurrence wins — exactly
     the dedup the server applies to a batch. *)
  let seen = Hashtbl.create 8 in
  let block_keys =
    List.filter_map
      (fun r ->
        match Receipt.key_material r with
        | Some (b, km) when not (Hashtbl.mem seen b) ->
            Hashtbl.replace seen b ();
            Some km
        | _ -> None)
      receipts
  in
  Alcotest.(check bool) "signed receipts carry key material" true
    (block_keys <> []);
  let stripped =
    List.map (fun r -> Receipt.to_json (Receipt.strip_keys r)) receipts
  in
  let inflated = Receipt.inflate_batch ~block_keys stripped in
  List.iter2
    (fun r j ->
      Alcotest.(check string)
        (Printf.sprintf "txn %d inflated = self-contained"
           r.Receipt.entry.Types.txn_id)
        (Receipt.to_string r)
        (Sjson.to_string ~pretty:true j);
      match Receipt.of_json j with
      | Error e -> Alcotest.fail e
      | Ok r' -> (
          match Receipt.verify r' with Ok () -> () | Error f -> fail_v f))
    receipts inflated;
  (* Missing key material is not fatal: the receipt passes through
     stripped and still verifies — as an unsigned receipt. *)
  List.iter
    (fun j ->
      match Receipt.of_json j with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          Alcotest.(check bool) "stripped receipt is unsigned" true
            (r'.Receipt.public_key = None);
          (match Receipt.verify r' with Ok () -> () | Error f -> fail_v f))
    (Receipt.inflate_batch ~block_keys:[] stripped)

(* ------------------------------------------------------------------ *)
(* Seeded property suite over randomized block shapes. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default)
  | None -> default

let flip_byte s i =
  String.mapi
    (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
    s

let flip_proof_step = function
  | Merkle.Proof.Sibling_left h ->
      Merkle.Proof.Sibling_left (flip_byte h (String.length h / 2))
  | Merkle.Proof.Sibling_right h ->
      Merkle.Proof.Sibling_right (flip_byte h (String.length h / 2))

(* One trial: a fresh ledger with a random block size, enough committed
   transactions to close several blocks (1-leaf, power-of-two and odd
   shapes all occur across trials), receipts for the first, last and a
   random leaf of every closed block — each must verify offline, and
   every single-byte corruption must fail with the right typed reason. *)
let run_trial rng trial =
  let block_size = [| 1; 2; 3; 4; 5; 7; 8; 16 |].(Random.State.int rng 8) in
  let txns = 1 + Random.State.int rng (3 * block_size) in
  let seeded = Random.State.bool rng in
  let db =
    if seeded then
      make_db ~block_size
        ~signing_seed:(Printf.sprintf "prop-seed-%d" trial)
        (Printf.sprintf "prop-%d" trial)
    else make_db ~block_size (Printf.sprintf "prop-%d" trial)
  in
  let accounts = make_accounts db in
  for i = 1 to txns do
    ignore (insert_account db accounts (Printf.sprintf "acct%04d" i) (i * 10))
  done;
  let digest =
    match Database.generate_digest db with
    | Some d -> d
    | None ->
        (* Every block is already closed and digested; force a fresh one. *)
        ignore (insert_account db accounts "spill" 1);
        fresh_digest db
  in
  let ctx = Printf.sprintf "trial %d (block_size %d, %d txns)" trial block_size txns in
  let blocks = Database_ledger.blocks (Database.ledger db) in
  Alcotest.(check bool) (ctx ^ ": has closed blocks") true (blocks <> []);
  List.iter
    (fun (b : Types.block) ->
      let entries =
        Database_ledger.entries_of_block (Database.ledger db)
          ~block_id:b.block_id
      in
      let n = List.length entries in
      let picks =
        List.sort_uniq compare
          [ 0; n - 1; Random.State.int rng n ]
      in
      List.iter
        (fun ordinal ->
          let e = List.nth entries ordinal in
          let label = Printf.sprintf "%s block %d leaf %d/%d" ctx b.block_id ordinal n in
          match Receipt.generate_cached db ~txn_id:e.Types.txn_id with
          | Error f ->
              Alcotest.failf "%s: %s" label
                (Receipt.issue_error_to_string ~txn_id:e.Types.txn_id f)
          | Ok r ->
              (* The cached receipt equals the reference path. *)
              (match Receipt.generate db ~txn_id:e.Types.txn_id with
              | Ok r0 ->
                  Alcotest.(check string) (label ^ ": cached = uncached")
                    (Receipt.to_string r0) (Receipt.to_string r)
              | Error msg -> Alcotest.failf "%s uncached: %s" label msg);
              let digest_opt =
                if b.Types.block_id = digest.Digest.block_id then Some digest
                else None
              in
              (match Receipt.verify ?digest:digest_opt r with
              | Ok () -> ()
              | Error f ->
                  Alcotest.failf "%s: %s" label (Receipt.failure_to_string f));
              (* Single-byte corruptions, each with its typed verdict. *)
              expect_failure (label ^ ": leaf flip") Receipt.Tampered_row
                (Receipt.verify ?digest:digest_opt
                   { r with Receipt.leaf = flip_byte r.Receipt.leaf 0 });
              expect_failure (label ^ ": row flip") Receipt.Tampered_row
                (Receipt.verify ?digest:digest_opt
                   {
                     r with
                     Receipt.entry =
                       {
                         r.Receipt.entry with
                         Types.user = flip_byte r.Receipt.entry.Types.user 0;
                       };
                   });
              (match r.Receipt.proof with
              | [] ->
                  (* A 1-leaf block has an empty proof; grafting a bogus
                     step must still fail as a path error. *)
                  expect_failure (label ^ ": grafted step") Receipt.Bad_path
                    (Receipt.verify ?digest:digest_opt
                       {
                         r with
                         Receipt.proof =
                           [ Merkle.Proof.Sibling_left (String.make 32 'x') ];
                       })
              | step :: rest ->
                  expect_failure (label ^ ": proof flip") Receipt.Bad_path
                    (Receipt.verify ?digest:digest_opt
                       { r with Receipt.proof = flip_proof_step step :: rest }));
              (match digest_opt with
              | Some d ->
                  expect_failure (label ^ ": pinned root flip")
                    Receipt.Wrong_root
                    (Receipt.verify
                       ~digest:
                         {
                           d with
                           Digest.block_hash = flip_byte d.Digest.block_hash 0;
                         }
                       r)
              | None -> ()))
        picks)
    blocks

let test_property_block_shapes () =
  let seed = env_int "RECEIPT_SEED" 0xC0FFEE in
  let trials = env_int "RECEIPT_TRIALS" 12 in
  let rng = Random.State.make [| seed |] in
  for trial = 1 to trials do
    run_trial rng trial
  done

let () =
  Alcotest.run "receipts"
    [
      ( "receipts",
        [
          Alcotest.test_case "generate + verify" `Quick test_generate_and_verify;
          Alcotest.test_case "every txn in block" `Quick test_receipt_for_every_txn_in_block;
          Alcotest.test_case "open block rejected" `Quick test_open_block_rejected;
          Alcotest.test_case "unknown txn rejected" `Quick test_unknown_txn_rejected;
          Alcotest.test_case "JSON roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "survives ledger destruction" `Quick test_survives_ledger_destruction;
          Alcotest.test_case "forgeries rejected" `Quick test_forged_receipt_rejected;
          Alcotest.test_case "unsigned database" `Quick test_unsigned_database;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cached = uncached" `Quick test_cached_equals_uncached;
          Alcotest.test_case "snapshot receipts equal primary" `Quick
            test_snapshot_receipts_equal_primary;
          Alcotest.test_case "batched key material inflates byte-identical"
            `Quick test_batch_key_amortization;
        ] );
      ( "property",
        [
          Alcotest.test_case "randomized block shapes" `Quick
            test_property_block_shapes;
        ] );
    ]
