(* Durable directory databases: create / crash / reopen cycles with digest
   continuity, checkpointing and log compaction. *)

open Sql_ledger
open Testkit

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Recovery can leave extra generations around (snapshot.json.prev, a stale
   .tmp), so clean the whole directory, not a fixed file list. *)
let with_dir f =
  let dir = Filename.temp_file "durable" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let open_ok ?clock dir =
  match Durable.open_dir ?clock ~dir ~name:"dur" () with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_create_crash_reopen () =
  with_dir (fun dir ->
      let t = open_ok ~clock:(make_clock ()) dir in
      let db = Durable.db t in
      let accounts = make_accounts db in
      figure2 db accounts;
      let d = fresh_digest db in
      (* "Crash": drop the handle on the floor; reopen from disk. *)
      let t2 = open_ok ~clock:(make_clock ()) dir in
      let db2 = Durable.db t2 in
      Alcotest.(check string) "identity" (Database.database_id db)
        (Database.database_id db2);
      Alcotest.(check int) "rows" 3
        (Ledger_table.row_count (Database.ledger_table db2 "accounts"));
      Alcotest.(check bool) "old digest verifies" true
        (Verifier.ok (Verifier.verify db2 ~digests:[ d ])))

let test_multiple_generations () =
  with_dir (fun dir ->
      let digests = ref [] in
      for generation = 1 to 4 do
        let t = open_ok ~clock:(make_clock ()) dir in
        let db = Durable.db t in
        let accounts =
          if generation = 1 then make_accounts db
          else Database.ledger_table db "accounts"
        in
        ignore
          (insert_account db accounts (Printf.sprintf "gen%d" generation)
             generation);
        digests := fresh_digest db :: !digests;
        if generation mod 2 = 0 then Durable.checkpoint t
      done;
      let t = open_ok ~clock:(make_clock ()) dir in
      let db = Durable.db t in
      Alcotest.(check int) "all generations present" 4
        (Ledger_table.row_count (Database.ledger_table db "accounts"));
      Alcotest.(check bool) "all digests verify" true
        (Verifier.ok (Verifier.verify db ~digests:!digests)))

let test_compact_bounds_log () =
  with_dir (fun dir ->
      let t = open_ok ~clock:(make_clock ()) dir in
      let db = Durable.db t in
      let accounts = make_accounts db in
      for i = 1 to 10 do
        ignore (insert_account db accounts (Printf.sprintf "x%d" i) i)
      done;
      let size_before = (Unix.stat (Durable.wal_path dir)).Unix.st_size in
      Durable.compact t;
      let size_after = (Unix.stat (Durable.wal_path dir)).Unix.st_size in
      Alcotest.(check bool) "log shrank" true (size_after < size_before);
      (* Post-compact writes and recovery still work. *)
      ignore (insert_account db accounts "post" 1);
      let d = fresh_digest db in
      let t2 = open_ok ~clock:(make_clock ()) dir in
      Alcotest.(check bool) "recovered post-compact" true
        (Verifier.ok (Verifier.verify (Durable.db t2) ~digests:[ d ])))

let test_reopen_after_compact_crash () =
  (* compact writes the snapshot, then truncates the log; simulate a crash
     right after the truncate by compacting and reopening immediately. *)
  with_dir (fun dir ->
      let t = open_ok ~clock:(make_clock ()) dir in
      let db = Durable.db t in
      let accounts = make_accounts db in
      ignore (insert_account db accounts "kept" 1);
      Durable.compact t;
      let t2 = open_ok ~clock:(make_clock ()) dir in
      Alcotest.(check bool) "row survived" true
        (Ledger_table.find
           (Database.ledger_table (Durable.db t2) "accounts")
           ~key:[| vs "kept" |]
        <> None))

(* ------------------------------------------------------------------ *)
(* Crash shapes around compaction and snapshot generations *)

let reopen_has_kept ?(name = "kept") dir =
  let t = open_ok ~clock:(make_clock ()) dir in
  let db = Durable.db t in
  Alcotest.(check bool) (name ^ " survived") true
    (Ledger_table.find (Database.ledger_table db "accounts")
       ~key:[| vs name |]
    <> None);
  Alcotest.(check bool) "recovered ledger verifies" true
    (Verifier.ok (Verifier.verify db ~digests:[]))

let setup_kept dir =
  let t = open_ok ~clock:(make_clock ()) dir in
  let db = Durable.db t in
  let accounts = make_accounts db in
  ignore (insert_account db accounts "kept" 1);
  t

let test_compact_crash_before_truncate () =
  (* Snapshot written, log not yet truncated: replay must skip the whole
     log (the snapshot already covers it), not re-apply it. *)
  with_dir (fun dir ->
      Fault.reset ();
      let t = setup_kept dir in
      Fault.set "compact.truncate" (Fault.Crash_after 0);
      (match Durable.compact t with
      | exception Fault.Injected_crash _ -> ()
      | () -> Alcotest.fail "expected injected crash");
      Fault.reset ();
      reopen_has_kept dir)

let test_snapshot_present_wal_absent () =
  with_dir (fun dir ->
      let t = setup_kept dir in
      Durable.checkpoint t;
      Sys.remove (Durable.wal_path dir);
      reopen_has_kept dir)

let test_snapshot_present_wal_empty () =
  with_dir (fun dir ->
      let t = setup_kept dir in
      Durable.checkpoint t;
      let fd = Unix.openfile (Durable.wal_path dir) [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd 0;
      Unix.close fd;
      reopen_has_kept dir)

let test_stale_tmp_is_recovered_then_consumed () =
  (* Crash between the snapshot's fsync and rename: the only copy of the
     newest generation is the complete .tmp. Recovery must use it, and the
     re-home save must leave no stale .tmp behind. *)
  with_dir (fun dir ->
      Fault.reset ();
      let t = setup_kept dir in
      Durable.checkpoint t;
      let db = Durable.db t in
      ignore (insert_account db (Database.ledger_table db "accounts") "late" 2);
      Fault.set "snapshot.rename" (Fault.Crash_after 0);
      (match Durable.checkpoint t with
      | exception Fault.Injected_crash _ -> ()
      | () -> Alcotest.fail "expected injected crash");
      Fault.reset ();
      let snap = Durable.snapshot_path dir in
      Alcotest.(check bool) "current gone (renamed to .prev)" false
        (Sys.file_exists snap);
      Alcotest.(check bool) "complete tmp left" true
        (Sys.file_exists (snap ^ ".tmp"));
      reopen_has_kept ~name:"late" dir;
      Alcotest.(check bool) "tmp consumed by re-home save" false
        (Sys.file_exists (snap ^ ".tmp"));
      Alcotest.(check bool) "current restored" true (Sys.file_exists snap))

let test_prev_generation_fallback () =
  (* The current snapshot is corrupt on disk; recovery must fall back to
     the retained previous generation and replay the log over it. *)
  with_dir (fun dir ->
      let t = setup_kept dir in
      Durable.checkpoint t;
      let db = Durable.db t in
      ignore (insert_account db (Database.ledger_table db "accounts") "late" 2);
      Durable.checkpoint t;
      let snap = Durable.snapshot_path dir in
      Alcotest.(check bool) "previous generation retained" true
        (Sys.file_exists (snap ^ ".prev"));
      (* Flip a byte inside the current snapshot's body. *)
      let contents = In_channel.with_open_bin snap In_channel.input_all in
      let b = Bytes.of_string contents in
      let mid = String.length contents / 2 in
      Bytes.set b mid (if Bytes.get b mid = 'x' then 'y' else 'x');
      Out_channel.with_open_bin snap (fun oc -> Out_channel.output_bytes oc b);
      reopen_has_kept ~name:"late" dir)

let test_all_generations_corrupt_fails_loudly () =
  (* No usable snapshot and no log: refusing beats silently re-creating an
     empty database over durable data. *)
  with_dir (fun dir ->
      let t = setup_kept dir in
      Durable.checkpoint t;
      let snap = Durable.snapshot_path dir in
      Out_channel.with_open_bin snap (fun oc ->
          Out_channel.output_string oc "SQLLEDGER-SNAPSHOT v2 garbage");
      (try Sys.remove (snap ^ ".prev") with Sys_error _ -> ());
      Sys.remove (Durable.wal_path dir);
      match Durable.open_dir ~dir ~name:"dur" () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt-everything open must fail loudly")

let test_work_after_reopen_is_durable () =
  with_dir (fun dir ->
      (* generation 1 *)
      let t = open_ok ~clock:(make_clock ()) dir in
      let accounts = make_accounts (Durable.db t) in
      ignore (insert_account (Durable.db t) accounts "first" 1);
      (* generation 2: write more, crash again *)
      let t2 = open_ok ~clock:(make_clock ()) dir in
      let acc2 = Database.ledger_table (Durable.db t2) "accounts" in
      ignore (insert_account (Durable.db t2) acc2 "second" 2);
      (* generation 3: both present *)
      let t3 = open_ok ~clock:(make_clock ()) dir in
      let acc3 = Database.ledger_table (Durable.db t3) "accounts" in
      Alcotest.(check bool) "first" true
        (Ledger_table.find acc3 ~key:[| vs "first" |] <> None);
      Alcotest.(check bool) "second" true
        (Ledger_table.find acc3 ~key:[| vs "second" |] <> None);
      let d = Option.get (Database.generate_digest (Durable.db t3)) in
      Alcotest.(check bool) "verifies" true
        (Verifier.ok (Verifier.verify (Durable.db t3) ~digests:[ d ])))

(* A DDL statement whose publish fails is refused, and must not come back
   after a restart: neither the change nor a metadata event for it. Each
   case runs in a fresh directory. *)
let test_refused_ddl_does_not_come_back () =
  let meta_events db =
    Ledger_table.row_count (Database.tables_meta db)
    + Ledger_table.row_count (Database.columns_meta db)
  in
  let column_named name db =
    Relation.Schema.find
      (Ledger_table.schema (Database.ledger_table db "accounts"))
      name
    <> None
  in
  List.iter
    (fun (what, prepare, ddl, present) ->
      with_dir (fun dir ->
          let db = Durable.db (open_ok ~clock:(make_clock ()) dir) in
          prepare db;
          let digests = Option.to_list (Database.generate_digest db) in
          let events = meta_events db in
          Fault.set "wal.batch_append" Fault.Fail;
          (match Fun.protect ~finally:Fault.reset (fun () -> ddl db) with
          | () -> Alcotest.failf "%s: acknowledged although its publish failed" what
          | exception Fault.Injected_error _ -> ());
          let db2 = Durable.db (open_ok ~clock:(make_clock ()) dir) in
          Alcotest.(check bool) (what ^ ": absent after reopen") false (present db2);
          Alcotest.(check int) (what ^ ": no metadata event") events (meta_events db2);
          Alcotest.(check bool) (what ^ ": verifies") true
            (Verifier.ok (Verifier.verify db2 ~digests))))
    [
      ( "create_ledger_table",
        ignore,
        (fun db -> ignore (make_accounts db)),
        fun db -> Database.find_ledger_table db "accounts" <> None );
      ( "add_column",
        (fun db -> figure2 db (make_accounts db)),
        (fun db ->
          Database.add_column db ~table:"accounts"
            (Relation.Column.make ~nullable:true "note" (Relation.Datatype.Varchar 20))),
        column_named "note" );
      ( "create_regular_table",
        ignore,
        (fun db ->
          ignore
            (Database.create_regular_table db ~name:"plain" ~columns:accounts_columns
               ~key:[ "name" ] ()
              : Storage.Table_store.t)),
        fun db ->
          match Database.regular_table db "plain" with
          | _ -> true
          | exception Types.Ledger_error _ -> false );
    ]

let () =
  Alcotest.run "durable"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create/crash/reopen" `Quick test_create_crash_reopen;
          Alcotest.test_case "multiple generations" `Quick test_multiple_generations;
          Alcotest.test_case "compact bounds the log" `Quick test_compact_bounds_log;
          Alcotest.test_case "compact-crash reopen" `Quick test_reopen_after_compact_crash;
          Alcotest.test_case "durability across reopens" `Quick test_work_after_reopen_is_durable;
          Alcotest.test_case "refused DDL does not come back" `Quick
            test_refused_ddl_does_not_come_back;
        ] );
      ( "crash shapes",
        [
          Alcotest.test_case "compact crash before truncate" `Quick
            test_compact_crash_before_truncate;
          Alcotest.test_case "snapshot + absent wal" `Quick
            test_snapshot_present_wal_absent;
          Alcotest.test_case "snapshot + empty wal" `Quick
            test_snapshot_present_wal_empty;
          Alcotest.test_case "stale tmp recovered + consumed" `Quick
            test_stale_tmp_is_recovered_then_consumed;
          Alcotest.test_case "prev generation fallback" `Quick
            test_prev_generation_fallback;
          Alcotest.test_case "all generations corrupt" `Quick
            test_all_generations_corrupt_fails_loudly;
        ] );
    ]
