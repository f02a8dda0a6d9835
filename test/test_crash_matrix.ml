(* Recovery torture tests: trip every registered failpoint under a
   randomized workload, and truncate the WAL tail at random byte offsets,
   then reopen through [Durable.open_dir] and assert that

   - every transaction whose commit returned before the fault survives,
   - at most the single in-flight transaction is additionally present
     (its commit record may have reached disk before the crash surfaced),
   - the verifier finds the recovered ledger intact, and
   - the reopened database accepts new work.

   Seed and trial count come from CRASH_MATRIX_SEED / CRASH_MATRIX_TRIALS
   so CI can pin a fixed seed and a nightly sweep can widen the search.
   The suite prints both at start, and every failure names them. *)

open Sql_ledger
open Testkit
module Prng = Workload.Prng
module LR = Aries.Log_record

let getenv_int name default =
  match int_of_string_opt (Sys.getenv name) with
  | Some n -> n
  | None -> default
  | exception Not_found -> default

let seed = getenv_int "CRASH_MATRIX_SEED" 0xC0FFEE
let trials = getenv_int "CRASH_MATRIX_TRIALS" 200

let failf fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "%s [CRASH_MATRIX_SEED=%d CRASH_MATRIX_TRIALS=%d]" msg
        seed trials)
    fmt

(* ------------------------------------------------------------------ *)
(* Temp directories *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = Filename.temp_file "crashmx" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Model-checked account workload

   Every committed operation is applied to an in-memory model of the
   accounts table; after recovery the real table must equal the model —
   or the model plus the one operation in flight when the fault fired. *)

type op = Insert of string * int | Update of string * int | Delete of string

let apply_op model = function
  | Insert (name, bal) | Update (name, bal) ->
      Hashtbl.replace model name bal
  | Delete name -> Hashtbl.remove model name

let model_rows model =
  Hashtbl.fold (fun name bal acc -> (name, bal) :: acc) model []
  |> List.sort compare

let table_rows db =
  match Database.find_ledger_table db "accounts" with
  | None -> []
  | Some lt ->
      Storage.Table_store.scan (Ledger_table.main lt)
      |> List.map (fun row ->
             match (row.(0), row.(1)) with
             | Relation.Value.String name, Relation.Value.Int bal -> (name, bal)
             | _ -> failf "unexpected accounts row shape")
      |> List.sort compare

type world = {
  mutable next_name : int;
  model : (string, int) Hashtbl.t;
  mutable pending : op option;  (* attempted, fate unknown until it returns *)
}

let fresh_world () = { next_name = 0; model = Hashtbl.create 64; pending = None }

let random_op w prng =
  let existing = Hashtbl.fold (fun k _ acc -> k :: acc) w.model [] in
  let roll = Prng.int prng 10 in
  if existing = [] || roll < 5 then begin
    w.next_name <- w.next_name + 1;
    Insert (Printf.sprintf "acct%d" w.next_name, Prng.int prng 1000)
  end
  else if roll < 8 then Update (Prng.pick prng existing, Prng.int prng 1000)
  else Delete (Prng.pick prng existing)

let commit_op db accounts w op =
  w.pending <- Some op;
  ignore
    (Database.with_txn db ~user:"torture" (fun txn ->
         match op with
         | Insert (name, bal) -> Txn.insert txn accounts [| vs name; vi bal |]
         | Update (name, bal) ->
             Txn.update txn accounts ~key:[| vs name |] [| vs name; vi bal |]
         | Delete name -> Txn.delete txn accounts ~key:[| vs name |]));
  apply_op w.model op;
  w.pending <- None

(* State after recovery must be the committed model, possibly extended by
   the operation that was in flight when the fault fired. *)
let check_recovered_state ~what w db =
  let actual = table_rows db in
  let expected = model_rows w.model in
  if actual <> expected then begin
    let plus = Hashtbl.copy w.model in
    Option.iter (apply_op plus) w.pending;
    let expected_plus = model_rows plus in
    if actual <> expected_plus then
      failf
        "%s: recovered table matches neither the committed model (%d rows) \
         nor model+pending (%d rows); got %d rows"
        what (List.length expected) (List.length expected_plus)
        (List.length actual)
  end

(* ------------------------------------------------------------------ *)
(* Failpoint matrix *)

(* Registered by the modules under test at link time; pinned here so a
   silently vanished registration fails the suite. *)
let expected_points =
  [
    "compact.truncate";
    "snapshot.fsync";
    "snapshot.rename";
    "snapshot.rename_prev";
    "snapshot.write";
    "wal.batch_append";
    "wal.batch_sync";
    "worm.mirror.fsync";
    "worm.mirror.rename";
    "worm.mirror.rename_prev";
    "worm.mirror.write";
  ]

let test_all_points_registered () =
  let registered = Fault.points () in
  List.iter
    (fun p ->
      if not (List.mem p registered) then
        failf "failpoint %s is not registered" p)
    expected_points

(* One full life: baseline work, arm the failpoint, keep working through
   commits / checkpoint / compact / WORM mirroring until the fault fires
   (or doesn't), then recover and check. *)
let run_scenario point mode scenario_seed =
  with_dir (fun dir ->
      Fault.reset ();
      let prng = Prng.create scenario_seed in
      let w = fresh_world () in
      let open_dir () =
        match Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"torture" () with
        | Ok t -> t
        | Error e -> failf "%s/%s: open_dir: %s" point
                       (Fault.mode_to_string mode) e
      in
      (* Baseline: committed work that must survive anything below. *)
      let t = open_dir () in
      let db = Durable.db t in
      let accounts = make_accounts db in
      for _ = 1 to 6 do
        commit_op db accounts w (random_op w prng)
      done;
      if Prng.bool prng then Durable.checkpoint t;
      let baseline_digest = fresh_digest db in
      let worm =
        Trusted_store.Worm_store.create ~dir:(Filename.concat dir "worm") ()
      in
      (* Armed phase: exercise every guarded path. A crash-mode fault kills
         the whole phase (the process is dead); an error-mode fault is a
         clean I/O failure the caller survives, so keep going. *)
      Fault.set point mode;
      let soft_fail thunk =
        match thunk () with
        | () -> ()
        | exception Fault.Injected_error _ -> w.pending <- None
      in
      (try
         for i = 1 to 12 do
           match i mod 4 with
           | 1 | 2 ->
               soft_fail (fun () -> commit_op db accounts w (random_op w prng))
           | 3 ->
               soft_fail (fun () ->
                   if i = 3 then Durable.checkpoint t else Durable.compact t)
           | _ ->
               soft_fail (fun () ->
                   match
                     Trusted_store.Worm_store.append worm ~blob:"digests"
                       (Digest.to_string (fresh_digest db))
                   with
                   | Ok () -> ()
                   | Error e -> failf "worm append refused: %s" e)
         done
       with Fault.Injected_crash _ -> ());
      Fault.reset ();
      (* Reopen what the "crashed process" left on disk. *)
      let t2 = open_dir () in
      let db2 = Durable.db t2 in
      let what = point ^ "/" ^ Fault.mode_to_string mode in
      check_recovered_state ~what w db2;
      if not (Verifier.ok (Verifier.verify db2 ~digests:[ baseline_digest ]))
      then failf "%s: recovered ledger failed verification" what;
      (* Resolve the in-doubt operation against what actually recovered:
         if its commit record made it to disk, it is now part of history. *)
      (match w.pending with
      | Some op when table_rows db2 <> model_rows w.model ->
          apply_op w.model op
      | _ -> ());
      w.pending <- None;
      (* The survivor must accept new work durably. *)
      commit_op db2 (Database.ledger_table db2 "accounts") w
        (random_op w prng);
      let t3 = open_dir () in
      check_recovered_state ~what:(what ^ " (post-recovery work)") w
        (Durable.db t3);
      (* A mirror blob file, if any survived, is complete: atomic_write
         never leaves a torn mirror in place. *)
      let mirror = Filename.concat (Filename.concat dir "worm") "digests.blob" in
      if Sys.file_exists mirror then begin
        let contents = In_channel.with_open_bin mirror In_channel.input_all in
        if contents <> "" && contents.[String.length contents - 1] <> '\n'
        then failf "%s: torn WORM mirror file" what
      end)

(* Error-mode is skipped for wal.batch_sync: a failed commit fsync leaves
   the commit's durability unknowable — its frame is already written, so
   it may well survive — which no caller can "handle and continue" (the
   fsyncgate lesson); only the crash modes are meaningful there. *)
let modes_for point =
  let crash_modes = [ Fault.Crash_after 0; Fault.Crash_after 37 ] in
  if point = "wal.batch_sync" then crash_modes else Fault.Fail :: crash_modes

let matrix_cases =
  List.concat_map
    (fun point ->
      List.map
        (fun mode ->
          let name = point ^ "=" ^ Fault.mode_to_string mode in
          Alcotest.test_case name `Quick (fun () ->
              run_scenario point mode (seed lxor Hashtbl.hash name)))
        (modes_for point))
    expected_points

(* ------------------------------------------------------------------ *)
(* Group-commit batch boundaries

   Drive commits the way the server's commit leader does — stage each
   transaction, then publish several at once through
   [Database_ledger.publish] and [Database_ledger.accumulate_batch] —
   with the batch failpoints armed. The batch frame is a single
   checksummed WAL line, so recovery must observe each batch
   all-or-nothing: the committed model, or the committed model plus the
   *entire* batch in flight, never a prefix of it. *)

(* Conflict-free random batch: ops are generated against a scratch view
   that applies them as they are drawn, so a batch never updates a row an
   earlier member deleted (staged transactions see each other's
   in-memory effects, exactly like queued server commits). *)
let random_batch w prng n =
  let view = Hashtbl.copy w.model in
  List.init n (fun _ ->
      let existing = Hashtbl.fold (fun k _ acc -> k :: acc) view [] in
      let roll = Prng.int prng 10 in
      let op =
        if existing = [] || roll < 5 then begin
          w.next_name <- w.next_name + 1;
          Insert (Printf.sprintf "acct%d" w.next_name, Prng.int prng 1000)
        end
        else if roll < 8 then Update (Prng.pick prng existing, Prng.int prng 1000)
        else Delete (Prng.pick prng existing)
      in
      apply_op view op;
      op)

(* Stage every op as its own transaction, publish them as one batch. The
   model is updated only once the publish returns — until then the whole
   batch is in flight. *)
let commit_batch db accounts w ops =
  let staged =
    List.map
      (fun op ->
        let txn = Database.begin_txn db ~user:"torture" in
        (match op with
        | Insert (name, bal) -> Txn.insert txn accounts [| vs name; vi bal |]
        | Update (name, bal) ->
            Txn.update txn accounts ~key:[| vs name |] [| vs name; vi bal |]
        | Delete name -> Txn.delete txn accounts ~key:[| vs name |]);
        Txn.stage_commit txn)
      ops
  in
  let ledger = Database.ledger db in
  Database_ledger.publish ledger (List.concat_map snd staged);
  Database_ledger.accumulate_batch ledger (List.map fst staged);
  List.iter (apply_op w.model) ops

let check_recovered_batch ~what w pending db =
  let actual = table_rows db in
  if actual <> model_rows w.model then begin
    let plus = Hashtbl.copy w.model in
    List.iter (apply_op plus) pending;
    if actual <> model_rows plus then
      failf
        "%s: recovered table is neither the pre-batch state (%d committed \
         ops pending none) nor the state with the whole %d-op batch — a \
         batch prefix leaked through recovery"
        what (Hashtbl.length w.model) (List.length pending)
  end

let run_batch_scenario point mode scenario_seed =
  with_dir (fun dir ->
      Fault.reset ();
      let prng = Prng.create scenario_seed in
      let w = fresh_world () in
      let open_dir () =
        match
          Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"torture" ()
        with
        | Ok t -> t
        | Error e ->
            failf "%s/%s: open_dir: %s" point
              (Fault.mode_to_string mode) e
      in
      let t = open_dir () in
      let db = Durable.db t in
      let accounts = make_accounts db in
      (* Baseline batches that must survive anything below. *)
      for _ = 1 to 3 do
        commit_batch db accounts w (random_batch w prng (1 + Prng.int prng 4))
      done;
      let baseline_digest = fresh_digest db in
      Fault.set point mode;
      (* Publish batches until the fault fires. An injected error breaks
         the log — in-memory state is ahead of it, and every later write
         re-raises the failure — so both modes end the phase there. *)
      let pending = ref [] in
      (try
         for _ = 1 to 10 do
           let ops = random_batch w prng (1 + Prng.int prng 4) in
           pending := ops;
           commit_batch db accounts w ops;
           pending := []
         done
       with Fault.Injected_crash _ | Fault.Injected_error _ -> ());
      Fault.reset ();
      let t2 = open_dir () in
      let db2 = Durable.db t2 in
      let what = point ^ "/" ^ Fault.mode_to_string mode in
      check_recovered_batch ~what w !pending db2;
      if not (Verifier.ok (Verifier.verify db2 ~digests:[ baseline_digest ]))
      then failf "%s: recovered ledger failed verification" what;
      (* Resolve the in-doubt batch against what actually recovered. *)
      if table_rows db2 <> model_rows w.model then
        List.iter (apply_op w.model) !pending;
      (* The survivor accepts new batched work durably. *)
      commit_batch db2
        (Database.ledger_table db2 "accounts")
        w
        (random_batch w prng 2);
      let t3 = open_dir () in
      check_recovered_batch ~what:(what ^ " (post-recovery batch)") w []
        (Durable.db t3))

(* Crash offsets chosen to land before the frame (0), inside the first
   armed batch's frame (37), and inside a later batch (400); the sync
   point crashes between the batch write and its fsync, where the frame
   is complete and the batch may legitimately survive whole. *)
let batch_cases =
  let cases point modes =
    List.map
      (fun mode ->
        let name = point ^ "=" ^ Fault.mode_to_string mode in
        Alcotest.test_case name `Quick (fun () ->
            run_batch_scenario point mode (seed lxor Hashtbl.hash name)))
      modes
  in
  cases "wal.batch_append"
    [ Fault.Fail; Fault.Crash_after 0; Fault.Crash_after 37;
      Fault.Crash_after 400 ]
  @ cases "wal.batch_sync" [ Fault.Crash_after 0 ]

(* ------------------------------------------------------------------ *)
(* DDL atomicity

   A DDL statement that the metadata tables record (Figure 6) publishes
   its record first in its system transaction's batch: one frame. A crash
   anywhere in that frame must leave the change and its metadata rows
   present together or absent together, and the ledger verifiable
   against the digest taken before the statement. *)

type ddl_case = {
  ddl : Database.t -> unit;
  applied : Database.t -> bool;
      (* the change is visible; fails on a half-applied one *)
  meta_added : int * int;  (* rows it adds to the tables / columns meta *)
}

let meta_rows db =
  ( Ledger_table.row_count (Database.tables_meta db),
    Ledger_table.row_count (Database.columns_meta db) )

let create_case =
  {
    ddl =
      (fun db ->
        ignore
          (Database.create_ledger_table db ~name:"audit_log"
             ~columns:
               [
                 Relation.Column.make "id" Relation.Datatype.Int;
                 Relation.Column.make "note" (Relation.Datatype.Varchar 40);
               ]
             ~key:[ "id" ] ()
            : Ledger_table.t));
    applied = (fun db -> Database.find_ledger_table db "audit_log" <> None);
    meta_added = (1, 2);
  }

(* [balance] becomes a string on a populated table: the new type and the
   converted values must come back together. *)
let alter_case =
  let varchar = Relation.Datatype.Varchar 16 in
  {
    ddl =
      (fun db ->
        Database.alter_column_type db ~table:"accounts" ~column:"balance"
          varchar ~convert:(function
          | Relation.Value.Int i -> Relation.Value.String (string_of_int i)
          | v -> v));
    applied =
      (fun db ->
        let typed =
          match
            Relation.Schema.find
              (Ledger_table.schema (Database.ledger_table db "accounts"))
              "balance"
          with
          | Some c -> c.Relation.Column.dtype = varchar
          | None -> failf "accounts lost its balance column"
        in
        let values =
          List.map (fun row -> row.(0))
            (Database.query db "SELECT balance FROM accounts").Sqlexec.Rel.rows
        in
        let all p = values <> [] && List.for_all p values in
        if typed && all (function Relation.Value.String _ -> true | _ -> false)
        then true
        else if
          (not typed) && all (function Relation.Value.Int _ -> true | _ -> false)
        then false
        else failf "balance is half-altered (new type: %b)" typed);
    meta_added = (0, 2);
  }

let run_ddl_scenario ~what case offset_of_size =
  let open_dir dir =
    match Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"ddl" () with
    | Ok t -> t
    | Error e -> failf "%s: open_dir: %s" what e
  in
  (* A populated ledger and a digest over it, before the statement. *)
  let setup dir =
    let db = Durable.db (open_dir dir) in
    let accounts = make_accounts db in
    List.iteri
      (fun i name -> ignore (insert_account db accounts name (100 * (i + 1))))
      [ "ann"; "bob"; "cy" ];
    (db, fresh_digest db)
  in
  (* A dry run measures the statement's frame: the clock is deterministic,
     so the armed run writes the same bytes. *)
  let size =
    with_dir (fun dir ->
        Fault.reset ();
        let db, _ = setup dir in
        let wal = Durable.wal_path dir in
        let before = (Unix.stat wal).Unix.st_size in
        case.ddl db;
        (Unix.stat wal).Unix.st_size - before)
  in
  let offset = offset_of_size size in
  let what = Printf.sprintf "%s (crash:%d of a %d-byte frame)" what offset size in
  with_dir (fun dir ->
      Fault.reset ();
      let db, digest = setup dir in
      let meta_before = meta_rows db in
      Fault.set "wal.batch_append" (Fault.Crash_after offset);
      (match case.ddl db with
      | () -> failf "%s: the armed statement was acknowledged" what
      | exception Fault.Injected_crash _ -> ());
      Fault.reset ();
      let db2 = Durable.db (open_dir dir) in
      let applied = case.applied db2 in
      if offset = 0 && applied then
        failf "%s: nothing of the frame was written, yet the change is back" what;
      let expected =
        if applied then
          ( fst meta_before + fst case.meta_added,
            snd meta_before + snd case.meta_added )
        else meta_before
      in
      let tables, columns = meta_rows db2 in
      if (tables, columns) <> expected then
        failf
          "%s: the change is %s, but the metadata tables hold %d/%d rows \
           where %d/%d were expected"
          what
          (if applied then "present" else "absent")
          tables columns (fst expected) (snd expected);
      if not (Verifier.ok (Verifier.verify db2 ~digests:[ digest ])) then
        failf "%s: recovered ledger failed verification" what)

(* The crash lands before the frame's first byte, at a seeded offset
   inside it, and on its last byte (the newline). *)
let ddl_atomicity_cases =
  List.concat_map
    (fun (name, case) ->
      List.map
        (fun (where, offset_of_size) ->
          let what = name ^ ", crash " ^ where in
          Alcotest.test_case what `Quick (fun () ->
              run_ddl_scenario ~what case offset_of_size))
        [
          ("at start", fun _ -> 0);
          ( "inside",
            fun size ->
              1 + Prng.int (Prng.create (seed lxor Hashtbl.hash name)) (size - 2) );
          ("at end", fun size -> size - 1);
        ])
    [ ("create_ledger_table", create_case); ("alter_column_type", alter_case) ]

(* ------------------------------------------------------------------ *)
(* TPC-C smoke: a crash mid-mix must leave a verifiable, usable ledger. *)

let test_tpcc_crash_midway () =
  with_dir (fun dir ->
      Fault.reset ();
      let open_dir () =
        match Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"tpcc" () with
        | Ok t -> t
        | Error e -> failf "open_dir: %s" e
      in
      let t = open_dir () in
      let cfg =
        {
          Workload.Tpcc.warehouses = 1;
          districts_per_warehouse = 2;
          customers_per_district = 4;
          items = 10;
          ledgered = true;
        }
      in
      let tp = Workload.Tpcc.setup (Durable.db t) cfg in
      let prng = Prng.create seed in
      ignore (Workload.Tpcc.run tp ~prng ~transactions:10);
      (* Tear the log partway through a later transaction's batch. *)
      Fault.set "wal.batch_append" (Fault.Crash_after 200);
      (try ignore (Workload.Tpcc.run tp ~prng ~transactions:50)
       with Fault.Injected_crash _ -> ());
      Fault.reset ();
      let t2 = open_dir () in
      let db2 = Durable.db t2 in
      if not (Verifier.ok (Verifier.verify db2 ~digests:[]))
      then failf "recovered TPC-C ledger failed verification";
      (* And a second recovery of the recovered state is stable. *)
      let t3 = open_dir () in
      if not (Verifier.ok (Verifier.verify (Durable.db t3) ~digests:[]))
      then failf "re-recovered TPC-C ledger failed verification")

(* ------------------------------------------------------------------ *)
(* Random WAL-tail truncation sweep *)

(* Build one reference database (WAL only, no snapshot), remembering which
   account each transaction committed. *)
let build_reference dir =
  let t =
    match Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"sweep" () with
    | Ok t -> t
    | Error e -> failf "open_dir: %s" e
  in
  let db = Durable.db t in
  let accounts = make_accounts db in
  let txn_to_name = Hashtbl.create 64 in
  for i = 1 to 25 do
    let name = Printf.sprintf "acct%d" i in
    let entry = insert_account db accounts name i in
    Hashtbl.replace txn_to_name entry.Types.txn_id name
  done;
  txn_to_name

let committed_names_in_wal txn_to_name path =
  match Aries.Wal.load path with
  | Error e -> failf "truncated WAL must stay loadable: %s" e
  | Ok records ->
      List.filter_map
        (fun (_, r) ->
          match r with
          | LR.Commit c -> Hashtbl.find_opt txn_to_name c.LR.txn_id
          | _ -> None)
        records
      |> List.sort compare

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let test_truncation_sweep () =
  with_dir (fun ref_dir ->
      let txn_to_name = build_reference ref_dir in
      let wal_src = Durable.wal_path ref_dir in
      let pristine = In_channel.with_open_bin wal_src In_channel.input_all in
      let size = String.length pristine in
      let prng = Prng.create (seed lxor 0x7150c4) in
      for trial = 1 to trials do
        with_dir (fun dir ->
            let wal = Durable.wal_path dir in
            Out_channel.with_open_bin wal (fun oc ->
                Out_channel.output_string oc pristine);
            let cut = Prng.int prng (size + 1) in
            truncate_file wal cut;
            let expected = committed_names_in_wal txn_to_name wal in
            match Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"sweep" () with
            | Error e ->
                failf "trial %d (cut %d/%d): reopen failed: %s" trial
                  cut size e
            | Ok t ->
                let db = Durable.db t in
                (* A cut inside the creation record recovers to a fresh
                   database with no accounts table: actual = []. *)
                let actual = List.map fst (table_rows db) in
                if actual <> expected then
                  failf
                    "trial %d (cut %d/%d): %d accounts recovered, %d \
                     committed in surviving prefix"
                    trial cut size (List.length actual)
                    (List.length expected);
                if
                  actual <> []
                  && not (Verifier.ok (Verifier.verify db ~digests:[]))
                then
                  failf "trial %d (cut %d/%d): verification failed"
                    trial cut size)
      done)

(* Random tail cuts over a WAL written entirely by batches: the set of
   surviving accounts must always be a whole-batch prefix — a cut that
   tears batch k's frame drops all of batch k, never part of it. *)
let test_batch_truncation_sweep () =
  with_dir (fun ref_dir ->
      let t =
        match
          Durable.open_dir ~clock:(make_clock ()) ~dir:ref_dir ~name:"bsweep" ()
        with
        | Ok t -> t
        | Error e -> failf "open_dir: %s" e
      in
      let db = Durable.db t in
      let accounts = make_accounts db in
      let w = fresh_world () in
      let batches =
        List.init 8 (fun b ->
            let names =
              List.init 3 (fun i -> Printf.sprintf "acct%d" ((b * 3) + i + 1))
            in
            let ops = List.map (fun n -> Insert (n, 100)) names in
            commit_batch db accounts w ops;
            List.sort compare names)
      in
      let wal_src = Durable.wal_path ref_dir in
      let pristine = In_channel.with_open_bin wal_src In_channel.input_all in
      let size = String.length pristine in
      let prng = Prng.create (seed lxor 0xBA7C4) in
      for trial = 1 to trials do
        with_dir (fun dir ->
            let wal = Durable.wal_path dir in
            Out_channel.with_open_bin wal (fun oc ->
                Out_channel.output_string oc pristine);
            let cut = Prng.int prng (size + 1) in
            truncate_file wal cut;
            match
              Durable.open_dir ~clock:(make_clock ()) ~dir ~name:"bsweep" ()
            with
            | Error e ->
                failf "trial %d (cut %d/%d): reopen failed: %s" trial
                  cut size e
            | Ok t ->
                let actual = List.map fst (table_rows (Durable.db t)) in
                (* Find the longest whole-batch prefix matching the
                   recovered accounts; anything else is a torn batch
                   leaking a partial commit set. *)
                let rec prefixes acc cur = function
                  | [] -> List.rev (cur :: acc)
                  | b :: rest ->
                      prefixes (cur :: acc) (List.sort compare (cur @ b)) rest
                in
                let legal = prefixes [] [] batches in
                if not (List.mem (List.sort compare actual) legal) then
                  failf
                    "trial %d (cut %d/%d): recovered %d accounts, not a \
                     whole-batch prefix"
                    trial cut size (List.length actual))
      done)

let () =
  Printf.printf "crash matrix: CRASH_MATRIX_SEED=%d CRASH_MATRIX_TRIALS=%d\n%!"
    seed trials;
  Alcotest.run "crash-matrix"
    [
      ("registry", [ Alcotest.test_case "all points registered" `Quick
                       test_all_points_registered ]);
      ("failpoint matrix", matrix_cases);
      ("batch boundaries", batch_cases);
      ("ddl atomicity", ddl_atomicity_cases);
      ("tpcc", [ Alcotest.test_case "crash mid-mix" `Quick test_tpcc_crash_midway ]);
      ( "wal truncation",
        [ Alcotest.test_case (Printf.sprintf "%d random cuts" trials) `Quick
            test_truncation_sweep ] );
      ( "batch truncation",
        [ Alcotest.test_case (Printf.sprintf "%d random cuts" trials) `Quick
            test_batch_truncation_sweep ] );
    ]
