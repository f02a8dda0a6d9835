module LR = Aries.Log_record

type t = {
  clock : unit -> float;
  mutable db : Database.t option;
  mutable last_lsn : Aries.Wal.lsn;
  mutable last_commit_ts : float;
  pending : (int, Sjson.t) Hashtbl.t;  (* txn_id -> buffered DATA payload *)
  mutable tail : Aries.Wal.Tail.cursor option;  (* file-feed resume point *)
  mutable counters_stale : bool;
      (* a structural DDL was applied; its meta-event rows (carrying
         primary-allocated event ids) arrive as ordinary data in the same
         transaction, so [next_meta_event] must be recomputed once that
         transaction commits — otherwise a snapshot of the replica
         disagrees with the primary's on the counter *)
}

let create ?(clock = Unix.gettimeofday) () =
  {
    clock;
    db = None;
    last_lsn = 0;
    last_commit_ts = 0.;
    pending = Hashtbl.create 16;
    tail = None;
    counters_stale = false;
  }

(* The replica's database never logs to its own WAL (records are applied
   via the replay paths, which do not re-log), so its in-memory log
   position stays at 0 unless kept in step here. Keeping it advanced to
   the replication position matters because [Snapshot.save] records that
   position as [wal_lsn] — it is what lets a persisted replica snapshot
   line up against the replica's durable log copy on restart, and against
   the promoted directory's recovery. *)
let advance_db_wal t =
  match t.db with
  | Some db ->
      Aries.Wal.advance_to (Database_ledger.wal (Database.ledger db)) t.last_lsn
  | None -> ()

let of_database ?(clock = Unix.gettimeofday) ~last_lsn db =
  let t =
    {
      clock;
      db = Some db;
      last_lsn;
      last_commit_ts = Database_ledger.last_commit_ts (Database.ledger db);
      pending = Hashtbl.create 16;
      tail = None;
      counters_stale = false;
    }
  in
  advance_db_wal t;
  t

let install_snapshot t db ~last_lsn =
  t.db <- Some db;
  t.last_lsn <- last_lsn;
  t.last_commit_ts <- Database_ledger.last_commit_ts (Database.ledger db);
  Hashtbl.reset t.pending;
  t.tail <- None;
  t.counters_stale <- false;
  advance_db_wal t

let database t = t.db
let replicated_upto t = t.last_commit_ts
let last_lsn t = t.last_lsn

let apply_record t record =
  match (record, t.db) with
  | LR.Ddl { payload }, None ->
      if Sjson.member "ddl" payload = Sjson.String "create_database" then begin
        t.db <- Some (Wal_replay.shell_of_header ~clock:t.clock payload);
        Ok ()
      end
      else Error "replica stream does not start with a creation record"
  | _, None -> Error "replica has no database yet"
  | LR.Ddl { payload }, Some db ->
      if Sjson.member "ddl" payload = Sjson.String "create_database" then Ok ()
      else begin
        t.counters_stale <- true;
        Database.apply_structural_ddl db payload
      end
  | LR.Data { txn_id; ops }, Some _ ->
      (* Buffer until the COMMIT arrives: the replica never exposes
         uncommitted state. *)
      Hashtbl.replace t.pending txn_id ops;
      Ok ()
  | LR.Commit c, Some db ->
      let result =
        match Hashtbl.find_opt t.pending c.LR.txn_id with
        | Some ops -> Wal_replay.apply_committed_ops db ~txn_id:c.LR.txn_id ops
        | None -> Ok ()
      in
      Hashtbl.remove t.pending c.LR.txn_id;
      (match result with
      | Ok () ->
          Database_ledger.replay_commit (Database.ledger db)
            {
              Types.txn_id = c.LR.txn_id;
              block_id = c.LR.block_id;
              ordinal = c.LR.ordinal;
              commit_ts = c.LR.commit_ts;
              user = c.LR.user;
              table_roots = c.LR.table_roots;
            };
          t.last_commit_ts <- Float.max t.last_commit_ts c.LR.commit_ts;
          if t.counters_stale then begin
            Database.refresh_counters db;
            t.counters_stale <- false
          end;
          Ok ()
      | Error _ as e -> e)
  | LR.Abort { txn_id }, Some db ->
      Hashtbl.remove t.pending txn_id;
      Database_ledger.note_txn_id (Database.ledger db) txn_id;
      Ok ()
  | LR.Begin { txn_id }, Some db ->
      Database_ledger.note_txn_id (Database.ledger db) txn_id;
      Ok ()
  | LR.Prepare { txn_id; _ }, Some db ->
      (* The DATA stays buffered until the coordinator's decision ships
         as a COMMIT or ABORT record; the replica exposes nothing
         in-doubt. *)
      Database_ledger.note_txn_id (Database.ledger db) txn_id;
      Ok ()
  | LR.Block_close _, Some db ->
      Database_ledger.replay_block_close (Database.ledger db);
      Ok ()
  | LR.Checkpoint _, Some db ->
      Database_ledger.replay_checkpoint (Database.ledger db);
      Ok ()

let feed t records =
  let rec go = function
    | [] -> Ok ()
    | (lsn, _) :: rest when lsn <= t.last_lsn -> go rest
    | (lsn, record) :: rest -> (
        match apply_record t record with
        | Ok () ->
            t.last_lsn <- lsn;
            go rest
        | Error _ as e -> e)
  in
  let result = go records in
  advance_db_wal t;
  result

(* Incremental: a tail cursor per source file remembers how far it has
   read, so repeated calls against a growing log parse only the new
   records instead of re-loading the whole file every time. *)
let feed_from_file t ~wal_path =
  let cursor =
    match t.tail with
    | Some c when Aries.Wal.Tail.path c = wal_path -> c
    | _ ->
        let c = Aries.Wal.Tail.create ~after:t.last_lsn wal_path in
        t.tail <- Some c;
        c
  in
  match Aries.Wal.Tail.poll cursor with
  | Error e -> Error e
  | Ok records -> feed t records

let promote t =
  match t.db with
  | None -> Error "replica never received a creation record"
  | Some db ->
      Hashtbl.reset t.pending;
      Database.refresh_counters db;
      Ok db
