type t = {
  dd_dir : string;
  dd_db : Database.t;
  dd_in_doubt : Wal_replay.in_doubt list;
}

let snapshot_path dir = Filename.concat dir "snapshot.json"
let wal_path dir = Filename.concat dir "wal.jsonl"

let point_compact = "compact.truncate"

let () = Fault.register point_compact

let db t = t.dd_db
let dir t = t.dd_dir
let in_doubt t = t.dd_in_doubt

let persist_snapshot db_ path = Snapshot.save_to_file db_ ~path

let ( let* ) = Result.bind

(* Snapshot generations, newest first. [path].tmp that reads back complete
   and checksummed is a finished save whose rename was interrupted — the
   newest state there is; [path].prev is the retained previous generation. *)
let candidate_paths snap = [ snap; snap ^ ".tmp"; snap ^ ".prev" ]

(* A candidate generation is usable only if the log on disk can continue
   from it: its recorded position must reach (at least) the record just
   before the log's first entry. An older generation behind a truncated
   log has lost the records between its position and the log's start —
   replaying from it would silently drop committed work, so it is skipped
   (and recovery fails loudly if no generation bridges the gap). *)
let compatible ~min_lsn json =
  match min_lsn with
  | Some l -> Snapshot.wal_lsn json >= l - 1
  | None -> true

let pick_snapshot ~min_lsn candidates =
  List.find_map
    (fun path ->
      match Snapshot.read_file path with
      | Error _ -> None
      | Ok json -> if compatible ~min_lsn json then Some json else None)
    candidates

let open_dir ?block_size ?signing_seed ?clock ~dir ~name () =
  Fault.Fsutil.mkdir_p dir;
  let snap = snapshot_path dir in
  let wal = wal_path dir in
  let fail e = Error ("recovery of " ^ dir ^ " failed: " ^ e) in
  let* wal_records =
    if Sys.file_exists wal then
      match Aries.Wal.load wal with
      | Ok records -> Ok (Some records)
      | Error e -> fail e
    else Ok None
  in
  let min_lsn =
    match wal_records with Some ((l, _) :: _) -> Some l | _ -> None
  in
  let candidates = List.filter Sys.file_exists (candidate_paths snap) in
  let snapshot = pick_snapshot ~min_lsn candidates in
  let* recovered =
    match (wal_records, snapshot) with
    | (None | Some []), None ->
        if candidates = [] then
          (* First use: nothing durable exists yet. *)
          Ok
            (Database.create ?block_size ?signing_seed ?clock ~wal_path:wal
               ~name ())
        else
          fail
            (Printf.sprintf
               "no usable snapshot generation among [%s] and no log records \
                to replay"
               (String.concat "; " candidates))
    | Some records, snapshot -> (
        (* Snapshot (if any) plus the log tail; without a snapshot the log
           must start with the database-creation record. *)
        match Wal_replay.replay ?clock ?snapshot ~records () with
        | Ok db_ -> Ok db_
        | Error e -> fail e)
    | None, Some json -> (
        (* Compact-crash shape: a snapshot with no (or an empty) log. *)
        match Snapshot.load ?clock json with
        | Ok db_ -> Ok db_
        | Error e -> fail e)
  in
  let in_doubt =
    match wal_records with
    | Some records -> Wal_replay.in_doubt_of_records records
    | None -> []
  in
  (match (wal_records, snapshot) with
  | (None | Some []), None -> () (* fresh create: WAL already attached *)
  | _ ->
      (* Re-home onto durable storage: persist what we recovered (atomic,
         previous generation retained), then restart the log. Any stale
         .tmp left by a crashed save is consumed by this save's rename. *)
      persist_snapshot recovered snap;
      Database_ledger.attach_wal (Database.ledger recovered) wal;
      (* The snapshot withholds in-doubt prepared transactions (replay
         never applied them), so restarting the log would lose their
         votes. Re-publish DATA + PREPARE so a second crash before the
         coordinator's decision still recovers them in-doubt. *)
      if in_doubt <> [] then
        Database_ledger.publish (Database.ledger recovered)
          (List.concat_map
             (fun (d : Wal_replay.in_doubt) ->
               (match d.ops with
               | Sjson.List [] -> []
               | ops -> [ Aries.Log_record.Data { txn_id = d.txn_id; ops } ])
               @ [
                   Aries.Log_record.Prepare
                     {
                       gid = d.gid;
                       txn_id = d.txn_id;
                       user = d.user;
                       table_roots = d.table_roots;
                     };
                 ])
             in_doubt));
  Ok { dd_dir = dir; dd_db = recovered; dd_in_doubt = in_doubt }

let checkpoint t =
  Database.checkpoint t.dd_db;
  persist_snapshot t.dd_db (snapshot_path t.dd_dir)

let compact t =
  checkpoint t;
  (* Crash window: new snapshot durable, old log still present. Harmless —
     the snapshot's wal_lsn covers every record in the log, so replay on
     reopen skips them all. LSNs continue across the truncation (see
     [Database_ledger.attach_wal]), so no second snapshot is needed to
     re-record the log position. *)
  Fault.trip point_compact;
  Database_ledger.attach_wal (Database.ledger t.dd_db) (wal_path t.dd_dir)
