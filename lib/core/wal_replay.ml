open Relation
module LR = Aries.Log_record
module Table_store = Storage.Table_store

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let committed_txns records =
  let set = Hashtbl.create 256 in
  List.iter
    (fun (_, record) ->
      match record with
      | LR.Commit c -> Hashtbl.replace set c.LR.txn_id ()
      | _ -> ())
    records;
  set

(* A PREPARE whose txn_id has no later COMMIT or ABORT is in-doubt: the
   shard voted yes and crashed before learning the coordinator's decision.
   Replay withholds its DATA (the committed-txns filter already does), and
   the server must hold the write lock until the decision arrives. The
   redo payload rides along so a later decide-commit can apply it. *)
type in_doubt = {
  gid : string;
  txn_id : int;
  user : string;
  table_roots : (int * string) list;
  ops : Sjson.t;
}

let in_doubt_of_records records =
  let decided = Hashtbl.create 16 in
  List.iter
    (fun (_, record) ->
      match record with
      | LR.Commit c -> Hashtbl.replace decided c.LR.txn_id ()
      | LR.Abort { txn_id } -> Hashtbl.replace decided txn_id ()
      | _ -> ())
    records;
  let data = Hashtbl.create 16 in
  List.iter
    (fun (_, record) ->
      match record with
      | LR.Data { txn_id; ops = Sjson.List items } ->
          let prev =
            try Hashtbl.find data txn_id with Not_found -> []
          in
          Hashtbl.replace data txn_id (prev @ items)
      | _ -> ())
    records;
  List.filter_map
    (fun (_, record) ->
      match record with
      | LR.Prepare { gid; txn_id; user; table_roots }
        when not (Hashtbl.mem decided txn_id) ->
          let items = try Hashtbl.find data txn_id with Not_found -> [] in
          Some { gid; txn_id; user; table_roots; ops = Sjson.List items }
      | _ -> None)
    records

let decode_row json =
  match json with
  | Sjson.List cells ->
      let values = List.map Value.of_tagged_json cells in
      if List.for_all Option.is_some values then
        Ok (Array.of_list (List.map Option.get values))
      else Error "bad value in redo row"
  | _ -> Error "redo row is not a list"

let apply_op db ~txn_id op =
  let int name = Sjson.get_int (Sjson.member name op) in
  let* table =
    match Database.table_by_id db (int "tid") with
    | Some t -> Ok t
    | None -> err "redo references unknown table %d" (int "tid")
  in
  match (Sjson.member "op" op, table) with
  | Sjson.String "li", `L lt ->
      let* row = decode_row (Sjson.member "row" op) in
      ignore
        (Ledger_table.insert_version lt ~txn_id ~seq:(int "seq") row
          : Row.t * string);
      Ok ()
  | Sjson.String "ld", `L lt ->
      let* key = decode_row (Sjson.member "key" op) in
      ignore
        (Ledger_table.delete_version lt ~txn_id ~seq:(int "seq") ~key
          : Row.t * string);
      Ok ()
  | Sjson.String "pi", `R store ->
      let* row = decode_row (Sjson.member "row" op) in
      Table_store.insert store row;
      Ok ()
  | Sjson.String "pu", `R store ->
      let* row = decode_row (Sjson.member "row" op) in
      Table_store.update store row;
      Ok ()
  | Sjson.String "pd", `R store ->
      let* key = decode_row (Sjson.member "key" op) in
      ignore (Table_store.delete store ~key : Row.t);
      Ok ()
  | Sjson.String tag, _ -> err "redo op %s against wrong table kind" tag
  | _ -> Error "redo op missing tag"

let shell_of_header ~clock payload =
  let str name = Sjson.get_string (Sjson.member name payload) in
  let created =
    match Sjson.member "created" payload with
    | Sjson.Float f -> f
    | Sjson.Int i -> float_of_int i
    | _ -> failwith "create_database record missing create time"
  in
  let block_size = Sjson.get_int (Sjson.member "block_size" payload) in
  let signing_seed =
    match Sjson.member "signing_seed" payload with
    | Sjson.String s -> Some s
    | _ -> None
  in
  (* The database id is a deterministic hash of (name, create time), so
     creating a shell with a clock pinned to the original create time
     reproduces the identity; then re-home it onto the caller's clock. *)
  let shell =
    Database.create ~block_size ?signing_seed
      ~clock:(fun () -> created)
      ~name:(str "name") ()
  in
  Database.assemble ~clock (Database.expose shell)

let apply_committed_ops db ~txn_id ops =
  match ops with
  | Sjson.List items ->
      List.fold_left
        (fun acc op ->
          let* () = acc in
          apply_op db ~txn_id op)
        (Ok ()) items
  | _ -> Error "malformed redo payload"

let replay ?(clock = Unix.gettimeofday) ?snapshot ~records () =
  try
    let committed = committed_txns records in
    let* start_lsn, db =
      match snapshot with
      | Some json ->
          let* db =
            match Snapshot.load ~clock json with
            | Ok db -> Ok db
            | Error e -> Error e
          in
          Ok (Snapshot.wal_lsn json, db)
      | None -> (
          match records with
          | (lsn, LR.Ddl { payload })
            :: _
            when Sjson.member "ddl" payload = Sjson.String "create_database"
            ->
              Ok (lsn, shell_of_header ~clock payload)
          | _ ->
              Error
                "log does not start with a database-creation record and no \
                 snapshot was given")
    in
    let dbl = Database.ledger db in
    let rec go = function
      | [] -> Ok ()
      | (lsn, _) :: rest when lsn <= start_lsn -> go rest
      | (_, record) :: rest ->
          let* () =
            match record with
            | LR.Ddl { payload } -> Database.apply_structural_ddl db payload
            | LR.Data { txn_id; ops } ->
                if Hashtbl.mem committed txn_id then
                  apply_committed_ops db ~txn_id ops
                else Ok () (* uncommitted tail: atomicity across the crash *)
            | LR.Commit c ->
                Database_ledger.replay_commit dbl
                  {
                    Types.txn_id = c.LR.txn_id;
                    block_id = c.LR.block_id;
                    ordinal = c.LR.ordinal;
                    commit_ts = c.LR.commit_ts;
                    user = c.LR.user;
                    table_roots = c.LR.table_roots;
                  };
                Ok ()
            | LR.Begin { txn_id }
            | LR.Abort { txn_id }
            | LR.Prepare { txn_id; _ } ->
                Database_ledger.note_txn_id dbl txn_id;
                Ok ()
            | LR.Block_close _ ->
                Database_ledger.replay_block_close dbl;
                Ok ()
            | LR.Checkpoint _ ->
                Database_ledger.replay_checkpoint dbl;
                Ok ()
          in
          go rest
    in
    let* () = go records in
    Database.refresh_counters db;
    (* The recovered database's in-memory WAL must continue the durable
       numbering, not restart it: a snapshot taken later records a wal_lsn
       that has to line up against the log file on disk. *)
    let wal = Database_ledger.wal dbl in
    Aries.Wal.advance_to wal start_lsn;
    List.iter (fun (lsn, _) -> Aries.Wal.advance_to wal lsn) records;
    Ok db
  with
  | Failure e | Invalid_argument e -> Error ("replay failed: " ^ e)
  | Types.Ledger_error e -> Error ("replay failed: " ^ e)
  | Table_store.Duplicate_key e -> Error ("replay failed: duplicate key " ^ e)
  | Table_store.Not_found_key e -> Error ("replay failed: missing key " ^ e)

let replay_file ?clock ?snapshot_path ~wal_path () =
  let* records = Aries.Wal.load wal_path in
  let* snapshot =
    match snapshot_path with
    | None -> Ok None
    | Some path -> Result.map Option.some (Snapshot.read_file path)
  in
  replay ?clock ?snapshot ~records ()
