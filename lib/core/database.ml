open Relation
module Table_store = Storage.Table_store
module Hex = Ledger_crypto.Hex

type table_kind = [ `Append_only | `Updateable | `Regular ]

type entry = L of Ledger_table.t | R of Table_store.t

type t = {
  db_name : string;
  db_id : string;
  created : float;
  clock : unit -> float;
  dbl : Database_ledger.t;
  mutable tables : entry list;  (* registration order *)
  mutable next_table_id : int;
  mutable next_meta_event : int;
  tables_meta : Ledger_table.t;
  columns_meta : Ledger_table.t;
}

let norm = String.lowercase_ascii

let name t = t.db_name
let database_id t = t.db_id
let create_time t = t.created
let now t = t.clock ()
let ledger t = t.dbl
let tables_meta t = t.tables_meta
let columns_meta t = t.columns_meta

(* ------------------------------------------------------------------ *)
(* Metadata system tables (Figure 6): append-only ledgers of DDL events. *)

let tables_meta_columns =
  [
    Column.make "event_id" Datatype.Bigint;
    Column.make "table_name" (Datatype.Varchar 256);
    Column.make "table_id" Datatype.Bigint;
    Column.make "operation" (Datatype.Varchar 16);
  ]

let columns_meta_columns =
  [
    Column.make "event_id" Datatype.Bigint;
    Column.make "table_id" Datatype.Bigint;
    Column.make "column_name" (Datatype.Varchar 256);
    Column.make "data_type" (Datatype.Varchar 64);
    Column.make "operation" (Datatype.Varchar 16);
  ]

let log_ddl dbl payload =
  ignore
    (Aries.Wal.append (Database_ledger.wal dbl)
       (Aries.Log_record.Ddl { payload = Sjson.Obj payload })
      : int)

let create ?(block_size = 100_000) ?wal_path ?signing_seed ?commit_cost_us
    ?(clock = Unix.gettimeofday) ~name () =
  let created = clock () in
  let db_id =
    Hex.encode
      (String.sub
         (Ledger_crypto.Sha256.digest_string
            (Printf.sprintf "db:%s:%.9f" name created))
         0 8)
  in
  let dbl =
    Database_ledger.create ~block_size ?wal_path ?signing_seed ?commit_cost_us
      ~database_id:db_id ~db_create_time:created ()
  in
  (* The log's header record: replay reconstructs the identical database
     shell (the id is a deterministic hash of name and create time). *)
  log_ddl dbl
    ([
       ("ddl", Sjson.String "create_database");
       ("name", Sjson.String name);
       ("created", Sjson.Float created);
       ("block_size", Sjson.Int block_size);
     ]
    @
    match signing_seed with
    | Some seed -> [ ("signing_seed", Sjson.String seed) ]
    | None -> []);
  let tables_meta =
    Ledger_table.create ~name:"ledger_tables_meta" ~table_id:(-10)
      ~schema:(Schema.make tables_meta_columns) ~key_ordinals:[ 0 ]
      ~kind:Ledger_table.Append_only
  in
  let columns_meta =
    Ledger_table.create ~name:"ledger_columns_meta" ~table_id:(-11)
      ~schema:(Schema.make columns_meta_columns) ~key_ordinals:[ 0 ]
      ~kind:Ledger_table.Append_only
  in
  {
    db_name = name;
    db_id;
    created;
    clock;
    dbl;
    tables = [ L tables_meta; L columns_meta ];
    next_table_id = 1;
    next_meta_event = 1;
    tables_meta;
    columns_meta;
  }

(* ------------------------------------------------------------------ *)
(* Lookup *)

let entry_name = function
  | L lt -> Ledger_table.name lt
  | R store -> Table_store.name store

let find_entry t name =
  List.find_opt (fun e -> String.equal (norm (entry_name e)) (norm name)) t.tables

let find_ledger_table t name =
  match find_entry t name with Some (L lt) -> Some lt | _ -> None

let ledger_table t name =
  match find_ledger_table t name with
  | Some lt -> lt
  | None -> Types.errorf "no ledger table named %s" name

let regular_table t name =
  match find_entry t name with
  | Some (R store) -> store
  | _ -> Types.errorf "no regular table named %s" name

let ledger_tables t =
  List.filter_map (function L lt -> Some lt | R _ -> None) t.tables

let is_meta t lt =
  Ledger_table.table_id lt = Ledger_table.table_id t.tables_meta
  || Ledger_table.table_id lt = Ledger_table.table_id t.columns_meta

let is_dropped lt =
  let name = Ledger_table.name lt in
  String.length name >= 15 && String.sub name 0 15 = "MS_DroppedTable"

let user_ledger_tables t =
  List.filter
    (fun lt -> (not (is_meta t lt)) && not (is_dropped lt))
    (ledger_tables t)

(* ------------------------------------------------------------------ *)
(* Transactions *)

let begin_txn t ~user = Txn.begin_txn ~ledger:t.dbl ~user ~clock:t.clock

let with_txn t ~user f =
  let txn = begin_txn t ~user in
  match f txn with
  | result ->
      let entry = Txn.commit txn in
      (result, entry)
  | exception e ->
      if Txn.is_active txn then Txn.rollback txn;
      raise e

(* ------------------------------------------------------------------ *)
(* DDL *)

let next_event t =
  let id = t.next_meta_event in
  t.next_meta_event <- id + 1;
  id

let record_table_event t txn ~table_name ~table_id ~operation =
  Txn.insert txn t.tables_meta
    [|
      Value.Int (next_event t);
      Value.String table_name;
      Value.Int table_id;
      Value.String operation;
    |]

let record_column_event t txn ~table_id ~column ~dtype ~operation =
  Txn.insert txn t.columns_meta
    [|
      Value.Int (next_event t);
      Value.Int table_id;
      Value.String column;
      Value.String (Datatype.to_string dtype);
      Value.String operation;
    |]

let check_fresh_name t name =
  if find_entry t name <> None then
    Types.errorf "a table named %s already exists" name

let key_ordinals_of schema key =
  List.map
    (fun col ->
      match Schema.ordinal schema col with
      | Some i -> i
      | None -> Types.errorf "key column %s not in schema" col)
    key

let create_ledger_table t ?(kind = `Updateable) ~name ~columns ~key () =
  check_fresh_name t name;
  let schema = Schema.make columns in
  let key_ordinals = key_ordinals_of schema key in
  let table_id = t.next_table_id in
  t.next_table_id <- table_id + 1;
  let kind =
    match kind with
    | `Append_only -> Ledger_table.Append_only
    | `Updateable -> Ledger_table.Updateable
  in
  let lt = Ledger_table.create ~name ~table_id ~schema ~key_ordinals ~kind in
  t.tables <- t.tables @ [ L lt ];
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "create_ledger");
      ("name", Sjson.String name);
      ("table_id", Sjson.Int table_id);
      ( "kind",
        Sjson.String
          (match kind with
          | Ledger_table.Append_only -> "append_only"
          | Ledger_table.Updateable -> "updateable") );
      ("key", Sjson.List (List.map (fun i -> Sjson.Int i) key_ordinals));
      ("columns", Sjson.List (List.map Column.to_json columns));
    ];
  let (), _ =
    with_txn t ~user:"system" (fun txn ->
        record_table_event t txn ~table_name:name ~table_id
          ~operation:"CREATE";
        List.iter
          (fun (c : Column.t) ->
            record_column_event t txn ~table_id ~column:c.name ~dtype:c.dtype
              ~operation:"CREATE")
          columns)
  in
  lt

let create_regular_table t ~name ~columns ~key () =
  check_fresh_name t name;
  let schema = Schema.make columns in
  let key_ordinals = key_ordinals_of schema key in
  let table_id = t.next_table_id in
  t.next_table_id <- table_id + 1;
  let store = Table_store.create ~name ~table_id ~schema ~key_ordinals in
  t.tables <- t.tables @ [ R store ];
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "create_regular");
      ("name", Sjson.String name);
      ("table_id", Sjson.Int table_id);
      ("key", Sjson.List (List.map (fun i -> Sjson.Int i) key_ordinals));
      ("columns", Sjson.List (List.map Column.to_json columns));
    ];
  store

let drop_table t ~name =
  match find_entry t name with
  | None -> Types.errorf "no table named %s" name
  | Some (R store) ->
      (* Regular tables are not ledgered; a drop simply removes them. *)
      log_ddl t.dbl
        [
          ("ddl", Sjson.String "remove_regular");
          ("table_id", Sjson.Int (Table_store.table_id store));
        ];
      t.tables <-
        List.filter
          (fun e ->
            match e with
            | R s -> s != store
            | L _ -> true)
          t.tables
  | Some (L lt) ->
      if is_meta t lt then Types.errorf "cannot drop a ledger system table";
      let table_id = Ledger_table.table_id lt in
      let new_name =
        Printf.sprintf "MS_DroppedTable_%s_%d" (Ledger_table.name lt) table_id
      in
      Ledger_table.rename lt new_name;
      log_ddl t.dbl
        [
          ("ddl", Sjson.String "rename_table");
          ("table_id", Sjson.Int table_id);
          ("new_name", Sjson.String new_name);
        ];
      let (), _ =
        with_txn t ~user:"system" (fun txn ->
            record_table_event t txn ~table_name:new_name ~table_id
              ~operation:"DROP")
      in
      ()

let set_both_schemas lt schema =
  Table_store.set_schema (Ledger_table.main lt) schema;
  match Ledger_table.history lt with
  | Some h -> Table_store.set_schema h schema
  | None -> ()

let add_column t ~table column =
  let lt = ledger_table t table in
  if not column.Column.nullable then
    Types.errorf
      "only nullable columns can be added to ledger table %s (§3.5.1)" table;
  let schema = Schema.add_column (Ledger_table.schema lt) column in
  let pad row = Array.append row [| Value.Null |] in
  Table_store.migrate (Ledger_table.main lt) ~schema ~f:pad;
  (match Ledger_table.history lt with
  | Some h -> Table_store.migrate h ~schema ~f:pad
  | None -> ());
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "add_column");
      ("table_id", Sjson.Int (Ledger_table.table_id lt));
      ("column", Column.to_json column);
    ];
  let (), _ =
    with_txn t ~user:"system" (fun txn ->
        record_column_event t txn ~table_id:(Ledger_table.table_id lt)
          ~column:column.Column.name ~dtype:column.Column.dtype
          ~operation:"CREATE")
  in
  ()

let drop_column t ~table ~column =
  let lt = ledger_table t table in
  let schema = Ledger_table.schema lt in
  let col =
    match Schema.find schema column with
    | Some c -> c
    | None -> Types.errorf "no column %s in %s" column table
  in
  if List.mem column System_columns.names then
    Types.errorf "cannot drop a system column";
  set_both_schemas lt (Schema.hide_column schema column);
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "hide_column");
      ("table_id", Sjson.Int (Ledger_table.table_id lt));
      ("column", Sjson.String column);
    ];
  let (), _ =
    with_txn t ~user:"system" (fun txn ->
        record_column_event t txn ~table_id:(Ledger_table.table_id lt)
          ~column ~dtype:col.Column.dtype ~operation:"DROP")
  in
  ()

let alter_column_type t ~table ~column dtype ~convert =
  let lt = ledger_table t table in
  let schema = Ledger_table.schema lt in
  let old_ord =
    match Schema.ordinal schema column with
    | Some i -> i
    | None -> Types.errorf "no column %s in %s" column table
  in
  let old_dtype = (Schema.column schema old_ord).Column.dtype in
  let main = Ledger_table.main lt in
  if List.mem old_ord (Table_store.key_ordinals main) then
    Types.errorf "cannot alter the type of key column %s" column;
  (* §3.5.3: drop the column (hide it under a mangled name), add it back
     with the new type, and repopulate through ledgered updates. *)
  let dropped_name =
    Printf.sprintf "%s__dropped_%d" column (Schema.arity schema)
  in
  let schema =
    Schema.hide_column
      (Schema.rename_column schema ~old_name:column ~new_name:dropped_name)
      dropped_name
  in
  let schema = Schema.add_column schema (Column.make ~nullable:true column dtype) in
  let pad row = Array.append row [| Value.Null |] in
  Table_store.migrate main ~schema ~f:pad;
  (match Ledger_table.history lt with
  | Some h -> Table_store.migrate h ~schema ~f:pad
  | None -> ());
  let table_id = Ledger_table.table_id lt in
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "alter_column_schema");
      ("table_id", Sjson.Int table_id);
      ("column", Sjson.String column);
      ("new_type", Sjson.String (Datatype.to_string dtype));
    ];
  let new_user_pos =
    (* position of the new column among the user columns *)
    let ords = Ledger_table.user_ordinals lt in
    let new_ord = Schema.arity schema - 1 in
    let rec find i = function
      | [] -> Types.errorf "internal: new column not found"
      | o :: _ when o = new_ord -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 ords
  in
  let (), _ =
    with_txn t ~user:"system" (fun txn ->
        record_column_event t txn ~table_id ~column ~dtype:old_dtype
          ~operation:"DROP";
        record_column_event t txn ~table_id ~column ~dtype ~operation:"CREATE";
        List.iter
          (fun row ->
            let key = Table_store.primary_key main row in
            let user_view = Ledger_table.user_row lt row in
            let converted =
              Row.set user_view new_user_pos (convert row.(old_ord))
            in
            Txn.update txn lt ~key converted)
          (Ledger_table.current_rows lt))
  in
  ()

let create_index t ~table ~name ~columns =
  let store =
    match find_entry t table with
    | Some (L lt) -> Ledger_table.main lt
    | Some (R store) -> store
    | None -> Types.errorf "no table named %s" table
  in
  let schema = Table_store.schema store in
  let key_ordinals =
    List.map
      (fun col ->
        match Schema.ordinal schema col with
        | Some i -> i
        | None -> Types.errorf "no column %s in %s" col table)
      columns
  in
  Table_store.create_index store ~name ~key_ordinals;
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "create_index");
      ("table_id", Sjson.Int (Table_store.table_id store));
      ("index", Sjson.String name);
      ("key", Sjson.List (List.map (fun i -> Sjson.Int i) key_ordinals));
    ]

let drop_index t ~table ~name =
  let store =
    match find_entry t table with
    | Some (L lt) -> Ledger_table.main lt
    | Some (R store) -> store
    | None -> Types.errorf "no table named %s" table
  in
  Table_store.drop_index store ~name;
  log_ddl t.dbl
    [
      ("ddl", Sjson.String "drop_index");
      ("table_id", Sjson.Int (Table_store.table_id store));
      ("index", Sjson.String name);
    ]

(* ------------------------------------------------------------------ *)
(* Digests / checkpoint *)

let generate_digest t = Database_ledger.generate_digest t.dbl ~time:(t.clock ())
let checkpoint t = Database_ledger.checkpoint t.dbl

(* ------------------------------------------------------------------ *)
(* SQL catalog *)

let visible_ordinals schema =
  List.map fst (Schema.visible_columns schema)

let visible_names schema =
  List.map (fun (_, (c : Column.t)) -> c.name) (Schema.visible_columns schema)

let versions_columns = [ "txn_id"; "seq"; "operation"; "row_hash" ]

let versions_rel lt =
  let schema = Ledger_table.schema lt in
  let vis = visible_ordinals schema in
  let names = versions_columns @ visible_names schema in
  let rows =
    List.map
      (fun (v : Types.version) ->
        Array.append
          [|
            Value.Int v.v_txn_id;
            Value.Int v.v_seq;
            Value.String (Types.operation_to_string v.v_op);
            Value.String (Hex.encode v.v_hash);
          |]
          (Row.project v.v_row vis))
      (Ledger_table.versions lt)
  in
  (names, rows)

let ledger_view_rel lt =
  let schema = Ledger_table.schema lt in
  let vis = visible_ordinals schema in
  let names = visible_names schema @ [ "operation"; "transaction_id" ] in
  let versions =
    List.sort
      (fun (a : Types.version) b -> compare (a.v_txn_id, a.v_seq) (b.v_txn_id, b.v_seq))
      (Ledger_table.versions lt)
  in
  let rows =
    List.map
      (fun (v : Types.version) ->
        Array.append (Row.project v.v_row vis)
          [|
            Value.String (Types.operation_to_string v.v_op);
            Value.Int v.v_txn_id;
          |])
      versions
  in
  (names, rows)

(* --- provenance (_ledger) views and temporal (AS OF) resolution --- *)

(* Provenance column names for the [<table>_ledger] view. A user column
   with the same name wins the bare spelling; the provenance column then
   grows a [ledger_] prefix (repeatedly, until unique), so the view
   always exposes both without shadowing. *)
let provenance_names user_names =
  let taken = List.map String.lowercase_ascii user_names in
  List.map
    (fun base ->
      let rec fresh n =
        if List.mem (String.lowercase_ascii n) taken then fresh ("ledger_" ^ n)
        else n
      in
      fresh base)
    [ "commit_time"; "principal_name"; "operation"; "txn_id"; "seq" ]

(* One row per row version, in commit order, each joined to its
   transaction entry: who wrote it (the authenticated principal), when
   it committed, and what the operation was. [?as_of] keeps only
   versions whose transaction committed at or before the timestamp.
   Versions of the open (uncommitted-to-an-entry) transaction set have
   no entry yet and are visible only to the current view, never to a
   temporal one. *)
let provenance_rel t ?as_of lt =
  let schema = Ledger_table.schema lt in
  let vis = visible_ordinals schema in
  let user_names = visible_names schema in
  let names = user_names @ provenance_names user_names in
  let versions =
    List.sort
      (fun (a : Types.version) b ->
        compare (a.v_txn_id, a.v_seq) (b.v_txn_id, b.v_seq))
      (Ledger_table.versions lt)
  in
  let rows =
    List.filter_map
      (fun (v : Types.version) ->
        match Database_ledger.find_entry t.dbl ~txn_id:v.v_txn_id with
        | None -> None
        | Some e -> (
            match as_of with
            | Some ts when e.Types.commit_ts > ts -> None
            | _ ->
                Some
                  (Array.append (Row.project v.v_row vis)
                     [|
                       Value.Datetime e.Types.commit_ts;
                       Value.String e.Types.user;
                       Value.String (Types.operation_to_string v.v_op);
                       Value.Int v.v_txn_id;
                       Value.Int v.v_seq;
                     |])))
      versions
  in
  (names, rows)

(* The table's user rows as they stood at commit timestamp [ts]: current
   rows whose creating transaction had committed by then, plus history
   rows created by then and not yet superseded by then (paper §3.1's
   MVCC visibility, replayed against the commit timestamps recorded in
   the transactions system table). *)
let as_of_rel t lt ~ts =
  let admissible = Hashtbl.create 256 in
  List.iter
    (fun (e : Types.txn_entry) ->
      if e.commit_ts <= ts then Hashtbl.replace admissible e.txn_id ())
    (Database_ledger.entries t.dbl);
  let schema = Ledger_table.schema lt in
  let vis = visible_ordinals schema in
  let s_txn, _, e_txn, _ = System_columns.ordinals schema in
  let txn_at row o =
    match row.(o) with Value.Int i -> Some i | _ -> None
  in
  let committed row o =
    match txn_at row o with
    | Some txn -> Hashtbl.mem admissible txn
    | None -> false
  in
  let current =
    List.filter
      (fun row -> committed row s_txn)
      (Ledger_table.current_rows lt)
  in
  let history =
    List.filter
      (fun row -> committed row s_txn && not (committed row e_txn))
      (Ledger_table.history_rows lt)
  in
  ( visible_names schema,
    List.map (fun row -> Row.project row vis) (current @ history) )

let catalog t : Sqlexec.Executor.catalog =
  let strip_of key suffix =
    if
      String.length key > String.length suffix
      && String.sub key
           (String.length key - String.length suffix)
           (String.length suffix)
         = suffix
    then Some (String.sub key 0 (String.length key - String.length suffix))
    else None
  in
  let lookup_table_as_of name ~as_of =
    let key = norm name in
    match strip_of key "_ledger" with
    | Some base when find_ledger_table t base <> None ->
        let lt = Option.get (find_ledger_table t base) in
        Some (provenance_rel t ~as_of lt)
    | _ -> (
        match find_ledger_table t key with
        | Some lt -> Some (as_of_rel t lt ~ts:as_of)
        | None -> None)
  in
  let lookup_table name =
    let key = norm name in
    let strip suffix =
      if
        String.length key > String.length suffix
        && String.sub key
             (String.length key - String.length suffix)
             (String.length suffix)
           = suffix
      then Some (String.sub key 0 (String.length key - String.length suffix))
      else None
    in
    if key = "database_ledger_transactions" then
      Some
        ( Database_ledger.transactions_table_columns,
          Database_ledger.transactions_rows t.dbl )
    else if key = "database_ledger_blocks" then
      Some
        (Database_ledger.blocks_table_columns, Database_ledger.blocks_rows t.dbl)
    else
      match strip "__versions" with
      | Some base -> (
          match find_ledger_table t base with
          | Some lt -> Some (versions_rel lt)
          | None -> None)
      | None -> (
          match strip "__ledger_view" with
          | Some base -> (
              match find_ledger_table t base with
              | Some lt -> Some (ledger_view_rel lt)
              | None -> None)
          | None -> (
              match strip "__history" with
              | Some base -> (
                  match find_ledger_table t base with
                  | Some lt ->
                      let schema = Ledger_table.schema lt in
                      Some
                        ( visible_names schema
                          @ System_columns.names,
                          List.map
                            (fun row ->
                              let vis = visible_ordinals schema in
                              let s_txn, s_seq, e_txn, e_seq =
                                System_columns.ordinals schema
                              in
                              Row.project row
                                (vis @ [ s_txn; s_seq; e_txn; e_seq ]))
                            (Ledger_table.history_rows lt) )
                  | None -> None)
              | None -> (
                  let provenance =
                    (* [<table>_ledger]: the first-class provenance view.
                       A real table whose own name ends in _ledger still
                       wins below when no base table shadows it. *)
                    match strip "_ledger" with
                    | Some base -> (
                        match find_ledger_table t base with
                        | Some lt -> Some (provenance_rel t lt)
                        | None -> None)
                    | None -> None
                  in
                  match provenance with
                  | Some rel -> Some rel
                  | None -> (
                  match find_entry t name with
                  | Some (L lt) ->
                      let schema = Ledger_table.schema lt in
                      let vis = visible_ordinals schema in
                      Some
                        ( visible_names schema,
                          List.map
                            (fun row -> Row.project row vis)
                            (Ledger_table.current_rows lt) )
                  | Some (R store) ->
                      let schema = Table_store.schema store in
                      Some
                        ( List.map
                            (fun (c : Column.t) -> c.name)
                            (Schema.columns schema),
                          Table_store.scan store )
                  | None -> None))))
  in
  { Sqlexec.Executor.lookup_table; lookup_table_as_of; functions = [] }

let query t text = Sqlexec.Executor.query (catalog t) text

let record_truncation t ~horizon_block ~horizon_hash ~max_txn =
  let (), _ =
    with_txn t ~user:"system" (fun txn ->
        Txn.insert txn t.tables_meta
          [|
            Value.Int (next_event t);
            Value.String
              (Printf.sprintf "truncate:%s:%d" (Hex.encode horizon_hash) max_txn);
            Value.Int horizon_block;
            Value.String "TRUNCATE";
          |])
  in
  ()

let truncation_horizons t =
  List.filter_map
    (fun row ->
      match row with
      | [| _; Value.String name; Value.Int horizon_block; Value.String "TRUNCATE"; _; _; _; _ |]
        -> (
          match String.split_on_char ':' name with
          | [ "truncate"; hex; max_txn ] -> (
              match int_of_string_opt max_txn with
              | Some m when Hex.is_hex hex ->
                  Some (horizon_block, Hex.decode hex, m)
              | _ -> None)
          | _ -> None)
      | _ -> None)
    (Ledger_table.current_rows t.tables_meta)

(* ------------------------------------------------------------------ *)
(* Replay support *)

let table_by_id t id =
  List.find_map
    (function
      | L lt when Ledger_table.table_id lt = id -> Some (`L lt)
      | R store when Table_store.table_id store = id -> Some (`R store)
      | _ -> None)
    t.tables

let apply_structural_ddl t payload =
  let str name = Sjson.get_string (Sjson.member name payload) in
  let int name = Sjson.get_int (Sjson.member name payload) in
  let ints name = List.map Sjson.get_int (Sjson.get_list (Sjson.member name payload)) in
  let columns name =
    List.map
      (fun cj ->
        match Column.of_json cj with
        | Ok c -> c
        | Error e -> failwith e)
      (Sjson.get_list (Sjson.member name payload))
  in
  let require_ledger id =
    match table_by_id t id with
    | Some (`L lt) -> lt
    | _ -> failwith (Printf.sprintf "no ledger table with id %d" id)
  in
  let require_store id =
    match table_by_id t id with
    | Some (`L lt) -> Ledger_table.main lt
    | Some (`R store) -> store
    | None -> failwith (Printf.sprintf "no table with id %d" id)
  in
  try
    (match str "ddl" with
    | "create_ledger" ->
        let table_id = int "table_id" in
        let kind =
          match str "kind" with
          | "append_only" -> Ledger_table.Append_only
          | _ -> Ledger_table.Updateable
        in
        let lt =
          Ledger_table.create ~name:(str "name") ~table_id
            ~schema:(Schema.make (columns "columns"))
            ~key_ordinals:(ints "key") ~kind
        in
        t.tables <- t.tables @ [ L lt ];
        t.next_table_id <- max t.next_table_id (table_id + 1)
    | "create_regular" ->
        let table_id = int "table_id" in
        let store =
          Table_store.create ~name:(str "name") ~table_id
            ~schema:(Schema.make (columns "columns"))
            ~key_ordinals:(ints "key")
        in
        t.tables <- t.tables @ [ R store ];
        t.next_table_id <- max t.next_table_id (table_id + 1)
    | "rename_table" -> Ledger_table.rename (require_ledger (int "table_id")) (str "new_name")
    | "remove_regular" ->
        let id = int "table_id" in
        t.tables <-
          List.filter
            (function R store -> Table_store.table_id store <> id | L _ -> true)
            t.tables
    | "add_column" ->
        let lt = require_ledger (int "table_id") in
        let column =
          match Column.of_json (Sjson.member "column" payload) with
          | Ok c -> c
          | Error e -> failwith e
        in
        let schema = Schema.add_column (Ledger_table.schema lt) column in
        let pad row = Array.append row [| Value.Null |] in
        Table_store.migrate (Ledger_table.main lt) ~schema ~f:pad;
        (match Ledger_table.history lt with
        | Some h -> Table_store.migrate h ~schema ~f:pad
        | None -> ())
    | "hide_column" ->
        let lt = require_ledger (int "table_id") in
        set_both_schemas lt
          (Schema.hide_column (Ledger_table.schema lt) (str "column"))
    | "alter_column_schema" ->
        (* The structural half of alter_column_type; the repopulation was
           logged as ordinary transaction data. Derivations (mangled name)
           must match alter_column_type exactly. *)
        let lt = require_ledger (int "table_id") in
        let column = str "column" in
        let dtype =
          match Datatype.of_string (str "new_type") with
          | Some d -> d
          | None -> failwith "bad type"
        in
        let schema = Ledger_table.schema lt in
        let dropped_name =
          Printf.sprintf "%s__dropped_%d" column (Schema.arity schema)
        in
        let schema =
          Schema.hide_column
            (Schema.rename_column schema ~old_name:column ~new_name:dropped_name)
            dropped_name
        in
        let schema =
          Schema.add_column schema (Column.make ~nullable:true column dtype)
        in
        let pad row = Array.append row [| Value.Null |] in
        Table_store.migrate (Ledger_table.main lt) ~schema ~f:pad;
        (match Ledger_table.history lt with
        | Some h -> Table_store.migrate h ~schema ~f:pad
        | None -> ())
    | "create_index" ->
        Table_store.create_index
          (require_store (int "table_id"))
          ~name:(str "index") ~key_ordinals:(ints "key")
    | "drop_index" ->
        Table_store.drop_index (require_store (int "table_id")) ~name:(str "index")
    | "create_database" -> () (* header; handled by the replayer *)
    | other -> failwith ("unknown ddl record: " ^ other));
    Ok ()
  with
  | Failure e | Invalid_argument e -> Error e

let refresh_counters t =
  let max_event lt =
    List.fold_left
      (fun acc row -> match row.(0) with Value.Int i -> max acc i | _ -> acc)
      0
      (Ledger_table.current_rows lt)
  in
  t.next_meta_event <-
    1 + max (max_event t.tables_meta) (max_event t.columns_meta);
  t.next_table_id <-
    List.fold_left
      (fun acc -> function
        | L lt -> max acc (Ledger_table.table_id lt + 1)
        | R store -> max acc (Table_store.table_id store + 1))
      t.next_table_id t.tables

(* ------------------------------------------------------------------ *)
(* Snapshot support *)

type raw_state = {
  raw_name : string;
  raw_created : float;
  raw_next_table_id : int;
  raw_next_meta_event : int;
  raw_tables : [ `L of Ledger_table.t | `R of Table_store.t ] list;
  raw_ledger : Database_ledger.t;
}

let expose t =
  {
    raw_name = t.db_name;
    raw_created = t.created;
    raw_next_table_id = t.next_table_id;
    raw_next_meta_event = t.next_meta_event;
    raw_tables =
      List.map (function L lt -> `L lt | R store -> `R store) t.tables;
    raw_ledger = t.dbl;
  }

let assemble ~clock raw =
  let tables =
    List.map (function `L lt -> L lt | `R store -> R store) raw.raw_tables
  in
  let meta_by_id id =
    match
      List.find_opt
        (function L lt -> Ledger_table.table_id lt = id | R _ -> false)
        tables
    with
    | Some (L lt) -> lt
    | _ -> Types.errorf "snapshot is missing metadata table %d" id
  in
  {
    db_name = raw.raw_name;
    db_id = Database_ledger.database_id raw.raw_ledger;
    created = raw.raw_created;
    clock;
    dbl = raw.raw_ledger;
    tables;
    next_table_id = raw.raw_next_table_id;
    next_meta_event = raw.raw_next_meta_event;
    tables_meta = meta_by_id (-10);
    columns_meta = meta_by_id (-11);
  }

(* ------------------------------------------------------------------ *)
(* Snapshots

   An O(tables) frozen view for lock-free readers: every table (user,
   metadata, ledger system) is captured by sharing its COW B+tree roots,
   and the ledger's scalar chain state rides along in the record copy.
   The result is an ordinary [Database.t], so the whole read surface —
   [query], [catalog], [Verifier.verify], [Receipt.generate] — works on
   it unchanged; it must never be handed to a write path. Capture must
   happen while the caller holds the writer side of the server lock (or
   is otherwise the only mutator): the engine applies in-memory effects
   at staging time, so a capture under the writer lock is transactionally
   consistent even before the WAL batch reaches disk. *)

let snapshot t =
  let tables =
    List.map
      (function
        | L lt -> L (Ledger_table.snapshot lt)
        | R store -> R (Table_store.snapshot store))
      t.tables
  in
  let meta_by_id id =
    match
      List.find_opt
        (function L lt -> Ledger_table.table_id lt = id | R _ -> false)
        tables
    with
    | Some (L lt) -> lt
    | _ -> assert false
  in
  {
    t with
    dbl = Database_ledger.snapshot t.dbl;
    tables;
    tables_meta = meta_by_id (-10);
    columns_meta = meta_by_id (-11);
  }

(* ------------------------------------------------------------------ *)
(* Backup / restore *)

let backup t =
  let tables =
    List.map
      (function
        | L lt -> L (Ledger_table.unsafe_copy lt)
        | R store -> R (Table_store.deep_copy store))
      t.tables
  in
  let meta_by_id id =
    match
      List.find_opt
        (function L lt -> Ledger_table.table_id lt = id | R _ -> false)
        tables
    with
    | Some (L lt) -> lt
    | _ -> assert false
  in
  {
    t with
    dbl = Database_ledger.unsafe_copy t.dbl;
    tables;
    tables_meta = meta_by_id (-10);
    columns_meta = meta_by_id (-11);
  }

let restore backup_db ~create_time =
  let copy = backup backup_db in
  {
    copy with
    created = create_time;
    dbl = Database_ledger.with_create_time copy.dbl create_time;
  }
