open Relation
module Ast = Sqlexec.Ast
module Executor = Sqlexec.Executor
module Table_store = Storage.Table_store

type result = Rows of Sqlexec.Rel.t | Affected of int

let err fmt = Printf.ksprintf (fun s -> raise (Executor.Exec_error s)) fmt

(* Evaluate an expression against one row of the target table by running a
   one-row probe query through the executor, so DML expressions get exactly
   the SELECT expression semantics (functions, 3VL, CASE, ...). *)
let eval_against db ~table_name ~columns ~row expr =
  let catalog = Database.catalog db in
  let probe_catalog =
    {
      Executor.lookup_table =
        (fun name ->
          if String.equal (String.lowercase_ascii name) "__dml_probe" then
            Some (columns, [ row ])
          else catalog.Executor.lookup_table name);
      lookup_table_as_of = catalog.Executor.lookup_table_as_of;
      functions = catalog.Executor.functions;
    }
  in
  let probe =
    Ast.select
      ~from:
        (Ast.Table
           { name = "__dml_probe"; alias = Some table_name; as_of = None })
      [ Ast.Expr (expr, Some "v") ]
  in
  match (Executor.execute probe_catalog probe).Sqlexec.Rel.rows with
  | [ out ] -> out.(0)
  | _ -> err "internal: single-row evaluation"

let const_value db expr =
  eval_against db ~table_name:"__const" ~columns:[] ~row:[||] expr

type target = Ledger of Ledger_table.t | Regular of Table_store.t

let find_target db name =
  match Database.find_ledger_table db name with
  | Some lt -> Ledger lt
  | None -> (
      match Database.regular_table db name with
      | store -> Regular store
      | exception Types.Ledger_error _ -> err "unknown table %s" name)

let column_names_of = function
  | Ledger lt ->
      let schema = Ledger_table.schema lt in
      List.map
        (fun i -> (Schema.column schema i).Column.name)
        (Ledger_table.user_ordinals lt)
  | Regular store ->
      List.map
        (fun (c : Column.t) -> c.name)
        (Schema.columns (Table_store.schema store))

let current_user_rows = function
  | Ledger lt ->
      List.map (Ledger_table.user_row lt) (Ledger_table.current_rows lt)
  | Regular store -> Table_store.scan store

(* Extract the primary key of a user row. For ledger tables the key ordinals
   index the stored row; map them back through the user-column ordinals. *)
let key_of target row =
  match target with
  | Ledger lt ->
      let schema = Ledger_table.schema lt in
      let user_ords = Ledger_table.user_ordinals lt in
      Table_store.key_ordinals (Ledger_table.main lt)
      |> List.map (fun stored_ord ->
             match
               List.mapi (fun i o -> (i, o)) user_ords
               |> List.find_opt (fun (_, o) -> o = stored_ord)
             with
             | Some (i, _) -> row.(i)
             | None ->
                 Types.errorf "key column %s is not a user column"
                   (Schema.column schema stored_ord).Column.name)
      |> Array.of_list
  | Regular store -> Table_store.primary_key store row

let filter_rows db ~table_name ~columns where rows =
  match where with
  | None -> rows
  | Some cond ->
      List.filter
        (fun row ->
          match eval_against db ~table_name ~columns ~row cond with
          | Value.Bool true -> true
          | _ -> false)
        rows

(* Point-lookup fast path: WHERE <pk> = <literal> on a single-column
   primary key resolves through the store's clustered B-tree instead of
   materialising and filtering every current row. Auto-commit DML from
   the server is dominated by exactly this shape, and the scan-and-probe
   fallback is O(table size) per statement. Both paths compare with
   [Value.compare] (the B-tree's key order and the executor's [=]), so
   the victim set is identical. *)
let eq_literal ~table_name where =
  let literal = function
    | Ast.Lit v -> Some v
    | Ast.Neg (Ast.Lit (Value.Int i)) -> Some (Value.Int (-i))
    | Ast.Neg (Ast.Lit (Value.Float f)) -> Some (Value.Float (-.f))
    | _ -> None
  in
  let table_ok = function
    | None -> true
    | Some t -> String.lowercase_ascii t = String.lowercase_ascii table_name
  in
  let accept ~table ~column e =
    if table_ok table then
      match literal e with
      | Some v when not (Value.is_null v) -> Some (column, v)
      | _ -> None
    else None
  in
  match where with
  | Some (Ast.Binop (Ast.Eq, Ast.Col { table; column }, e))
  | Some (Ast.Binop (Ast.Eq, e, Ast.Col { table; column })) ->
      accept ~table ~column e
  | _ -> None

let single_key_column store schema =
  match Table_store.key_ordinals store with
  | [ o ] -> Some (String.lowercase_ascii (Schema.column schema o).Column.name)
  | _ -> None

let point_lookup target ~table_name where =
  match eq_literal ~table_name where with
  | None -> None
  | Some (column, v) -> (
      let col = String.lowercase_ascii column in
      let store, schema, of_stored =
        match target with
        | Ledger lt ->
            (Ledger_table.main lt, Ledger_table.schema lt, Ledger_table.user_row lt)
        | Regular store -> (store, Table_store.schema store, Fun.id)
      in
      match single_key_column store schema with
      | Some key_col when key_col = col ->
          Some
            (match Table_store.find store ~key:[| v |] with
            | Some stored -> [ of_stored stored ]
            | None -> [])
      | _ -> None)

(* The same shortcut for the bare point SELECT the wire workloads issue:
   SELECT * FROM t WHERE <pk> = <literal>, no modifiers. Anything fancier
   falls through to the relational executor, as do the catalog's derived
   relations (__versions / __ledger_view / __history and the two
   database-ledger system tables), whose names would otherwise shadow a
   same-named base table here. The projection mirrors the catalog's:
   visible stored columns for ledger tables, the full schema for regular
   ones. *)
let catalog_special name =
  let k = String.lowercase_ascii name in
  let suffixed s =
    String.length k > String.length s
    && String.sub k (String.length k - String.length s) (String.length s) = s
  in
  k = "database_ledger_transactions"
  || k = "database_ledger_blocks"
  || List.exists suffixed [ "__versions"; "__ledger_view"; "__history"; "_ledger" ]

let select_point_lookup db (q : Ast.select) =
  match q with
  | {
   distinct = false;
   projections = [ Ast.Star ];
   from = Some (Ast.Table { name; alias; as_of = None });
   where = Some _;
   group_by = [];
   having = None;
   order_by = [];
   limit = None;
  }
    when not (catalog_special name) -> (
      match find_target db name with
      | exception Executor.Exec_error _ -> None
      | exception Types.Ledger_error _ -> None
      | target -> (
          let label = Option.value alias ~default:name in
          match eq_literal ~table_name:label q.where with
          | None -> None
          | Some (column, v) -> (
              let col = String.lowercase_ascii column in
              let store =
                match target with
                | Ledger lt -> Ledger_table.main lt
                | Regular store -> store
              in
              let schema = Table_store.schema store in
              match single_key_column store schema with
              | Some key_col when key_col = col ->
                  let stored = Table_store.find store ~key:[| v |] in
                  let names, rows =
                    match target with
                    | Ledger _ ->
                        let vis = Schema.visible_columns schema in
                        let ords = List.map fst vis in
                        ( List.map (fun (_, (c : Column.t)) -> c.name) vis,
                          match stored with
                          | Some r -> [ Row.project r ords ]
                          | None -> [] )
                    | Regular _ ->
                        ( List.map
                            (fun (c : Column.t) -> c.name)
                            (Schema.columns schema),
                          match stored with Some r -> [ r ] | None -> [] )
                  in
                  Some (Sqlexec.Rel.make ~alias:label names rows)
              | _ -> None)))
  | _ -> None

(* With [?txn] the statement runs inside that open (session-level)
   transaction instead of an auto-commit one; a savepoint keeps failed
   statements atomic without aborting the enclosing transaction. *)
let execute_statement ?txn db ~user statement =
  let run f =
    match txn with
    | None ->
        let (), _ = Database.with_txn db ~user f in
        ()
    | Some t ->
        let sp = Txn.savepoint t in
        (try f t
         with e ->
           Txn.rollback_to t sp;
           raise e)
  in
  match statement with
  | Ast.Select q ->
      Rows
        (match select_point_lookup db q with
        | Some rel -> rel
        | None -> Executor.execute (Database.catalog db) q)
  | Ast.Insert { table; columns; rows } ->
      let target = find_target db table in
      let table_columns = column_names_of target in
      let build_row values_exprs =
        let values = List.map (const_value db) values_exprs in
        match columns with
        | None ->
            if List.length values <> List.length table_columns then
              err "INSERT arity mismatch: table %s has %d columns" table
                (List.length table_columns);
            Array.of_list values
        | Some names ->
            if List.length names <> List.length values then
              err "INSERT column/value count mismatch";
            let assoc =
              List.map2 (fun n v -> (String.lowercase_ascii n, v)) names values
            in
            Array.of_list
              (List.map
                 (fun c ->
                   Option.value
                     (List.assoc_opt (String.lowercase_ascii c) assoc)
                     ~default:Value.Null)
                 table_columns)
      in
      let built = List.map build_row rows in
      run (fun txn ->
          List.iter
            (fun row ->
              match target with
              | Ledger lt -> Txn.insert txn lt row
              | Regular store -> Txn.plain_insert txn store row)
            built);
      Affected (List.length built)
  | Ast.Update { table; assignments; where } ->
      let target = find_target db table in
      let table_columns = column_names_of target in
      let resolved =
        List.map
          (fun (c, e) ->
            let key = String.lowercase_ascii c in
            let rec index i = function
              | [] -> err "no column %s in %s" c table
              | n :: _ when String.equal (String.lowercase_ascii n) key -> i
              | _ :: rest -> index (i + 1) rest
            in
            (index 0 table_columns, e))
          assignments
      in
      let victims =
        match point_lookup target ~table_name:table where with
        | Some rows -> rows
        | None ->
            filter_rows db ~table_name:table ~columns:table_columns where
              (current_user_rows target)
      in
      run (fun txn ->
          List.iter
            (fun row ->
              let key = key_of target row in
              let updated =
                List.fold_left
                  (fun acc (i, e) ->
                    Row.set acc i
                      (eval_against db ~table_name:table
                         ~columns:table_columns ~row e))
                  row resolved
              in
              match target with
              | Ledger lt -> Txn.update txn lt ~key updated
              | Regular store ->
                  let new_key = Table_store.primary_key store updated in
                  if Row.equal key new_key then
                    Txn.plain_update txn store updated
                  else begin
                    Txn.plain_delete txn store ~key;
                    Txn.plain_insert txn store updated
                  end)
            victims);
      Affected (List.length victims)
  | Ast.Delete { table; where } ->
      let target = find_target db table in
      let table_columns = column_names_of target in
      let victims =
        match point_lookup target ~table_name:table where with
        | Some rows -> rows
        | None ->
            filter_rows db ~table_name:table ~columns:table_columns where
              (current_user_rows target)
      in
      run (fun txn ->
          List.iter
            (fun row ->
              let key = key_of target row in
              match target with
              | Ledger lt -> Txn.delete txn lt ~key
              | Regular store -> Txn.plain_delete txn store ~key)
            victims);
      Affected (List.length victims)

type staged = {
  staged_entry : Types.txn_entry;
  staged_records : Aries.Log_record.t list;
}

(* Group commit: run an auto-commit statement but stop before the WAL
   publish. The statement executes in its own transaction — all in-memory
   effects are applied and the transaction is marked committed — and the
   WAL records come back for a commit leader to publish in one batch.
   [None] for statements with nothing to persist (SELECTs). The caller
   must hold the engine's writer lock across the call and must enqueue
   the records for publication before releasing it, so batch order equals
   execution order. *)
let execute_statement_staged db ~user statement =
  match statement with
  | Ast.Select _ -> (execute_statement db ~user statement, None)
  | _ -> (
      let txn = Database.begin_txn db ~user in
      match execute_statement ~txn db ~user statement with
      | result ->
          let staged_entry, staged_records = Txn.stage_commit txn in
          (result, Some { staged_entry; staged_records })
      | exception e ->
          if Txn.is_active txn then Txn.rollback txn;
          raise e)

let execute ?txn db ~user text =
  execute_statement ?txn db ~user (Sqlexec.Parser.parse_statement text)

let pp_result fmt = function
  | Rows rel -> Sqlexec.Rel.pp fmt rel
  | Affected n -> Format.fprintf fmt "%d row(s) affected" n
