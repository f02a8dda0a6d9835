open Relation
module Table_store = Storage.Table_store
module Sha256 = Ledger_crypto.Sha256

type undo_op =
  | Undo_ledger_insert of Ledger_table.t * Row.t  (* key *)
  | Undo_ledger_delete of Ledger_table.t * Row.t  (* moved history row *)
  | Undo_plain_insert of Table_store.t * Row.t    (* key *)
  | Undo_plain_update of Table_store.t * Row.t    (* previous row *)
  | Undo_plain_delete of Table_store.t * Row.t    (* deleted row *)

(* Redo is recorded as lightweight ops during DML (rows snapshotted by a
   single Array.copy) and serialized to JSON once, at commit — aborted
   transactions never pay for serialization, and committed ones build the
   tree in one pass instead of per operation. *)
type redo_op =
  | Redo_ledger_insert of { tid : int; seq : int; row : Row.t }
  | Redo_ledger_delete of { tid : int; seq : int; key : Row.t }
  | Redo_plain_insert of { tid : int; row : Row.t }
  | Redo_plain_update of { tid : int; row : Row.t }
  | Redo_plain_delete of { tid : int; key : Row.t }

type state = Active | Prepared of string (* gid *) | Committed | Aborted

type t = {
  txn_id : int;
  txn_user : string;
  ledger : Database_ledger.t;
  clock : unit -> float;
  scratch : Sha256.t;  (* reusable row-hash context, one per transaction *)
  mutable seq : int;
  mutable trees : (int, Merkle.Streaming.t) Hashtbl.t;  (* table_id -> tree *)
  mutable undo : undo_op list;  (* newest first *)
  mutable undo_len : int;       (* length of [undo], kept incrementally *)
  mutable redo : redo_op list;  (* newest first; serialized at commit *)
  mutable state : state;
}

type savepoint = {
  sp_seq : int;
  sp_trees : (int, Merkle.Streaming.t) Hashtbl.t;  (* snapshot copy *)
  sp_undo_len : int;
  sp_redo : redo_op list;
}

let id t = t.txn_id
let user t = t.txn_user
let is_active t = t.state = Active
let prepared_gid t = match t.state with Prepared gid -> Some gid | _ -> None
let operation_count t = t.seq

let begin_txn ~ledger ~user ~clock =
  {
    txn_id = Database_ledger.next_txn_id ledger;
    txn_user = user;
    ledger;
    clock;
    scratch = Sha256.init ();
    seq = 0;
    trees = Hashtbl.create 8;
    undo = [];
    undo_len = 0;
    redo = [];
    state = Active;
  }

let require_active t =
  match t.state with
  | Active -> ()
  | Prepared gid ->
      Types.errorf "transaction %d is prepared for %s and awaits a decision"
        t.txn_id gid
  | Committed -> Types.errorf "transaction %d already committed" t.txn_id
  | Aborted -> Types.errorf "transaction %d already aborted" t.txn_id

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let tagged_row row =
  Sjson.List (List.map Value.to_tagged_json (Array.to_list row))

let redo_to_json = function
  | Redo_ledger_insert { tid; seq; row } ->
      Sjson.Obj
        [
          ("op", Sjson.String "li");
          ("tid", Sjson.Int tid);
          ("seq", Sjson.Int seq);
          ("row", tagged_row row);
        ]
  | Redo_ledger_delete { tid; seq; key } ->
      Sjson.Obj
        [
          ("op", Sjson.String "ld");
          ("tid", Sjson.Int tid);
          ("seq", Sjson.Int seq);
          ("key", tagged_row key);
        ]
  | Redo_plain_insert { tid; row } ->
      Sjson.Obj
        [
          ("op", Sjson.String "pi");
          ("tid", Sjson.Int tid);
          ("row", tagged_row row);
        ]
  | Redo_plain_update { tid; row } ->
      Sjson.Obj
        [
          ("op", Sjson.String "pu");
          ("tid", Sjson.Int tid);
          ("row", tagged_row row);
        ]
  | Redo_plain_delete { tid; key } ->
      Sjson.Obj
        [
          ("op", Sjson.String "pd");
          ("tid", Sjson.Int tid);
          ("key", tagged_row key);
        ]

let log_redo t op = t.redo <- op :: t.redo

let push_undo t op =
  t.undo <- op :: t.undo;
  t.undo_len <- t.undo_len + 1

let add_leaf t table_id leaf =
  let tree =
    match Hashtbl.find_opt t.trees table_id with
    | Some tree -> tree
    | None -> Merkle.Streaming.empty
  in
  Hashtbl.replace t.trees table_id (Merkle.Streaming.add_leaf tree leaf)

let insert t lt user_row =
  require_active t;
  let seq = next_seq t in
  let stored, hash =
    Ledger_table.insert_version ~ctx:t.scratch lt ~txn_id:t.txn_id ~seq
      user_row
  in
  add_leaf t (Ledger_table.table_id lt) hash;
  log_redo t
    (Redo_ledger_insert
       {
         tid = Ledger_table.table_id lt;
         seq;
         row = Array.copy user_row;
       });
  push_undo t
    (Undo_ledger_insert (lt, Table_store.primary_key (Ledger_table.main lt) stored))

let delete t lt ~key =
  require_active t;
  let seq = next_seq t in
  let moved, hash =
    Ledger_table.delete_version ~ctx:t.scratch lt ~txn_id:t.txn_id ~seq ~key
  in
  add_leaf t (Ledger_table.table_id lt) hash;
  log_redo t
    (Redo_ledger_delete
       { tid = Ledger_table.table_id lt; seq; key = Array.copy key });
  push_undo t (Undo_ledger_delete (lt, moved))

let update t lt ~key new_user_row =
  require_active t;
  (* Hash order per §4.1.2: the version before the update, then after. *)
  delete t lt ~key;
  insert t lt new_user_row

let plain_insert t store row =
  require_active t;
  Table_store.insert store row;
  log_redo t
    (Redo_plain_insert
       { tid = Table_store.table_id store; row = Array.copy row });
  push_undo t (Undo_plain_insert (store, Table_store.primary_key store row))

let plain_update t store row =
  require_active t;
  let key = Table_store.primary_key store row in
  (match Table_store.find store ~key with
  | None ->
      raise
        (Table_store.Not_found_key (Table_store.name store))
  | Some old_row ->
      Table_store.update store row;
      log_redo t
        (Redo_plain_update
           { tid = Table_store.table_id store; row = Array.copy row });
      push_undo t (Undo_plain_update (store, old_row)))

let plain_delete t store ~key =
  require_active t;
  let old_row = Table_store.delete store ~key in
  log_redo t
    (Redo_plain_delete
       { tid = Table_store.table_id store; key = Array.copy key });
  push_undo t (Undo_plain_delete (store, old_row))

let apply_undo = function
  | Undo_ledger_insert (lt, key) -> Ledger_table.undo_insert lt ~key
  | Undo_ledger_delete (lt, moved) -> Ledger_table.undo_delete lt moved
  | Undo_plain_insert (store, key) ->
      ignore (Table_store.delete store ~key : Row.t)
  | Undo_plain_update (store, old_row) -> Table_store.update store old_row
  | Undo_plain_delete (store, old_row) -> Table_store.insert store old_row

let savepoint t =
  require_active t;
  {
    sp_seq = t.seq;
    (* Streaming trees are immutable values, so a shallow copy of the table
       is a full snapshot. *)
    sp_trees = Hashtbl.copy t.trees;
    sp_undo_len = t.undo_len;
    sp_redo = t.redo;
  }

let rollback_to t sp =
  require_active t;
  let excess = t.undo_len - sp.sp_undo_len in
  if excess < 0 then
    Types.errorf "savepoint is no longer valid (outer rollback occurred)";
  let rec drop n ops =
    if n = 0 then ops
    else
      match ops with
      | [] -> assert false
      | op :: rest ->
          apply_undo op;
          drop (n - 1) rest
  in
  t.undo <- drop excess t.undo;
  t.undo_len <- sp.sp_undo_len;
  (* Copy again so the savepoint survives repeated rollbacks. *)
  t.trees <- Hashtbl.copy sp.sp_trees;
  t.redo <- sp.sp_redo;
  t.seq <- sp.sp_seq

let rollback t =
  let prepared = prepared_gid t <> None in
  if not prepared then require_active t;
  List.iter apply_undo t.undo;
  t.undo <- [];
  t.undo_len <- 0;
  t.redo <- [];
  Hashtbl.reset t.trees;
  t.state <- Aborted;
  (* Only a prepared transaction has reached the log. Its ABORT is the
     coordinator's decision, acknowledged only once durable. *)
  if prepared then
    Database_ledger.publish t.ledger
      [ Aries.Log_record.Abort { txn_id = t.txn_id } ]

let table_roots t =
  Hashtbl.fold
    (fun tid tree acc -> (tid, Merkle.Streaming.root tree) :: acc)
    t.trees []

(* BEGIN and the logical redo, built once from the lightweight op log. *)
let opening_records t =
  Aries.Log_record.Begin { txn_id = t.txn_id }
  ::
  (if t.redo = [] then []
   else
     [
       Aries.Log_record.Data
         {
           txn_id = t.txn_id;
           ops = Sjson.List (List.rev_map redo_to_json t.redo);
         };
     ])

(* The ledger entry and its records (COMMIT, and BLOCK_CLOSE when the
   block fills); the transaction is committed in the engine from here. *)
let stage_ledger_commit t =
  let staged =
    Database_ledger.stage_commit t.ledger ~txn_id:t.txn_id
      ~commit_ts:(t.clock ()) ~user:t.txn_user ~table_roots:(table_roots t)
  in
  t.state <- Committed;
  staged

let stage_commit t =
  require_active t;
  let entry, ledger_records = stage_ledger_commit t in
  (entry, opening_records t @ ledger_records)

let commit t =
  let entry, records = stage_commit t in
  Database_ledger.publish t.ledger records;
  entry

(* ------------------------------------------------------------------ *)
(* Two-phase commit, participant side.

   [prepare] publishes the transaction's BEGIN, redo and a PREPARE marker
   as one batch, but no COMMIT, and leaves the in-memory effects in place
   — the caller must keep holding the write lock until the decision.
   [decide_commit] then publishes the COMMIT record, which doubles as the
   durable decision marker (replay only applies DATA for txn_ids that
   have one); [rollback] of a prepared transaction publishes its ABORT. *)

let prepare t ~gid =
  require_active t;
  let table_roots = table_roots t in
  Database_ledger.publish t.ledger
    (opening_records t
    @ [
        Aries.Log_record.Prepare
          { gid; txn_id = t.txn_id; user = t.txn_user; table_roots };
      ]);
  t.state <- Prepared gid;
  table_roots

let decide_commit t =
  match t.state with
  | Prepared _ ->
      let entry, records = stage_ledger_commit t in
      Database_ledger.publish t.ledger records;
      entry
  | _ -> Types.errorf "transaction %d is not prepared" t.txn_id

let table_root t lt =
  match Hashtbl.find_opt t.trees (Ledger_table.table_id lt) with
  | Some tree -> Merkle.Streaming.root tree
  | None -> Merkle.Streaming.empty_root
